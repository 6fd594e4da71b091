"""End-to-end guarantees, one test per criterion.

Each test here is a complete statement of one observable property of the
package: exact spectra, the loss/factorization identity, spectrum and
tail-energy orderings, optimizer and probe behavior, trained-model
generation bounds, two-stream independence, sampler laws, and
byte-identical reruns. The conftest hook prints a PASS/FAIL line per
criterion after the run. Trained models are cached at module level so the
bound, per-step, and variable-ratio checks score the same runs.
"""

import functools
import itertools
import os
import time

import numpy as np
import pytest

import oracles
from cospec import decomposition as dec
from cospec import generation as gen
from cospec import twostream as ts
from cospec.cooccurrence import build_ar_joint, normalize, unmasked_count
from cospec.experiments import (
    derive_rng,
    load_config,
    max_query_drift,
    run_experiment,
)
from cospec.objectives import exact_joint, parse_objective, sample_pairs
from cospec.spectral import (
    exact_ar_spectrum,
    predicted_masked_spectrum,
    singular_spectrum,
    tail_energy,
)
from cospec.toy_model import ToyParams, sample_sequence

GRID = [
    ToyParams(r, s, T)
    for r, s, T in itertools.product((1, 2, 3), (3, 4, 5), (1, 2, 3))
]


def grid_instances():
    """Every (params, objective) pair that has a closed-form spectrum."""
    out = []
    for params in GRID:
        out.append((params, parse_objective("ar")))
        # mask ratio m/s needs m >= 2 so that more than one position is hidden
        for m in range(2, params.s):
            out.append((params, parse_objective(f"masked:{m / params.s!r}")))
    return out


def test_c01_closed_form_spectra_match_built_joints():
    start = time.monotonic()
    instances = grid_instances()
    assert len(instances) == 81
    worst = 0.0
    for params, spec in instances:
        numeric = singular_spectrum(normalize(exact_joint(spec, params)))
        if spec.width == 1:
            closed = exact_ar_spectrum(params)
        else:
            closed = predicted_masked_spectrum(params, spec.rho_lo,
                                               spec.rho_hi)
        n = max(len(numeric), len(closed))
        err = float(np.max(np.abs(oracles.padded(numeric, n)
                                  - oracles.padded(closed, n))))
        worst = max(worst, err)
    assert worst < 1e-10
    assert time.monotonic() - start < 60.0


def test_c02_factorization_identity_residual_bounded():
    start = time.monotonic()
    params = ToyParams(2, 4, 2)
    dims = (1, 2, 4)
    for label in ("ar", "masked:0.5", "dar:2", "vlm:0.5-0.75"):
        joint = exact_joint(parse_objective(label), params)
        for trial in range(100):
            rng = derive_rng(0, "c02", label, str(trial))
            t = dims[trial % len(dims)]
            f = rng.standard_normal((len(joint.tokens), t))
            w = rng.standard_normal((t, len(joint.cols)))
            assert dec.identity_residual(f, w, joint) < 1e-9
    assert time.monotonic() - start < 30.0


def test_c03_masked_spectrum_elementwise_below_ar():
    for params, spec in grid_instances():
        if spec.width is not None:
            continue
        n = params.r * params.s
        ar = oracles.predicted_ar_spectrum(params)
        masked = predicted_masked_spectrum(params, spec.rho_lo, spec.rho_hi)
        ar_vals = oracles.padded(ar, n)
        masked_vals = oracles.padded(masked, n)
        where = (params, spec.label())
        assert np.all(masked_vals <= ar_vals + 1e-12), where
        # strictly smaller past the class directions
        strict = slice(params.r, n)
        assert np.all(masked_vals[strict] < ar_vals[strict] - 1e-9), where
        assert tail_energy(masked, params.r) < tail_energy(ar, params.r), where

    params = ToyParams(2, 4, 2)
    masked = predicted_masked_spectrum(params, 0.5, 0.5)
    ar = oracles.predicted_ar_spectrum(params)
    assert tail_energy(masked, 2) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert tail_energy(masked, 2) == pytest.approx(0.667, abs=5e-4)
    assert tail_energy(ar, 2) == pytest.approx(6.0, rel=1e-12)


def test_c04_lookahead_window_shrinks_tail_energy():
    params = ToyParams(2, 4, 2)
    t = params.r

    def built_tail(label):
        m = normalize(exact_joint(parse_objective(label), params))
        return tail_energy(singular_spectrum(m), t)

    ar_tail = built_tail("ar")
    dar_tail = built_tail("dar:2")
    assert dar_tail < ar_tail - 1e-6
    assert dar_tail == pytest.approx(19.0 / 18.0, rel=1e-9)
    assert ar_tail == pytest.approx(4.0, rel=1e-9)


def test_c05_gd_factorization_reaches_svd_optimum():
    for params, spec in grid_instances():
        m = normalize(exact_joint(spec, params))
        for t_nominal in (params.r, params.r + 2):
            t = min(t_nominal, min(m.shape))
            optimal = dec.decomposition_objective(*dec.optimal_features(m, t),
                                                  m)
            run = dec.gd_factorize(
                m, t, lr=0.1, steps=6000,
                rng=derive_rng(
                    0, "c05", spec.label(), str(params.r), str(params.s),
                    str(params.T), str(t_nominal),
                ),
            )
            where = (params, spec.label(), t)
            assert run.converged, where
            if optimal > 1e-9:
                assert run.objective <= optimal * 1.001, where
            else:
                assert run.objective <= 1e-6, where

    # analytic factor gradients against central differences
    m = normalize(exact_joint(parse_objective("masked:0.5"), ToyParams(2, 4, 2)))
    rng = derive_rng(0, "c05", "fd")
    f = rng.standard_normal((m.shape[0], 2))
    g = rng.standard_normal((m.shape[1], 2))
    grad_row, grad_col = oracles.factor_gradients(f, g, m)

    def obj_rows(flat):
        return dec.decomposition_objective(flat.reshape(f.shape), g, m)

    def obj_cols(flat):
        return dec.decomposition_objective(f, flat.reshape(g.shape), m)

    np.testing.assert_allclose(
        grad_row.ravel(), oracles.fd_gradient(obj_rows, f.ravel()),
        rtol=1e-5, atol=1e-8,
    )
    np.testing.assert_allclose(
        grad_col.ravel(), oracles.fd_gradient(obj_cols, g.ravel()),
        rtol=1e-5, atol=1e-8,
    )


def test_c06_linear_probe_exact_at_class_rank():
    # masked features only: their top-r directions are strictly separated
    # from the rest, so the class split is unambiguous at every grid point
    for params, spec in grid_instances():
        if spec.width is not None:
            continue
        x, labels, weights = dec.probe_features_for_joint(
            exact_joint(spec, params), params.r, params
        )
        probe = dec.linear_probe(x, labels, reg=1e-8, weights=weights)
        assert probe.error == 0.0, (params, spec.label())

        # same argmax after any invertible change of feature basis
        rng = derive_rng(
            0, "c06", spec.label(), str(params.r), str(params.s), str(params.T)
        )
        t = x.shape[1]
        while True:
            mix = np.eye(t) + 0.5 * rng.standard_normal((t, t))
            if abs(np.linalg.det(mix)) > 0.1:
                break
        mixed_probe = dec.linear_probe(
            x @ mix, labels, reg=1e-8, weights=weights
        )
        assert (oracles.probe_predict(probe, x)
                == oracles.probe_predict(mixed_probe, x @ mix))


T_FIXED = 2
_trained_cache = {}


@functools.cache
def _ar_joint(params):
    """The `ar` joint that generation is scored on, built once per size."""
    return build_ar_joint(params)


def _trained(label, r, s, seed_i):
    """Train once per (objective, size, seed); share across criteria."""
    key = (label, r, s, seed_i)
    if key not in _trained_cache:
        params = ToyParams(r, s, T_FIXED)
        spec = parse_objective(label)
        rng = derive_rng(seed_i, "acceptance", label, str(r), str(s))
        joint = exact_joint(spec, params)
        model = gen.train_model(joint, params, gen.TrainSettings(), rng).model
        _trained_cache[key] = (model, gen.gen_loss(model, _ar_joint(params)))
    return _trained_cache[key]


def test_c07_masked_generation_bound_holds():
    combos = [
        (r, s, rho)
        for r in (1, 2)
        for s in (6, 8)
        for rho in (0.5, 0.75)
        if (s * (1.0 - rho)) % 1.0 == 0.0  # s=6 cannot hide 3/4 of 6 positions
    ]
    assert len(combos) == 6
    for r, s, rho in combos:
        params = ToyParams(r, s, T_FIXED)
        joint = exact_joint(parse_objective(f"masked:{rho}"), params)
        u = unmasked_count(s, rho)
        for seed_i in range(10):
            model, scored = _trained(f"masked:{rho}", r, s, seed_i)
            bound = gen.generation_bound_terms(model, joint, u)["bound"]
            assert scored["gen_loss"] <= bound + 1e-9, (r, s, rho, seed_i)
    params = ToyParams(1, 8, T_FIXED)
    terms = gen.generation_bound_terms(
        _trained("masked:0.5", 1, 8, 0)[0],
        exact_joint(parse_objective("masked:0.5"), params), 4,
    )
    assert terms["weights"][3] == 56.0


def test_c08_per_step_loss_rank_correlation_negative():
    for r in (1, 2):
        for s in (6, 8):
            u = s // 2  # half the positions stay visible
            ks = list(range(2, u + 1))
            wins = 0
            for seed_i in range(10):
                _, scored = _trained("masked:0.5", r, s, seed_i)
                losses = [scored["per_position"][k] for k in ks]
                if oracles.spearman(ks, losses) < 0.0:
                    wins += 1
            assert wins >= 8, (r, s, wins)


def test_c09_variable_ratio_beats_worst_fixed_ratio():
    s = 8
    for r in (1, 2):
        wins = 0
        for seed_i in range(10):
            _, mixed = _trained("vlm:0.5-0.75", r, s, seed_i)
            _, low = _trained("masked:0.5", r, s, seed_i)
            _, high = _trained("masked:0.75", r, s, seed_i)
            if mixed["gen_loss"] <= max(low["gen_loss"], high["gen_loss"]) + 1e-12:
                wins += 1
        assert wins >= 8, (r, wins)


def test_c10_query_stream_ignores_forbidden_positions():
    for s in range(2, 7):
        params = ToyParams(2, s, 2)
        model = ts.init_two_stream(params, dim=6, rng=derive_rng(0, "c10", str(s)))
        for a in oracles.enumerate_assignments(s):
            rng = derive_rng(0, "c10", str(s), "-".join(map(str, a)))
            assert max_query_drift(model, a, params, rng, trials=2) <= 1e-12

    # one group per position reproduces plain next-token prediction
    for s in (3, 4, 5, 6):
        params = ToyParams(2, s, 2)
        model = ts.init_two_stream(params, dim=6, rng=derive_rng(1, "c10", str(s)))
        a = ts.partition_groups(s, 1, 1)
        for i in range(3):
            rng = derive_rng(2, "c10", str(s), str(i))
            label = int(rng.integers(1, params.r + 1))
            x = sample_sequence(params, label, rng)
            mine = oracles.semi_ar_loss(model, x, a, params)
            ref = oracles.ar_reference_loss(model, x, params)
            assert abs(mine - ref) <= 1e-12, (s, i)


def test_c11_grouped_prediction_law_matches_sampler():
    draws = 10**6
    spec = parse_objective("dar:2")
    for s in (3, 5):  # window 2 divides s - 1 at these lengths
        params = ToyParams(1, s, 2)
        x = oracles.enumerate_sequences(params)[0]
        rng = derive_rng(0, "c11", str(s))
        texts, targets = sample_pairs(spec, np.tile(x, (draws, 1)), rng)
        # count (prefix length, target position); ids are position-major
        lengths = (texts >= 0).sum(axis=1)
        where = targets // (params.r * params.T) + 1
        counts = np.bincount(lengths * (s + 1) + where,
                             minlength=s * (s + 1)).reshape(s, s + 1)
        empirical = {pair: n / draws
                     for pair, n in np.ndenumerate(counts) if n}
        law = oracles.prediction_weights(s, 2)
        assert oracles.tv_distance(empirical, law) < 0.01, s


RERUN_CONFIGS = [
    {"experiment": "spectrum", "params": {"r": 2, "s": 4, "T": 2},
     "objectives": ["ar", "masked:0.5", "dar:2"], "seed": 5},
    {"experiment": "identity", "params": {"r": 2, "s": 4, "T": 2},
     "objectives": ["ar", "masked:0.5"], "trials": 20, "seed": 5},
    {"experiment": "factorize", "params": {"r": 2, "s": 3, "T": 2},
     "objectives": ["ar"], "rank": 2, "seed": 5},
    {"experiment": "probe", "params": {"r": 2, "s": 4, "T": 2},
     "objectives": ["masked:0.5"], "rank": 2, "seed": 5},
    {"experiment": "genbound", "params": {"r": 1, "s": 4, "T": 2},
     "objectives": ["ar", "masked:0.5"], "train": {"steps": 150}, "seed": 5},
    {"experiment": "masks", "params": {"r": 2, "s": 5, "T": 2},
     "assignment": "g1=1,t=2", "trials": 4, "seed": 5},
    {"experiment": "sweep", "params": {"r": 1, "s": 4, "T": 2},
     "objectives": ["ar", "masked:0.5"], "train": {"steps": 120},
     "seeds": 2, "seed": 5},
]


def test_c12_reruns_are_byte_identical(tmp_path):
    for payload in RERUN_CONFIGS:
        cfg = load_config(payload)
        dirs = [tmp_path / f"{payload['experiment']}_{tag}" for tag in "ab"]
        for d in dirs:
            run_experiment(cfg, d)
        names = sorted(os.listdir(dirs[0]))
        assert names, payload["experiment"]
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, (payload["experiment"], name)
