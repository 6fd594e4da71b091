"""Loss/factorization identity, SVD optimum, GD factorizer, and the probe."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import oracles
from cospec.cooccurrence import (
    build_ar_joint,
    build_masked_joint,
    normalize,
)
from cospec.decomposition import (
    decomposition_objective,
    gd_factorize,
    identity_residual,
    linear_probe,
    optimal_features,
    probe_features_for_joint,
    save_factor_pair,
    spectral_loss,
)
from cospec.errors import DomainError, NumericError, ResourceError
from cospec.experiments import derive_rng
from cospec.objectives import exact_joint, parse_objective
from cospec.toy_model import ToyParams


def random_maps(joint, dim, rng):
    enc = rng.standard_normal((len(joint.tokens), dim))
    emb = rng.standard_normal((dim, len(joint.cols)))
    return enc, emb


def test_zero_encoder_gives_zero_loss():
    joint = build_ar_joint(ToyParams(1, 3, 2))
    enc = np.zeros((len(joint.tokens), 2))
    emb = np.zeros((2, len(joint.cols)))
    assert spectral_loss(enc, emb, joint) == 0.0


def test_perfectly_aligned_single_entry_scores_minus_one():
    # one (conditional, target) pair with unit mass and a unit score:
    # doubled alignment -2 plus unit contrast +1
    text = oracles.prefix_text([0])
    joint = oracles.from_entries({(text, 1): 1.0})
    enc = np.array([[1.0]])
    emb = np.array([[1.0]])
    assert spectral_loss(enc, emb, joint) == pytest.approx(-1.0)
    assert identity_residual(enc, emb, joint) < 1e-12


@pytest.mark.parametrize(
    "joint",
    [
        build_ar_joint(ToyParams(2, 3, 2)),
        build_masked_joint(ToyParams(2, 4, 2), 0.5),
        build_masked_joint(ToyParams(1, 4, 2), 0.75),
    ],
    ids=["ar", "masked", "masked-small"],
)
def test_identity_residual_vanishes_on_corpus_joints(joint):
    for trial in range(25):
        rng = np.random.default_rng(trial)
        enc, emb = random_maps(joint, dim=1 + trial % 4, rng=rng)
        assert identity_residual(enc, emb, joint) < 1e-9


@given(
    values=st.lists(st.floats(0.001, 1.0), min_size=6, max_size=6),
    dim=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60)
def test_identity_residual_vanishes_on_arbitrary_joints(values, dim, seed):
    rows = [oracles.prefix_text([i]) for i in range(3)]
    keys = [(rows[i], 3 + j) for i in range(3) for j in range(2)]
    joint = oracles.from_entries(dict(zip(keys, values)))
    enc, emb = random_maps(joint, dim, np.random.default_rng(seed))
    assert identity_residual(enc, emb, joint) < 1e-9


def test_identity_holds_for_zero_and_scaled_maps():
    joint = build_masked_joint(ToyParams(2, 4, 2), 0.5)
    rng = np.random.default_rng(0)
    enc, emb = random_maps(joint, 3, rng)
    for scale in (0.0, 0.1, 10.0):
        scaled = scale * enc
        assert identity_residual(scaled, emb, joint) < 1e-9


def test_optimal_objective_is_squared_tail():
    m = normalize(build_ar_joint(ToyParams(2, 3, 2)))
    # four unit singular values; rank 2 leaves the other two
    f, g = optimal_features(m, 2)
    assert decomposition_objective(f, g, m) == pytest.approx(2.0, abs=1e-9)
    f, g = optimal_features(m, min(m.shape))
    assert decomposition_objective(f, g, m) < 1e-18
    with pytest.raises(DomainError, match=r"shape \(4, 8\) does not match "
                       r"matrix shape \(12, 8\)"):
        decomposition_objective(f[:4], g, m)


def test_stated_next_token_tail_would_be_larger():
    # the overcounting closed form (rs unit values) puts the rank-2 tail at
    # rs - 2 = 4; the built matrix achieves 2 (see exact_ar_spectrum)
    params = ToyParams(2, 3, 2)
    predicted = oracles.predicted_ar_spectrum(params)
    assert float(np.sum(predicted[2:] ** 2)) == pytest.approx(4.0)


def test_masked_optimal_objective_closed_form():
    m = normalize(build_masked_joint(ToyParams(2, 4, 2), 0.5))
    f, g = optimal_features(m, 2)
    # r(s-1) middle values of sqrt(1/3) remain past the r unit values
    assert decomposition_objective(f, g, m) == pytest.approx(2.0, abs=1e-9)


def test_optimal_features_validates_rank():
    m = normalize(build_ar_joint(ToyParams(1, 3, 1)))
    with pytest.raises(DomainError):
        optimal_features(m, 0)
    with pytest.raises(DomainError):
        optimal_features(m, 3)


@pytest.mark.parametrize("label, params", [
    ("masked:0.5", ToyParams(2, 8, 2)), ("dar:2", ToyParams(2, 8, 2)),
    ("vlm:0.5-0.67", ToyParams(3, 6, 3)), ("ar", ToyParams(2, 4, 2)),
])
def test_optimal_features_bytes_match_the_per_vector_sign_loop(label, params):
    m = normalize(exact_joint(parse_objective(label), params))
    for t in range(1, min(m.shape) + 1):
        f, g = optimal_features(m, t)
        rows, cols = oracles.sign_fixed_features(m, t)
        assert f.tobytes() == rows.tobytes()
        assert g.tobytes() == cols.tobytes()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_svd_factors_beat_random_pairs(seed):
    m = normalize(build_masked_joint(ToyParams(1, 4, 2), 0.5))
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, min(m.shape) + 1))
    best = decomposition_objective(*optimal_features(m, t), m)
    f = rng.standard_normal((m.shape[0], t))
    g = rng.standard_normal((m.shape[1], t))
    assert best <= decomposition_objective(f, g, m) + 1e-12


def test_factor_gradients_match_finite_differences():
    m = normalize(build_ar_joint(ToyParams(1, 3, 2)))
    rng = np.random.default_rng(3)
    f = rng.standard_normal((m.shape[0], 2))
    g = rng.standard_normal((m.shape[1], 2))
    grad_row, grad_col = oracles.factor_gradients(f, g, m)
    fd_row = oracles.fd_gradient(lambda x: decomposition_objective(x, g, m),
                                 f.copy())
    fd_col = oracles.fd_gradient(lambda x: decomposition_objective(f, x, m),
                                 g.copy())
    assert np.max(np.abs(fd_row - grad_row)) / max(np.abs(fd_row).max(), 1.0) < 1e-5
    assert np.max(np.abs(fd_col - grad_col)) / max(np.abs(fd_col).max(), 1.0) < 1e-5


def test_gd_reaches_optimum_with_and_without_tail():
    m = normalize(build_ar_joint(ToyParams(1, 3, 1)))
    run = gd_factorize(m, 1, lr=0.2, steps=4000, rng=np.random.default_rng(0))
    assert run.converged
    assert run.objective <= run.target * 1.001 + 1e-12
    full = gd_factorize(m, 2, lr=0.2, steps=4000, rng=np.random.default_rng(1))
    assert full.converged
    assert full.target == pytest.approx(0.0, abs=1e-12)
    assert full.objective <= 1e-6


def test_gd_long_run_at_documented_defaults():
    m = normalize(build_masked_joint(ToyParams(2, 4, 2), 0.5))
    run = gd_factorize(m, 2, rng=np.random.default_rng(2))
    assert run.converged
    assert run.objective <= 2.0 * 1.001


def test_gd_trajectory_and_exhaustion():
    m = normalize(build_ar_joint(ToyParams(2, 3, 2)))
    run = gd_factorize(m, 2, lr=0.01, steps=3, rng=np.random.default_rng(0))
    assert not run.converged
    assert run.iterations == 3
    assert run.trajectory[0][0] == 1
    assert run.trajectory[-1] == (3, run.objective)


@pytest.mark.parametrize("steps, converges", [(100, False), (5000, True)])
def test_gd_trajectory_records_each_step_once(steps, converges):
    # Both runs stop at a multiple of 50: the converged one at 50, the
    # exhausted one at 100.
    m = normalize(exact_joint(parse_objective("ar"), ToyParams(1, 4, 2)))
    lr = 0.05 if converges else 0.001
    run = gd_factorize(m, 1, lr=lr, steps=steps, rng=np.random.default_rng(0))
    assert run.converged == converges
    assert run.iterations % 50 == 0
    done = [i for i, _ in run.trajectory]
    assert done == sorted(set(done))
    assert run.trajectory[-1] == (run.iterations, run.objective)


def test_gd_trajectory_of_a_run_that_stops_at_step_one():
    m = normalize(build_ar_joint(ToyParams(1, 3, 1)))
    run = gd_factorize(m, 1, steps=1, rng=np.random.default_rng(0))
    assert run.trajectory == ((1, run.objective),)


GD_CASES = [("ar", 5000), ("dar:2", 5000), ("masked:0.5", 5000),
            ("vlm:0.5-0.75", 5000), ("vlm:0.5-0.75", 7)]


@pytest.mark.parametrize("label, steps", GD_CASES)
def test_gd_matches_the_plain_loop_bit_for_bit(label, steps):
    m = normalize(exact_joint(parse_objective(label), ToyParams(2, 6, 2)))
    run = gd_factorize(m, 2, steps=steps, rng=np.random.default_rng(3))
    f, w, objective, iterations, converged, trajectory = (
        oracles.gd_factorize_plain(m, 2, 0.05, steps,
                                   np.random.default_rng(3))
    )
    assert converged == (steps == 5000)
    assert (run.objective, run.iterations, run.converged, run.trajectory) == (
        objective, iterations, converged, trajectory
    )
    assert run.pair[0].tobytes() == f.tobytes()
    assert run.pair[1].tobytes() == w.tobytes()


# The bench `factorize` operation: these four objectives at (2,8,2), with
# the GD start drawn the way `run_factorize` draws it.
BENCH_GD_LABELS = ["ar", "masked:0.5", "dar:2", "vlm:0.5-0.75"]


def _gd_against_oracles(m, t, steps, rng_factory, atol=0.0):
    """GD against the Gram loop on f itself and against the residual form:
    the same iterations, flags and trajectory steps, and values within 1e-12
    relative (plus `atol` for the objectives)."""
    run = gd_factorize(m, t, steps=steps, rng=rng_factory())
    for oracle in (oracles.gd_factorize_gram, oracles.gd_factorize_residual):
        f, w, objective, iterations, converged, trajectory = (
            oracle(m, t, 0.05, steps, rng_factory())
        )
        assert (run.iterations, run.converged) == (iterations, converged)
        assert [i for i, _ in run.trajectory] == [i for i, _ in trajectory]
        assert_allclose(run.objective, objective, rtol=1e-12, atol=atol)
        assert_allclose([v for _, v in run.trajectory],
                        [v for _, v in trajectory], rtol=1e-12, atol=atol)
        # Factors agree relative to their largest entry.
        for got, want in zip(run.pair, (f, w)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("label, steps", GD_CASES)
def test_gd_agrees_with_the_residual_form(label, steps):
    m = normalize(exact_joint(parse_objective(label), ToyParams(2, 6, 2)))
    _gd_against_oracles(m, 2, steps, lambda: np.random.default_rng(3))


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("label", BENCH_GD_LABELS)
def test_gd_agrees_with_the_residual_form_on_bench_shapes(label, seed):
    m = normalize(exact_joint(parse_objective(label), ToyParams(2, 8, 2)))
    _gd_against_oracles(
        m, 2, 5000, lambda: derive_rng(seed, "factorize", label)
    )


@pytest.mark.parametrize(
    "label, shape, t",
    [("masked:0.5", (2, 2, 2), t) for t in range(1, 9)]
    + [("ar", (1, 3, 1), t) for t in (1, 2)],
)
def test_gd_agrees_with_the_oracles_where_the_coordinate_gram_is_singular(
    label, shape, t
):
    # rows <= t + cols, so [f0 | M]^T [f0 | M] is singular. From t = 4 for
    # the 8 x 8 matrix and t = 2 for the 2 x 2 one the optimum is zero and
    # GD stops near the absolute threshold 1e-6. The Gram objective's
    # rounding error there is absolute, a few eps * |M|^2 (the Gram loop
    # and the residual form already differ by up to 1.5e-9 relative), so
    # that is the objectives' bound; the factors keep 1e-12.
    m = normalize(exact_joint(parse_objective(label), ToyParams(*shape)))
    assert m.shape[0] <= t + m.shape[1]
    atol = 16 * np.finfo(float).eps * float(np.sum(m**2))
    _gd_against_oracles(m, t, 5000, lambda: np.random.default_rng(3), atol=atol)


@given(
    label=st.sampled_from(["ar", "masked:0.5", "dar:2", "vlm:0.25-0.75"]),
    t=st.integers(1, 4),
    scale=st.floats(1e-3, 1e2),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_gd_gram_objective_equals_the_frobenius_objective(label, t, scale, seed):
    # The objective of GD's first step is the Gram form evaluated at its
    # random start, which the same generator redraws here.
    m = normalize(exact_joint(parse_objective(label), ToyParams(2, 4, 2)))
    run = gd_factorize(m, t, steps=1, rng=np.random.default_rng(seed),
                       init_scale=scale)
    rng = np.random.default_rng(seed)
    f = scale * rng.standard_normal((m.shape[0], t))
    g = scale * rng.standard_normal((m.shape[1], t))
    want = decomposition_objective(f, g, m)
    # The three Gram terms are bounded by (|M| + |f w^T|)^2, and the form
    # carries a rounding error of a few epsilon times that.
    size = (np.linalg.norm(m) + np.linalg.norm(f @ g.T)) ** 2
    assert abs(run.trajectory[0][1] - want) <= 64 * np.finfo(float).eps * size


def test_gd_divergence_names_learning_rate():
    m = normalize(build_masked_joint(ToyParams(2, 4, 2), 0.5))
    # the oracles overflow as the package does; silence them the same way
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError) as plain:
        oracles.gd_factorize_plain(m, 2, 10.0, 200,
                                   np.random.default_rng(0))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match=f"^{plain.value}$"):
        oracles.gd_factorize_gram(m, 2, 10.0, 200,
                                  np.random.default_rng(0))
    with pytest.raises(NumericError, match=f"at {plain.value} with lr=10.0"):
        gd_factorize(m, 2, lr=10.0, steps=200, rng=np.random.default_rng(0))


def test_gd_validates_arguments():
    m = normalize(build_ar_joint(ToyParams(1, 3, 1)))
    with pytest.raises(DomainError):
        gd_factorize(m, 1, lr=0.0)
    with pytest.raises(DomainError):
        gd_factorize(m, 1, steps=0)
    with pytest.raises(DomainError):
        gd_factorize(m, 9)


@pytest.mark.parametrize("factorize", [optimal_features, gd_factorize])
def test_factorizers_refuse_a_matrix_past_the_svd_budget(factorize):
    with pytest.raises(ResourceError, match="budget"):
        factorize(np.zeros((4001, 4001)), 1)


def test_encoder_inverts_row_weighting():
    params = ToyParams(1, 3, 1)
    joint = build_ar_joint(params)
    f, _ = optimal_features(normalize(joint), 2)
    got, _, _ = probe_features_for_joint(joint, 2, params)
    # uniform conditional marginal of 1/2: features are sqrt(2) * factors
    assert_allclose(got, np.sqrt(2.0) * f, atol=1e-12)


def test_same_class_features_align():
    params = ToyParams(2, 4, 2)
    x, labels, _ = probe_features_for_joint(
        build_masked_joint(params, 0.5), 2, params
    )
    by_class = {c: x[labels == c] for c in (1, 2)}
    same, cross = [], []
    for label, feats in by_class.items():
        for i, f in enumerate(feats):
            for g in feats[i + 1 :]:
                same.append(float(f @ g))
    for f in by_class[1]:
        for g in by_class[2]:
            cross.append(float(f @ g))
    assert min(same) > max(cross)


def test_shape_mismatch_is_a_domain_error():
    joint = build_masked_joint(ToyParams(1, 4, 2), 0.5)
    rows, cols = len(joint.tokens), len(joint.cols)
    f, w = np.zeros((rows, 2)), np.zeros((2, cols))
    for fn in (spectral_loss, identity_residual):
        with pytest.raises(DomainError):
            fn(np.zeros((rows + 1, 2)), w, joint)
        with pytest.raises(DomainError):
            fn(f, np.zeros((2, cols - 1)), joint)
    x, labels = np.eye(3), np.array([1, 2, 2])
    with pytest.raises(DomainError):
        linear_probe(x, labels[:2], reg=1e-8)
    with pytest.raises(DomainError):
        linear_probe(x, labels, reg=1e-8, weights=np.ones(4))


def test_probe_matches_the_comparison_one_hot():
    # Targets from the inverse of np.unique: the same bits as comparing
    # each label with each class.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 3))
    labels = rng.choice([7, 2, 9], size=40)
    probe = linear_probe(x, labels, reg=1e-6)
    classes = np.unique(labels)
    onehot = (labels[:, None] == classes[None, :]).astype(float)
    xtd = x.T * np.ones(len(x))[None, :]
    coef = np.linalg.solve(xtd @ x + 1e-6 * np.eye(3), xtd @ onehot)
    assert probe.classes == (2, 7, 9)
    assert probe.coef.tobytes() == coef.tobytes()


def test_probe_separates_two_clusters():
    x = np.array([[1.0, 0.1], [0.9, -0.1], [-1.0, 0.2], [-1.1, 0.0]])
    probe = linear_probe(x, [1, 1, 2, 2], reg=1e-8)
    assert probe.error == 0.0
    far = np.array([[2.0, 0.0], [-2.0, 0.0]])
    assert oracles.probe_predict(probe, far) == [1, 2]


def test_probe_on_random_labels_is_near_chance():
    rng = np.random.default_rng(11)
    feats = [(rng.standard_normal(3), int(rng.integers(1, 4))) for _ in range(60)]
    x, labels = (np.array(a) for a in zip(*feats))
    error = linear_probe(x, labels, reg=1e-6).error
    assert 0.3 <= error <= 0.85


def test_probe_weights_act_like_multiplicity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 2))
    labels = 1 + np.arange(6) % 2
    doubled = linear_probe(
        np.vstack([x, x[:2]]), np.concatenate([labels, labels[:2]]), reg=1e-6
    )
    weighted = linear_probe(
        x, labels, reg=1e-6, weights=np.where(np.arange(6) < 2, 2.0, 1.0)
    )
    assert_allclose(weighted.coef, doubled.coef, atol=1e-8)


def test_probe_argmax_survives_invertible_transform():
    params = ToyParams(2, 4, 2)
    x, labels, weights = probe_features_for_joint(
        build_masked_joint(params, 0.5), 2, params
    )
    rng = np.random.default_rng(8)
    m = np.eye(2) + 0.5 * rng.standard_normal((2, 2))
    assert abs(np.linalg.det(m)) > 1e-3
    before = linear_probe(x, labels, reg=1e-8, weights=weights)
    after = linear_probe(x @ m, labels, reg=1e-8, weights=weights)
    assert (oracles.probe_predict(before, x)
            == oracles.probe_predict(after, x @ m))


def test_probe_requires_regularization_for_singular_features():
    with pytest.raises(NumericError, match="reg"):
        linear_probe(np.zeros((2, 2)), [1, 2], reg=0.0)
    with pytest.raises(DomainError):
        linear_probe(np.zeros((0, 2)), [], reg=1e-8)


def test_probe_features_carry_row_weights():
    joint = build_masked_joint(ToyParams(2, 4, 2), 0.5)
    params = ToyParams(2, 4, 2)
    x, labels, weights = probe_features_for_joint(joint, 2, params)
    assert x.shape == (len(joint.tokens), 2)
    total = weights.sum()
    assert total == pytest.approx(1.0, abs=1e-12)
    assert set(labels.tolist()) == {1, 2}


def test_factor_pair_round_trips_through_disk(tmp_path):
    m = normalize(build_ar_joint(ToyParams(2, 3, 2)))
    f, g = optimal_features(m, 2)
    save_factor_pair(f, g, tmp_path, name="best")
    loaded_f, loaded_g = oracles.load_factor_pair(tmp_path, name="best")
    assert loaded_f.shape[1] == 2
    assert_allclose(loaded_f, f, atol=0)
    assert_allclose(loaded_g, g, atol=0)


def test_factor_pair_load_checks_header(tmp_path):
    m = normalize(build_ar_joint(ToyParams(1, 3, 1)))
    save_factor_pair(*optimal_features(m, 1), tmp_path)
    header_path = tmp_path / "factors.json"
    header = json.loads(header_path.read_text())
    header["rows"] = 99
    header_path.write_text(json.dumps(header))
    with pytest.raises(DomainError, match="header"):
        oracles.load_factor_pair(tmp_path)
