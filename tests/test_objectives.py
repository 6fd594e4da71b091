import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cospec.cooccurrence import (
    admissible_counts,
    build_ar_joint,
    build_dar_joint,
    build_masked_joint,
    build_vlm_joint,
    unmasked_count,
)
from cospec.errors import DomainError
from cospec.objectives import (
    ObjectiveSpec,
    build_joint_from_sampler,
    exact_joint,
    parse_objective,
    sample_pairs,
)
from cospec.toy_model import ToyParams, sample_sequence


@pytest.mark.parametrize(
    "text", ["ar", "masked:0.5", "masked:0.375", "dar:3", "vlm:0.25-0.75"]
)
def test_parse_and_label_round_trip(text):
    spec = parse_objective(text)
    assert spec.label() == text
    assert parse_objective(spec.label()) == spec


@pytest.mark.parametrize(
    "text",
    [
        "",
        "masked",
        "masked:",
        "masked:1.5",
        "masked:abc",
        "dar:0",
        "dar:1.5",
        "vlm:0.5",
        "vlm:0.7-0.2",
        "ar:1",
        "frob:2",
    ],
)
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(DomainError):
        parse_objective(text)


def test_spec_field_validation():
    with pytest.raises(DomainError):
        ObjectiveSpec(rho_lo=0.5)
    with pytest.raises(DomainError):
        ObjectiveSpec(width=0)
    with pytest.raises(DomainError):
        ObjectiveSpec(rho_lo=0.5, rho_hi=0.2)
    with pytest.raises(DomainError):
        ObjectiveSpec()
    with pytest.raises(DomainError):
        ObjectiveSpec(width=2, rho_lo=0.5, rho_hi=0.5)


def test_admissible_ratio_grids():
    # the unmasked counts of ratios 0.25, 0.375 and 0.5, in that order
    assert admissible_counts(8, 0.25, 0.5) == [6, 5, 4]
    assert admissible_counts(4, 0.15, 0.3) == [3]
    with pytest.raises(DomainError, match="admissible"):
        admissible_counts(3, 0.4, 0.45)
    # endpoints included despite float division
    assert admissible_counts(6, 1 / 6, 1 / 6) == [5]
    with pytest.raises(DomainError):
        admissible_counts(8, 0.5, 0.25)


def sequences(params, n, rng, label=None):
    """n sequences as an (n, s) matrix: classes uniform unless `label` is
    given, slots i.i.d. uniform, ids as `token_id` assigns them."""
    r, s, big_t = params.r, params.s, params.T
    if label is None:
        label = rng.integers(1, r + 1, size=(n, 1))
    slots = rng.integers(1, big_t + 1, size=(n, s))
    return (np.arange(s) * r + label - 1) * big_t + slots - 1


def positions(params, tokens):
    """1-based positions of token ids; a -1 pad reads as position 0."""
    return np.asarray(tokens) // (params.r * params.T) + 1


def test_next_token_pair_at_minimal_length():
    params = ToyParams(1, 2, 2)
    rng = np.random.default_rng(0)
    x = sequences(params, 10, rng, label=1)
    texts, targets = sample_pairs(parse_objective("ar"), x, rng)
    assert np.array_equal(texts, x[:, :1])
    assert np.array_equal(targets, x[:, 1])


@pytest.mark.parametrize(
    "label", ["ar", "masked:0.5", "dar:2", "vlm:0.25-0.75"]
)
def test_sampled_pairs_never_leak_the_target(label):
    params = ToyParams(2, 4, 2)
    spec = parse_objective(label)
    rng = np.random.default_rng(1)
    x = sequences(params, 400, rng)
    texts, targets = sample_pairs(spec, x, rng)
    real = texts >= 0
    k = real.sum(axis=1)
    held = positions(params, texts)
    where = positions(params, targets)
    # every text and target token comes from its own sequence, in place
    assert np.array_equal(np.where(real, x[np.arange(400)[:, None],
                                            np.maximum(held - 1, 0)], -1),
                          texts)
    assert np.array_equal(x[np.arange(400), where - 1], targets)
    assert not (held == where[:, None]).any()
    assert (real[:, 0] & ~(real[:, 1:] & ~real[:, :-1]).any(axis=1)).all()
    if spec.width is not None:
        assert np.array_equal(np.where(real, x[:, :texts.shape[1]], -1),
                              texts)
        window_end = np.minimum(k + spec.width, 4)
        assert ((k + 1 <= where) & (where <= window_end)).all()
    else:
        assert ((np.diff(held, axis=1) > 0) | ~real[:, 1:]).all()
        assert set(k.tolist()) <= set(admissible_counts(4, spec.rho_lo,
                                                        spec.rho_hi))
    if label == "masked:0.5":
        assert (k == 2).all()


def test_lookahead_sampler_stays_in_window():
    params = ToyParams(1, 5, 2)
    spec = parse_objective("dar:2")
    rng = np.random.default_rng(2)
    texts, targets = sample_pairs(spec, sequences(params, 400, rng, 1), rng)
    k = (texts >= 0).sum(axis=1)
    where = positions(params, targets)
    assert ((k + 1 <= where) & (where <= np.minimum(k + 2, 5))).all()


def test_width_one_lookahead_is_next_token():
    params = ToyParams(1, 4, 2)
    spec = parse_objective("dar:1")
    rng = np.random.default_rng(3)
    texts, targets = sample_pairs(spec, sequences(params, 200, rng, 1), rng)
    assert np.array_equal(positions(params, targets),
                          (texts >= 0).sum(axis=1) + 1)


def test_variable_ratio_draws_each_grid_point_uniformly():
    params = ToyParams(1, 8, 2)
    spec = parse_objective("vlm:0.25-0.5")
    rng = np.random.default_rng(4)
    n = 30_000
    texts, _ = sample_pairs(spec, sequences(params, n, rng, 1), rng)
    sizes, found = np.unique((texts >= 0).sum(axis=1), return_counts=True)
    assert sizes.tolist() == [4, 5, 6]
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    for u, c in zip(sizes.tolist(), found.tolist()):
        assert abs(c - n / 3) < 4 * sigma, (u, c)


def test_masked_sampler_rejects_inadmissible_ratio():
    spec = ObjectiveSpec(rho_lo=0.3, rho_hi=0.3)
    x = sequences(ToyParams(1, 4, 2), 1, np.random.default_rng(0), 1)
    with pytest.raises(DomainError, match="admissible"):
        sample_pairs(spec, x, np.random.default_rng(0))


def test_sampler_rejects_single_token_sequences():
    spec = parse_objective("ar")
    for bad in ([[0]], [0, 1], [[[0, 1]]]):
        with pytest.raises(DomainError, match="s >= 2"):
            sample_pairs(spec, bad, np.random.default_rng(0))


BATCH_LABELS = ["ar", "dar:2", "masked:0.5", "vlm:0.25-0.75"]


def _tv_bound(support, n, failure=1e-6):
    """A bound the TV distance of an n-draw empirical law from its law
    exceeds with probability below `failure`.

    E|c/n - p| <= sqrt(p / n) per cell, so by Cauchy-Schwarz the expected
    distance is at most sqrt(support / n) / 2. One draw moves the distance
    by at most 1/n, so by McDiarmid it exceeds that mean by t with
    probability at most exp(-2 n t^2).
    """
    return (np.sqrt(support / n) + np.sqrt(2 * np.log(1 / failure) / n)) / 2


@pytest.mark.parametrize("label", BATCH_LABELS)
def test_batched_law_matches_the_scalar_oracle_and_the_exact_joint(label):
    params = ToyParams(2, 4, 2)
    spec = parse_objective(label)
    joint = exact_joint(spec, params)
    exact = oracles.entries(joint)
    n_batch, n_scalar = 200_000, 5_000
    batched = build_joint_from_sampler(spec, params, n_batch,
                                       np.random.default_rng(21))
    # every row is drawn about a thousand times or more, so the sampled
    # catalogs are the enumerated ones, in the same order
    assert np.array_equal(batched.tokens, joint.tokens)
    assert batched.cols == joint.cols
    rng = np.random.default_rng(22)
    counts = {}
    for _ in range(n_scalar):
        x = sample_sequence(params, int(rng.integers(1, params.r + 1)), rng)
        key = oracles.sample_pair(spec, x, rng)
        counts[key] = counts.get(key, 0) + 1
    scalar = {key: c / n_scalar for key, c in counts.items()}
    sampled = oracles.entries(batched)
    assert set(sampled) <= set(exact)
    assert set(scalar) <= set(exact)
    # each bound fails with probability below 1e-6
    to_exact = _tv_bound(len(exact), n_batch)
    to_scalar = to_exact + _tv_bound(len(exact), n_scalar)
    assert to_exact < 0.03 and to_scalar < 0.22
    assert oracles.tv_distance(sampled, exact) < to_exact
    assert oracles.tv_distance(sampled, scalar) < to_scalar


def test_sampled_joint_past_the_budget_is_a_valid_prefix_joint():
    # (3, 12, 3) has 797,160 next-token rows, which the budget refuses
    params = ToyParams(3, 12, 3)
    joint = build_joint_from_sampler(parse_objective("ar"), params, 10**5,
                                     np.random.default_rng(5))
    tokens, real = joint.tokens, joint.tokens >= 0
    assert joint.kind == "prefix" and tokens.shape[1] == 11
    assert np.array_equal(np.unique(tokens, axis=0), tokens)
    assert not (real[:, 1:] & ~real[:, :-1]).any() and real[:, 0].all()
    held = positions(params, tokens)
    assert np.array_equal(np.where(real, held, 0),
                          np.where(real, np.arange(1, 12), 0))
    label = tokens // params.T % params.r
    assert (np.where(real, label, label[:, :1]) == label[:, :1]).all()
    i, j = np.nonzero(joint.mass)
    cols = np.array(joint.cols)[j]
    assert np.array_equal(positions(params, cols), real.sum(axis=1)[i] + 1)
    assert np.array_equal(cols // params.T % params.r, label[i, 0])
    assert joint.mass.sum() == pytest.approx(1.0)
    assert np.allclose(joint.mass * 10**5, np.round(joint.mass * 10**5))


def test_exact_joint_dispatch():
    params = ToyParams(2, 4, 2)
    for label, joint in [
        ("ar", build_ar_joint(params)),
        ("masked:0.5", build_masked_joint(params, 0.5)),
        ("dar:2", build_dar_joint(params, 2)),
        ("vlm:0.5-0.75", build_vlm_joint(params, 0.5, 0.75)),
    ]:
        assert oracles.entries(exact_joint(parse_objective(label), params)) \
            == oracles.entries(joint)


# Two spellings of one objective: a width-1 lookahead is next-token
# prediction, and a one-ratio range is fixed-ratio masking.
SPELLINGS = [("dar:1", "ar"), ("vlm:0.5-0.5", "masked:0.5"),
             ("vlm:0.25-0.25", "masked:0.25")]


@pytest.mark.parametrize("other, label", SPELLINGS)
def test_second_spelling_parses_to_the_same_spec(other, label):
    assert parse_objective(other) == parse_objective(label)
    assert parse_objective(other).label() == label


@pytest.mark.parametrize("other, label", SPELLINGS)
def test_second_spelling_builds_the_same_joint(other, label):
    params = ToyParams(2, 4, 2)
    a = exact_joint(parse_objective(other), params)
    b = exact_joint(parse_objective(label), params)
    assert a.cols == b.cols
    assert np.array_equal(a.tokens, b.tokens)
    assert a.dense().tobytes() == b.dense().tobytes()


@pytest.mark.parametrize("other, label", SPELLINGS)
def test_second_spelling_samples_the_same_stream(other, label):
    params = ToyParams(2, 4, 2)
    streams = []
    for text in (other, label):
        rng = np.random.default_rng(7)
        x = sequences(params, 200, rng, 1)
        streams.append(sample_pairs(parse_objective(text), x, rng))
    for a, b in zip(*streams):
        assert np.array_equal(a, b)


def _grid_or_error(fn):
    try:
        return fn()
    except DomainError:
        return "refused"


@st.composite
def _near_grid(draw):
    """(s, R) with R within a few 1e-9 of some m/s, m = 0..s."""
    s = draw(st.integers(2, 12))
    slack = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6])
                 | st.floats(-3e-9, 3e-9))
    return s, draw(st.integers(0, s)) / s + slack


@given(case=_near_grid())
@example(case=(3, 0.3333333333))
@settings(max_examples=300, deadline=None)
def test_one_ratio_range_accepts_exactly_the_fixed_ratios(case):
    s, rho = case
    fixed = _grid_or_error(lambda: [unmasked_count(s, rho)])
    ranged = _grid_or_error(lambda: admissible_counts(s, rho, rho))
    assert fixed == ranged, (s, rho)


def test_ten_digit_third_is_admissible_in_both_spellings():
    assert unmasked_count(3, 0.3333333333) == 2
    assert admissible_counts(3, 0.3333333333, 0.3333333333) == [2]
    x = sequences(ToyParams(1, 3, 2), 1, np.random.default_rng(0), 1)
    for text in ("masked:0.3333333333", "vlm:0.3333333333-0.3333333333"):
        texts, _ = sample_pairs(parse_objective(text), x,
                                np.random.default_rng(0))
        assert (texts >= 0).sum() == 2
