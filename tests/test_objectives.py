import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    exact_joint,
    parse_objective,
    sample_pair,
)
from cospec.toy_model import ToyParams, sample_sequence, token_position


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


def test_next_token_pair_at_minimal_length():
    params = ToyParams(1, 2, 2)
    rng = np.random.default_rng(0)
    spec = parse_objective("ar")
    for _ in range(10):
        x = sample_sequence(params, 1, rng)
        text, target = sample_pair(spec, x, rng)
        assert text.tokens == (x.tokens[0],)
        assert target == x.tokens[1]


@pytest.mark.parametrize(
    "label", ["ar", "masked:0.5", "dar:2", "vlm:0.25-0.75"]
)
def test_sampled_pairs_never_leak_the_target(label):
    params = ToyParams(2, 4, 2)
    spec = parse_objective(label)
    rng = np.random.default_rng(1)
    for _ in range(400):
        x = sample_sequence(params, int(rng.integers(1, 3)), rng)
        text, target = sample_pair(spec, x, rng)
        positions = [token_position(params, t) for t in text.tokens]
        assert token_position(params, target) not in positions
        if spec.width is not None:
            assert text.tokens == x.tokens[: len(text.tokens)]
        if label == "masked:0.5":
            assert len(text.tokens) == 2


def test_lookahead_sampler_stays_in_window():
    params = ToyParams(1, 5, 2)
    spec = parse_objective("dar:2")
    rng = np.random.default_rng(2)
    for _ in range(400):
        x = sample_sequence(params, 1, rng)
        text, target = sample_pair(spec, x, rng)
        k = len(text.tokens)
        assert k + 1 <= token_position(params, target) <= min(k + 2, 5)


def test_width_one_lookahead_is_next_token():
    params = ToyParams(1, 4, 2)
    spec = parse_objective("dar:1")
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = sample_sequence(params, 1, rng)
        text, target = sample_pair(spec, x, rng)
        assert token_position(params, target) == len(text.tokens) + 1


def test_variable_ratio_draws_each_grid_point_uniformly():
    params = ToyParams(1, 8, 2)
    spec = parse_objective("vlm:0.25-0.5")
    rng = np.random.default_rng(4)
    n = 30_000
    counts = {6: 0, 5: 0, 4: 0}
    for _ in range(n):
        x = sample_sequence(params, 1, rng)
        text, _ = sample_pair(spec, x, rng)
        counts[len(text.tokens)] += 1
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    for u, c in counts.items():
        assert abs(c - n / 3) < 4 * sigma, (u, c)


def test_masked_sampler_rejects_inadmissible_ratio():
    spec = ObjectiveSpec(rho_lo=0.3, rho_hi=0.3)
    x = sample_sequence(ToyParams(1, 4, 2), 1, np.random.default_rng(0))
    with pytest.raises(DomainError, match="admissible"):
        sample_pair(spec, x, np.random.default_rng(0))


def test_sampler_rejects_single_token_sequences():
    from cospec.toy_model import LabeledSequence

    spec = parse_objective("ar")
    with pytest.raises(DomainError):
        sample_pair(spec, LabeledSequence(tokens=(0,), label=1),
                    np.random.default_rng(0))


def test_exact_joint_dispatch():
    params = ToyParams(2, 4, 2)
    assert exact_joint(parse_objective("ar"), params).entries == \
        build_ar_joint(params).entries
    assert exact_joint(parse_objective("masked:0.5"), params).entries == \
        build_masked_joint(params, 0.5).entries
    assert exact_joint(parse_objective("dar:2"), params).entries == \
        build_dar_joint(params, 2).entries
    assert exact_joint(parse_objective("vlm:0.5-0.75"), params).entries == \
        build_vlm_joint(params, 0.5, 0.75).entries


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
        spec = parse_objective(text)
        rng = np.random.default_rng(7)
        streams.append([
            sample_pair(spec, sample_sequence(params, 1, rng), rng)
            for _ in range(200)
        ])
    assert streams[0] == streams[1]


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
    x = sample_sequence(ToyParams(1, 3, 2), 1, np.random.default_rng(0))
    for text in ("masked:0.3333333333", "vlm:0.3333333333-0.3333333333"):
        text_, _ = sample_pair(parse_objective(text), x,
                               np.random.default_rng(0))
        assert len(text_.tokens) == 2
