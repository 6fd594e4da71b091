"""Exact joint builders against independent dict-based reference builders."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import oracles
from cospec.cooccurrence import (
    ConditionalText,
    JointDistribution,
    admissible_counts,
    build_ar_joint,
    build_dar_joint,
    build_joint_from_sampler,
    build_masked_joint,
    build_vlm_joint,
    normalize,
    unmasked_count,
    write_joint_csv,
    write_matrix_csv,
)
from cospec.errors import DomainError, ResourceError
from cospec.objectives import exact_joint, parse_objective
from cospec.toy_model import ToyParams, token_position


def as_plain_dict(joint: JointDistribution) -> dict:
    return {(text.tokens, tok): v for (text, tok), v in joint.entries.items()}


@pytest.mark.parametrize("r,s,big_t", [(2, 3, 2), (1, 4, 3), (3, 3, 1)])
def test_ar_joint_matches_reference_builder(r, s, big_t):
    got = as_plain_dict(build_ar_joint(ToyParams(r, s, big_t)))
    assert got == oracles.ar_joint_dict(r, s, big_t)


@pytest.mark.parametrize(
    "r,s,big_t,rho", [(2, 4, 2, 0.5), (1, 5, 2, 0.4), (2, 4, 1, 0.75)]
)
def test_masked_joint_matches_reference_builder(r, s, big_t, rho):
    got = as_plain_dict(build_masked_joint(ToyParams(r, s, big_t), rho))
    assert got == oracles.masked_joint_dict(r, s, big_t, rho)


@pytest.mark.parametrize("r,s,big_t,t", [(2, 4, 2, 2), (1, 5, 3, 3), (2, 3, 2, 9)])
def test_dar_joint_matches_reference_builder(r, s, big_t, t):
    got = as_plain_dict(build_dar_joint(ToyParams(r, s, big_t), t))
    assert got == oracles.dar_joint_dict(r, s, big_t, t)


LABELS = ["ar", "masked:0.5", "dar:2", "dar:3", "vlm:0.25-0.75"]


@pytest.mark.parametrize("label", LABELS)
def test_total_mass_is_one(label):
    params = ToyParams(2, 4, 2)
    joint = exact_joint(parse_objective(label), params)
    assert joint.mass.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("label", LABELS)
def test_joint_arrays_are_catalog_ordered_and_read_only(label):
    joint = exact_joint(parse_objective(label), ToyParams(2, 4, 2))
    assert list(joint.rows) == sorted(joint.rows)
    assert list(joint.cols) == sorted(joint.cols)
    assert joint.dense().shape == (len(joint.rows), len(joint.cols))
    # the entries come in catalog row-major order, with no repeated cell
    ri = {text: i for i, text in enumerate(joint.rows)}
    ci = {tok: j for j, tok in enumerate(joint.cols)}
    flat = [ri[text] * len(joint.cols) + ci[tok] for text, tok in joint.entries]
    assert np.all(np.diff(flat) > 0)
    assert np.all(joint.row_marginal() > 0) and np.all(joint.col_marginal() > 0)
    for a in (joint.dense(), joint.row_marginal(), joint.col_marginal()):
        with pytest.raises(ValueError):
            a[0] = 0


def oracle_conditionals(label, r, s, big_t):
    spec = parse_objective(label)
    if label == "ar":
        keys = oracles.ar_joint_dict(r, s, big_t)
    elif spec.width is not None:
        keys = oracles.dar_joint_dict(r, s, big_t, spec.width)
    elif label.startswith("masked:"):
        keys = oracles.masked_joint_dict(r, s, big_t, spec.rho_lo)
    else:
        keys = {}
        for u in admissible_counts(s, spec.rho_lo, spec.rho_hi):
            keys.update(oracles.masked_joint_dict(r, s, big_t, (s - u) / s))
    return sorted({text for text, _ in keys})


@pytest.mark.parametrize("label", ["ar", "dar:2", "masked:0.5", "vlm:0.25-0.75"])
@pytest.mark.parametrize("r,s,big_t", [(2, 4, 2), (1, 6, 2), (3, 4, 3)])
def test_token_matrix_is_the_padded_sorted_catalog(label, r, s, big_t):
    joint = exact_joint(parse_objective(label), ToyParams(r, s, big_t))
    tokens = joint.tokens
    assert tokens.dtype.kind == "i" and tokens.ndim == 2
    with pytest.raises(ValueError):
        tokens[0, 0] = 0
    pad = tokens < 0
    assert np.all(tokens[pad] == -1)
    assert not pad[:, 0].any()
    # once a row is padded, it stays padded to its end
    assert np.all(pad[:, :-1] <= pad[:, 1:])
    texts = [tuple(t for t in row if t >= 0) for row in tokens.tolist()]
    assert all(a < b for a, b in zip(texts, texts[1:]))
    assert [t.tokens for t in joint.rows] == texts
    assert texts == oracle_conditionals(label, r, s, big_t)


@pytest.mark.parametrize("label", LABELS)
def test_from_entries_round_trips(label):
    joint = exact_joint(parse_objective(label), ToyParams(2, 4, 2))
    again = oracles.from_entries(joint.entries)
    assert again.kind == joint.kind
    assert again.cols == joint.cols and again.rows == joint.rows
    assert np.array_equal(again.tokens, joint.tokens)
    assert again.tokens.tobytes() == joint.tokens.tobytes()
    assert again.dense().tobytes() == joint.dense().tobytes()


def test_from_entries_rejects_mixed_kinds():
    with pytest.raises(DomainError, match="kinds"):
        oracles.from_entries({
            (ConditionalText.prefix([0]), 2): 0.5,
            (ConditionalText.unmasked([1]), 2): 0.5,
        })


@pytest.mark.parametrize("label", LABELS)
def test_marginals_are_the_dense_sums(label):
    joint = exact_joint(parse_objective(label), ToyParams(2, 4, 2))
    rows, cols, matrix, pc, pg = oracles.normalized_dense(as_plain_dict(joint))
    assert [text.tokens for text in joint.rows] == rows
    assert list(joint.cols) == cols
    assert np.array_equal(joint.row_marginal(), pc)
    assert np.array_equal(joint.col_marginal(), pg)
    assert np.array_equal(normalize(joint).matrix, matrix)


@pytest.mark.parametrize("label", LABELS)
def test_csv_writers_match_a_catalog_scan(label, tmp_path):
    joint = exact_joint(parse_objective(label), ToyParams(2, 4, 2))
    for write, scan, obj in (
        (write_joint_csv, oracles.scan_joint_csv, joint),
        (write_matrix_csv, oracles.scan_matrix_csv, normalize(joint)),
    ):
        write(obj, tmp_path / "got.csv")
        scan(obj, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()


def test_ar_columns_exclude_first_position():
    params = ToyParams(2, 3, 2)
    joint = build_ar_joint(params)
    positions = {token_position(params, c) for c in joint.cols}
    assert positions == {2, 3}
    assert len(joint.rows) == 2 * (2 + 4)


def test_ar_normalized_entries_depend_only_on_prefix_length():
    params = ToyParams(2, 3, 2)
    m = normalize(build_ar_joint(params))
    for i, length in enumerate((m.tokens >= 0).sum(axis=1)):
        nonzero = m.matrix[i][m.matrix[i] != 0.0]
        assert_allclose(nonzero, 1.0 / np.sqrt(2.0 ** (length + 1)), atol=1e-12)


def test_masked_entries_share_one_value():
    # r * C(s,u) * (s-u) * T^(u+1) = 2 * 6 * 2 * 8 at r=2, s=4, T=2, u=2
    joint = build_masked_joint(ToyParams(2, 4, 2), 0.5)
    values = sorted(set(joint.entries.values()))
    assert values == [pytest.approx(1.0 / 192.0)]
    assert len(joint.rows) == 2 * 6 * 4


def test_masked_target_position_is_never_visible():
    params = ToyParams(2, 4, 2)
    joint = build_masked_joint(params, 0.5)
    for (text, target) in joint.entries:
        positions = [token_position(params, t) for t in text.tokens]
        assert token_position(params, target) not in positions


def test_masked_column_marginal_is_uniform():
    params = ToyParams(2, 4, 2)
    joint = build_masked_joint(params, 0.5)
    assert joint.cols == tuple(range(params.vocab_size))
    assert_allclose(joint.col_marginal(), 1.0 / params.vocab_size, atol=1e-12)


def test_unmasked_count_validation():
    assert unmasked_count(4, 0.5) == 2
    assert unmasked_count(4, 0.75) == 1
    with pytest.raises(DomainError, match="admissible"):
        unmasked_count(4, 0.3)
    with pytest.raises(DomainError):
        unmasked_count(4, 1.0)
    with pytest.raises(DomainError):
        unmasked_count(4, -0.1)


def test_lookahead_width_one_is_next_token():
    params = ToyParams(2, 4, 2)
    dar, ar = build_dar_joint(params, 1), build_ar_joint(params)
    assert as_plain_dict(dar) == as_plain_dict(ar)
    assert dar.rows == ar.rows and dar.cols == ar.cols
    assert dar.dense().tobytes() == ar.dense().tobytes()


def test_lookahead_widens_target_support():
    params = ToyParams(2, 4, 2)
    joint = build_dar_joint(params, 2)
    one_row = next(t for t in joint.rows if len(t.tokens) == 1)
    targets = {
        token_position(params, c)
        for (text, c) in joint.entries
        if text == one_row
    }
    assert targets == {2, 3}
    with pytest.raises(DomainError):
        build_dar_joint(params, 0)


def test_variable_ratio_is_uniform_mixture():
    for r, s, big_t, lo, hi in [
        (2, 4, 2, 0.25, 0.75), (1, 5, 2, 0.2, 0.6), (2, 6, 1, 0.5, 0.67)
    ]:
        counts = admissible_counts(s, lo, hi)
        want: dict = {}
        for u in counts:
            law = oracles.masked_joint_dict(r, s, big_t, (s - u) / s)
            for key, v in law.items():
                want[key] = want.get(key, 0.0) + v / len(counts)
        got = as_plain_dict(build_vlm_joint(ToyParams(r, s, big_t), lo, hi))
        assert got == want


def test_variable_ratio_needs_an_admissible_point():
    with pytest.raises(DomainError, match="admissible"):
        build_vlm_joint(ToyParams(2, 4, 2), 0.3, 0.4)


def test_budget_overrun_names_the_sampler():
    with pytest.raises(ResourceError, match="build_joint_from_sampler"):
        build_ar_joint(ToyParams(3, 12, 3))
    with pytest.raises(ResourceError, match="budget"):
        build_masked_joint(ToyParams(2, 10, 4), 0.5)


def test_budget_counts_the_whole_mixture():
    # The parts have 64 and 48 rows: each fits the budget, the mixture not.
    params = ToyParams(2, 4, 2)
    with pytest.raises(ResourceError, match="budget"):
        build_vlm_joint(params, 0.25, 0.5, budget=100)
    assert len(build_vlm_joint(params, 0.25, 0.5, budget=112).rows) == 112


def test_sampled_joint_single_draw():
    params = ToyParams(1, 3, 2)
    joint = build_joint_from_sampler(
        parse_objective("ar"), params, 1, np.random.default_rng(0)
    )
    assert len(joint.entries) == 1
    assert joint.mass.sum() == pytest.approx(1.0)


def test_sampled_joint_is_reproducible():
    params = ToyParams(2, 4, 2)
    spec = parse_objective("masked:0.5")
    a = build_joint_from_sampler(spec, params, 300, np.random.default_rng(4))
    b = build_joint_from_sampler(spec, params, 300, np.random.default_rng(4))
    assert a.entries == b.entries


def test_sampled_joint_approaches_exact():
    params = ToyParams(1, 3, 2)
    spec = parse_objective("ar")
    empirical = build_joint_from_sampler(
        spec, params, 200_000, np.random.default_rng(12)
    )
    exact = build_ar_joint(params)
    tv = oracles.tv_distance(
        as_plain_dict(empirical), as_plain_dict(exact)
    )
    assert tv < 0.01


def test_normalize_single_entry():
    joint = oracles.from_entries(
        {(ConditionalText.prefix([0]), 2): 1.0}
    )
    m = normalize(joint)
    assert m.matrix.shape == (1, 1)
    assert m.matrix[0, 0] == pytest.approx(1.0)
    assert m.row_weights[0] == pytest.approx(1.0)


entry_values = st.lists(
    st.floats(0.01, 1.0, allow_nan=False), min_size=4, max_size=4
)


@given(values=entry_values, scale=st.floats(0.1, 50.0))
@settings(max_examples=60)
def test_normalize_is_scale_invariant(values, scale):
    rows = [ConditionalText.prefix([0]), ConditionalText.prefix([1])]
    keys = [(rows[0], 2), (rows[0], 3), (rows[1], 2), (rows[1], 3)]
    base = normalize(
        oracles.from_entries(dict(zip(keys, values)))
    )
    scaled = normalize(
        oracles.from_entries(
            {k: scale * v for k, v in zip(keys, values)}
        )
    )
    assert_allclose(scaled.matrix, base.matrix, atol=1e-12)


def test_normalize_weights_are_marginals():
    joint = build_masked_joint(ToyParams(2, 4, 2), 0.5)
    m = normalize(joint)
    assert m.row_weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.col_weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(m.row_weights > 0) and np.all(m.col_weights > 0)


def test_joint_rejects_bad_entries():
    text = ConditionalText.prefix([0])
    with pytest.raises(DomainError):
        oracles.from_entries({})
    with pytest.raises(DomainError):
        oracles.from_entries({(text, 1): -0.5})
    # explicit zeros are dropped, not kept as structural entries
    joint = oracles.from_entries({(text, 1): 1.0, (text, 2): 0.0})
    assert (text, 2) not in joint.entries
    assert joint.cols == (1,)


@pytest.mark.parametrize("bad, message", [
    (math.nan, "non-finite"), (math.inf, "non-finite"), (-0.5, "negative"),
])
def test_from_entries_refuses_non_finite_or_negative_mass(bad, message):
    with pytest.raises(DomainError, match=message):
        oracles.from_entries({
            (ConditionalText.prefix([0]), 2): bad,
            (ConditionalText.prefix([1]), 3): 0.5,
        })


@pytest.mark.parametrize("mass", [[[0.5, 0.5], [0.0, 0.0]],
                                  [[0.5, 0.0], [0.5, 0.0]]])
def test_joint_refuses_a_row_or_column_without_mass(mass):
    with pytest.raises(DomainError, match="without mass"):
        JointDistribution(kind="prefix", tokens=np.array([[0], [1]]),
                          cols=(2, 3), mass=np.array(mass))


def test_joint_refuses_mass_of_another_shape():
    with pytest.raises(DomainError, match="does not match"):
        JointDistribution(kind="prefix", tokens=np.array([[0], [1]]),
                          cols=(2, 3), mass=np.full((2, 3), 1 / 6))


@pytest.mark.parametrize(
    "label", ["ar", "masked:0.5", "dar:2", "vlm:0.5-0.75"]
)
def test_normalize_bytes_match_the_three_array_expression(label):
    # `normalize` computes in one buffer what this expression computes
    # through three joint-sized arrays.
    joint = exact_joint(parse_objective(label), ToyParams(2, 4, 2))
    pc, pg = joint.row_marginal(), joint.col_marginal()
    want = joint.mass / np.sqrt(np.outer(pc, pg))
    assert normalize(joint).matrix.tobytes() == want.tobytes()


def test_normalize_keeps_the_catalogs():
    joint = build_ar_joint(ToyParams(2, 3, 2))
    m = normalize(joint)
    assert m.tokens is joint.tokens and m.cols == joint.cols
    assert m.shape == joint.dense().shape


def test_conditional_text_canonical_forms():
    assert ConditionalText.unmasked([5, 2, 9]).tokens == (2, 5, 9)
    with pytest.raises(DomainError):
        ConditionalText.unmasked([3, 3])
    with pytest.raises(DomainError):
        ConditionalText.prefix([])
    assert ConditionalText.prefix([4, 1]).key() == "4-1"


def test_joint_csv_export(tmp_path):
    joint = build_ar_joint(ToyParams(1, 3, 1))
    path = tmp_path / "joint.csv"
    write_joint_csv(joint, path)
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["row_key", "col_token", "value"]
    assert len(lines) == 1 + len(joint.entries)
    # repr round-trips values exactly
    text_key, tok, value = lines[1]
    key = (
        ConditionalText.prefix([int(t) for t in text_key.split("-")]),
        int(tok),
    )
    assert float(value) == joint.entries[key]


def test_matrix_csv_skips_zeros(tmp_path):
    m = normalize(build_ar_joint(ToyParams(2, 3, 2)))
    path = tmp_path / "matrix.csv"
    write_matrix_csv(m, path)
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert len(lines) == 1 + int(np.count_nonzero(m.matrix))


def test_masked_row_count_formula():
    for (r, s, big_t, rho) in [(2, 4, 2, 0.5), (1, 5, 2, 0.6), (3, 4, 1, 0.25)]:
        params = ToyParams(r, s, big_t)
        u = unmasked_count(s, rho)
        joint = build_masked_joint(params, rho)
        assert len(joint.rows) == r * math.comb(s, u) * big_t**u
