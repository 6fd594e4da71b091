"""Exact joint builders against independent dict-based reference builders."""

import csv
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import oracles
from cospec import cooccurrence, output
from cospec.cooccurrence import (
    JointDistribution,
    admissible_counts,
    build_ar_joint,
    build_dar_joint,
    build_masked_joint,
    build_vlm_joint,
    normalize,
    unmasked_count,
    write_joint_csv,
    write_matrix_csv,
)
from cospec.decomposition import probe_features_for_joint
from cospec.errors import DomainError, ResourceError
from cospec.objectives import (
    build_joint_from_sampler,
    exact_joint,
    parse_objective,
)
from cospec.toy_model import ToyParams, decode_token


def as_plain_dict(joint: JointDistribution) -> dict:
    return {(text.tokens, tok): v
            for (text, tok), v in oracles.entries(joint).items()}


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
    assert list(oracles.rows(joint)) == sorted(oracles.rows(joint))
    assert list(joint.cols) == sorted(joint.cols)
    assert joint.dense().shape == (len(joint.tokens), len(joint.cols))
    # the entries come in catalog row-major order, with no repeated cell
    ri = {text: i for i, text in enumerate(oracles.rows(joint))}
    ci = {tok: j for j, tok in enumerate(joint.cols)}
    flat = [ri[text] * len(joint.cols) + ci[tok]
            for text, tok in oracles.entries(joint)]
    assert np.all(np.diff(flat) > 0)
    assert np.all(joint.row_marginal() > 0) and np.all(joint.col_marginal() > 0)
    for a in (joint.dense(), joint.row_marginal(), joint.col_marginal()):
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("label", LABELS)
def test_rows_and_entries_are_array_views(label):
    params = ToyParams(2, 4, 2)
    spec = parse_objective(label)
    for joint in (exact_joint(spec, params),
                  build_joint_from_sampler(spec, params, 500,
                                           np.random.default_rng(3))):
        assert joint.rows is joint.tokens
        cells = joint.entries
        assert len(cells) == np.count_nonzero(joint.mass)
        # the (row, col) index of each nonzero cell, in COO order
        assert np.array_equal(cells, np.transpose(np.nonzero(joint.mass)))
        assert len(cells) == len(oracles.entries(joint))


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
    assert [t.tokens for t in oracles.rows(joint)] == texts
    assert texts == oracle_conditionals(label, r, s, big_t)


@pytest.mark.parametrize("label", LABELS)
def test_from_entries_round_trips(label):
    joint = exact_joint(parse_objective(label), ToyParams(2, 4, 2))
    again = oracles.from_entries(oracles.entries(joint))
    assert again.kind == joint.kind
    assert again.cols == joint.cols
    assert oracles.rows(again) == oracles.rows(joint)
    assert np.array_equal(again.tokens, joint.tokens)
    assert again.tokens.tobytes() == joint.tokens.tobytes()
    assert again.dense().tobytes() == joint.dense().tobytes()


def test_from_entries_rejects_mixed_kinds():
    with pytest.raises(DomainError, match="kinds"):
        oracles.from_entries({
            (oracles.prefix_text([0]), 2): 0.5,
            (oracles.unmasked_text([1]), 2): 0.5,
        })


@pytest.mark.parametrize("label", LABELS)
def test_marginals_are_the_dense_sums(label):
    joint = exact_joint(parse_objective(label), ToyParams(2, 4, 2))
    rows, cols, matrix, pc, pg = oracles.normalized_dense(as_plain_dict(joint))
    assert [text.tokens for text in oracles.rows(joint)] == rows
    assert list(joint.cols) == cols
    assert np.array_equal(joint.row_marginal(), pc)
    assert np.array_equal(joint.col_marginal(), pg)
    assert np.array_equal(normalize(joint), matrix)


@pytest.mark.parametrize("label", LABELS)
def test_csv_writers_match_a_catalog_scan(label, tmp_path):
    joint = exact_joint(parse_objective(label), ToyParams(2, 4, 2))
    for write, scan, obj in (
        (write_joint_csv, oracles.scan_joint_csv, joint),
        (write_matrix_csv, oracles.scan_matrix_csv, joint),
    ):
        write(obj, tmp_path / "got.csv")
        scan(obj, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()


def test_ar_columns_exclude_first_position():
    params = ToyParams(2, 3, 2)
    joint = build_ar_joint(params)
    positions = {decode_token(params, c)[0] for c in joint.cols}
    assert positions == {2, 3}
    assert len(joint.tokens) == 2 * (2 + 4)


def test_ar_normalized_entries_depend_only_on_prefix_length():
    params = ToyParams(2, 3, 2)
    joint = build_ar_joint(params)
    a = joint.normalized
    for i, length in enumerate((joint.tokens >= 0).sum(axis=1)):
        nonzero = a[i][a[i] != 0.0]
        assert_allclose(nonzero, 1.0 / np.sqrt(2.0 ** (length + 1)), atol=1e-12)


def test_masked_entries_share_one_value():
    # r * C(s,u) * (s-u) * T^(u+1) = 2 * 6 * 2 * 8 at r=2, s=4, T=2, u=2
    joint = build_masked_joint(ToyParams(2, 4, 2), 0.5)
    values = sorted(set(oracles.entries(joint).values()))
    assert values == [pytest.approx(1.0 / 192.0)]
    assert len(joint.tokens) == 2 * 6 * 4


def test_masked_target_position_is_never_visible():
    params = ToyParams(2, 4, 2)
    joint = build_masked_joint(params, 0.5)
    for (text, target) in oracles.entries(joint):
        positions = [decode_token(params, t)[0] for t in text.tokens]
        assert decode_token(params, target)[0] not in positions


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
    assert oracles.rows(dar) == oracles.rows(ar) and dar.cols == ar.cols
    assert dar.dense().tobytes() == ar.dense().tobytes()


def test_lookahead_widens_target_support():
    params = ToyParams(2, 4, 2)
    joint = build_dar_joint(params, 2)
    one_row = next(t for t in oracles.rows(joint) if len(t.tokens) == 1)
    targets = {
        decode_token(params, c)[0]
        for (text, c) in oracles.entries(joint)
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
    assert len(build_vlm_joint(params, 0.25, 0.5, budget=112).tokens) == 112


@pytest.mark.parametrize("label, shape", [
    ("ar", (2, 4, 2)), ("dar:3", (1, 5, 3)), ("masked:0.5", (3, 4, 2)),
    ("vlm:0.25-0.75", (2, 4, 2)), ("vlm:0.2-0.8", (1, 5, 3)),
])
def test_joint_size_is_the_built_shape(monkeypatch, label, shape):
    # each budget refuses the joint at one below its size, not at its size
    spec, params = parse_objective(label), ToyParams(*shape)
    rows, cols = exact_joint(spec, params).mass.shape
    counts = (None if spec.width is not None
              else admissible_counts(params.s, spec.rho_lo, spec.rho_hi))
    cooccurrence.check_joint_size(params, counts, budget=rows)
    with pytest.raises(ResourceError, match="enumeration budget"):
        cooccurrence.check_joint_size(params, counts, budget=rows - 1)
    monkeypatch.setattr(cooccurrence, "CELL_BUDGET", rows * cols)
    exact_joint(spec, params)
    monkeypatch.setattr(cooccurrence, "CELL_BUDGET", rows * cols - 1)
    with pytest.raises(ResourceError, match=f"{rows} rows and {cols} "
                       "columns needs more than"):
        exact_joint(spec, params)


def test_mask_joint_is_sized_before_its_mass_is_formed():
    # 1 / (C(s, u) (s - u) T^(u + 1)) at u = 50,000 is past a float's range
    with pytest.raises(ResourceError, match="enumeration budget"):
        build_masked_joint(ToyParams(1, 100_000, 2), 0.5)


def test_sampled_joint_single_draw():
    params = ToyParams(1, 3, 2)
    joint = build_joint_from_sampler(
        parse_objective("ar"), params, 1, np.random.default_rng(0)
    )
    assert len(oracles.entries(joint)) == 1
    assert joint.mass.sum() == pytest.approx(1.0)
    with pytest.raises(DomainError, match="sample count must be >= 1, got 0"):
        build_joint_from_sampler(parse_objective("ar"), params, 0,
                                 np.random.default_rng(0))


def test_sampled_joint_is_reproducible():
    params = ToyParams(2, 4, 2)
    spec = parse_objective("masked:0.5")
    a = build_joint_from_sampler(spec, params, 300, np.random.default_rng(4))
    b = build_joint_from_sampler(spec, params, 300, np.random.default_rng(4))
    assert oracles.entries(a) == oracles.entries(b)


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
        {(oracles.prefix_text([0]), 2): 1.0}
    )
    a = normalize(joint)
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(1.0)
    _, _, weights = probe_features_for_joint(joint, 1, ToyParams(1, 3, 1))
    assert weights[0] == pytest.approx(1.0)


entry_values = st.lists(
    st.floats(0.01, 1.0, allow_nan=False), min_size=4, max_size=4
)


@given(values=entry_values, scale=st.floats(0.1, 50.0))
@settings(max_examples=60)
def test_normalize_is_scale_invariant(values, scale):
    rows = [oracles.prefix_text([0]), oracles.prefix_text([1])]
    keys = [(rows[0], 2), (rows[0], 3), (rows[1], 2), (rows[1], 3)]
    base = normalize(
        oracles.from_entries(dict(zip(keys, values)))
    )
    scaled = normalize(
        oracles.from_entries(
            {k: scale * v for k, v in zip(keys, values)}
        )
    )
    assert_allclose(scaled, base, atol=1e-12)


def test_normalize_weights_are_marginals():
    params = ToyParams(2, 4, 2)
    joint = build_masked_joint(params, 0.5)
    _, _, weights = probe_features_for_joint(joint, 2, params)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert_allclose(weights, joint.row_marginal() / joint.mass.sum(),
                    rtol=1e-12)
    assert np.all(weights > 0)


def test_joint_rejects_bad_entries():
    text = oracles.prefix_text([0])
    with pytest.raises(DomainError):
        oracles.from_entries({})
    with pytest.raises(DomainError, match="empty support"):
        JointDistribution(kind="prefix", tokens=np.zeros((0, 1), dtype=int),
                          cols=(), mass=np.zeros((0, 0)))
    with pytest.raises(DomainError):
        oracles.from_entries({(text, 1): -0.5})
    # explicit zeros are dropped, not kept as structural entries
    joint = oracles.from_entries({(text, 1): 1.0, (text, 2): 0.0})
    assert (text, 2) not in oracles.entries(joint)
    assert joint.cols == (1,)


@pytest.mark.parametrize("bad, message", [
    (math.nan, "non-finite"), (math.inf, "non-finite"), (-0.5, "negative"),
])
def test_from_entries_refuses_non_finite_or_negative_mass(bad, message):
    with pytest.raises(DomainError, match=message):
        oracles.from_entries({
            (oracles.prefix_text([0]), 2): bad,
            (oracles.prefix_text([1]), 3): 0.5,
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


@pytest.mark.parametrize("cols, entry", [((-1, 3), "entry 0 (-1)"),
                                         ((3, 3), "entry 1 (3)"),
                                         ((4, 3), "entry 1 (3)")])
def test_joint_refuses_cols_that_are_not_ascending_ids(cols, entry):
    # a column catalog of ids >= 0 in strictly increasing order is what
    # the training step and the triplet writers index by
    with pytest.raises(DomainError, match=re.escape(entry)):
        JointDistribution(kind="prefix", tokens=np.array([[0], [1]]),
                          cols=cols, mass=np.full((2, 2), 0.25))


@pytest.mark.parametrize(
    "label", ["ar", "masked:0.5", "dar:2", "vlm:0.5-0.75"]
)
def test_normalize_bytes_match_the_three_array_expression(label):
    # `normalize` computes in one buffer what this expression computes
    # through three joint-sized arrays.
    joint = exact_joint(parse_objective(label), ToyParams(2, 4, 2))
    pc, pg = joint.row_marginal(), joint.col_marginal()
    want = joint.mass / np.sqrt(np.outer(pc, pg))
    assert normalize(joint).tobytes() == want.tobytes()


def test_conditional_text_canonical_forms():
    assert oracles.unmasked_text([5, 2, 9]).tokens == (2, 5, 9)
    with pytest.raises(DomainError):
        oracles.unmasked_text([3, 3])
    with pytest.raises(DomainError):
        oracles.prefix_text([])
    assert oracles.text_key(oracles.prefix_text([4, 1])) == "4-1"


def test_joint_csv_export(tmp_path):
    joint = build_ar_joint(ToyParams(1, 3, 1))
    path = tmp_path / "joint.csv"
    write_joint_csv(joint, path)
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["row_key", "col_token", "value"]
    cells = oracles.entries(joint)
    assert len(lines) == 1 + len(cells)
    # repr round-trips values exactly
    text_key, tok, value = lines[1]
    key = (
        oracles.prefix_text([int(t) for t in text_key.split("-")]),
        int(tok),
    )
    assert float(value) == cells[key]


def test_matrix_csv_skips_zeros(tmp_path):
    joint = build_ar_joint(ToyParams(2, 3, 2))
    path = tmp_path / "matrix.csv"
    write_matrix_csv(joint, path)
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert len(lines) == 1 + int(np.count_nonzero(joint.normalized))


def test_masked_row_count_formula():
    for (r, s, big_t, rho) in [(2, 4, 2, 0.5), (1, 5, 2, 0.6), (3, 4, 1, 0.25)]:
        params = ToyParams(r, s, big_t)
        u = unmasked_count(s, rho)
        joint = build_masked_joint(params, rho)
        assert len(joint.tokens) == r * math.comb(s, u) * big_t**u


def assert_same_joint(got, want):
    """Equal kind and catalogs, and tokens and mass equal bit for bit."""
    assert (got.kind, got.cols) == (want.kind, want.cols)
    for a, b in ((got.tokens, want.tokens), (got.mass, want.mass)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def grid_labels(s):
    masks = [f"masked:{m / s}" for m in range(1, s)]  # u = s - 1 .. 1
    return ["ar", "dar:2", f"dar:{s}", *masks, "vlm:0.25-0.75", "vlm:0.5-0.9"]


@pytest.mark.parametrize("s", range(2, 9))
def test_grouped_builder_matches_the_per_pattern_oracle(s, monkeypatch):
    for r, big_t in itertools.product((1, 2, 3), (1, 2, 3)):
        params = ToyParams(r, s, big_t)
        for label in grid_labels(s):
            spec = parse_objective(label)
            got = exact_joint(spec, params)
            with monkeypatch.context() as patch:
                patch.setattr(cooccurrence, "_enumerate",
                              oracles.enumerate_per_pattern)
                want = exact_joint(spec, params)
            assert_same_joint(got, want)


@pytest.mark.parametrize("s", range(2, 9))
def test_row_key_tables_spell_the_oracle_keys(s):
    for r, big_t in itertools.product((1, 2, 3), (1, 2, 3)):
        for label in grid_labels(s):
            joint = exact_joint(parse_objective(label), ToyParams(r, s, big_t))
            table = output._id_table(joint.tokens, 3)
            keys = [row.tobytes().translate(None, output._PAD).decode()
                    for row in table]
            assert keys == oracles.row_keys(joint.tokens).tolist()


# sha256 of the two triplet files of `masked:0.5` at (3, 12, 2), as written
# when the row keys were a `U` array built with `np.char`
_TRIPLET_DIGESTS = {
    "joint": (93730585, "26fbc9793e32916a92d7265c3426caed"
                        "8879669f34d8d59a3f104f96a8d34f37"),
    "normalized": (91601689, "da4bc3769c80c8f7eac6fcdcd9a0f7e5"
                             "cc7dab42a4c2acdde4a6b9dd7d281e80"),
}


def test_large_triplet_files_keep_their_bytes(tmp_path):
    joint = exact_joint(parse_objective("masked:0.5"), ToyParams(3, 12, 2))
    for name, write in (("joint", write_joint_csv),
                        ("normalized", write_matrix_csv)):
        path = tmp_path / f"{name}.csv"
        write(joint, path)
        data = path.read_bytes()
        path.unlink()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            _TRIPLET_DIGESTS[name])


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_normalize_refuses_a_joint_beyond_the_float_range(scale):
    # at (1, 3, 2) the marginal products are about 1e-2 times scale**2,
    # which underflows to 0 or overflows to inf
    joint = build_ar_joint(ToyParams(1, 3, 2))
    scaled = JointDistribution(kind=joint.kind, tokens=joint.tokens,
                               cols=joint.cols, mass=joint.mass * scale)
    with pytest.raises(DomainError, match="outside the normal float range"):
        normalize(scaled)


def test_grouped_builder_refuses_at_the_oracles_row_count():
    # Mask patterns of three sizes, read in an order that is not the
    # grouped builder's; every budget at or just below a running row total.
    params = ToyParams(2, 5, 2)
    patterns = [
        (visible, [p for p in range(1, 6) if p not in visible], 0.5)
        for u in (3, 1, 4)
        for visible in itertools.combinations(range(1, 6), u)
    ]
    totals = np.cumsum([2 * 2 ** len(v) for v, _, _ in patterns])
    for budget in sorted({*totals.tolist(), *(totals - 1).tolist()}):
        outcomes = []
        for build in (oracles.enumerate_per_pattern, cooccurrence._enumerate):
            read = []

            def stream():
                for pattern in patterns:
                    read.append(pattern)
                    yield pattern

            try:
                joint = build(params, "unmasked", stream(), budget)
                outcomes.append((len(read), joint.tokens.tobytes(),
                                 joint.mass.tobytes()))
            except ResourceError as exc:
                outcomes.append((len(read), str(exc)))
        assert outcomes[0] == outcomes[1]
        # refused by the first pattern that takes the total past the budget
        first_over = int(np.searchsorted(totals, budget, side="right"))
        assert outcomes[0][0] == min(first_over + 1, len(patterns))
        assert (len(outcomes[0]) == 2) == (budget < totals[-1])


@pytest.mark.parametrize("label, shape", [
    *(pytest.param(label, (2, 4, 2), id=label)
      for label in ("ar", "dar:2", "masked:0.5", "vlm:0.25-0.75")),
    # texts of 11 ids in base 109, past one int64 word: 109**11 > 2**63
    pytest.param("ar", (3, 12, 3), id="ar-3-12-3"),
])
def test_sampler_counting_matches_the_np_unique_oracle(label, shape):
    spec, params = parse_objective(label), ToyParams(*shape)
    got = build_joint_from_sampler(spec, params, 20_000,
                                   np.random.default_rng(8))
    want = oracles.joint_from_sampler_by_unique(spec, params, 20_000,
                                                np.random.default_rng(8))
    assert_same_joint(got, want)
    assert got.mass.max() > 1 / 20_000  # some texts were drawn twice


def test_normalized_energy_is_its_squared_norm():
    joint = build_vlm_joint(ToyParams(2, 4, 2), 0.25, 0.75)
    assert joint.energy == float(np.sum(joint.normalized**2))
    assert joint.normalized.tobytes() == normalize(joint).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        joint.normalized[0, 0] = 0.0
