import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from cospec import experiments
from cospec.cooccurrence import build_ar_joint
from cospec.errors import DomainError
from cospec.experiments import derive_rng, max_query_drift
from cospec.toy_model import ToyParams, sample_sequence
from cospec.twostream import (
    build_masks,
    init_two_stream,
    parse_assignment,
    partition_groups,
    two_stream_forward,
    two_stream_layer,
    write_mask_csv,
)


def test_partition_examples():
    assert partition_groups(4, 1, 2).tolist() == [1, 2, 2, 3]
    assert partition_groups(5, 2, 2).tolist() == [1, 1, 2, 2, 3]
    assert partition_groups(4, 1, 1).tolist() == [1, 2, 3, 4]
    assert partition_groups(3, 3, 3).tolist() == [1, 1, 1]


def test_partition_groups_matches_the_group_size_loop():
    for s in range(1, 9):
        for t in range(1, s + 1):
            for g1 in range(1, t + 1):
                got = partition_groups(s, g1, t)
                assert got.tolist() == oracles.partition_groups_loop(s, g1, t)
                assert got.dtype.kind == "i", (s, g1, t)


def test_partition_validation():
    with pytest.raises(DomainError):
        partition_groups(4, 0, 2)
    with pytest.raises(DomainError):
        partition_groups(4, 3, 2)
    with pytest.raises(DomainError):
        partition_groups(1, 2, 2)
    with pytest.raises(DomainError):
        partition_groups(4, 1, 0)


def test_assignment_shape_rules():
    # every assignment the config can name covers its s positions, starts
    # at group 1 and steps up by at most one group per position
    for s in range(1, 9):
        for t in range(1, s + 1):
            for g1 in range(1, t + 1):
                a = partition_groups(s, g1, t)
                assert a.shape == (s,)
                assert a[0] == 1
                assert set(np.diff(a).tolist()) <= {0, 1}


def test_parse_assignment_strings():
    assert parse_assignment("g1=2,t=3", 7).tolist() == [1, 1, 2, 2, 2, 3, 3]
    assert parse_assignment(" g1=1, t=1 ", 3).tolist() == [1, 2, 3]
    with pytest.raises(DomainError, match="unknown"):
        parse_assignment("g1=1,t=2,x=3", 4)
    with pytest.raises(DomainError):
        parse_assignment("g1=1", 4)
    with pytest.raises(DomainError):
        parse_assignment("nonsense", 4)


def test_enumerate_assignments_counts_compositions():
    for s in (1, 2, 3, 4, 5):
        assignments = list(oracles.enumerate_assignments(s))
        assert len(assignments) == 2 ** (s - 1)
        assert len({tuple(a) for a in assignments}) == len(assignments)
        for a in assignments:
            assert a.shape == (s,)
            assert a[0] == 1
            assert set(np.diff(a).tolist()) <= {0, 1}


def test_mask_hand_example():
    content, query = build_masks(np.array([1, 2, 2, 3]))
    # position 2 (row index 1): content sees its own group, query does not
    assert [np.isfinite(v) for v in content[1]] == [True, True, True, False]
    assert [np.isfinite(v) for v in query[1]] == [True, False, False, False]
    assert np.all(np.isfinite(content[3]))
    assert [np.isfinite(v) for v in query[3]] == [True, True, True, False]


def test_query_mask_is_content_mask_minus_same_group():
    for s in range(1, 6):
        for a in oracles.enumerate_assignments(s):
            content, query = build_masks(a)
            content_ok = np.isfinite(content)
            query_ok = np.isfinite(query)
            assert not np.any(query_ok & ~content_ok)
            same_group = np.equal.outer(a, a)
            assert_allclose(content_ok & ~query_ok, same_group & content_ok)


def test_layer_with_uniform_logits_averages_allowed_values():
    a = np.array([1, 2, 2])
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 4))
    wk = rng.standard_normal((4, 4))
    wv = rng.standard_normal((4, 4))
    wq = np.zeros((4, 4))
    h_out, g_out = two_stream_layer(h, g, build_masks(a), wq, wk, wv)
    values = h @ wv
    assert_allclose(h_out[0], values[0], atol=1e-12)
    assert_allclose(h_out[1], values.mean(axis=0), atol=1e-12)
    assert_allclose(g_out[1], values[0], atol=1e-12)
    assert_allclose(g_out[0], np.zeros(4), atol=0)


def test_layer_single_position_conventions():
    a = np.array([1])
    rng = np.random.default_rng(1)
    h = rng.standard_normal((1, 3))
    g = rng.standard_normal((1, 3))
    w = [rng.standard_normal((3, 3)) for _ in range(3)]
    h_out, g_out = two_stream_layer(h, g, build_masks(a), *w)
    assert_allclose(h_out[0], (h @ w[2])[0], atol=1e-12)
    assert_allclose(g_out[0], np.zeros(3), atol=0)


def test_layer_shape_errors():
    a = np.array([1, 2])
    rng = np.random.default_rng(2)
    w = rng.standard_normal((3, 3))
    with pytest.raises(DomainError, match="shapes"):
        two_stream_layer(np.zeros((2, 3)), np.zeros((3, 3)),
                         build_masks(a), w, w, w)
    with pytest.raises(DomainError, match="mask"):
        two_stream_layer(np.zeros((3, 3)), np.zeros((3, 3)),
                         build_masks(a), w, w, w)


def test_query_stream_ignores_forbidden_tokens():
    params = ToyParams(2, 5, 2)
    model = init_two_stream(params, dim=6, rng=np.random.default_rng(3))
    a = partition_groups(5, 1, 2)
    rng = np.random.default_rng(4)
    x = sample_sequence(params, 1, rng)
    _, g_ref = two_stream_forward(model, x, a)
    for g in range(2, a[-1] + 1):
        rows = np.flatnonzero(a == g)
        other = sample_sequence(params, 1, rng)
        tokens = np.concatenate((x[: rows[0]], other[rows[0]:]))
        _, g_new = two_stream_forward(model, tokens, a)
        for p in rows:
            assert np.max(np.abs(g_new[p] - g_ref[p])) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_forward_is_bit_equal_to_one_text_at_a_time(seed):
    params = ToyParams(2, 6, 3)
    model = init_two_stream(params, dim=8, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(10 + seed)
    texts = np.array([
        sample_sequence(params, int(rng.integers(1, 3)), rng)
        for _ in range(12)
    ])
    for a in oracles.enumerate_assignments(6):
        h_out, g_out = two_stream_forward(model, texts, a)
        for k, tokens in enumerate(texts):
            h_ref, g_ref = oracles.per_text_forward(model, tokens, a)
            assert h_out[k].tobytes() == h_ref.tobytes(), a
            assert g_out[k].tobytes() == g_ref.tobytes(), a
        h_one, g_one = two_stream_forward(model, texts[0], a)
        assert h_one.tobytes() == h_out[0].tobytes()
        assert g_one.tobytes() == g_out[0].tobytes()


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("per_forward", [1024, 25, 7])
def test_query_drift_matches_the_per_text_loop(seed, per_forward, monkeypatch):
    # the bench `masks` op, whose 100 trials run as one stack or, split
    # into stacks of 25 or 7 trials, as four full stacks or as several with
    # a short last one
    monkeypatch.setattr(experiments, "_TRIALS_PER_FORWARD", per_forward)
    params = ToyParams(2, 8, 2)
    a = parse_assignment("g1=2,t=2", params.s)
    model = init_two_stream(params, dim=8, rng=derive_rng(seed, "masks"))
    got_rng = derive_rng(seed, "masks", "perturb")
    want_rng = derive_rng(seed, "masks", "perturb")
    got = max_query_drift(model, a, params, got_rng, trials=100)
    want = oracles.query_drift_loop(model, a.tolist(), params, want_rng, 100)
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_forward_requires_matching_length():
    params = ToyParams(1, 4, 2)
    model = init_two_stream(params, dim=4, rng=np.random.default_rng(0))
    with pytest.raises(DomainError):
        two_stream_forward(model, (0, 1), partition_groups(4, 1, 2))
    with pytest.raises(DomainError):
        two_stream_forward(model, [[0, 1, 2]], partition_groups(4, 1, 2))


def test_singleton_groups_give_plain_next_token_loss():
    params = ToyParams(2, 4, 2)
    model = init_two_stream(params, dim=6, rng=np.random.default_rng(5))
    a = partition_groups(4, 1, 1)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = sample_sequence(params, int(rng.integers(1, 3)), rng)
        got = oracles.semi_ar_loss(model, x, a, params)
        want = oracles.ar_reference_loss(model, x, params)
        assert got == pytest.approx(want, abs=1e-12)


def test_two_group_split_is_last_token_loss():
    params = ToyParams(1, 4, 2)
    model = init_two_stream(params, dim=5, rng=np.random.default_rng(7))
    a = np.array([1, 1, 1, 2])
    x = sample_sequence(params, 1, np.random.default_rng(8))
    _, g_out = two_stream_forward(model, x, a)
    cols = list(build_ar_joint(params).cols)
    z = g_out[3] @ model.w_out[:, cols]
    z = z / np.linalg.norm(z)
    want = -float(z[cols.index(x[3])]) + float(np.mean(z**2))
    got = oracles.semi_ar_loss(model, x, a, params)
    assert got == pytest.approx(want, abs=1e-12)


def test_single_group_has_nothing_to_predict():
    params = ToyParams(1, 3, 2)
    model = init_two_stream(params, dim=4, rng=np.random.default_rng(9))
    x = sample_sequence(params, 1, np.random.default_rng(10))
    with pytest.raises(DomainError):
        oracles.semi_ar_loss(model, x, np.ones(3, int), params)


def test_prediction_weights_are_a_distribution():
    for s, t in [(4, 2), (5, 2), (6, 3), (5, 1)]:
        law = oracles.prediction_weights(s, t)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        for (k, p) in law:
            assert 1 <= k < p <= s


def test_width_one_grouping_is_the_next_token_law():
    assert oracles.prediction_weights(5, 1) == pytest.approx(
        oracles.lookahead_position_law(5, 1))


@pytest.mark.parametrize("s,t", [(5, 2), (7, 3), (3, 2)])
def test_grouped_law_matches_lookahead_when_width_divides(s, t):
    # exact coincidence requires the group width to divide s - 1
    tv = oracles.tv_distance(oracles.prediction_weights(s, t),
                             oracles.lookahead_position_law(s, t))
    assert tv < 1e-12


def test_grouped_law_gap_at_misaligned_width():
    tv = oracles.tv_distance(oracles.prediction_weights(4, 2),
                             oracles.lookahead_position_law(4, 2))
    assert tv == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_mask_csv_golden(tmp_path):
    content, query = build_masks(np.array([1, 2, 2]))
    path = tmp_path / "mask.csv"
    write_mask_csv(query, path)
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["0", "0", "0"],
            ["1", "0", "0"],
            ["1", "0", "0"],
        ]
    write_mask_csv(content, path)
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["1", "0", "0"],
            ["1", "1", "1"],
            ["1", "1", "1"],
        ]
