"""Pooled attention encoder, its training loop, and the generation bound."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import oracles
from cospec import generation
from cospec.cooccurrence import (
    JointDistribution, admissible_counts, build_ar_joint, build_masked_joint,
    unmasked_count,
)
from cospec.errors import DomainError, NumericError
from cospec.generation import (
    LinearAttentionModel,
    TrainSettings,
    _Workspace,
    _slot_grids,
    delta_term,
    gen_loss,
    generation_bound_terms,
    masked_generation_bound,
    max_output_discrepancy,
    misalignment_weight,
    pooled_attention,
    train_model,
)
from cospec.objectives import exact_joint, parse_objective
from cospec.toy_model import ToyParams


def random_model(vocab, dim, seed):
    rng = np.random.default_rng(seed)
    return LinearAttentionModel(
        emb=rng.standard_normal((vocab, dim)),
        wq=rng.standard_normal((dim, dim)),
        wk=rng.standard_normal((dim, dim)),
        wv=rng.standard_normal((dim, dim)),
        w_out=rng.standard_normal((dim, vocab)),
    )


def test_single_token_pooling_formula():
    model = random_model(vocab=4, dim=3, seed=0)
    e = model.emb[2]
    want = float((e @ model.wq) @ (e @ model.wk)) * (e @ model.wv)
    assert_allclose(pooled_attention(model, [[2]])[0], want, atol=1e-12)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
@settings(max_examples=60)
def test_pooling_equals_triple_enumeration(seed, n):
    model = random_model(vocab=4, dim=3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    tokens = [int(t) for t in rng.integers(0, 4, size=n)]
    brute = oracles.brute_pooled(model.emb, model.wq, model.wk, model.wv, tokens)
    assert_allclose(pooled_attention(model, [tokens])[0], brute, atol=1e-10)


def test_pooling_needs_tokens():
    with pytest.raises(DomainError):
        pooled_attention(random_model(4, 2, 0), [[]])


@pytest.mark.parametrize("shape", [(2, 4, 2), (1, 6, 2)])
@pytest.mark.parametrize("label", ["ar", "dar:2", "masked:0.5", "vlm:0.25-0.5"])
def test_pooling_a_token_matrix_equals_pooling_each_text(shape, label):
    params = ToyParams(*shape)
    joint = exact_joint(parse_objective(label), params)
    for dim in (params.vocab_size, 64):
        model = random_model(params.vocab_size, dim, seed=dim)
        want = oracles.pooled_rows(
            model.emb, model.wq, model.wk, model.wv, joint.tokens
        )
        assert np.array_equal(pooled_attention(model, joint.tokens), want)


@pytest.mark.parametrize("tokens", [
    [[0, 1], [-1, -1]],  # an all-pad row
    [[-1, 2]],           # a pad before a token
    [[0, -1, 2]],
    [0, 1],              # one text, not a matrix
])
def test_pooling_refuses_rows_that_are_not_padded_texts(tokens):
    with pytest.raises(DomainError):
        pooled_attention(random_model(4, 2, 0), tokens)


def test_pooling_peak_is_below_one_embedding_stack():
    # the embedding sum runs in one (n, d) buffer, and at most three (n, d)
    # feature stacks are alive at once; a cumulative sum over the (n, L, d)
    # embedding stack peaks at two of those
    params = ToyParams(1, 10, 2)
    tokens = exact_joint(parse_objective("ar"), params).tokens
    model = random_model(params.vocab_size, params.vocab_size, seed=0)
    pooled_attention(model, tokens)
    tracemalloc.start()
    try:
        pooled_attention(model, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, length = tokens.shape
    assert peak < n * length * params.vocab_size * 8
    assert peak < 4 * n * params.vocab_size * 8


@pytest.mark.parametrize("r, s, big_t, label", [
    # random models
    pytest.param(2, 3, 2, None, id="2-3-2"),
    pytest.param(1, 4, 3, None, id="1-4-3"),
    # trained for a few steps
    (2, 3, 2, "ar"), (1, 4, 3, "dar:2"), (2, 4, 2, "masked:0.5"),
    (1, 4, 3, "vlm:0.25-0.75"),
])
def test_gen_loss_scores_every_sequence_of_the_corpus(r, s, big_t, label):
    params = ToyParams(r, s, big_t)
    if label is None:
        model = random_model(params.vocab_size, 3, seed=r + s)
    else:
        joint = exact_joint(parse_objective(label), params)
        model = train_model(joint, params, TrainSettings(steps=5),
                            np.random.default_rng(s)).model
    report = gen_loss(model, build_ar_joint(params))
    want, nll = oracles.gen_loss_loop(model, params)
    assert report["per_position"] == pytest.approx(want, rel=1e-14, abs=1e-15)
    assert report["gen_loss"] == pytest.approx(np.mean(list(want.values())),
                                               rel=1e-14, abs=1e-15)
    mean_nll = np.mean(list(nll.values()))
    assert report["nll"] == pytest.approx(mean_nll, rel=1e-14, abs=1e-15)
    assert report["perplexity"] == pytest.approx(np.exp(mean_nll), rel=1e-13)


@pytest.mark.parametrize("r, s, big_t, kind", [
    (2, 4, 2, "random"), (1, 5, 3, "random"), (2, 4, 2, "scaled x100"),
    (2, 4, 2, "zero head"),
])
def test_gen_loss_lies_in_the_range_of_a_unit_score_vector(r, s, big_t, kind):
    # a unit-norm score vector over C columns loses -z_j + 1/C per target
    params = ToyParams(r, s, big_t)
    joint = build_ar_joint(params)
    model = random_model(params.vocab_size, 4, seed=r * s * big_t)
    if kind == "scaled x100":
        model = LinearAttentionModel(*(100.0 * w for w in (
            model.emb, model.wq, model.wk, model.wv, model.w_out)))
    if kind == "zero head":
        model.w_out = np.zeros_like(model.w_out)
    report = gen_loss(model, joint)
    c = len(joint.cols)
    for value in (report["gen_loss"], *report["per_position"].values()):
        assert -1 + 1 / c <= value <= 1 + 1 / c


def test_zero_output_head_scores_zero_loss():
    params = ToyParams(1, 3, 2)
    model = random_model(params.vocab_size, 3, seed=1)
    model.w_out = np.zeros_like(model.w_out)
    joint = build_ar_joint(params)
    report = gen_loss(model, joint)
    assert report["gen_loss"] == 0.0
    assert set(report["per_position"]) == {2, 3}
    # uniform softmax over the catalog
    assert report["nll"] == pytest.approx(np.log(len(joint.cols)))
    assert report["perplexity"] == pytest.approx(len(joint.cols))


def test_single_column_catalog_is_free():
    params = ToyParams(1, 2, 1)
    model = LinearAttentionModel(
        emb=np.ones((2, 2)),
        wq=np.eye(2),
        wk=np.eye(2),
        wv=np.eye(2),
        w_out=np.ones((2, 2)),
    )
    report = gen_loss(model, build_ar_joint(params))
    assert report["gen_loss"] == pytest.approx(0.0, abs=1e-12)
    assert report["perplexity"] == pytest.approx(1.0)


def test_misalignment_weights_at_half_masking():
    u = unmasked_count(8, 0.5)
    assert misalignment_weight(u, 2) == pytest.approx(63.0)
    assert misalignment_weight(u, 3) == pytest.approx(56.0)
    assert misalignment_weight(u, 4) == pytest.approx(37.0)
    # one past the unmasked count the mismatch vanishes
    assert misalignment_weight(u, 5) == pytest.approx(0.0)


def test_bound_uses_the_integer_unmasked_count():
    # in floating point 9 * (1 - 1/3) is 6.000000000000001, and
    # 10 * (1 - 0.8) is 1.9999999999999996
    assert unmasked_count(9, 1 / 3) == 6
    assert unmasked_count(10, 0.8) == 2
    weights = {k: misalignment_weight(6, k) for k in range(2, 7)}
    assert weights == {k: float(6**3 - (k - 1) ** 3) for k in range(2, 7)}
    assert weights[2] == 215.0
    assert misalignment_weight(2, 2) == 7.0
    acc = 0.0
    for k, w in weights.items():
        acc += w**2 / (k - 1) ** 6 + w * 1.5**2 * 0.1
    assert masked_generation_bound(6, eta=0.1, delta=0.2, output_norm=1.5) \
        == acc / (2.0 * 6) + 0.2 + 1.0


def test_discrepancy_zero_when_embeddings_collapse():
    model = random_model(5, 3, seed=2)
    model.emb = np.tile(model.emb[0], (5, 1))
    assert max_output_discrepancy(model) == pytest.approx(0.0, abs=1e-9)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_discrepancy_matches_exhaustive_enumeration(seed):
    model = random_model(vocab=3, dim=2, seed=seed)
    corner = max_output_discrepancy(model)
    brute = oracles.brute_eta(model.emb, model.wq, model.wk, model.wv, range(3))
    assert corner == pytest.approx(brute, abs=1e-10)


def test_worst_pretraining_error_of_silent_model_is_zero():
    params = ToyParams(1, 4, 2)
    model = random_model(params.vocab_size, 3, seed=3)
    model.w_out = np.zeros_like(model.w_out)
    joint = build_masked_joint(params, 0.5)
    assert delta_term(model, joint) == pytest.approx(0.0)


def test_bound_arithmetic_from_fixed_terms():
    # the weights at u = 4 are 63, 56 and 37
    acc = (63.0**2 + 63.0 * 0.1) + (56.0**2 / 2**6 + 56.0 * 0.1) \
        + (37.0**2 / 3**6 + 37.0 * 0.1)
    assert masked_generation_bound(4, eta=0.1, delta=0.0, output_norm=1.0) \
        == pytest.approx(acc / 8.0 + 1.0)


def test_bound_shrinks_as_mask_ratio_grows():
    bounds = []
    for rho in (0.25, 0.5, 0.75):
        bounds.append(masked_generation_bound(
            unmasked_count(8, rho), eta=0.1, delta=0.0, output_norm=1.0))
    assert bounds[0] > bounds[1] > bounds[2]


def test_bound_terms_need_two_unmasked_positions():
    params = ToyParams(1, 4, 2)
    model = random_model(params.vocab_size, 2, seed=0)
    with pytest.raises(DomainError):
        generation_bound_terms(model, build_masked_joint(params, 0.75),
                               unmasked_count(params.s, 0.75))


def test_bound_terms_weight_range():
    params = ToyParams(1, 8, 2)
    model = random_model(params.vocab_size, 4, seed=4)
    terms = generation_bound_terms(model, build_masked_joint(params, 0.5),
                                   unmasked_count(params.s, 0.5))
    assert set(terms["weights"]) == {2, 3, 4}
    assert terms["weights"][3] == pytest.approx(56.0)
    assert terms["output_norm"] == pytest.approx(model.output_norm())
    assert terms["bound"] == masked_generation_bound(
        4, eta=terms["eta"], delta=terms["delta"],
        output_norm=terms["output_norm"])


@pytest.mark.parametrize("objective, shape", [
    ("vlm:0.5-0.75", (2, 8, 2)),
    ("vlm:0.25-0.5", (1, 4, 2)),
    ("vlm:0.34-0.67", (2, 6, 2)),
    ("vlm:0.25-0.75", (2, 4, 2)),  # u = 1 is on the grid, and skipped
    ("masked:0.5", (2, 8, 2)),
])
def test_bound_delta_from_the_own_joint_is_the_one_ratio_delta(
    objective, shape
):
    # the rows of a model's own joint with u visible tokens are those of
    # the one-ratio joint at (s - u) / s, so delta is the same to the bit
    params = ToyParams(*shape)
    spec = parse_objective(objective)
    joint = exact_joint(spec, params)
    model = random_model(params.vocab_size, 4, seed=params.s)
    s = params.s
    counts = [u for u in admissible_counts(s, spec.rho_lo, spec.rho_hi)
              if u >= 2]
    assert counts
    for u in counts:
        rho = (s - u) / s
        got = generation_bound_terms(model, joint, u)["delta"]
        assert got == delta_term(model, build_masked_joint(params, rho))


@pytest.mark.parametrize("objective, shape", [
    ("vlm:0.25-0.75", (2, 4, 2)),
    ("masked:0.5", (2, 8, 2)),
])
def test_bound_rows_are_read_in_place(monkeypatch, objective, shape):
    # every row comes from the trained joint itself: no joint is built
    params = ToyParams(*shape)
    spec = parse_objective(objective)
    joint = exact_joint(spec, params)
    model = random_model(params.vocab_size, 4, seed=params.s)
    s = params.s
    want = {u: delta_term(model, build_masked_joint(params, (s - u) / s))
            for u in admissible_counts(s, spec.rho_lo, spec.rho_hi) if u >= 2}

    def built(*args, **kwargs):
        raise AssertionError("generation_bound_terms built a joint")

    monkeypatch.setattr(generation, "JointDistribution", built)
    for u, delta in want.items():
        terms = generation_bound_terms(model, joint, u)
        assert terms["delta"] == delta
        assert set(terms["weights"]) == set(range(2, u + 1))


def test_bound_terms_refuse_a_joint_without_rows_at_the_ratio():
    # masked:0.5 has no row of 3 visible tokens; ar has, but they are
    # prefixes
    params = ToyParams(1, 8, 2)
    model = random_model(params.vocab_size, 4, seed=4)
    for joint in (build_masked_joint(params, 0.5), build_ar_joint(params)):
        with pytest.raises(DomainError, match="rows of 3 visible tokens"):
            generation_bound_terms(model, joint, unmasked_count(8, 0.625))


def test_training_memorizes_a_deterministic_corpus():
    # with one class and one slot the optimal quadratic loss is
    # -sum(A^2 / (4 pc pg)) = -1/2 over the two prefix lengths
    params = ToyParams(1, 3, 1)
    result = train_model(
        exact_joint(parse_objective("ar"), params),
        params,
        TrainSettings(steps=800),
        np.random.default_rng(0),
    )
    assert result.losses[-1] < 1e-3
    assert result.losses[-1] == pytest.approx(-0.5, abs=1e-3)


def test_training_loss_decreases():
    params = ToyParams(1, 4, 2)
    result = train_model(
        exact_joint(parse_objective("masked:0.5"), params),
        params,
        TrainSettings(steps=150),
        np.random.default_rng(1),
    )
    assert result.losses[-1] < result.losses[0]
    assert len(result.losses) == 150


def test_training_supports_narrow_feature_dimension():
    params = ToyParams(1, 3, 2)
    result = train_model(
        exact_joint(parse_objective("ar"), params),
        params,
        TrainSettings(dim=4, steps=60),
        np.random.default_rng(2),
    )
    assert result.model.emb.shape == (params.vocab_size, 4)


def _assert_gradients_match_finite_differences(params):
    joint = exact_joint(parse_objective("masked:" + str(1 / 3)), params)
    rng = np.random.default_rng(7)
    d = params.vocab_size
    weights = tuple(
        np.eye(*shape) + 0.05 * rng.standard_normal(shape)
        for shape in [(d, d)] * 4
    ) + (0.05 * rng.standard_normal((d, d)),)
    step = _Workspace(joint, weights, params)
    w = step.w
    step(w)
    grads = [g.copy() for g in step.grads]
    for idx, weight in enumerate(step.views(w)):
        def objective(x, weight=weight):
            weight[...] = x
            return step(w)

        start = weight.copy()
        fd = oracles.fd_gradient(objective, start.copy())
        weight[...] = start
        scale = max(np.abs(fd).max(), 1.0)
        assert np.max(np.abs(fd - grads[idx])) / scale < 1e-5


def test_training_gradients_match_finite_differences_everywhere():
    _assert_gradients_match_finite_differences(ToyParams(1, 3, 2))


def test_training_gradients_match_finite_differences_across_class_blocks():
    # two classes: every gradient is scattered back from two blocks
    _assert_gradients_match_finite_differences(ToyParams(2, 3, 2))


def assert_rel_close(got, want, rtol=1e-13):
    """Largest absolute difference within `rtol` of the largest |want|."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("objective, shape, dim", [
    # the column catalog of the prefix family is a sub-range of the vocab
    ("ar", (2, 6, 3), None),
    ("dar:2", (2, 6, 3), None),
    ("masked:0.5", (1, 4, 2), None),
    ("vlm:0.25-0.5", (1, 4, 2), None),
    ("ar", (1, 3, 2), 4),
    # two and three class blocks
    ("masked:0.5", (2, 4, 2), None),
    ("vlm:0.25-0.5", (3, 4, 2), None),
    ("dar:2", (3, 4, 2), None),
])
def test_training_matches_the_plain_step(objective, shape, dim):
    spec = parse_objective(objective)
    params = ToyParams(*shape)
    cfg = TrainSettings(dim=dim, steps=50)
    vocab = params.vocab_size
    weights = oracles.init_weights(
        np.random.default_rng(11), vocab, dim or vocab, cfg.init_noise
    )
    joint = exact_joint(spec, params)
    arrays = oracles.design(joint, vocab)

    step = _Workspace(joint, weights, params)
    _assert_grid_rebuilds_the_rows(step, arrays)
    _assert_step_matches_the_oracle(step, weights, arrays)

    result = train_model(joint, params, cfg, np.random.default_rng(11))
    losses, final = oracles.train_losses_and_weights(
        arrays, weights, cfg.lr, cfg.clip, cfg.steps
    )
    assert_rel_close(result.losses, losses)
    m = result.model
    for got, want in zip((m.emb, m.wq, m.wk, m.wv, m.w_out), final):
        assert_rel_close(got, want)


def _assert_grid_rebuilds_the_rows(step, arrays):
    """Every joint row, rebuilt from its (pattern, fill) on the step's slot
    grids, has its own token counts, and a pattern's rows one mass row."""
    incidence, a = arrays[:2]
    rebuilt = oracles.grid_counts(step.groups, incidence.shape[1])
    assert sorted(rebuilt) == list(range(len(incidence)))
    for row, (counts, _) in rebuilt.items():
        assert np.array_equal(counts, incidence[row])
    for rows, _, _ in step.groups:
        assert np.array_equal(a[rows], np.broadcast_to(a[rows[:, :1]],
                                                       a[rows].shape))


def _assert_step_matches_the_oracle(step, weights, arrays):
    loss = step(step.w)
    want_loss, want_grads = oracles.loss_and_grads(weights, *arrays)
    assert_rel_close(loss, want_loss)
    grads = step.unload(step.g, np.zeros_like(weights[4]))
    for got, want in zip(grads, want_grads):
        assert_rel_close(got, want)


GRID_KINDS = ["ar", "dar:2", "masked:0.5", "vlm:0.25-0.75"]
GRID_SHAPES = [(1, 3, 2), (2, 4, 2), (3, 4, 2), (2, 6, 3), (1, 4, 1)]


@pytest.mark.parametrize("objective, shape", [
    (label, shape) for label in GRID_KINDS for shape in GRID_SHAPES
    if label != "masked:0.5" or shape[1] % 2 == 0  # s/2 visible tokens
])
def test_grid_step_matches_the_plain_step(objective, shape):
    params = ToyParams(*shape)
    vocab = params.vocab_size
    weights = oracles.init_weights(np.random.default_rng(5), vocab, vocab,
                                   0.05)
    joint = exact_joint(parse_objective(objective), params)
    arrays = oracles.design(joint, vocab)
    step = _Workspace(joint, weights, params)
    _assert_grid_rebuilds_the_rows(step, arrays)
    _assert_step_matches_the_oracle(step, weights, arrays)


# At (2, 3, 2), class 1 owns tokens 0 and 1 (position 1), 4 and 5 (position
# 2), and 8 and 9 (position 3); class 2 has no row.
HAND_BUILT = {
    # the fills (0, 4) and (0, 5) differ in mass, so their pattern goes to
    # depth 0, while (1, 4) and (1, 5) stay on a grid
    "uneven": ({((0, 4), 8): 2, ((0, 5), 8): 1, ((1, 4), 8): 1,
                ((1, 4), 9): 1, ((1, 5), 8): 1, ((1, 5), 9): 1,
                ((0,), 4): 1, ((1,), 5): 1}, [(1, 1), (1, 2), (2, 3)]),
    # a repeated token, and positions out of order or repeated
    "repeated": ({((0, 0), 4): 1, ((4, 0), 8): 1, ((0, 4), 9): 2,
                  ((1, 5), 8): 1, ((5, 4, 4), 9): 1},
                 [(1, 2), (1, 3)]),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_depth_zero_rows_train_on_the_plain_step(name):
    params = ToyParams(2, 3, 2)
    entries, grids = HAND_BUILT[name]
    total = sum(entries.values())
    joint = oracles.from_entries({
        (oracles.prefix_text(t), c): v / total for (t, c), v in entries.items()
    })
    vocab = params.vocab_size
    weights = oracles.init_weights(np.random.default_rng(5), vocab, vocab,
                                   0.05)
    arrays = oracles.design(joint, vocab)
    step = _Workspace(joint, weights, params)
    # (fills, cells) of each group
    assert sorted({(rows.shape[1], cells.shape[1])
                   for rows, cells, _ in step.groups}) == grids
    _assert_grid_rebuilds_the_rows(step, arrays)
    _assert_step_matches_the_oracle(step, weights, arrays)
    cfg = TrainSettings(steps=20)
    result = train_model(joint, params, cfg, np.random.default_rng(5))
    losses, _ = oracles.train_losses_and_weights(
        arrays, oracles.init_weights(np.random.default_rng(5), vocab, vocab,
                                     cfg.init_noise), cfg.lr, cfg.clip,
        cfg.steps)
    assert_rel_close(result.losses, losses)


def test_the_grid_depth_is_set_by_the_size_rule():
    # masked:0.5 at (2, 8, 2): 2,240 rows of 4 visible tokens; all 16
    # fills of each of the 140 patterns share one slot matrix
    params = ToyParams(2, 8, 2)
    joint = exact_joint(parse_objective("masked:0.5"), params)
    [(rows, cells, x)] = _slot_grids(joint.tokens, joint.mass, params)
    assert (rows.shape, cells.shape, x.shape) == ((140, 16), (140, 8),
                                                  (16, 8))
    # ar at (1, 6, 10): at full depth the 10^5 fills of 5 visible tokens
    # would make a K of 10^5 x 50^2 entries; the grid stops at depth 2,
    # whose 100 fills serve 1,000 patterns
    params = ToyParams(1, 6, 10)
    joint = exact_joint(parse_objective("ar"), params)
    vocab = params.vocab_size
    weights = oracles.init_weights(np.random.default_rng(0), vocab, vocab,
                                   0.02)
    step = _Workspace(joint, weights, params)
    assert [(rows.shape, cells.shape[1]) for rows, cells, _ in step.groups] \
        == [((10, 1), 1), ((10, 10), 11), ((100, 10), 12),
            ((100, 100), 22), ((1000, 100), 23)]
    for (rows, _, _), (k, slab, *_) in zip(step.groups, step.passes):
        assert k.size <= slab.size
    # everything the step holds, against the row arrays of a step that
    # keeps each row's counts and mass over the class's m tokens: a
    # (rows, 3, m) stack, its product with the tables, and the counts
    arrays = [v for v in vars(step).values()
              if isinstance(v, np.ndarray) and v.base is None]
    held = sum(a.nbytes for a in arrays) + sum(k.nbytes for k, *_ in
                                               step.passes)
    assert held < 7 * len(joint.tokens) * vocab * 8 / 10


def test_a_joint_that_crosses_class_blocks_is_refused():
    # at (2, 3, 2), tokens 0 and 2 are position 1 of classes 1 and 2, and
    # tokens 6 and 10 are positions 2 and 3 of class 2
    params = ToyParams(2, 3, 2)
    unmasked = oracles.unmasked_text
    rows = {
        ((0, 4), 8): 0.25,   # class 1 throughout
        ((0, 2), 4): 0.25,   # its tokens span classes 1 and 2
        ((6, 10), 1): 0.5,   # class 2 tokens, a class 1 target
    }
    for bad, target in (((0, 2), 4), ((6, 10), 1)):
        entries = {(unmasked(t), c): v for (t, c), v in rows.items()
                   if t in ((0, 4), bad)}
        joint = oracles.from_entries(entries)
        i = [tuple(t[t >= 0]) for t in joint.tokens].index(bad)
        with pytest.raises(DomainError) as refused:
            train_model(joint, params, TrainSettings(steps=1))
        assert str(refused.value) == (
            f"joint row {i} (tokens {list(bad)}, targets [{target}]) does "
            "not lie in one class block at r=2, T=2")


@pytest.mark.parametrize("params, bad", [
    (ToyParams(1, 3, 2), [-1, 2]),
    # at (2, 3, 2), tokens 6 and 10 are positions 2 and 3 of class 2, the
    # last class, which a leading -1 would index
    (ToyParams(2, 3, 2), [-1, 6]),
    (ToyParams(2, 3, 2), [-1, -1]),
    (ToyParams(1, 3, 2), [0, -1, 2]),  # a pad between tokens
    (ToyParams(1, 3, 2), [-1, -1, -1]),  # an all-pad row
    (ToyParams(1, 3, 2), [0, -2, -1]),  # a pad other than -1
])
def test_a_row_that_starts_with_a_pad_is_refused(params, bad):
    # The joint refuses the text, so no writer, pooling or training step
    # sees it; the first bad row is named.
    good = [0, 4, -1][:len(bad)]
    with pytest.raises(DomainError) as refused:
        JointDistribution(kind="unmasked", tokens=np.array([good, bad, bad]),
                          cols=(params.vocab_size - 1,),
                          mass=np.full((3, 1), 1 / 3))
    assert str(refused.value) == (
        f"row 1 (tokens {bad}) is not a text: it needs a token first and -1 "
        "pads only after its last token")


def test_a_joint_beyond_the_vocabulary_is_refused():
    big = exact_joint(parse_objective("masked:0.5"), ToyParams(2, 4, 2))
    with pytest.raises(DomainError, match="beyond the vocabulary"):
        train_model(big, ToyParams(1, 4, 2), TrainSettings(steps=1))


def _step_peak(params):
    """Peak bytes one step traces, and the bound of two row-sized arrays."""
    joint = exact_joint(parse_objective("masked:0.5"), params)
    vocab = params.vocab_size
    weights = oracles.init_weights(np.random.default_rng(0), vocab, vocab, 0.02)
    step = _Workspace(joint, weights, params)

    def train_step():
        step(step.w)
        step.descend(step.w, 1e-3 / step.grad_norm())

    train_step()
    tracemalloc.start()
    try:
        train_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, c = joint.dense().shape
    return peak, 2 * n * max(c, vocab) * 8


def test_training_step_peak_is_below_two_row_sized_arrays():
    # the step allocates no row-sized array; the plain-expression step
    # peaks at about fourteen of them
    peak, bound = _step_peak(ToyParams(1, 6, 2))
    assert peak < bound


def test_training_step_peak_with_two_class_blocks():
    peak, bound = _step_peak(ToyParams(2, 6, 2))
    assert peak < bound


class _WrongGradient(_Workspace):
    """The true loss, but the gradient of `wq` is off by one everywhere."""

    every_call = True

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0

    def __call__(self, weights):
        loss = super().__call__(weights)
        self.calls += 1
        if self.every_call or self.calls == 1:
            self.grads[1][...] += 1.0
        return loss


@pytest.mark.parametrize("every_call", [True, False])
def test_gradient_check_catches_a_wrong_gradient(monkeypatch, every_call):
    # wrong on the first call only: the check must keep that call's
    # gradients, which its own probe calls then overwrite
    monkeypatch.setattr(_WrongGradient, "every_call", every_call)
    monkeypatch.setattr(generation, "_Workspace", _WrongGradient)
    with pytest.raises(NumericError, match="gradient check failed on weight 1"):
        train_model(build_ar_joint(ToyParams(1, 3, 2)), ToyParams(1, 3, 2),
                    TrainSettings(steps=1), np.random.default_rng(0))


class _InfiniteGradient(_Workspace):
    """The true loss, but one gradient entry is infinite from the third
    training step on; the gradient spot check before training reads no
    norm, so it does not advance the count."""

    def __init__(self, *args):
        super().__init__(*args)
        self.norms = 0

    def grad_norm(self):
        self.norms += 1
        if self.norms >= 3:
            self.grads[0][0, 0] = np.inf
        return super().grad_norm()


def test_a_non_finite_gradient_norm_is_a_numeric_error(monkeypatch):
    # the loss stays finite; an infinite norm would make the step scale 0.0
    # and freeze the weights for every remaining step
    monkeypatch.setattr(generation, "_Workspace", _InfiniteGradient)
    settings_ = TrainSettings(steps=10)
    with pytest.raises(NumericError, match="step 2 .*gradient norm inf"):
        train_model(build_ar_joint(ToyParams(1, 3, 2)), ToyParams(1, 3, 2),
                    settings_, np.random.default_rng(0))


def test_training_divergence_is_reported():
    params = ToyParams(1, 3, 1)
    settings_ = TrainSettings(lr=1e6, clip=1e18, steps=200)
    with pytest.raises(NumericError, match="diverged"):
        train_model(build_ar_joint(params), params, settings_,
                    np.random.default_rng(0))


def test_trained_masked_model_respects_its_bound():
    params = ToyParams(1, 6, 2)
    joint = exact_joint(parse_objective("masked:0.5"), params)
    result = train_model(joint, params, None, np.random.default_rng(3))
    report = gen_loss(result.model, build_ar_joint(params))
    terms = generation_bound_terms(result.model, joint,
                                   unmasked_count(params.s, 0.5))
    assert report["gen_loss"] <= terms["bound"]
