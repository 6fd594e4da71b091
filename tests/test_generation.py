"""Pooled attention encoder, its training loop, and the generation bound."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import oracles
from cospec import generation
from cospec.cooccurrence import build_masked_joint
from cospec.errors import DomainError, NumericError
from cospec.generation import (
    GenerationBoundTerms,
    LinearAttentionModel,
    TrainSettings,
    _Workspace,
    _design,
    delta_term,
    gen_loss,
    generation_bound_terms,
    generation_gap,
    masked_generation_bound,
    max_output_discrepancy,
    misalignment_weight,
    pooled_attention,
    target_catalog,
    train_model,
)
from cospec.objectives import exact_joint, parse_objective
from cospec.toy_model import ToyParams, enumerate_sequences


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
    assert_allclose(pooled_attention(model, [2]), want, atol=1e-12)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
@settings(max_examples=60)
def test_pooling_equals_triple_enumeration(seed, n):
    model = random_model(vocab=4, dim=3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    tokens = [int(t) for t in rng.integers(0, 4, size=n)]
    brute = oracles.brute_pooled(model.emb, model.wq, model.wk, model.wv, tokens)
    assert_allclose(pooled_attention(model, tokens), brute, atol=1e-10)


def test_pooling_needs_tokens():
    with pytest.raises(DomainError):
        pooled_attention(random_model(4, 2, 0), [])


def test_target_catalog_skips_first_position():
    params = ToyParams(2, 3, 2)
    assert target_catalog(params) == tuple(range(4, 12))


def test_zero_output_head_scores_zero_loss():
    params = ToyParams(1, 3, 2)
    model = random_model(params.vocab_size, 3, seed=1)
    model.w_out = np.zeros_like(model.w_out)
    dataset = list(enumerate_sequences(params))
    report = gen_loss(model, dataset, params)
    assert report.total == 0.0
    assert set(report.per_position) == {2, 3}
    # uniform softmax over the catalog
    assert report.nll == pytest.approx(np.log(len(target_catalog(params))))
    assert report.perplexity == pytest.approx(len(target_catalog(params)))


def test_single_column_catalog_is_free():
    params = ToyParams(1, 2, 1)
    model = LinearAttentionModel(
        emb=np.ones((2, 2)),
        wq=np.eye(2),
        wk=np.eye(2),
        wv=np.eye(2),
        w_out=np.ones((2, 2)),
    )
    report = gen_loss(model, list(enumerate_sequences(params)), params)
    assert report.total == pytest.approx(0.0, abs=1e-12)
    assert report.perplexity == pytest.approx(1.0)


def test_gen_loss_requires_data():
    with pytest.raises(DomainError):
        gen_loss(random_model(4, 2, 0), [], ToyParams(1, 2, 2))


def test_misalignment_weights_at_half_masking():
    assert misalignment_weight(8, 0.5, 2) == pytest.approx(63.0)
    assert misalignment_weight(8, 0.5, 3) == pytest.approx(56.0)
    assert misalignment_weight(8, 0.5, 4) == pytest.approx(37.0)
    # one past the unmasked count the mismatch vanishes
    assert misalignment_weight(8, 0.5, 5) == pytest.approx(0.0)


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


def test_discrepancy_grows_with_token_set():
    model = random_model(6, 3, seed=9)
    assert max_output_discrepancy(model, tokens=[2]) == pytest.approx(0.0)
    sub = max_output_discrepancy(model, tokens=[0, 1])
    assert sub <= max_output_discrepancy(model) + 1e-12


def test_worst_pretraining_error_of_silent_model_is_zero():
    params = ToyParams(1, 4, 2)
    model = random_model(params.vocab_size, 3, seed=3)
    model.w_out = np.zeros_like(model.w_out)
    joint = build_masked_joint(params, 0.5)
    assert delta_term(model, joint) == pytest.approx(0.0)


def test_bound_arithmetic_from_fixed_terms():
    terms = GenerationBoundTerms(
        weights={2: 63.0, 3: 56.0, 4: 37.0},
        eta=0.1,
        delta=0.0,
        output_norm=1.0,
        s=8,
        rho_m=0.5,
    )
    acc = (63.0**2 + 63.0 * 0.1) + (56.0**2 / 2**6 + 56.0 * 0.1) \
        + (37.0**2 / 3**6 + 37.0 * 0.1)
    assert masked_generation_bound(terms) == pytest.approx(acc / 8.0 + 1.0)
    assert generation_gap(terms, delta_ar=0.25) == pytest.approx(
        masked_generation_bound(terms) - 0.25
    )


def test_bound_shrinks_as_mask_ratio_grows():
    bounds = []
    for rho in (0.25, 0.5, 0.75):
        u = int(8 * (1 - rho))
        terms = GenerationBoundTerms(
            weights={k: misalignment_weight(8, rho, k) for k in range(2, u + 1)},
            eta=0.1,
            delta=0.0,
            output_norm=1.0,
            s=8,
            rho_m=rho,
        )
        bounds.append(masked_generation_bound(terms))
    assert bounds[0] > bounds[1] > bounds[2]


def test_bound_terms_need_two_unmasked_positions():
    params = ToyParams(1, 4, 2)
    model = random_model(params.vocab_size, 2, seed=0)
    with pytest.raises(DomainError):
        generation_bound_terms(model, params, 0.75)


def test_bound_terms_weight_range():
    params = ToyParams(1, 8, 2)
    model = random_model(params.vocab_size, 4, seed=4)
    terms = generation_bound_terms(model, params, 0.5)
    assert set(terms.weights) == {2, 3, 4}
    assert terms.weights[3] == pytest.approx(56.0)
    assert terms.output_norm == pytest.approx(model.output_norm())


def test_training_memorizes_a_deterministic_corpus():
    # with one class and one slot the optimal quadratic loss is
    # -sum(A^2 / (4 pc pg)) = -1/2 over the two prefix lengths
    params = ToyParams(1, 3, 1)
    result = train_model(
        parse_objective("ar"),
        params,
        TrainSettings(steps=800),
        np.random.default_rng(0),
    )
    assert result.losses[-1] < 1e-3
    assert result.losses[-1] == pytest.approx(-0.5, abs=1e-3)


def test_training_loss_decreases():
    params = ToyParams(1, 4, 2)
    result = train_model(
        parse_objective("masked:0.5"),
        params,
        TrainSettings(steps=150),
        np.random.default_rng(1),
    )
    assert result.losses[-1] < result.losses[0]
    assert len(result.losses) == 150


def test_training_supports_narrow_feature_dimension():
    params = ToyParams(1, 3, 2)
    result = train_model(
        parse_objective("ar"),
        params,
        TrainSettings(dim=4, steps=60),
        np.random.default_rng(2),
    )
    assert result.model.dim == 4
    assert result.model.vocab_size == params.vocab_size


def test_training_gradients_match_finite_differences_everywhere():
    params = ToyParams(1, 3, 2)
    joint = exact_joint(parse_objective("masked:" + str(1 / 3)), params)
    arrays = _design(joint, params.vocab_size)
    rng = np.random.default_rng(7)
    d = params.vocab_size
    weights = tuple(
        np.eye(*shape) + 0.05 * rng.standard_normal(shape)
        for shape in [(d, d)] * 4
    ) + (0.05 * rng.standard_normal((d, d)),)
    step = _Workspace(arrays, weights)
    step(weights)
    grads = [g.copy() for g in step.grads]
    for idx in range(5):
        def objective(w, idx=idx):
            probe = list(weights)
            probe[idx] = w
            return step(tuple(probe))

        fd = oracles.fd_gradient(objective, weights[idx].copy())
        scale = max(np.abs(fd).max(), 1.0)
        assert np.max(np.abs(fd - grads[idx])) / scale < 1e-5


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
])
def test_training_matches_the_plain_step(objective, shape, dim):
    spec = parse_objective(objective)
    params = ToyParams(*shape)
    cfg = TrainSettings(dim=dim, steps=50)
    vocab = params.vocab_size
    weights = oracles.init_weights(
        np.random.default_rng(11), vocab, dim or vocab, cfg.init_noise
    )
    arrays = _design(exact_joint(spec, params), vocab)

    step = _Workspace(arrays, weights)
    loss = step(weights)
    want_loss, want_grads = oracles.loss_and_grads(weights, *arrays)
    assert_rel_close(loss, want_loss)
    for got, want in zip(step.grads, want_grads):
        assert_rel_close(got, want)

    result = train_model(spec, params, cfg, np.random.default_rng(11))
    losses, final = oracles.train_losses_and_weights(
        arrays, weights, cfg.lr, cfg.clip, cfg.steps
    )
    assert_rel_close(result.losses, losses)
    m = result.model
    for got, want in zip((m.emb, m.wq, m.wk, m.wv, m.w_out), final):
        assert_rel_close(got, want)


@pytest.mark.parametrize("objective", ["ar", "masked:0.5", "vlm:0.25-0.5"])
def test_passing_the_joint_changes_no_byte(objective):
    spec = parse_objective(objective)
    params = ToyParams(1, 4, 2)
    cfg = TrainSettings(steps=30)
    built = train_model(spec, params, cfg, np.random.default_rng(5))
    passed = train_model(spec, params, cfg, np.random.default_rng(5),
                         joint=exact_joint(spec, params))
    assert built.losses == passed.losses
    for name in ("emb", "wq", "wk", "wv", "w_out"):
        got, want = getattr(passed.model, name), getattr(built.model, name)
        assert got.tobytes() == want.tobytes()


def test_a_joint_beyond_the_vocabulary_is_refused():
    spec = parse_objective("masked:0.5")
    big = exact_joint(spec, ToyParams(2, 4, 2))
    with pytest.raises(DomainError, match="beyond the vocabulary"):
        train_model(spec, ToyParams(1, 4, 2), TrainSettings(steps=1),
                    joint=big)


def test_training_step_peak_is_below_two_row_sized_arrays():
    # what is left is numpy's buffer for one broadcast product at a time;
    # the plain-expression step peaks at about fourteen such arrays
    params = ToyParams(1, 6, 2)
    joint = exact_joint(parse_objective("masked:0.5"), params)
    vocab = params.vocab_size
    weights = oracles.init_weights(np.random.default_rng(0), vocab, vocab, 0.02)
    step = _Workspace(_design(joint, vocab), weights)

    def train_step():
        step(weights)
        step.descend(weights, 1e-3 / step.grad_norm())

    train_step()
    tracemalloc.start()
    try:
        train_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, c = joint.dense().shape
    assert peak < 2 * n * max(c, vocab) * 8


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
        train_model(parse_objective("ar"), ToyParams(1, 3, 2),
                    TrainSettings(steps=1), np.random.default_rng(0))


class _InfiniteGradient(_Workspace):
    """The true loss, but one gradient entry is infinite from the third call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0

    def __call__(self, weights):
        loss = super().__call__(weights)
        self.calls += 1
        if self.calls >= 3:
            self.grads[0][0, 0] = np.inf
        return loss


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_gradient_norm_is_a_numeric_error(monkeypatch):
    # the loss stays finite; an infinite norm would make the step scale 0.0
    # and freeze the weights for every remaining step
    monkeypatch.setattr(generation, "_Workspace", _InfiniteGradient)
    settings_ = TrainSettings(steps=10, check_gradients=False)
    with pytest.raises(NumericError, match="step 2 .*gradient norm inf"):
        train_model(parse_objective("ar"), ToyParams(1, 3, 2), settings_,
                    np.random.default_rng(0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_is_reported():
    params = ToyParams(1, 3, 1)
    settings_ = TrainSettings(
        lr=1e6, clip=1e18, steps=200, check_gradients=False
    )
    with pytest.raises(NumericError, match="diverged"):
        train_model(parse_objective("ar"), params, settings_,
                    np.random.default_rng(0))


def test_trained_masked_model_respects_its_bound():
    params = ToyParams(1, 6, 2)
    result = train_model(
        parse_objective("masked:0.5"), params, None, np.random.default_rng(3)
    )
    dataset = list(enumerate_sequences(params))
    report = gen_loss(result.model, dataset, params)
    terms = generation_bound_terms(result.model, params, 0.5)
    assert report.total <= masked_generation_bound(terms)
