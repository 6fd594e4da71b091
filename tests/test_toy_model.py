import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import enumerate_sequences

from cospec.errors import DomainError, ResourceError
from cospec.toy_model import (
    ToyParams,
    decode_token,
    sample_sequence,
    token_id,
    token_label,
)


def test_first_cell_is_token_zero():
    for params in (ToyParams(1, 2, 1), ToyParams(3, 5, 2)):
        assert token_id(params, 1, 1, 1) == 0


def test_ids_are_position_major():
    params = ToyParams(2, 3, 3)
    assert token_id(params, 2, 1, 1) == 6
    # every id of position p is below every id of position p + 1
    for p in range(1, params.s):
        hi = token_id(params, p, params.r, params.T)
        lo = token_id(params, p + 1, 1, 1)
        assert hi < lo


@given(
    r=st.integers(1, 4),
    s=st.integers(2, 6),
    big_t=st.integers(1, 4),
    data=st.data(),
)
def test_encode_decode_round_trip(r, s, big_t, data):
    params = ToyParams(r, s, big_t)
    position = data.draw(st.integers(1, s))
    label = data.draw(st.integers(1, r))
    slot = data.draw(st.integers(1, big_t))
    tok = token_id(params, position, label, slot)
    assert 0 <= tok < params.vocab_size
    assert decode_token(params, tok) == (position, label, slot)


def test_decode_covers_whole_vocabulary():
    params = ToyParams(2, 3, 2)
    triples = {decode_token(params, t) for t in range(params.vocab_size)}
    assert len(triples) == params.vocab_size == 12
    assert decode_token(params, 11)[0] == 3
    assert token_label(params, 11) == 2


def test_array_codec_matches_the_scalar_one():
    params = ToyParams(3, 6, 3)
    ids = np.arange(params.vocab_size)
    triples = [decode_token(params, t) for t in range(params.vocab_size)]
    position, label, slot = decode_token(params, ids)
    assert list(zip(position.tolist(), label.tolist(), slot.tolist())) == (
        triples)
    assert token_label(params, ids).tolist() == [y for _, y, _ in triples]
    assert decode_token(params, ids.reshape(6, -1))[0].tolist() == (
        position.reshape(6, -1).tolist())
    assert token_id(params, position, label, slot).tolist() == ids.tolist()
    # scalars and arrays broadcast together
    assert token_id(params, np.arange(1, 7), 2, 1).tolist() == [
        token_id(params, p, 2, 1) for p in range(1, 7)]


def test_array_codec_rejects_any_id_out_of_range():
    params = ToyParams(2, 3, 2)
    with pytest.raises(DomainError, match="index 12 is out of bounds .* 12"):
        decode_token(params, np.array([0, 12, 3]))
    with pytest.raises(DomainError, match=r"outside 1\.\.3, 1\.\.2, 1\.\.2"):
        token_id(params, np.array([1, 2]), 1, np.array([1, 3]))


def test_encode_rejects_out_of_range():
    params = ToyParams(2, 3, 2)
    with pytest.raises(DomainError):
        token_id(params, 0, 1, 1)
    with pytest.raises(DomainError):
        token_id(params, 4, 1, 1)
    with pytest.raises(DomainError):
        token_id(params, 1, 3, 1)
    with pytest.raises(DomainError):
        token_id(params, 1, 1, 3)
    with pytest.raises(DomainError):
        decode_token(params, 12)
    with pytest.raises(DomainError):
        decode_token(params, -1)


def test_params_validation():
    with pytest.raises(DomainError):
        ToyParams(0, 3, 1)
    with pytest.raises(DomainError):
        ToyParams(1, 1, 1)
    with pytest.raises(DomainError):
        ToyParams(1, 3, 0)
    assert ToyParams(2, 4, 3).vocab_size == 24
    assert ToyParams(2, 4, 3).corpus_size == 2 * 81


def test_params_dict_round_trip():
    params = ToyParams(2, 5, 3)
    assert ToyParams(**params.to_dict()) == params


def test_enumeration_covers_corpus_once():
    params = ToyParams(2, 3, 2)
    seqs = enumerate_sequences(params)
    assert seqs.shape == (params.corpus_size, params.s) == (16, 3)
    assert len({tuple(x) for x in seqs.tolist()}) == 16
    assert sum(1 for x in seqs if token_label(params, x[0]) == 1) == 8
    for x in seqs:
        label = token_label(params, x[0])
        for pos, tok in enumerate(x, start=1):
            got_pos, got_label, _ = decode_token(params, tok)
            assert got_pos == pos
            assert got_label == label


@pytest.mark.parametrize("r, s, big_t", [(2, 3, 2), (1, 4, 3)])
def test_enumeration_order_is_class_major_then_lexicographic(r, s, big_t):
    # `oracles.gen_loss_loop` visits the corpus in this order
    params = ToyParams(r, s, big_t)
    want = [
        [token_id(params, p, y, j) for p, j in enumerate(fill, start=1)]
        for y in range(1, r + 1)
        for fill in itertools.product(range(1, big_t + 1), repeat=s)
    ]
    assert enumerate_sequences(params).tolist() == want


def test_enumeration_budget_points_at_sampler():
    params = ToyParams(3, 12, 3)
    with pytest.raises(ResourceError, match="sample_sequence"):
        enumerate_sequences(params)


def test_sampler_respects_class_and_positions():
    params = ToyParams(2, 4, 2)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = sample_sequence(params, 2, rng)
        assert x.shape == (params.s,)
        assert [decode_token(params, t)[0] for t in x] == [1, 2, 3, 4]
        assert all(token_label(params, t) == 2 for t in x)


def test_sampler_is_reproducible():
    params = ToyParams(2, 5, 3)
    a = [sample_sequence(params, 1, np.random.default_rng(9)) for _ in range(20)]
    b = [sample_sequence(params, 1, np.random.default_rng(9)) for _ in range(20)]
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 9])
def test_sampler_draws_one_slot_vector(seed):
    # one `integers(1, T + 1, size=s)` draw per sequence, which the `masks`
    # experiment's stream of trials depends on
    params = ToyParams(2, 5, 3)
    rng = np.random.default_rng(seed)
    got = [sample_sequence(params, 2, rng) for _ in range(3)]
    ref = np.random.default_rng(seed)
    want = [token_id(params, np.arange(1, params.s + 1), 2,
                     ref.integers(1, params.T + 1, size=params.s))
            for _ in range(3)]
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sampler_slot_frequencies_are_uniform():
    params = ToyParams(1, 3, 4)
    rng = np.random.default_rng(17)
    n = 40_000
    counts = np.zeros((params.s, params.T))
    tokens = np.array([sample_sequence(params, 1, rng) for _ in range(n)])
    np.add.at(counts, (np.arange(params.s), decode_token(params, tokens)[2] - 1),
              1)
    # each (position, slot) cell is Binomial(n, 1/T); allow 4 sigma
    expected = n / params.T
    sigma = np.sqrt(n * (1 / params.T) * (1 - 1 / params.T))
    assert np.all(np.abs(counts - expected) < 4 * sigma)


def test_sampler_rejects_bad_class():
    with pytest.raises(DomainError):
        sample_sequence(ToyParams(2, 3, 2), 3, np.random.default_rng(0))
