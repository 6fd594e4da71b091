import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cospec.cooccurrence import (
    build_ar_joint,
    build_masked_joint,
    build_vlm_joint,
    normalize,
)
from cospec.decomposition import probe_features_for_joint
from cospec.errors import DomainError, ResourceError
from cospec.spectral import (
    connectivity_estimate,
    exact_ar_spectrum,
    predicted_masked_spectrum,
    singular_spectrum,
    tail_energy,
)
from cospec.toy_model import ToyParams, token_label
import oracles


def test_identity_matrix_spectrum():
    assert_allclose(singular_spectrum(np.eye(3)), np.ones(3))


def test_next_token_spectrum_matches_construction():
    params = ToyParams(2, 3, 2)
    numeric = singular_spectrum(normalize(build_ar_joint(params)))
    closed = exact_ar_spectrum(params)
    assert_allclose(numeric, oracles.padded(closed, len(numeric)), atol=1e-12)
    # one unit value per (class, prefix length) block
    assert int(np.sum(numeric > 0.5)) == 2 * (3 - 1)


def test_predicted_next_token_form_overcounts_by_r():
    # the stated closed form credits one extra unit value per class; the
    # comparisons downstream use it, so the relationship is pinned here
    params = ToyParams(2, 3, 2)
    exact = exact_ar_spectrum(params)
    predicted = oracles.predicted_ar_spectrum(params)
    assert int(np.sum(exact > 0.5)) == params.r * (params.s - 1)
    assert int(np.sum(predicted > 0.5)) == params.r * params.s
    n = max(len(exact), len(predicted))
    diff = oracles.padded(predicted, n) - oracles.padded(exact, n)
    assert diff.min() >= -1e-12
    assert diff.sum() == pytest.approx(params.r)


def test_masked_spectrum_closed_form_is_exact():
    params = ToyParams(2, 4, 2)
    numeric = singular_spectrum(normalize(build_masked_joint(params, 0.5)))
    closed = predicted_masked_spectrum(params, 0.5, 0.5)
    n = max(len(numeric), len(closed))
    gap = oracles.padded(numeric, n) - oracles.padded(closed, n)
    assert np.max(np.abs(gap)) < 1e-10
    # r unit values, then r(s-1) copies of sqrt(u / ((s-u)(s-1)))
    assert_allclose(closed[:2], 1.0)
    assert_allclose(closed[2:8], np.sqrt(1.0 / 3.0), atol=1e-15)


def test_masked_middle_value_formula():
    params = ToyParams(1, 8, 2)
    middle = predicted_masked_spectrum(params, 0.75, 0.75)[1]
    assert middle == pytest.approx(np.sqrt(2.0 / (6.0 * 7.0)))
    middle = predicted_masked_spectrum(params, 0.5, 0.5)[1]
    assert middle == pytest.approx(np.sqrt(4.0 / (4.0 * 7.0)))


def test_masked_middle_value_shrinks_with_mask_ratio():
    params = ToyParams(1, 8, 2)
    values = [
        predicted_masked_spectrum(params, rho, rho)[1]
        for rho in (0.25, 0.5, 0.75)
    ]
    assert values[0] > values[1] > values[2]


def test_masked_spectrum_closed_form_holds_on_every_ratio_range():
    # every [lo, hi] on the grid m/s, one hidden position (u = s - 1) included
    worst = 0.0
    for r, s, big_t in itertools.product((1, 2), range(3, 7), (1, 2)):
        params = ToyParams(r, s, big_t)
        for lo, hi in itertools.combinations_with_replacement(range(1, s), 2):
            numeric = singular_spectrum(
                normalize(build_vlm_joint(params, lo / s, hi / s)))
            closed = predicted_masked_spectrum(params, lo / s, hi / s)
            n = max(len(numeric), len(closed))
            err = np.max(np.abs(oracles.padded(numeric, n)
                                - oracles.padded(closed, n)))
            worst = max(worst, float(err))
    assert worst < 1e-12
    # u = s - 1: the middle values are ones
    assert_allclose(
        predicted_masked_spectrum(ToyParams(2, 4, 2), 0.25, 0.25),
        np.ones(8))


def test_block_matrix_hand_value():
    spectrum = oracles.block_matrix_spectrum(1.0, 0.0, 2, 3)
    assert_allclose(spectrum, [2.0, 2.0, 2.0, 0.0, 0.0, 0.0])


@given(
    p_a=st.floats(-2.0, 2.0),
    p_b=st.floats(-2.0, 2.0),
    s_a=st.integers(1, 4),
    s_b=st.integers(1, 4),
)
@settings(max_examples=80)
def test_block_matrix_spectrum_matches_dense_svd(p_a, p_b, s_a, s_b):
    closed = oracles.block_matrix_spectrum(p_a, p_b, s_a, s_b)
    dense = oracles.block_matrix(p_a, p_b, s_a, s_b)
    numeric = np.linalg.svd(dense, compute_uv=False)
    assert_allclose(closed, np.sort(numeric)[::-1], atol=1e-10)


def test_block_sizes_validated():
    with pytest.raises(DomainError):
        oracles.block_matrix_spectrum(1.0, 0.0, 0, 3)


def test_tail_energy_values():
    spectrum = singular_spectrum(np.diag([1.0, 1.0, 0.5, 0.5]))
    assert tail_energy(spectrum, 2) == pytest.approx(0.125)
    assert tail_energy(spectrum, 0) == pytest.approx(2.125)
    assert tail_energy(spectrum, 10) == 0.0
    with pytest.raises(DomainError):
        tail_energy(spectrum, -1)


def test_tail_energy_closed_forms_at_r():
    # predicted forms at r=2, s=4, T=2, rho=0.5 and t=r
    params = ToyParams(2, 4, 2)
    masked_tail = tail_energy(predicted_masked_spectrum(params, 0.5, 0.5), 2)
    ar_tail = tail_energy(oracles.predicted_ar_spectrum(params), 2)
    assert masked_tail == pytest.approx(2.0 / 3.0)
    assert ar_tail == pytest.approx(6.0)


@pytest.mark.parametrize(
    "builder",
    [
        lambda p: build_ar_joint(p),
        lambda p: build_masked_joint(p, 2 / p.s),
    ],
)
def test_top_singular_value_never_exceeds_one(builder):
    for r, s, big_t in [(1, 3, 2), (2, 4, 2), (3, 4, 1)]:
        m = normalize(builder(ToyParams(r, s, big_t)))
        assert singular_spectrum(m)[0] <= 1.0 + 1e-10


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_spectrum_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 6))
    shuffled = a[rng.permutation(4)][:, rng.permutation(6)]
    assert_allclose(
        singular_spectrum(a),
        singular_spectrum(shuffled),
        atol=1e-10,
    )


def test_labeling_error_zero_on_exact_joints():
    params = ToyParams(2, 4, 2)
    labeler = lambda tok: token_label(params, tok)
    assert oracles.labeling_error(build_ar_joint(params), labeler) == 0.0
    masked = build_masked_joint(params, 0.5)
    assert oracles.labeling_error(masked, labeler) == 0.0


def test_labeling_error_counts_cross_class_mass():
    a = oracles.prefix_text([0])
    b = oracles.prefix_text([1])
    joint = oracles.from_entries({(a, 2): 0.7, (b, 2): 0.3})
    labeler = {0: 1, 1: 2, 2: 1}.get
    assert oracles.labeling_error(joint, labeler) == pytest.approx(0.3)


def test_labeling_error_rejects_mixed_conditionals():
    mixed = oracles.unmasked_text([0, 1])
    joint = oracles.from_entries({(mixed, 2): 1.0})
    with pytest.raises(DomainError, match="mixes"):
        oracles.labeling_error(joint, {0: 1, 1: 2, 2: 1}.get)


def test_connectivity_extremes():
    same = np.tile([1.0, 0.0], (4, 1))
    assert connectivity_estimate(same) == pytest.approx(1.0)
    assert connectivity_estimate(np.eye(3)) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        connectivity_estimate(same[:1])


@given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
@settings(max_examples=40)
def test_connectivity_is_the_pairwise_mean(seed, n):
    f = np.random.default_rng(seed).standard_normal((n, 3)) + 0.5
    want = oracles.pairwise_mean(f)
    got = connectivity_estimate(f)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_connectivity_masked_above_next_token():
    params = ToyParams(2, 4, 2)
    t = params.r + 1
    x_ar, _, _ = probe_features_for_joint(build_ar_joint(params), t, params)
    x_m, _, _ = probe_features_for_joint(
        build_masked_joint(params, 0.5), t, params
    )
    conn_ar = connectivity_estimate(x_ar)
    conn_m = connectivity_estimate(x_m)
    for x, conn in ((x_ar, conn_ar), (x_m, conn_m)):
        want = oracles.pairwise_mean(x)
        assert conn == pytest.approx(want, rel=1e-12)
    assert conn_m > conn_ar
    assert conn_ar < 0.7
    assert conn_m > 0.8


def test_dense_svd_budget():
    # the budget bounds rows * cols * min(rows, cols), the thin SVD's cost:
    # a square side past it is refused, a tall, thin matrix is not
    with pytest.raises(ResourceError, match="budget"):
        singular_spectrum(np.zeros((4001, 4001)))
    assert len(singular_spectrum(np.zeros((16128, 40)))) == 40
