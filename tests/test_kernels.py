"""The closed-form small-matrix kernels of mtcover.expansion against LAPACK
and a 40-digit SVD."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover.errors import NonFiniteSlice
from mtcover.expansion import (
    _chain_sigma_min,
    _cholesky,
    _extremes,
    _gram,
    _singular_extremes,
    _sweep,
    _sym3_max,
)


ULPS = 8 * np.finfo(float).eps  # normwise agreement with LAPACK


def _orthogonal(rng, n, size=()):
    q, r = np.linalg.qr(rng.standard_normal(size + (n, n)))
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_closed_form_2x2_eigenvalues_match_eigvalsh(rng, scale):
    s = rng.standard_normal((4096, 2, 2)) * scale
    for a in (s + np.swapaxes(s, 1, 2),                          # indefinite
              np.swapaxes(s, 1, 2) @ s,                          # PSD, some nearly singular
              -(np.swapaxes(s, 1, 2) @ s) - scale * scale * np.eye(2)):  # negative definite
        lo, hi = _extremes(a)
        ev = np.linalg.eigvalsh(a)
        norm = np.abs(ev).max(axis=1)
        assert np.all(np.abs(lo - ev[:, 0]) <= ULPS * norm)
        assert np.all(np.abs(hi - ev[:, 1]) <= ULPS * norm)


def test_closed_form_2x2_singular_values_match_svd(rng):
    j = rng.standard_normal((4096, 2, 2)) * np.exp(rng.uniform(-5, 5, (4096, 1, 1)))
    lo, hi = _singular_extremes(j)
    sv = np.linalg.svd(j, compute_uv=False)
    assert_allclose(hi, sv[:, 0], rtol=ULPS)
    assert np.all(np.abs(lo - sv[:, 1]) <= ULPS * sv[:, 0])


def test_closed_form_3x3_top_eigenvalue_matches_eigvalsh(rng):
    m = rng.standard_normal((4096, 3, 3)) * np.exp(rng.uniform(-4, 4, (4096, 1, 3)))
    g = np.swapaxes(m, 1, 2) @ m
    assert_allclose(_sym3_max(g), np.linalg.eigvalsh(g)[:, -1], rtol=2e-15)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cholesky_is_lapacks_factor_bit_for_bit(rng, n, scale):
    # the closed form below n = 3 is l00 = sqrt(a), l10 = b * (1 / l00),
    # l11 = sqrt(c - l10^2); it must not move the adapted rate by a bit
    for cond in (1.0, 1e4, 1e8):
        q = _orthogonal(rng, n, (4096,))
        spec = np.exp(rng.uniform(0.0, np.log(cond), (4096, 1, n)))
        m = scale * (q * spec) @ np.swapaxes(q, 1, 2)
        assert np.array_equal(_cholesky(m), np.linalg.cholesky(m))
    s = rng.standard_normal((4096, n, n))
    m = scale * (_gram(s) + 0.1 * np.eye(n))
    assert np.array_equal(_cholesky(m), np.linalg.cholesky(m))


@pytest.mark.parametrize("n", [2, 3])
def test_gram_is_the_plain_product_bit_for_bit(rng, n):
    # the copied right operand changes numpy's matmul path, not the bits
    j = rng.standard_normal((4096, n, n)) * np.exp(rng.uniform(-8, 8, (4096, 1, n)))
    assert np.array_equal(_gram(j), np.swapaxes(j, 1, 2) @ j)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_edge_cases(n):
    # a zero matrix gives 0, not NaN
    zero = np.zeros((3, n, n))
    for value in (*_extremes(zero), *_singular_extremes(zero)):
        assert np.array_equal(value, np.zeros(3))
    # diagonal input (b = 0) and equal eigenvalues
    diag = np.zeros((3, n, n))
    diag[:, range(n), range(n)] = [[2.0] * n, [-1.0] * n, np.arange(1.0, n + 1)]
    assert_allclose(np.stack(_extremes(diag), 1), [[2.0, 2.0], [-1.0, -1.0], [1.0, n]],
                    rtol=1e-15)
    assert_allclose(np.stack(_singular_extremes(diag), 1), [[2.0, 2.0], [1.0, 1.0], [1.0, n]],
                    rtol=1e-15)
    if n == 3:
        assert_allclose(_sym3_max(diag), [2.0, -1.0, 3.0], rtol=1e-15)
        assert _sym3_max(zero).tolist() == [0.0] * 3


def test_sym3_max_where_the_top_pair_meets(rng):
    # two equal top eigenvalues are where the cubic loses half the digits
    q = _orthogonal(rng, 3, (64,))
    for spec in ([4.0, 4.0, 1.0], [1.0 + 1e-9, 1.0, 0.25], [9.0, 9.0, 9.0 - 1e-7]):
        g = q @ (np.array(spec)[:, None] * np.swapaxes(q, 1, 2))
        assert_allclose(_sym3_max(g), max(spec), rtol=1e-15)


def _chart_factors(rng, n, size):
    """Chart-shaped factors [[s, 0], [w, V]], batched, near the identity."""
    factor = np.eye(n + 1) + 0.1 * rng.standard_normal(size + (n + 1, n + 1))
    factor[..., 0, 1:] = 0.0
    return factor


@pytest.mark.parametrize("n", [1, 2])
def test_nan_chain_ends_in_a_typed_error(n, rng):
    # a NaN factor gives a NaN sigma_min, which the slice driver stops on
    factor = _chart_factors(rng, n, (4,))
    broken = factor.copy()
    broken[2, 1, 0] = np.nan
    values = _chain_sigma_min([factor, broken])
    assert np.isnan(values[2]) and np.isfinite(np.delete(values, 2)).all()
    with pytest.raises(NonFiniteSlice, match=r"t=0\.5\b"):
        _sweep(lambda t: _chain_sigma_min([factor, broken if t else factor]).min(), 2, 1)


def _cofactors(a):
    """(adjugate, determinant) of 3 x 3 a, batched, from cofactors."""
    adj = np.empty_like(a)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for k in range(3):
            k1, k2 = (k + 1) % 3, (k + 2) % 3
            adj[..., k, i] = a[..., i1, k1] * a[..., i2, k2] - a[..., i1, k2] * a[..., i2, k1]
    return adj, np.einsum("...j,...j->...", a[..., 0, :], adj[..., :, 0])


def test_block_chain_is_the_cofactor_chain(rng):
    # the block kernel multiplies the same cofactors as 3 x 3 cofactor
    # matrices and stacked matmul do, in other rounding order
    for steps in (1, 3, 6):
        chain = [_chart_factors(rng, 2, (4096,)) for _ in range(steps)]
        adj, det = _cofactors(chain[0])
        for factor in chain[1:]:
            fac_adj, fac_det = _cofactors(factor)
            adj, det = adj @ fac_adj, det * fac_det
        expected = np.abs(det) / np.sqrt(_sym3_max(_gram(adj)))
        assert_allclose(_chain_sigma_min(chain), expected, rtol=1e-14)


# ---------------------------------------------------------------------------
# sigma_min of chart-Jacobian chains [[s, 0], [w, V]] against a 40-digit SVD


def _step(rng, n, slope, stretch):
    """One chart Jacobian [[slope, 0], [w, V]], V with singular values stretch."""
    step = np.zeros((n + 1, n + 1))
    step[0, 0] = slope
    step[1:, 0] = rng.standard_normal(n) * max(stretch)
    step[1:, 1:] = _orthogonal(rng, n) @ np.diag(stretch) @ _orthogonal(rng, n)
    return step


def _chains(rng):
    """Whitened chains diag(1, L) J_k ... J_1 diag(1, W) with well-conditioned
    factors, as the adapted sweep builds them."""
    chains = []
    for i in range(12):
        # n = 1, five steps: expanding fiber, weak base, strong coupling
        chains.append([_step(rng, 1, 3.0, [float(rng.uniform(5.0, 30.0))]) for _ in range(5)])
    for i in range(32):
        n_steps, kind = 1 + i % 5, i % 4
        if kind == 0:       # two expanding fiber directions against a slow base
            slope, stretch = 5.0, [9.0 * (1.0 + rng.uniform(0.0, 0.5)), 9.0]
        elif kind == 1:     # one expanding, one contracting fiber direction
            slope, stretch = 5.0, [12.0, 1.0 / 12.0]
        elif kind == 2:     # near-conformal fiber: two small singular values meet
            slope, stretch = 5.0, [3.0, 3.0 * (1.0 + 1e-9)]
        else:               # one expanding direction over a neutral fiber and base
            slope, stretch = 1.0, [40.0, 0.5]
        chains.append([_step(rng, 2, slope, stretch) for _ in range(n_steps)])
    for chain in chains:
        n = chain[0].shape[0] - 1
        ends = [np.eye(n + 1), np.eye(n + 1)]
        for end in ends:
            end[1:, 1:] = _orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n))
        chain.insert(0, ends[0])
        chain.append(ends[1])
    # a conformal chain with no coupling: sigma = (5, 3, 3) exactly
    chains.append([np.diag([1.0, 1.0, 1.0]), np.diag([5.0, 3.0, 3.0]), np.eye(3)])
    return chains


def _formed_adjugate_sigma_min(chain):
    """|det| / sigma_max of the cofactors of the formed 3 x 3 product."""
    product = np.linalg.multi_dot(chain[::-1])[None]
    adj, _ = _cofactors(product)
    det = np.prod([_cofactors(factor[None])[1] for factor in chain])
    return abs(det) / np.sqrt(_sym3_max(np.swapaxes(adj, 1, 2) @ adj))[0]


def test_chain_sigma_min_keeps_relative_accuracy(rng):
    mpmath = pytest.importorskip("mpmath")
    worst, worst_gram, worst_formed, kappa = {1: 0.0, 2: 0.0}, 0.0, 0.0, 0.0
    for chain in _chains(rng):
        n = chain[0].shape[0] - 1
        with mpmath.workdps(40):
            exact = mpmath.eye(n + 1)
            for factor in chain:
                exact = mpmath.matrix(factor.tolist()) * exact
            sv = mpmath.svd_r(exact, compute_uv=False)
            lo, hi = min(sv), max(sv)
            got = _chain_sigma_min([factor[None] for factor in chain])[0]
            product = np.linalg.multi_dot(chain[::-1])
            gram = np.sqrt(max(np.linalg.eigvalsh(product.T @ product)[0], 0.0))
            kappa = max(kappa, float(hi / lo))
            worst[n] = max(worst[n], float(abs(got - lo) / lo))
            worst_gram = max(worst_gram, float(abs(gram - lo) / lo))
            if n == 2:
                formed = _formed_adjugate_sigma_min(chain)
                worst_formed = max(worst_formed, float(abs(formed - lo) / lo))
    assert kappa >= 1e8
    assert worst[1] <= 1e-13 and worst[2] <= 1e-13, worst
    # the Gram of the product squares its condition number, and the cofactors
    # of the formed product cancel: either sigma_min fails
    assert worst_gram > 1e-13 and worst_formed > 1e-13
