"""The per-point kernels of mtcover._small: spectral kernels against LAPACK
and a 40-digit SVD, products against numpy and the exact product."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover import _small
from mtcover._small import (
    _adj_det,
    _block_gram,
    batched,
    bordered,
    chain_sigma_min,
    cholesky,
    congruence,
    entry_major,
    extremes,
    gram,
    matmul,
    matvec,
    quadratic,
    singular_extremes,
    stack,
    sym3_max,
    whitened_min_eig,
    whitener,
    zeros,
)
from mtcover.cli import main
from mtcover.errors import NonFiniteSlice
from mtcover.expansion import _sweep


EPS = np.finfo(float).eps
ULPS = 8 * EPS  # normwise agreement with LAPACK


def _orthogonal(rng, n, size=()):
    q, r = np.linalg.qr(rng.standard_normal(size + (n, n)))
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_closed_form_2x2_eigenvalues_match_eigvalsh(rng, scale):
    s = rng.standard_normal((4096, 2, 2)) * scale
    for a in (s + np.swapaxes(s, 1, 2),                          # indefinite
              np.swapaxes(s, 1, 2) @ s,                          # PSD, some nearly singular
              -(np.swapaxes(s, 1, 2) @ s) - scale * scale * np.eye(2)):  # negative definite
        lo, hi = extremes(a)
        ev = np.linalg.eigvalsh(a)
        norm = np.abs(ev).max(axis=1)
        assert np.all(np.abs(lo - ev[:, 0]) <= ULPS * norm)
        assert np.all(np.abs(hi - ev[:, 1]) <= ULPS * norm)


def test_closed_form_2x2_singular_values_match_svd(rng):
    j = rng.standard_normal((4096, 2, 2)) * np.exp(rng.uniform(-5, 5, (4096, 1, 1)))
    lo, hi = singular_extremes(j)
    sv = np.linalg.svd(j, compute_uv=False)
    assert_allclose(hi, sv[:, 0], rtol=ULPS)
    assert np.all(np.abs(lo - sv[:, 1]) <= ULPS * sv[:, 0])


def test_closed_form_3x3_top_eigenvalue_matches_eigvalsh(rng):
    m = rng.standard_normal((4096, 3, 3)) * np.exp(rng.uniform(-4, 4, (4096, 1, 3)))
    g = np.swapaxes(m, 1, 2) @ m
    assert_allclose(sym3_max(g), np.linalg.eigvalsh(g)[:, -1], rtol=2e-15)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cholesky_is_lapacks_factor_bit_for_bit(rng, n, scale):
    # the closed form below n = 3 is l00 = sqrt(a), l10 = b * (1 / l00),
    # l11 = sqrt(c - l10^2); it must not move the adapted rate by a bit
    for cond in (1.0, 1e4, 1e8):
        q = _orthogonal(rng, n, (4096,))
        spec = np.exp(rng.uniform(0.0, np.log(cond), (4096, 1, n)))
        m = scale * (q * spec) @ np.swapaxes(q, 1, 2)
        assert np.array_equal(cholesky(m), np.linalg.cholesky(m))
    s = rng.standard_normal((4096, n, n))
    m = scale * (gram(s) + 0.1 * np.eye(n))
    assert np.array_equal(cholesky(m), np.linalg.cholesky(m))


@pytest.mark.parametrize("n", [2, 3])
def test_gram_is_the_plain_product_bit_for_bit(rng, n):
    # n = 3: the copied right operand changes numpy's matmul path, not the
    # bits.  n = 2 runs entry by entry, which rounds as numpy does not, so
    # it is held to the exactly rounded Gram instead
    j = rng.standard_normal((4096, n, n)) * np.exp(rng.uniform(-8, 8, (4096, 1, n)))
    if n == 3:
        assert np.array_equal(gram(j), np.swapaxes(j, 1, 2) @ j)
    else:
        exact = _exact(PLAIN["gram"], j)
        assert np.all(np.abs(gram(j) - exact) <= 2 * EPS * PLAIN["gram"](np.abs(j)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_edge_cases(n):
    # a zero matrix gives 0, not NaN
    zero = np.zeros((3, n, n))
    for value in (*extremes(zero), *singular_extremes(zero)):
        assert np.array_equal(value, np.zeros(3))
    # diagonal input (b = 0) and equal eigenvalues
    diag = np.zeros((3, n, n))
    diag[:, range(n), range(n)] = [[2.0] * n, [-1.0] * n, np.arange(1.0, n + 1)]
    assert_allclose(np.stack(extremes(diag), 1), [[2.0, 2.0], [-1.0, -1.0], [1.0, n]],
                    rtol=1e-15)
    assert_allclose(np.stack(singular_extremes(diag), 1), [[2.0, 2.0], [1.0, 1.0], [1.0, n]],
                    rtol=1e-15)
    if n == 3:
        assert_allclose(sym3_max(diag), [2.0, -1.0, 3.0], rtol=1e-15)
        assert sym3_max(zero).tolist() == [0.0] * 3


def test_sym3_max_where_the_top_pair_meets(rng):
    # two equal top eigenvalues are where the cubic loses half the digits
    q = _orthogonal(rng, 3, (64,))
    for spec in ([4.0, 4.0, 1.0], [1.0 + 1e-9, 1.0, 0.25], [9.0, 9.0, 9.0 - 1e-7]):
        g = q @ (np.array(spec)[:, None] * np.swapaxes(q, 1, 2))
        assert_allclose(sym3_max(g), max(spec), rtol=1e-15)


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
    values = chain_sigma_min([factor, broken])
    assert np.isnan(values[2]) and np.isfinite(np.delete(values, 2)).all()
    with pytest.raises(NonFiniteSlice, match=r"t=0\.5\b"):
        _sweep(lambda t: chain_sigma_min([factor, broken if t else factor]).min(), [0.0, 0.5], 1)


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
        expected = np.abs(det) / np.sqrt(sym3_max(gram(adj)))
        assert_allclose(chain_sigma_min(chain), expected, rtol=1e-14)


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
    return abs(det) / np.sqrt(sym3_max(np.swapaxes(adj, 1, 2) @ adj))[0]


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
            got = chain_sigma_min([factor[None] for factor in chain])[0]
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


@pytest.mark.filterwarnings("error")
def test_a_long_chain_keeps_its_adjugate_in_range(rng):
    # diag(3, 9 Q) with Q orthogonal: the chain of 100 has sigma_min 3^100,
    # determinant 3^500 and adjugate entries near 3^400, whose Gram overflowed
    # before the running determinant and adjugate were scaled down
    chain = []
    for _ in range(100):
        step = np.eye(3)
        step[0, 0], step[1:, 1:] = 3.0, 9.0 * _orthogonal(rng, 2)
        chain.append(np.broadcast_to(step, (4,) + step.shape))
    assert_allclose(chain_sigma_min(chain), 3.0 ** 100, rtol=1e-12)


def test_scaling_the_chain_down_is_exact(rng, monkeypatch):
    # the power-of-two scale leaves every bit of sigma_min as it was
    chains = [[_chart_factors(rng, 2, (512,)) * 4.0 for _ in range(steps)]
              for steps in (2, 5, 9)]
    plain = [chain_sigma_min(chain) for chain in chains]
    monkeypatch.setattr(_small, "_RESCALE_AT", 2.0)
    for chain, want in zip(chains, plain):
        assert np.array_equal(chain_sigma_min(chain), want)


# ---------------------------------------------------------------------------
# Batched products of _small: entry by entry on 2 x 2 blocks at every batch
# size, numpy's expression on every other shape

KERNELS = {"matmul": matmul, "matvec": matvec, "gram": gram,
           "congruence": congruence, "quadratic": quadratic}
# the numpy expressions the kernels replace; on |operands| they give the
# entry scale that bounds the rounding error of either form
PLAIN = {
    "matmul": lambda a, b: a @ b,
    "matvec": lambda a, u: np.einsum("...ij,...j->...i", a, u),
    "gram": lambda j: np.swapaxes(j, -1, -2) @ j,
    "congruence": lambda v, m: np.swapaxes(v, -1, -2) @ m @ v,
    "quadratic": lambda w, m: np.einsum("...i,...ij,...j->...", w, m, w),
}


def _operands(rng, name, size, n=2, scale=1.0):
    """Operands of a kernel on size blocks of dimension n, each scaled by
    scale; the m of congruence and quadratic is exactly symmetric."""
    def draw(*shape):
        return scale * rng.standard_normal((size,) + shape)

    if name == "matmul":
        return draw(n, n), draw(n, n)
    if name == "matvec":
        return draw(n, n), draw(n)
    if name == "gram":
        return (draw(n, n),)
    s = draw(n, n)
    return (draw(n, n) if name == "congruence" else draw(n)), s + np.swapaxes(s, -1, -2)


def _exact(expression, *operands):
    """expression evaluated on the operands in 60-digit arithmetic, rounded
    to the nearest double once at the end."""
    mpmath = pytest.importorskip("mpmath")
    to_mpf = np.frompyfunc(mpmath.mpf, 1, 1)
    with mpmath.workdps(60):
        return expression(*(to_mpf(x) for x in operands)).astype(float)


@pytest.fixture
def entry_calls(monkeypatch):
    """Records the batch shape of every call of the helpers that only the
    entry path runs: _pack assembles a vector or matrix batch, and
    _sym_apply is where quadratic, which has nothing to assemble, starts."""
    calls = []
    for name in ("_pack", "_sym_apply"):
        def counted(*args, _helper=getattr(_small, name)):
            calls.append(args[-1].shape)
            return _helper(*args)

        monkeypatch.setattr(_small, name, counted)
    return calls


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_entry_forms_match_numpy_and_the_exact_product(rng, name, scale, entry_calls):
    # both forms are within 2 ulps of the entry scale of the exact product
    # (2 roundings on each path of a 2 x 2 product, 4 in v^T m v), so
    # within 4 of each other
    ops = _operands(rng, name, 4096, scale=scale)
    got = KERNELS[name](*ops)
    assert entry_calls and set(entry_calls) == {(4096,)}
    bound = EPS * PLAIN[name](*(np.abs(x) for x in ops))
    assert np.all(np.abs(got - PLAIN[name](*ops)) <= 4 * bound)
    assert np.all(np.abs(got - _exact(PLAIN[name], *ops)) <= 2 * bound)


def test_entry_forms_pass_identities_and_single_products_through(rng, entry_calls):
    eye = np.broadcast_to(np.eye(2), (4096, 2, 2))
    a, u = rng.standard_normal((4096, 2, 2)), rng.standard_normal((4096, 2))
    m = congruence(a, np.broadcast_to(np.diag([1.0, 2.0]), a.shape))
    assert np.array_equal(matmul(eye, a), a) and np.array_equal(matmul(a, eye), a)
    assert np.array_equal(matvec(eye, u), u)
    assert np.array_equal(gram(eye), eye) and np.array_equal(congruence(eye, m), m)
    for i in range(2):
        assert np.array_equal(quadratic(eye[..., i], m), m[..., i, i])
    # diagonal factors: each entry is one rounded product, as in numpy
    d, e = np.zeros((2, 4096, 2, 2))
    d[:, [0, 1], [0, 1]], e[:, [0, 1], [0, 1]] = u, rng.standard_normal((4096, 2))
    for got, want in ((matmul(d, e), d @ e), (matvec(d, u), u * u),
                      (gram(d), d * d), (congruence(d, eye), d * d)):
        assert np.array_equal(got, want)
    assert entry_calls


def test_symmetric_entry_forms_read_the_lower_triangle(rng, entry_calls):
    # congruence and quadratic never read m above the diagonal, and the
    # congruence and the Gram come out exactly symmetric
    v, m = _operands(rng, "congruence", 4096)
    w, j = rng.standard_normal((4096, 2)), rng.standard_normal((4096, 2, 2))
    upper_nan = m.copy()
    upper_nan[:, 0, 1] = np.nan
    p, g = congruence(v, upper_nan), gram(j)
    assert np.array_equal(p, congruence(v, m)) and np.array_equal(quadratic(w, upper_nan),
                                                                    quadratic(w, m))
    assert np.array_equal(p, np.swapaxes(p, 1, 2)) and np.array_equal(g, np.swapaxes(g, 1, 2))
    assert entry_calls


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_nan_entry_propagates_to_a_typed_error(rng, name):
    ops = _operands(rng, name, 4096)
    broken = [x.copy() for x in ops]
    broken[0][7].flat[0] = np.nan
    finite = np.isfinite(KERNELS[name](*broken)).reshape(4096, -1).all(axis=1)
    assert np.flatnonzero(~finite).tolist() == [7]
    with pytest.raises(NonFiniteSlice, match=r"t=0\.5\b"):
        _sweep(lambda t: KERNELS[name](*(broken if t else ops)).min(), [0.0, 0.5], 1)


@pytest.mark.parametrize("n, size", [(2, 1), (2, 64), (2, 511), (1, 4096), (3, 4096)])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_numpy_path_is_numpys_expression_bit_for_bit(rng, name, n, size, entry_calls):
    # the shape alone picks the path: 1 x 1 and 3 x 3 blocks take numpy's
    # expression, and 2 x 2 blocks the entry path at every batch size, which
    # agrees with numpy's to rounding and gives each block the bits it gets
    # in any larger batch
    if n != 2:
        ops = _operands(rng, name, size, n)
        assert np.array_equal(KERNELS[name](*ops), PLAIN[name](*ops))
        assert entry_calls == []
        return
    ops = _operands(rng, name, 4096, n)
    head = [x[:size] for x in ops]
    got = KERNELS[name](*head)
    assert entry_calls and set(entry_calls) == {(size,)}
    assert np.all(np.abs(got - PLAIN[name](*head))
                  <= 4 * EPS * PLAIN[name](*(np.abs(x) for x in head)))
    assert np.array_equal(KERNELS[name](*ops)[:size], got)


def test_verify_agrees_across_the_entry_switch(tmp_path, monkeypatch, entry_calls):
    # the 2 x 2 products run entry by entry; switching the entry rules off
    # puts every product on numpy's path
    config = tmp_path / "shear.json"
    config.write_text(json.dumps({
        "n": 2, "eps": 0.1, "field": [{"coeff": [1.0, 0.0], "freq": [0, 1], "phase": "sin"}],
        "m": 1, "k": None, "base": 3, "fiber_res": 32, "t_res": 4, "directions": 8}))

    def reports():
        texts = []
        for threads in (1, 2):
            out = tmp_path / f"report-{threads}.json"
            assert main(["verify", "--config", str(config), "--threads", str(threads),
                         "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        return json.loads(texts[0])

    entry = reports()
    assert entry_calls
    for rule in ("_entrywise", "_entrywise_vec"):
        monkeypatch.setattr(_small, rule, lambda *operands: False)
    entry_calls.clear()
    plain = reports()
    assert entry_calls == []
    assert entry["pass"] and entry["expansion"]["checks"] == plain["expansion"]["checks"]
    for block in ("constants", "expansion"):
        for key, value in plain[block].items():
            if isinstance(value, float):
                assert entry[block][key] == pytest.approx(value, rel=1e-13, abs=0), key
            else:
                assert entry[block][key] == value, key
    assert entry["pass"] == plain["pass"]


# ---------------------------------------------------------------------------
# Layouts: every kernel gives the same bits on C-order and entry-major blocks


def _entry_major(a, k):
    """A copy of a, (*batch, *entry) with k entry axes, whose base array
    holds each entry as one contiguous row over the batch."""
    rows = np.moveaxis(a, tuple(range(-k, 0)), tuple(range(k))).copy()
    out = batched(rows, k)
    assert out.base is rows and np.array_equal(out, a)
    return out


def _spd(rng, n, size):
    s = rng.standard_normal((size, n, n))
    return s @ np.swapaxes(s, 1, 2) + 0.1 * np.eye(n)


def _layout_cases(rng, n, size):
    """(name, kernel, operands, entry axes of each operand) for every
    _small kernel that takes blocks; sym3_max only at n = 3."""
    cases = [(name, KERNELS[name], _operands(rng, name, size, n),
              {"matvec": (2, 1), "quadratic": (1, 2)}.get(name, (2, 2)))
             for name in sorted(KERNELS)]
    sym = _operands(rng, "congruence", size, n)[1]
    square, spd = rng.standard_normal((size, n, n)), _spd(rng, n, size)
    w_src = np.linalg.cholesky(np.linalg.inv(_spd(rng, n, size)))
    chain = [_chart_factors(rng, n, (size,)) for _ in range(3)]
    cases += [
        ("extremes", lambda a: np.stack(extremes(a)), (sym,), (2,)),
        ("singular_extremes", lambda j: np.stack(singular_extremes(j)), (square,), (2,)),
        ("cholesky", cholesky, (spd,), (2,)),
        ("whitened_min_eig", whitened_min_eig, (sym, w_src), (2, 2)),
        ("whitener", whitener, np.linalg.eigh(spd), (1, 2)),
        ("chain_sigma_min", lambda *f: chain_sigma_min(list(f)), chain, (2, 2, 2)),
    ]
    if n == 3:
        cases.append(("sym3_max", sym3_max, (sym,), (2,)))
    return cases


@pytest.mark.parametrize("size", [64, 4096])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernels_give_the_same_bits_on_entry_major_blocks(rng, n, size):
    # 64 blocks run numpy's expressions and 4,096 the entry forms at n = 2;
    # einsum sums in an order that follows the layout, so the numpy path of
    # matvec and quadratic must see C-order operands
    for name, kernel, ops, entry_axes in _layout_cases(rng, n, size):
        want = kernel(*ops)
        got = kernel(*(_entry_major(x, k) for x, k in zip(ops, entry_axes)))
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    # one operand in each layout
    a, b = _operands(rng, "matmul", size, n)
    assert np.array_equal(matmul(_entry_major(a, 2), b), matmul(a, b))
    assert np.array_equal(matmul(a, _entry_major(b, 2)), matmul(a, b))


def test_entry_forms_return_entry_major_blocks(rng):
    # each entry of a product is written as one contiguous row
    a, b = _operands(rng, "matmul", 4096)
    u = rng.standard_normal((4096, 2))
    for out in (matmul(a, b), gram(a), congruence(a, b + np.swapaxes(b, 1, 2))):
        assert all(out[:, i, j].flags.c_contiguous for i in range(2) for j in range(2))
    assert all(matvec(a, u)[:, i].flags.c_contiguous for i in range(2))


def _entries_contiguous(block, k):
    """True where every entry of block, (*batch, *entry) with k entry axes,
    is one contiguous array over the batch."""
    return all(block[(...,) + idx].flags.c_contiguous
               for idx in np.ndindex(block.shape[block.ndim - k:]))


@pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
def test_zeros_and_stack_allocate_entry_major_blocks(rng, batch):
    entries = [rng.standard_normal(batch) for _ in range(6)]
    block = stack(entries, (2, 3))
    assert block.shape == batch + (2, 3)
    assert np.array_equal(block, np.stack(entries, -1).reshape(batch + (2, 3)))
    assert np.array_equal(stack(entries[:2], (2,)), np.stack(entries[:2], -1))
    empty = zeros(batch, (2, 3))
    assert empty.shape == batch + (2, 3) and not empty.any()
    for out, k in ((block, 2), (empty, 2), (stack(entries[:2], (2,)), 1)):
        assert _entries_contiguous(out, k)
    points = rng.standard_normal((7, 2, 3))
    copy = entry_major(points)
    assert copy.flags.owndata and np.array_equal(copy, points)
    assert _entries_contiguous(copy, 2)


def test_expansion_blocks_are_entry_major(rng):
    a = rng.standard_normal((64, 2, 2))
    adj, det = _adj_det(a)
    assert_allclose(adj @ a, det[:, None, None] * np.eye(2), atol=1e-14)
    comps = tuple(rng.standard_normal(64) for _ in range(7))
    g = _block_gram(comps)
    x = np.zeros((64, 3, 3))
    x[:, 0, 0], x[:, 1, 0], x[:, 2, 0] = comps[:3]
    x[:, 1:, 1:] = np.stack(comps[3:], -1).reshape(64, 2, 2)
    assert_allclose(g, np.swapaxes(x, 1, 2) @ x, rtol=1e-14, atol=1e-14)
    out = bordered(a)
    assert np.array_equal(out[:, 1:, 1:], a) and np.array_equal(out[:, 0], [[1.0, 0.0, 0.0]] * 64)
    for block in (adj, g, out):
        assert _entries_contiguous(block, 2)
