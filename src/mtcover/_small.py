"""The per-point linear algebra of the sweeps, batched over small blocks.

A sweep holds one n x n fiber block per grid point, thousands per slice,
and one (n+1) x (n+1) chart Jacobian per point, where numpy's stacked
calls and a LAPACK call pay per matrix, not per flop.  Every kernel that
mtcover writes itself for such blocks is here, numpy only.  The operands'
shapes alone choose its path, by one of two rules:

- Products (matmul, matvec, gram, congruence, quadratic) run entry by entry,
  as elementwise arithmetic, on 2 x 2 blocks in a batch of at least
  _MIN_BATCH blocks.  Every other shape runs the numpy expression the
  kernel replaces, to the same bits.  The entry forms round every product
  and every sum once, in their own order, and numpy's BLAS may fuse a
  multiply into an add, so the two paths agree to rounding, not bit for bit.
- Spectral kernels (extremes, singular_extremes, cholesky, whitened_min_eig)
  run in closed form below n = 3, at any batch size, and call LAPACK from
  n = 3 up.  chain_sigma_min, on products of m x m chart factors
  (m = n + 1), is closed form below m = 4 and takes LAPACK's SVD from
  m = 4 up; at m = 3 it reads the top eigenvalue of a 3 x 3 Gram from
  sym3_max, the trigonometric cubic.

Blocks are stored entry-major: a batch of (..., n) vectors or (..., n, n)
matrices is a view of a base array whose last axes run over the batch
(batched), so each entry [..., i] or [..., i, j] is one contiguous array
over the points.  The entry forms read and write whole entries, and
writing into a short last axis costs about ten times as much.  zeros,
stack and entry_major (a copy with one batch axis) allocate such blocks,
so that callers need not order the axes themselves.  Every kernel gives
the same bits on entry-major and C-order operands: the numpy path hands
einsum C-order copies, since its summation order follows the layout.
"""

from __future__ import annotations

import math

import numpy as np

# Smallest batch, in blocks of the larger operand, multiplied entry by
# entry.  Measured on float64 2 x 2 batches (numpy 2.4.6, OpenBLAS at one
# thread, Python 3.11, 2-core x86-64 VM): matmul and matvec break even with
# numpy between 448 and 640 blocks, gram, congruence and quadratic near 256;
# at 4,096 blocks the entry forms take 1/5 to 1/2 of numpy's time.
_MIN_BATCH = 512

# The largest |det| that chain_sigma_min carries from one chart factor to
# the next before it scales the running determinant and adjugate down.
_RESCALE_AT = 2.0 ** 64


def _entrywise(a: np.ndarray, b: np.ndarray) -> bool:
    """True where products of batched matrices a and b, (..., r, c), run
    entry by entry: both are 2 x 2 and one batch holds _MIN_BATCH blocks."""
    return ((a.size >= 4 * _MIN_BATCH or b.size >= 4 * _MIN_BATCH)
            and a.shape[-2:] == b.shape[-2:] == (2, 2))


def _entrywise_vec(a: np.ndarray, u: np.ndarray) -> bool:
    """_entrywise for batched matrices a, (..., r, c), with batched vectors
    u, (..., c): a is 2 x 2, u has 2 entries, one batch holds _MIN_BATCH."""
    return ((a.size >= 4 * _MIN_BATCH or u.size >= 2 * _MIN_BATCH)
            and a.shape[-2:] == (2, 2) and u.shape[-1] == 2)


def batched(rows: np.ndarray, k: int) -> np.ndarray:
    """rows, (*entry, *batch) with k entry axes, as the (*batch, *entry)
    view that keeps each entry contiguous over the batch."""
    return rows.transpose(tuple(range(k, rows.ndim)) + tuple(range(k)))


def zeros(batch_shape: tuple, entry_shape: tuple) -> np.ndarray:
    """Entry-major zeros of shape (*batch_shape, *entry_shape)."""
    entry_shape = tuple(entry_shape)
    return batched(np.zeros(entry_shape + tuple(batch_shape)), len(entry_shape))


def stack(entries, entry_shape: tuple) -> np.ndarray:
    """Entry arrays, batched alike and listed row by row, as one entry-major
    block of shape (*batch, *entry_shape)."""
    flat = np.empty((len(entries),) + entries[0].shape)
    for i, entry in enumerate(entries):
        flat[i] = entry
    entry_shape = tuple(entry_shape)
    return batched(flat.reshape(entry_shape + flat.shape[1:]), len(entry_shape))


def entry_major(a: np.ndarray) -> np.ndarray:
    """A float copy of a, (points, *entry), that owns its data and keeps
    each entry contiguous over the points (Fortran order)."""
    return np.array(a, dtype=float, order="F")


def _pack(*entries: np.ndarray) -> np.ndarray:
    """Entry arrays, batched alike, as a batch of 2-vectors (two entries) or
    of 2 x 2 matrices (four, row by row), entry-major."""
    return stack(entries, (2,) if len(entries) == 2 else (2, 2))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, batched."""
    if not _entrywise(a, b):
        return a @ b
    return _pack(*(a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
                   for i in range(2) for j in range(2)))


def matvec(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """a u for matrices a, (..., m, k), and vectors u, (..., k), batched."""
    if not _entrywise_vec(a, u):
        return np.einsum("...ij,...j->...i", np.ascontiguousarray(a), np.ascontiguousarray(u))
    u0, u1 = u[..., 0], u[..., 1]
    return _pack(*(a[..., i, 0] * u0 + a[..., i, 1] * u1 for i in range(2)))


def gram(j: np.ndarray) -> np.ndarray:
    """j^T j, batched; exactly symmetric on the entry path.

    numpy runs a product of an array with its own transpose about 3x slower,
    to the same bits, so its path copies the right operand.
    """
    if not _entrywise(j, j):
        return np.swapaxes(j, -1, -2) @ j.copy()
    a, b, c, d = j[..., 0, 0], j[..., 0, 1], j[..., 1, 0], j[..., 1, 1]
    off = a * b + c * d
    return _pack(a * a + c * c, off, off, b * b + d * d)


def _sym_apply(m: np.ndarray, x0: np.ndarray, x1: np.ndarray):
    """The entries of m x for symmetric 2 x 2 m, read from its lower triangle."""
    b = m[..., 1, 0]
    return m[..., 0, 0] * x0 + b * x1, b * x0 + m[..., 1, 1] * x1


def congruence(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v^T m v for symmetric m, batched.

    The entry path reads the lower triangle of m and returns an exactly
    symmetric result; numpy's product is symmetric to rounding only.
    """
    if not _entrywise(v, m):
        return np.swapaxes(v, -1, -2) @ m @ v
    x0, x1, y0, y1 = v[..., 0, 0], v[..., 1, 0], v[..., 0, 1], v[..., 1, 1]
    mx0, mx1 = _sym_apply(m, x0, x1)
    my0, my1 = _sym_apply(m, y0, y1)
    off = y0 * mx0 + y1 * mx1
    return _pack(x0 * mx0 + x1 * mx1, off, off, y0 * my0 + y1 * my1)


def quadratic(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """w^T m w for vectors w, (..., n), and symmetric m, (..., n, n), batched;
    the entry path reads the lower triangle of m, as congruence does."""
    if not _entrywise_vec(m, w):
        w = np.ascontiguousarray(w)
        return np.einsum("...i,...ij,...j->...", w, np.ascontiguousarray(m), w)
    w0, w1 = w[..., 0], w[..., 1]
    mw0, mw1 = _sym_apply(m, w0, w1)
    return w0 * mw0 + w1 * mw1


# ---------------------------------------------------------------------------
# Spectral kernels: closed form below n = 3 (chain factors: below m = 4),
# LAPACK from there up


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0 (a zero matrix), so NaN only from NaN."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def extremes(a: np.ndarray):
    """(lam_min, lam_max) of symmetric a, (..., n, n), batched.

    Reads the lower triangle, as eigvalsh does.  For n = 2 the eigenvalue of
    larger magnitude is (a+c)/2 +- hypot((a-c)/2, b) and the other det / it,
    so neither is lost to cancellation.
    """
    if a.shape[-1] >= 3:
        ev = np.linalg.eigvalsh(a)
        return ev[..., 0], ev[..., -1]
    if a.shape[-1] == 1:
        return a[..., 0, 0], a[..., 0, 0]
    p, b, c = a[..., 0, 0], a[..., 1, 0], a[..., 1, 1]
    mean, rad = 0.5 * (p + c), np.hypot(0.5 * (p - c), b)
    up = mean >= 0.0
    big = mean + np.where(up, rad, -rad)
    small = _ratio(p * c - b * b, big)
    return np.where(up, small, big), np.where(up, big, small)


def singular_extremes(j: np.ndarray):
    """(sigma_min, sigma_max) of square j, (..., n, n), batched.

    For n = 2, sigma_max = (hypot(a+d, c-b) + hypot(a-d, b+c)) / 2 from the
    entries and sigma_min = |det| / sigma_max.  From n = 3 up they are read
    from the Gram j^T j, which suits the well-conditioned one-step Jacobians
    this serves.
    """
    if j.shape[-1] >= 3:
        lo, hi = extremes(gram(j))
        return np.sqrt(np.maximum(lo, 0.0)), np.sqrt(hi)
    if j.shape[-1] == 1:
        return np.abs(j[..., 0, 0]), np.abs(j[..., 0, 0])
    a, b, c, d = j[..., 0, 0], j[..., 0, 1], j[..., 1, 0], j[..., 1, 1]
    hi = 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
    return _ratio(np.abs(a * d - b * c), hi), hi


def _deflated_max(g: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of symmetric g, (points, 3, 3), given its isolated
    smallest one, low: the eigenvector v of low, a cross product of rows of
    g - low I, deflates g to its 2 x 2 compression on the plane orthogonal
    to v, where the 2 x 2 closed form holds."""
    h = g - low[:, None, None] * np.eye(3)
    cands = np.stack([np.cross(h[:, 0], h[:, 1]), np.cross(h[:, 0], h[:, 2]),
                      np.cross(h[:, 1], h[:, 2])], axis=1)
    sq = np.einsum("pij,pij->pi", cands, cands)
    best = sq.argmax(1)
    v = cands[np.arange(len(g)), best] / np.sqrt(sq[np.arange(len(g)), best])[:, None]
    # rows 1 and 2 of the Householder reflector taking v to -+e_0: an
    # orthonormal basis of the plane orthogonal to v
    w = v.copy()
    w[:, 0] += np.copysign(1.0, v[:, 0])
    basis = np.eye(3)[1:] - w[:, 1:, None] * w[:, None, :] / (1.0 + np.abs(v[:, :1, None]))
    k = basis @ g @ np.swapaxes(basis, 1, 2)
    return extremes(k)[1]


def sym3_max(g: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of symmetric g, (..., 3, 3), batched, in closed form.

    Reads the lower triangle.  The trigonometric roots of the characteristic
    cubic give it where it is isolated (r >= 0 below).  Where it nearly meets
    the middle one the cubic loses half the digits, so there the isolated
    smallest one deflates g (_deflated_max).
    """
    shape, g = g.shape[:-2], g.reshape(-1, 3, 3)
    g00, g11, g22 = g[:, 0, 0], g[:, 1, 1], g[:, 2, 2]
    g01, g02, g12 = g[:, 1, 0], g[:, 2, 0], g[:, 2, 1]
    q = (g00 + g11 + g22) / 3.0
    d0, d1, d2 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    # r = det((g - q I) / p) / 2 = cos(3 phi)
    inv = 1.0 / np.where(p > 0.0, p, 1.0)
    b0, b1, b2, c01, c02, c12 = (x * inv for x in (d0, d1, d2, g01, g02, g12))
    r = 0.5 * (b0 * (b1 * b2 - c12 * c12) - c01 * (c01 * b2 - c12 * c02)
               + c02 * (c01 * c12 - b1 * c02))
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    top = q + 2.0 * p * np.cos(phi)
    near = np.flatnonzero(r < 0.0)
    if near.size:
        low = q[near] + 2.0 * p[near] * np.cos(phi[near] + 2.0 * np.pi / 3.0)
        sub = g[near]
        top[near] = _deflated_max(np.tril(sub) + np.swapaxes(np.tril(sub, -1), 1, 2), low)
    return top.reshape(shape)


def _adj_det(a: np.ndarray):
    """(adjugate, determinant) of 2 x 2 a, batched."""
    adj = stack([a[..., 1, 1], -a[..., 0, 1], -a[..., 1, 0], a[..., 0, 0]], (2, 2))
    # Laplace along row 0: for a chart Jacobian [[slope, 0], [w, v]] this is
    # slope * v to the last bit
    return adj, np.einsum("...j,...j->...", a[..., 0, :], adj[..., :, 0])


def _chart_adj(fac: np.ndarray):
    """(adjugate blocks, determinant) of chart factors [[s, 0], [w, V]],
    (..., 3, 3), as flat component arrays; the top row past s is not read.

    The adjugate is [[det V, 0], [-adj(V) w, s adj(V)]], given by its
    components (det V, b0, b1, c00, c01, c10, c11), and the determinant is
    s det V: the cofactors of the 3 x 3 factor, bit for bit.
    """
    # views, never a copy (a contiguous copy per factor left about 4 MB more
    # resident in a benchmark process); an entry-major factor
    # (StageFrame.matrix, bordered) gives contiguous rows
    s, _, _, w0, v00, v01, w1, v10, v11 = fac.reshape(-1, 9).T
    det_v = v00 * v11 - v01 * v10
    blocks = (det_v, v01 * w1 - w0 * v11, w0 * v10 - v00 * w1,
              s * v11, -(s * v01), -(s * v10), s * v00)
    return blocks, s * det_v


def _block_product(x, y):
    """[[a, 0], [b, C]] [[a', 0], [b', C']] on component tuples
    (a, b0, b1, c00, c01, c10, c11)."""
    a, b0, b1, c00, c01, c10, c11 = x
    a_, e0, e1, d00, d01, d10, d11 = y
    return (a * a_, b0 * a_ + c00 * e0 + c01 * e1, b1 * a_ + c10 * e0 + c11 * e1,
            c00 * d00 + c01 * d10, c00 * d01 + c01 * d11,
            c10 * d00 + c11 * d10, c10 * d01 + c11 * d11)


def _block_gram(x) -> np.ndarray:
    """X^T X of X = [[a, 0], [b, C]] from its components, as (points, 3, 3),
    entry-major."""
    a, b0, b1, c00, c01, c10, c11 = x
    g10, g20, g21 = c00 * b0 + c10 * b1, c01 * b0 + c11 * b1, c01 * c00 + c11 * c10
    return stack([a * a + b0 * b0 + b1 * b1, g10, g20,
                  g10, c00 * c00 + c10 * c10, g21,
                  g20, g21, c01 * c01 + c11 * c11], (3, 3))


def chain_sigma_min(factors) -> np.ndarray:
    """Smallest singular value of the product F_k ... F_1 of square factors
    (..., m, m), F_1 first, batched; factors may be a generator, so that
    only one factor at a time is held.

    Below m = 4 every factor must be chart-shaped, [[s, 0], [w, V]]: its top
    row past s is taken to be 0 and is not read.  Then sigma_min is |det| /
    sigma_max(adj), where adj(F_k ... F_1) = adj F_1 ... adj F_k and det are
    multiplied up factor by factor; at m = 3 the adjugates are multiplied by
    their blocks (_chart_adj), and the Gram of the last one is formed for
    sym3_max.  Each factor is well conditioned, so both keep high relative
    accuracy however ill conditioned the product, and so does sigma_min; the
    Gram or the QR SVD of the formed product is accurate only relative to
    its largest singular value (J. Demmel, K. Veselic, "Jacobi's method is
    more accurate than QR", SIAM J. Matrix Anal. Appl. 13, 1992).  From
    m = 4 up it is the LAPACK SVD of the product.
    """
    factors = iter(factors)
    first = next(factors)
    if first.shape[-1] >= 4:
        product = first
        for fac in factors:
            product = fac @ product
        return np.linalg.svd(product, compute_uv=False)[..., -1]
    if first.shape[-1] == 3:
        adj, det = _chart_adj(first)
        for fac in factors:
            fac_adj, fac_det = _chart_adj(fac)
            adj, det = _block_product(adj, fac_adj), det * fac_det
            # |det| / sigma_max(adj) keeps its value when both are scaled
            # by one factor, and every bit of it when that is a power of
            # two; sym3_max squares the entries of adj's Gram, so adj is
            # kept far from overflow
            top = float(np.abs(det).max(initial=0.0))
            if _RESCALE_AT < top < np.inf:
                scale = math.ldexp(1.0, -math.frexp(top)[1])
                adj, det = tuple(c * scale for c in adj), det * scale
        big = np.sqrt(sym3_max(_block_gram(adj)))
        return _ratio(np.abs(det), big).reshape(first.shape[:-2])
    adj, det = _adj_det(first)
    for fac in factors:
        fac_adj, fac_det = _adj_det(fac)
        adj, det = adj @ fac_adj, det * fac_det
    return _ratio(np.abs(det), singular_extremes(adj)[1])


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of SPD m, (..., n, n), batched.

    Reads the lower triangle.  Below n = 3 it is closed form, l00 = sqrt(a),
    l10 = b * (1 / l00) and l11 = sqrt(c - l10^2), which is LAPACK's factor
    bit for bit; from n = 3 up it is LAPACK.  Where m is not positive
    definite the closed form gives NaN and LAPACK raises; a sweep turns
    either into NonFiniteSlice.
    """
    if m.shape[-1] >= 3:
        return np.linalg.cholesky(m)
    low = np.zeros_like(m)
    low[..., 0, 0] = np.sqrt(m[..., 0, 0])
    if m.shape[-1] == 2:
        low[..., 1, 0] = m[..., 1, 0] * (1.0 / low[..., 0, 0])
        low[..., 1, 1] = np.sqrt(m[..., 1, 1] - low[..., 1, 0] * low[..., 1, 0])
    return low


def whitened_min_eig(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of W^T a W for symmetric a, batched.

    congruence forms it.  Entry by entry it reads the lower triangle
    of a and is exactly symmetric; numpy's product is symmetric to rounding
    only, so that one is symmetrised before extremes reads its lower
    triangle.
    """
    whitened = congruence(w, a)
    if not _entrywise(w, a):
        whitened = 0.5 * (whitened + np.swapaxes(whitened, -1, -2))
    return extremes(whitened)[0]


def whitener(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """W = Q diag(eigvals)^(-1/2), so W^T M W = I for M = Q diag(eigvals) Q^T."""
    return eigvecs / np.sqrt(eigvals)[..., None, :]


def bordered(x: np.ndarray) -> np.ndarray:
    """diag(1, x), batched and entry-major: G = diag(1, M) has the factors
    diag(1, L) of M = L L^T."""
    out = zeros(x.shape[:-2], (x.shape[-1] + 1,) * 2)
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = x
    return out
