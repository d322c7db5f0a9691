"""Batched products of the small per-point blocks of the sweeps.

A sweep holds one n x n fiber block per grid point, thousands per slice.
On 2 x 2 blocks numpy's stacked matmul and einsum pay per matrix, not per
flop, so in a batch of at least _MIN_BATCH blocks these kernels write each
product out entry by entry as elementwise arithmetic.  Every other shape
runs the numpy expression the kernel replaces, to the same bits.  The
operands' shapes alone choose the path.

The entry forms round every product and every sum once, in their own
order, and numpy's BLAS may fuse a multiply into an add, so the two paths
agree to rounding, not bit for bit.

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

import numpy as np

# Smallest batch, in blocks of the larger operand, multiplied entry by
# entry.  Measured on float64 2 x 2 batches (numpy 2.4.6, OpenBLAS at one
# thread, Python 3.11, 2-core x86-64 VM): matmul and matvec break even with
# numpy between 448 and 640 blocks, gram, congruence and quadratic near 256;
# at 4,096 blocks the entry forms take 1/5 to 1/2 of numpy's time.
_MIN_BATCH = 512


def entrywise(a: np.ndarray, b: np.ndarray) -> bool:
    """True where products of batched matrices a and b, (..., r, c), run
    entry by entry: both are 2 x 2 and one batch holds _MIN_BATCH blocks."""
    return ((a.size >= 4 * _MIN_BATCH or b.size >= 4 * _MIN_BATCH)
            and a.shape[-2:] == b.shape[-2:] == (2, 2))


def _entrywise_vec(a: np.ndarray, u: np.ndarray) -> bool:
    """entrywise for batched matrices a, (..., r, c), with batched vectors
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
    if not entrywise(a, b):
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
    if not entrywise(j, j):
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
    if not entrywise(v, m):
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
