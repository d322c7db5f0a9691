"""Measured expansion constants and the verification pipeline.

All estimates sweep a product grid: an evenly spaced parameter slice set
on [0,1) times a regular fiber grid.  Within a slice every chart branch is
fixed, so the sweeps are fully vectorized; slices can run in forked worker
processes and are reduced in slice order, which keeps results independent
of the worker count.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._small import congruence, entrywise, gram, matvec, quadratic
from .coverings import CompositeCovering, build_f, build_qm_only, fiber_alignment_map
from .errors import (BoundViolation, FinslerDegenerate, MTCoverError, NonFiniteSlice,
                     NotExpanding, UnboundedSelection)
from .fields import TrigDisplacementField, unit_grid
from .lifting import tower_from_field
from .manifolds import MetricG, MTPoint, Tangent
from .torus_maps import (
    StraightLineIsotopy,
    TrigDisplacementMap,
    bridge_isotopy,
    compose_isotopy,
    constant_identity_isotopy,
    torus_representative,
)

_TOL_REL = 1e-3  # relative slack of the vertical-margin check; reported as tol_rel


def default_psi(h_field: TrigDisplacementField):
    """Path from the identity to the inverse square of id + field.

    Built as the bridge from the constant identity to the slice-wise square
    of the straight-line path, so it needs no closed form for the square.
    """
    line = StraightLineIsotopy(h_field)
    squared = compose_isotopy(line, line)
    return bridge_isotopy(constant_identity_isotopy(h_field.dim), squared)


def _sweep(job, t_res: int, threads: int, closed: bool = False) -> np.ndarray:
    """job(t) on the slices t = i / t_res of [0, 1), in slice order, as one array.

    Closed sweeps add t = 1: chart-level (flat-norm) quantities differ between
    the two seam charts, so their extrema need both endpoints.  A non-finite
    slice value, or a factorization that fails on one, raises NonFiniteSlice.

    With threads > 1 the slices are dealt round-robin to w = min(threads,
    slices) worker processes, the caller and w - 1 os.fork children (one
    process where os.fork does not exist).  The values are put back in
    slice order, and a failure raises the error of the lowest failing
    slice, as the serial loop does, so neither results nor errors depend on
    w.  Jobs return what they compute: side effects in a child are lost,
    a SourceGram.eigh computed there included, which costs a recompute.
    """
    t_values = (np.linspace(0.0, 1.0, t_res + 1) if closed else np.arange(t_res) / t_res).tolist()
    workers = max(1, min(threads, len(t_values))) if hasattr(os, "fork") else 1

    def guarded(t):
        try:
            return job(t)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteSlice(f"slice t={t}: {exc}") from exc

    def share(k):
        """(True, values) of slices k, k + workers, ..., or else
        (False, (slice index, exception)) of the first that fails."""
        values = []
        for i in range(k, len(t_values), workers):
            try:
                values.append(guarded(t_values[i]))
            except Exception as exc:
                return False, (i, exc)
        return True, values

    outcomes = _run_shares(share, workers)
    failures = [body for ok, body in outcomes if not ok]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    values = np.array([outcomes[i % workers][1][i // workers] for i in range(len(t_values))])
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise NonFiniteSlice(f"slice t={t_values[bad[0, 0]]} gave a non-finite value")
    return values


def _run_shares(share, workers: int) -> list:
    """[share(0), ..., share(workers - 1)]: share 0 here, each other one in
    an os.fork child.  Every child is read and reaped; an interrupt kills
    the children left before it reaps them."""
    children = []
    try:
        for k in range(1, workers):
            children.append(_fork_share(share, k))
        outcomes = [share(0)]
        while children:
            outcomes.append(_collect(*children[0]))
            del children[0]
        return outcomes
    except BaseException:
        for _, pid, pipe in children:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            pipe.close()
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
        raise


def _fork_share(share, k: int):
    """(k, pid, read end of its pipe) of a child that writes the pickled
    share(k) to the pipe.  The child leaves through os._exit, so it never
    returns into the caller's stack, flushes inherited stdio buffers, or
    runs exit hooks."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_pickled(share(k)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return k, pid, os.fdopen(read_fd, "rb")


def _pickled(outcome) -> bytes:
    """A share's outcome as a pickle.  An exception that does not survive a
    pickle round trip goes as an MTCoverError with its type name and message."""
    ok, body = outcome
    if not ok:
        index, exc = body
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            body = index, MTCoverError(f"{type(exc).__name__}: {exc}")
    return pickle.dumps((ok, body), pickle.HIGHEST_PROTOCOL)


def _collect(k: int, pid: int, pipe):
    """The outcome child k sent, after reaping it; one that exited without
    a whole outcome fails at slice k with an MTCoverError."""
    with pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        return False, (k, MTCoverError(
            f"sweep worker for slice {k} exited with status {code} without a result"))


# ---------------------------------------------------------------------------
# Small-matrix kernels.  The sweeps batch thousands of n x n fiber blocks
# and (n+1) x (n+1) chart Jacobians, where a LAPACK call costs more per
# matrix than the arithmetic.  For fibers of dimension n < 3 these kernels
# are closed form; from n = 3 up they call LAPACK, and the matrix shape
# alone decides which path runs.  The products that feed them are in
# _small.


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0 (a zero matrix), so NaN only from NaN."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def _extremes(a: np.ndarray):
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


def _singular_extremes(j: np.ndarray):
    """(sigma_min, sigma_max) of square j, (..., n, n), batched.

    For n = 2, sigma_max = (hypot(a+d, c-b) + hypot(a-d, b+c)) / 2 from the
    entries and sigma_min = |det| / sigma_max.  From n = 3 up they are read
    from the Gram j^T j, which suits the well-conditioned one-step Jacobians
    this serves.
    """
    if j.shape[-1] >= 3:
        lo, hi = _extremes(gram(j))
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
    return _extremes(k)[1]


def _sym3_max(g: np.ndarray) -> np.ndarray:
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
    adj = np.stack([a[..., 1, 1], -a[..., 0, 1], -a[..., 1, 0], a[..., 0, 0]], -1)
    adj = adj.reshape(a.shape)
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
    # strided views: a contiguous copy per factor left about 4 MB more
    # resident in a benchmark process, for no measured speed
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
    """X^T X of X = [[a, 0], [b, C]] from its components, as (points, 3, 3)."""
    a, b0, b1, c00, c01, c10, c11 = x
    g10, g20, g21 = c00 * b0 + c10 * b1, c01 * b0 + c11 * b1, c01 * c00 + c11 * c10
    return np.stack([a * a + b0 * b0 + b1 * b1, g10, g20,
                     g10, c00 * c00 + c10 * c10, g21,
                     g20, g21, c01 * c01 + c11 * c11], -1).reshape(-1, 3, 3)


def _chain_sigma_min(factors) -> np.ndarray:
    """Smallest singular value of the product F_k ... F_1 of square factors
    (..., m, m), F_1 first, batched; factors may be a generator, so that
    only one factor at a time is held.

    Below m = 4 every factor must be chart-shaped, [[s, 0], [w, V]]: its top
    row past s is taken to be 0 and is not read.  Then sigma_min is |det| /
    sigma_max(adj), where adj(F_k ... F_1) = adj F_1 ... adj F_k and det are
    multiplied up factor by factor; at m = 3 the adjugates are multiplied by
    their blocks (_chart_adj), and the Gram of the last one is formed for
    _sym3_max.  Each factor is well conditioned, so both keep high relative
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
        big = np.sqrt(_sym3_max(_block_gram(adj)))
        return _ratio(np.abs(det), big).reshape(first.shape[:-2])
    adj, det = _adj_det(first)
    for fac in factors:
        fac_adj, fac_det = _adj_det(fac)
        adj, det = adj @ fac_adj, det * fac_det
    return _ratio(np.abs(det), _singular_extremes(adj)[1])


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of SPD m, (..., n, n), batched.

    Reads the lower triangle.  Below n = 3 it is closed form, l00 = sqrt(a),
    l10 = b * (1 / l00) and l11 = sqrt(c - l10^2), which is LAPACK's factor
    bit for bit; from n = 3 up it is LAPACK.  Where m is not positive
    definite the closed form gives NaN and LAPACK raises; _sweep turns
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


def _whitener(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """W = Q diag(eigvals)^(-1/2), so W^T M W = I for M = Q diag(eigvals) Q^T."""
    return eigvecs / np.sqrt(eigvals)[..., None, :]


def _whitened_min_eig(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of W^T a W for symmetric a, batched.

    _small.congruence forms it.  Entry by entry it reads the lower triangle
    of a and is exactly symmetric; numpy's product is symmetric to rounding
    only, so that one is symmetrised before _extremes reads its lower
    triangle.
    """
    whitened = congruence(w, a)
    if not entrywise(w, a):
        whitened = 0.5 * (whitened + np.swapaxes(whitened, -1, -2))
    return _extremes(whitened)[0]


def generalized_conorm_sq(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the pencil (a, m) for SPD m, batched."""
    return _whitened_min_eig(a, _whitener(*np.linalg.eigh(m)))


class SourceGram:
    """The fiber Gram at the source points of a sweep, factored once.

    On a fixed grid the Gram is affine in t, M(t) = (1-t) I + t D with
    D = Dh^T Dh, so one eigendecomposition D = Q diag(lam) Q^T whitens every
    slice: W(t) = Q diag((1-t) + t lam)^(-1/2) has W^T M(t) W = I.  It runs on
    first use, since the K sweep never whitens; a forked sweep worker that
    runs it keeps its own copy, which the caller recomputes if it needs it.
    """

    def __init__(self, metric: MetricG, grid: np.ndarray):
        self.metric, self.grid = metric, grid
        self.d, self.eye = metric.fiber_gram(1.0, grid), np.eye(metric.dim)
        # eigh returns NaN for NaN input, outside the guard of _sweep
        if not np.isfinite(self.d).all():
            raise NonFiniteSlice("slice t=1.0 gave a non-finite source Gram")

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, Q) of D."""
        return np.linalg.eigh(self.d)

    def gram(self, t: float) -> np.ndarray:
        """M(t), by the expression of MetricG.fiber_gram, so equal to it bit for bit."""
        return (1.0 - t) * self.eye + t * self.d

    def whitener(self, t: float) -> np.ndarray:
        lam, q = self.eigh
        return _whitener((1.0 - t) + t * lam, q)


class SliceRecord:
    """One slice t of a cover, pulled back through its frame (slope, w, V).

    With the fiber Gram m_dst at the image, P = V^T m_dst V, q = V^T (m_dst w)
    and r = w^T m_dst w, so the image of (a, u) has squared metric norm
    u^T P u + 2a u.q + a^2 r.  All three are batched products of _small;
    P is exactly symmetric where it is formed entry by entry.  The frame and
    m_dst are built with the record; P, q, r and the vertical conorm are
    formed on first read and kept, so a sweep pays only for what it reads:
    K reads r, c_q the conorm (from P), and the Finsler gain r and the
    conorm, and q only where its template loop runs.  The frame is kept for
    the adapted chain that verify continues from it.
    """

    def __init__(self, cover, source: SourceGram, t: float):
        self.source, self.t = source, t
        self.frame = cover.frame(t, source.grid, +1)
        self.slope = self.frame.slope
        self.m_dst = source.metric.fiber_gram(self.frame.t_out, self.frame.x_out)

    @cached_property
    def p(self) -> np.ndarray:
        return congruence(self.frame.v, self.m_dst)

    @cached_property
    def q(self) -> np.ndarray:
        return matvec(np.swapaxes(self.frame.v, -1, -2), matvec(self.m_dst, self.frame.w))

    @cached_property
    def r(self) -> np.ndarray:
        return quadratic(self.frame.w, self.m_dst)

    @cached_property
    def vertical_conorm(self) -> np.ndarray:
        """Vertical expansion of the chart differential at each point of the
        slice, from the metric at the source to the one at the image."""
        sq = _whitened_min_eig(self.p, self.source.whitener(self.t))
        return np.sqrt(np.maximum(sq, 0.0))


def _source_gram(metric: MetricG, fiber_res: int,
                 source: SourceGram | None = None) -> SourceGram:
    """source, or else the metric's Gram on the fiber grid, factored anew.

    measure_constants builds one and passes it to its sweeps as _source; a
    whole run (_pipeline) hands it on to verify_expansion, so the run
    evaluates and decomposes the Gram at t = 1 once.
    """
    return source if source is not None else SourceGram(metric, unit_grid(metric.dim, fiber_res))


def _record_job(cover, source: SourceGram, reduce):
    """Slice job t -> reduce(SliceRecord of the cover at t) on the source grid."""
    return lambda t: reduce(SliceRecord(cover, source, t))


def local_vertical_conorms(cover, metric: MetricG, fiber_res: int, t_res: int,
                           threads: int = 1, *,
                           _source: SourceGram | None = None) -> np.ndarray:
    """SliceRecord.vertical_conorm at every grid point, (t_res, points) in
    slice order."""
    job = _record_job(cover, _source_gram(metric, fiber_res, _source),
                      lambda rec: rec.vertical_conorm)
    return _sweep(job, t_res, threads)


def vertical_conorm_min(cover, metric: MetricG, fiber_res: int, t_res: int,
                        threads: int = 1, *, _source: SourceGram | None = None) -> float:
    """Min over the grid of the local vertical conorm."""
    job = _record_job(cover, _source_gram(metric, fiber_res, _source),
                      lambda rec: float(rec.vertical_conorm.min()))
    return float(_sweep(job, t_res, threads).min())


def estimate_metric_equiv(metric: MetricG, fiber_res: int = 64, *,
                          _source: SourceGram | None = None) -> float:
    """Largest c with c <= |v|_G / |v|_flat <= 1/c for vertical v on the grid
    and every t in [0, 1].

    The eigenvalues (1-t) + t lam of M(t) are monotone in t, so they are
    extreme at t = 0, where all are 1, and at t = 1, where they are those of D.
    """
    lam = _source_gram(metric, fiber_res, _source).eigh[0]
    lo = np.sqrt(max(float(lam[..., 0].min()), 0.0))
    return float(min(1.0, lo, 1.0 / np.sqrt(lam[..., -1].max())))


def estimate_C(tower, fiber_res: int = 64, t_res: int = 32,
               threads: int = 1, floor_slack: float = 1e-6, *, _bound: float | None = None):
    """Min flat conorm of the fiber derivative of the aligning stages.

    Also returns the uniform lower bound given by the product of the grid
    minima of the conorms of the base map, its inverse, and the connecting
    isotopy slices; the measured value must not fall below it.  That bound
    reads only h and tower.isotopy(1), so a known one is passed as _bound.
    """
    fh = fiber_alignment_map(tower)
    phi = tower.isotopy(1)
    grid = unit_grid(tower.dim, fiber_res)

    # these one-step Jacobians are well conditioned: closed form below n = 3,
    # the Gram's eigvalsh above, and no SVD either way
    def job(t):
        return float(_singular_extremes(fh.frame(t, grid, +1).v)[0].min())

    def phi_job(s):
        return _singular_extremes(phi.slice_at(s).jacobian(grid))[0].min()

    c_val = float(_sweep(job, t_res, threads, closed=True).min())
    if _bound is None:
        lo, hi = _singular_extremes(tower.level(0).jacobian(grid))
        min_h, min_h_inv = float(lo.min()), float(1.0 / hi.max())
        min_phi = float(np.minimum(1.0, _sweep(phi_job, t_res, threads, closed=True).min()))
        _bound = min_h * min_h_inv * min_phi
    if not c_val >= _bound * (1.0 - floor_slack):
        raise BoundViolation(f"measured conorm {c_val} fell below its uniform bound {_bound}")
    return c_val, _bound


def estimate_cq(qm, metric: MetricG, fiber_res: int = 64, t_res: int = 32,
                threads: int = 1, *, _source: SourceGram | None = None) -> float:
    """Min vertical expansion of the base-cover map in the interpolated metric."""
    return vertical_conorm_min(qm, metric, fiber_res, t_res, threads, _source=_source)


def select_k(c_eq: float, c_provider, lam: float, base: int = 3,
             k_cap: int = 12) -> int:
    """Smallest k with c_eq^2 * base^k * C(k) > lam."""
    for k in range(1, k_cap + 1):
        if c_eq * c_eq * base ** k * c_provider(k) > lam:
            return k
    raise UnboundedSelection(
        f"no k <= {k_cap} reaches the target factor {lam:.4f}"
    )


def verify_vertical_expansion(f, metric: MetricG, fiber_res: int = 64,
                              t_res: int = 32, threads: int = 1) -> float:
    """Measured min of |Df v|_G / |v|_G over vertical tangents on the grid."""
    return vertical_conorm_min(f, metric, fiber_res, t_res, threads)


def estimate_K(f, metric: MetricG, fiber_res: int = 64, t_res: int = 32,
               threads: int = 1, *, _source: SourceGram | None = None):
    """Max metric norm of the vertical part of the image of the unit base
    vector, plus its floor at 1 used for the mixed-norm construction."""
    job = _record_job(f, _source_gram(metric, fiber_res, _source),
                      lambda rec: float(np.sqrt(rec.r).max()))
    k_val = float(_sweep(job, t_res, threads).max())
    return k_val, max(k_val, 1.0)


def finsler_norm(metric: MetricG, k_eff: float, p: MTPoint, v: Tangent) -> float:
    """max(|v_fiber|_G / k_eff, |v_base|)."""
    if not np.isfinite(k_eff) or k_eff <= 0.0:
        raise FinslerDegenerate(f"norm weight {k_eff} is unusable")
    m = metric.fiber_gram(p.t, p.x)
    return max(float(np.sqrt(v.u @ m @ v.u)) / k_eff, abs(v.a))


def _direction_templates(dim: int, n_dirs: int, rng) -> list:
    """Stratified tangent templates: base-only, fiber-only, and mixed."""
    templates = [(1.0, np.zeros(dim))]
    verticals = []
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
        verticals = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    else:
        raw = rng.normal(size=(n_dirs, dim))
        verticals = list(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    templates += [(0.0, u) for u in verticals]
    for idx, u in enumerate(verticals):
        beta = np.pi * (idx + 1) / (2.0 * (len(verticals) + 1))
        sign = 1.0 if idx % 2 == 0 else -1.0
        templates.append((sign * np.cos(beta), np.sin(beta) * u))
    return templates


# Relative slack of the cone decision.  The computed conorm and lifts carry
# a few ulps of rounding; a slack of 1e-9, far above that, keeps a slice
# whose exact c_p - lift_p falls short of |s| from being decided.
_CONE_SLACK = 1e-9


def _template_gain(rec: SliceRecord, templates, k_eff: float) -> float:
    """Min over the slice and the direction templates (a, u) of
    max(|Vu + aw|_G / k_eff, |slope a|) / max(|u|_G / k_eff, |a|)."""
    dim = rec.frame.v.shape[-1]
    src = rec.source.gram(rec.t).reshape(-1, dim * dim)
    img = rec.p.reshape(-1, dim * dim)
    worst = np.full(len(src), np.inf)
    # one template at a time into a running minimum, so every
    # temporary is (points,), never (points, templates)
    for a, u in templates:
        uu = np.outer(u, u).ravel()
        scale = np.maximum(np.sqrt(src @ uu) / k_eff, abs(a))
        sq = img @ uu + 2.0 * a * (rec.q @ u) + a * a * rec.r
        worst = np.minimum(worst, np.maximum(np.sqrt(sq) / k_eff, abs(rec.slope * a)) / scale)
    return float(worst.min())


def _finsler_gain(dim: int, k_eff: float, n_dirs: int, seed: int):
    """gain(record): the min over the slice of the mixed-norm gain, decided
    by the cone bound where it can be and sampled on the direction templates
    (_template_gain) where it cannot.

    With |.|_S the metric at the source, c_p the vertical conorm and
    lift_p = sqrt(r_p) / k_eff, every tangent (a, u) at p gains at least
    min(|s|, c_p - lift_p), s the slope:
    - if |a| >= |u|_S / k_eff, its norm is |a| and the image's base part
      is |s a|, so it gains at least |s|;
    - otherwise its norm is |u|_S / k_eff, and |Vu + aw|_G >= c_p |u|_S -
      |a| sqrt(r_p) >= |u|_S (c_p - lift_p), so it gains at least
      c_p - lift_p.
    The base-only template (1, 0) gains max(lift_p, |s|).  So where some p
    has lift_p <= |s| and every p has c_p - lift_p >= |s| (1 + _CONE_SLACK),
    the slice's min over all directions is |s|, which the base-only
    template attains, and gain returns it without the loop.  A NaN in P or
    r makes a comparison false, so the loop runs and its NaN reaches the
    slice driver.
    """
    if not np.isfinite(k_eff) or k_eff <= 0.0:
        raise FinslerDegenerate(f"norm weight {k_eff} is unusable")
    templates = _direction_templates(dim, n_dirs, np.random.default_rng(seed))

    def gain(rec: SliceRecord) -> float:
        slope, lift = abs(rec.slope), np.sqrt(rec.r) / k_eff
        if (lift.min() <= slope
                and (rec.vertical_conorm - lift).min() >= slope * (1.0 + _CONE_SLACK)):
            return float(slope)
        return _template_gain(rec, templates, k_eff)

    return gain


def _mu_and_case_bound(mu: float, vertical_margin: float, m: int):
    if not np.isfinite(mu) or mu <= 0.0:
        raise FinslerDegenerate(f"sampled contraction constant {mu}")
    return mu, float(min(2 * m + 1, vertical_margin - 1.0))


def verify_finsler_expansion(f, metric: MetricG, k_eff: float,
                             vertical_margin: float, m: int,
                             fiber_res: int = 64, t_res: int = 32,
                             n_dirs: int = 16, threads: int = 1, seed: int = 0):
    """Contraction constant of the mixed norm, with its case bound.

    Returns (mu, case_bound).  mu is the min over the slices of
    _finsler_gain: on a slice the cone bound decides it is the slope, the
    exact min over all directions; on the others it is the min over grid
    points and stratified unit directions of the image norm.  case_bound is
    min(2m+1, vertical_margin - 1), the analytic floor from the two-case
    cone argument.
    """
    gain = _finsler_gain(f.source.dim, k_eff, n_dirs, seed)
    job = _record_job(f, _source_gram(metric, fiber_res), gain)
    return _mu_and_case_bound(float(_sweep(job, t_res, threads).min()), vertical_margin, m)


@dataclass
class AdaptedMetric:
    """Averaged metric in which a single step already expands.

    The squared norm is sum_{j<n_steps} rate^(-2j) |Df^j v|_G^2; the rate is
    the measured n_steps-step expansion taken to the 1/n_steps power.
    """

    cover: CompositeCovering
    metric: MetricG
    n_steps: int
    rate: float
    equiv_upper: float
    equiv_lower: float

    def _squared_chain(self, t: float, x: np.ndarray, a, u: np.ndarray, steps: int):
        """Stacked [|v|_G^2, |Df v|_G^2, ..., |Df^steps v|_G^2] of v = (a, u) at (t, x)."""
        chain = []
        for j in range(steps + 1):
            if j:
                fr = self.cover.frame(t, x, +1)
                a, u = fr.push(a, u)
                t, x = fr.t_out, torus_representative(fr.x_out)
            m = self.metric.fiber_gram(t, x)
            chain.append(a * a + quadratic(u, m))
        return np.stack(chain)

    def chain_norms(self, p: MTPoint, v: Tangent) -> np.ndarray:
        """[|v|_G, |Df v|_G, ..., |Df^n v|_G] along the orbit of p."""
        _, t, x, (u,) = self.cover.source.normalize_raw(p.seg, p.t, p.x, (v.u,))
        return np.sqrt(self._squared_chain(t, torus_representative(x), v.a, u, self.n_steps))

    def norm(self, p: MTPoint, v: Tangent) -> float:
        _, t, x, (u,) = self.cover.source.normalize_raw(p.seg, p.t, p.x, (v.u,))
        return float(self.norm_batch(t, torus_representative(x), v.a, u))

    def norm_batch(self, t: float, x: np.ndarray, a, u: np.ndarray):
        """Batched adapted norm for a shared parameter slice."""
        weights = self.rate ** (-2.0 * np.arange(self.n_steps))
        return np.sqrt(np.tensordot(weights, self._squared_chain(t, x, a, u, self.n_steps - 1), 1))


def _bordered(x: np.ndarray) -> np.ndarray:
    """diag(1, x), batched: G = diag(1, M) has the factors diag(1, L) of M = L L^T."""
    out = np.zeros(x.shape[:-2] + (x.shape[-1] + 1,) * 2)
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = x
    return out


def _chain_factors(f, source: SourceGram, t: float, fr, n_steps: int):
    """Factors of the n_steps-step chart Jacobian J at slice t, whitened to
    L_dst^T J W_src, generated first applied first: diag(1, W_src), J_1, ...,
    J_n, diag(1, L_dst^T).  fr is f's frame at (t, source.grid), built by
    the caller; steps 2..n continue from it, and it is released at step 2.

    W_src is the source whitener of the slice and L_dst the Cholesky factor of
    the Gram at the image, so the smallest singular value of their product is
    the smallest n-step expansion from G at the source to G at the image.
    """
    yield _bordered(source.whitener(t))
    for step in range(n_steps):
        if step:
            fr = f.frame(t, x, +1)
        yield fr.matrix()
        # frames and the metric are Z^n-periodic in x; unreduced lift
        # coordinates grow until the absolute Newton tolerance falls
        # below their rounding
        t, x = fr.t_out, torus_representative(fr.x_out)
    l_dst = _cholesky(source.metric.fiber_gram(t, x))
    yield _bordered(np.swapaxes(l_dst, -1, -2))


def _whitened_factors(f, source: SourceGram, t: float, n_steps: int):
    """_chain_factors at slice t, from a first frame built here."""
    return _chain_factors(f, source, t, f.frame(t, source.grid, +1), n_steps)


def _step_count(mu_hat: float, k_eff: float):
    """(n_steps, r_plus, r_minus): r_plus = sqrt(1 + k_eff^2) and r_minus =
    min(1, k_eff) bound the mixed norm against the metric norm, and n_steps
    is the first power with mu_hat^n > r_plus / r_minus.  A mu_hat <= 1, or
    an unusable k_eff, raises FinslerDegenerate rather than loop."""
    if not np.isfinite(mu_hat) or mu_hat <= 1.0:
        raise FinslerDegenerate(
            f"need a sampled contraction constant above 1, got {mu_hat}"
        )
    if not np.isfinite(k_eff) or k_eff <= 0.0:
        raise FinslerDegenerate(f"norm weight {k_eff} is unusable")
    r_plus = float(np.sqrt(1.0 + k_eff * k_eff))
    r_minus = min(1.0, k_eff)
    ratio = r_plus / r_minus
    n_steps = 1
    while mu_hat ** n_steps <= ratio:
        n_steps += 1
    return n_steps, r_plus, r_minus


def _adapted_metric(f, metric: MetricG, n_steps: int, worst: float,
                    r_plus: float, r_minus: float) -> AdaptedMetric:
    """The AdaptedMetric whose n_steps-step expansion has grid minimum worst."""
    rate = worst ** (1.0 / n_steps)
    if rate <= 1.0:
        raise NotExpanding(
            f"{n_steps}-step expansion {worst:.6f} gives rate {rate:.6f} <= 1"
        )
    return AdaptedMetric(cover=f, metric=metric, n_steps=n_steps, rate=rate,
                         equiv_upper=r_plus, equiv_lower=r_minus)


def build_adapted_metric(f, metric: MetricG, mu_hat: float, k_eff: float,
                         fiber_res: int = 64, t_res: int = 32,
                         threads: int = 1, *,
                         _source: SourceGram | None = None) -> AdaptedMetric:
    """Choose the smallest power that beats the norm-equivalence gap and
    average the metric along it.

    r_plus = sqrt(1 + k_eff^2) and r_minus = min(1, k_eff) bound the mixed
    norm against the metric norm; n_steps is the first power with
    mu_hat^n > r_plus / r_minus.  The rate is the grid minimum of the full
    n-step expansion, so a single step expands the averaged norm by
    construction wherever the minimum is honest.  That minimum is taken
    factor by factor (_chain_sigma_min): the Gram pencil of the n-step
    product squares its condition number, which lost the smallest eigenvalue
    on a 1-dimensional fiber.  verify_expansion runs the same chain inside
    its pass and calls this only when the sampled mu_hat asks for another
    power than the one it guessed.
    """
    n_steps, r_plus, r_minus = _step_count(mu_hat, k_eff)
    source = _source_gram(metric, fiber_res, _source)

    def job(t):
        return _chain_sigma_min(_whitened_factors(f, source, t, n_steps)).min()

    worst = float(_sweep(job, t_res, threads).min())
    return _adapted_metric(f, metric, n_steps, worst, r_plus, r_minus)


# ---------------------------------------------------------------------------
# Pipeline


@dataclass
class ConstantsReport:
    c_eq: float
    c_q: float
    conorm_C: float
    conorm_C_bound: float
    coupling_K: float
    coupling_K_eff: float
    lambda_target: float
    base: int
    fiber_res: int
    t_res: int


@dataclass
class ExpansionReport:
    k: int
    m: int
    nu_target: float
    tol_rel: float
    vertical_margin: float
    mu: float
    case_bound: float
    adapted_steps: int
    adapted_rate: float
    checks: dict = field(default_factory=dict)
    passed: bool = False


def measure_constants(h_field: TrigDisplacementField, m: int, *, k: int | None = None,
                      base: int = 3, fiber_res: int = 64, t_res: int = 32,
                      nu_target: float = 2.0, k_cap: int = 12, threads: int = 1):
    """Measure c_eq and c_q, choose the fiber depth k, then measure C(k) and
    the coupling K of the composite self-cover.

    Returns (ConstantsReport, k, f, metric): f is the composite at depth k
    and metric the interpolated metric it is measured in.
    """
    return _constants_stage(h_field, m, k=k, base=base, fiber_res=fiber_res, t_res=t_res,
                            nu_target=nu_target, k_cap=k_cap, threads=threads)[:4]


def _constants_stage(h_field: TrigDisplacementField, m: int, *, k, base, fiber_res,
                     t_res, nu_target, k_cap, threads):
    """measure_constants, plus the SourceGram that c_eq, c_q and K shared."""
    h = TrigDisplacementMap(h_field)
    metric = MetricG(h)
    psi = default_psi(h_field)
    source = _source_gram(metric, fiber_res)
    c_eq = estimate_metric_equiv(metric, fiber_res, _source=source)
    qm = build_qm_only(h, m, psi)
    c_q = estimate_cq(qm, metric, fiber_res, t_res, threads, _source=source)
    lam = nu_target / c_q

    towers: dict = {}

    def tower_at(kk: int):
        if kk not in towers:
            towers[kk] = tower_from_field(h_field, kk, base)
        return towers[kk]

    c_cache: dict = {}  # depth -> (C, bound); every depth shares the first bound

    def c_at(kk: int):
        if kk not in c_cache:
            known = next(iter(c_cache.values()), (None, None))[1]
            c_cache[kk] = estimate_C(tower_at(kk), fiber_res, t_res, threads, _bound=known)
        return c_cache[kk]

    if k is None:
        k = select_k(c_eq, lambda kk: c_at(kk)[0], lam, base=base, k_cap=k_cap)
    c_val, c_bound = c_at(k)

    f = build_f(tower_at(k), m, psi)
    k_raw, k_eff = estimate_K(f, metric, fiber_res, t_res, threads, _source=source)
    constants = ConstantsReport(
        c_eq=c_eq, c_q=c_q, conorm_C=c_val, conorm_C_bound=c_bound,
        coupling_K=k_raw, coupling_K_eff=k_eff, lambda_target=lam,
        base=base, fiber_res=fiber_res, t_res=t_res,
    )
    return constants, k, f, metric, source


def verify_expansion(constants: ConstantsReport, k: int, f, metric: MetricG, m: int, *,
                     n_dirs: int = 16, nu_target: float = 2.0,
                     seed: int = 0, threads: int = 1,
                     _source: SourceGram | None = None) -> ExpansionReport:
    """Check that the composite f expands, from the constants measured for it.

    One pass walks f once per adapted step.  Each slice job builds f's
    SliceRecord, which gives the vertical margin and mu from one vertical
    conorm (the cone bound of _finsler_gain reads it too, and decides mu
    without the template loop where it can), and continues the adapted
    chain from the record's frame for n_guess steps: the step count at
    mu = 2m+1, the base slope, which caps the sampled mu (the base-only
    direction template gives the slope at every point when k_eff bounds K).
    When the sampled mu asks for n_guess steps the rate comes from the
    pass's minima; otherwise build_adapted_metric runs at the step count
    it asks for.
    """
    fiber_res, t_res = constants.fiber_res, constants.t_res
    k_eff = constants.coupling_K_eff
    gain = _finsler_gain(f.source.dim, k_eff, n_dirs, seed)
    n_guess = _step_count(2 * m + 1, k_eff)[0]
    source = _source_gram(metric, fiber_res, _source)

    def job(t):
        rec = SliceRecord(f, source, t)
        margin, mu_t = float(rec.vertical_conorm.min()), gain(rec)
        # the chain needs only the record's frame: the rest is freed first
        factors = _chain_factors(f, source, t, rec.frame, n_guess)
        del rec
        return margin, mu_t, _chain_sigma_min(factors).min()

    margin, mu, worst = _sweep(job, t_res, threads).min(axis=0).tolist()
    mu, case_bound = _mu_and_case_bound(mu, margin, m)
    n_steps, r_plus, r_minus = _step_count(mu, k_eff)
    if n_steps != n_guess:
        adapted = build_adapted_metric(f, metric, mu, k_eff, fiber_res, t_res, threads,
                                       _source=source)
    else:
        adapted = _adapted_metric(f, metric, n_steps, worst, r_plus, r_minus)
    c_eq = constants.c_eq
    chain_floor = c_eq * c_eq * constants.base ** k * constants.conorm_C
    checks = {
        "vertical_margin_ok": bool(margin >= nu_target * (1.0 - _TOL_REL)),
        "mu_above_one": bool(mu > 1.0),
        "adapted_rate_above_one": bool(adapted.rate > 1.0),
        "chain_floor_ok": bool(chain_floor > constants.lambda_target),
    }
    return ExpansionReport(
        k=k, m=m, nu_target=nu_target, tol_rel=_TOL_REL,
        vertical_margin=margin, mu=mu, case_bound=case_bound,
        adapted_steps=adapted.n_steps, adapted_rate=adapted.rate,
        checks=checks, passed=all(checks.values()),
    )


def _pipeline(h_field: TrigDisplacementField, m: int, *, k, base, fiber_res, t_res,
              n_dirs, nu_target, k_cap, seed, threads):
    """One verify run, (constants, k, f, metric, source, report): the
    constants stage hands its SourceGram on to verify_expansion, and the
    CLI's CSV dump takes it too, so the run evaluates and factors the source
    Gram once.  run_pipeline and the CLI's verify share it.
    """
    constants, k, f, metric, source = _constants_stage(
        h_field, m, k=k, base=base, fiber_res=fiber_res, t_res=t_res,
        nu_target=nu_target, k_cap=k_cap, threads=threads)
    report = verify_expansion(constants, k, f, metric, m, n_dirs=n_dirs,
                              nu_target=nu_target, seed=seed, threads=threads,
                              _source=source)
    return constants, k, f, metric, source, report


def run_pipeline(h_field: TrigDisplacementField, m: int, *, k: int | None = None,
                 base: int = 3, fiber_res: int = 64, t_res: int = 32,
                 n_dirs: int = 16, nu_target: float = 2.0,
                 k_cap: int = 12, seed: int = 0, threads: int = 1):
    """Measure all constants, choose k, and verify expansion end to end.

    Returns (ConstantsReport, ExpansionReport).
    """
    constants, _, _, _, _, report = _pipeline(
        h_field, m, k=k, base=base, fiber_res=fiber_res, t_res=t_res, n_dirs=n_dirs,
        nu_target=nu_target, k_cap=k_cap, seed=seed, threads=threads)
    return constants, report
