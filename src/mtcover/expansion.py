"""Measured expansion constants and the verification pipeline.

All estimates sweep a run's Sample: its parameter slices times its fiber
points, in a run the representatives of a regular grid by the fiber axes
that no frequency of the field uses.  Within a slice every chart branch is
fixed, so the sweeps are fully vectorized.  A run's sweeps share one
worker group (_Group): measure_constants forks it once, every process of
it runs the same code and takes its own slices, and each sweep hands every
process every slice value in slice order, which keeps results and
decisions independent of the worker count.  The group stays with the
returned Measurement until verify_expansion runs its pass in it; a sweep
passed a thread count instead forks a group of its own.  The per-point
linear algebra of every sweep is in _small.
"""

from __future__ import annotations

import os
import pickle
import signal
import weakref
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._small import (bordered, chain_sigma_min, cholesky, congruence, quadratic,
                     singular_extremes, whitened_min_eig)
from .coverings import CompositeCovering, build_qm, build_stage_inventory, fiber_alignment_map
from .errors import (BoundViolation, FinslerDegenerate, MTCoverError, NonFiniteSlice,
                     NotExpanding, UnboundedSelection)
from .fields import TrigDisplacementField, unit_grid
from .lifting import build_tower, default_phi1
from .manifolds import MetricG, MTPoint, Sample, Tangent
from .torus_maps import (
    StraightLineIsotopy,
    TrigDisplacementMap,
    bridge_isotopy,
    compose_isotopy,
    constant_identity_isotopy,
    torus_representative,
)

_TOL_REL = 1e-3  # relative slack of the vertical-margin check; reported as tol_rel
_FLOOR_SLACK = 1e-6  # relative slack of the conorm C's check against its uniform bound


def default_psi(h_field: TrigDisplacementField):
    """Path from the identity to the inverse square of id + field.

    Built as the bridge from the constant identity to the slice-wise square
    of the straight-line path, so it needs no closed form for the square.
    """
    line = StraightLineIsotopy(h_field)
    squared = compose_isotopy(line, line)
    return bridge_isotopy(constant_identity_isotopy(h_field.dim), squared)


class _Group:
    """Processes that run the same code in lockstep: the caller, rank 0,
    and size - 1 os.fork children (size is threads, capped at the slices of
    the group's largest sweep; 1 where os.fork does not exist).

    start(body) runs body(group) in every process.  Each child has two
    pipes to the caller: gather sends the child's outcome up, and
    broadcast sends the caller's value down, where a child that ran ahead
    waits for it.  A child leaves start only through os._exit, so it never
    returns into the caller's stack, flushes inherited stdio buffers, or
    runs exit hooks; close, in the caller, kills and reaps the children left.
    """

    def __init__(self, threads: int, slices: int):
        self.size = max(1, min(threads, slices)) if hasattr(os, "fork") else 1
        self.rank, self.owner = 0, os.getpid()
        self._children = []  # the caller's [pid, up, down] of each child; pid None once reaped
        self._pipes = None  # a child's (up, down) ends

    def start(self, body):
        """body(self) in every process of the group; its value in the caller.
        If body raises in the caller, the group is closed first."""
        try:
            for rank in range(1, self.size):
                self._fork(rank, body)
            return body(self)
        except BaseException:
            self.close()
            raise

    def _fork(self, rank: int, body):
        up_read, up_write = os.pipe()
        down_read, down_write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (up_read, up_write, down_read, down_write):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(up_read)
                os.close(down_write)
                for _, up, down in self._children:  # the caller's ends to earlier children
                    up.close()
                    down.close()
                self.rank, self._children = rank, []
                self._pipes = os.fdopen(up_write, "wb"), os.fdopen(down_read, "rb")
                body(self)
                code = 0
            finally:
                os._exit(code)
        os.close(up_write)
        os.close(down_read)
        self._children.append([pid, os.fdopen(up_read, "rb"), os.fdopen(down_write, "wb")])

    def gather(self, outcome):
        """In the caller, the outcomes of ranks 0, 1, ..., size - 1, outcome
        being its own; in a child, None after sending outcome up.  A child
        that exits without a whole outcome gives an MTCoverError at slice
        = its rank, its first slice."""
        if self.rank:
            up = self._pipes[0]
            up.write(_pickled(outcome))
            up.flush()
            return None
        return [outcome] + [self._receive(rank) for rank in range(1, self.size)]

    def _receive(self, rank: int):
        child = self._children[rank - 1]
        try:
            return pickle.load(child[1])
        except Exception:
            _, status = os.waitpid(child[0], 0)
            child[0] = None
            code = os.waitstatus_to_exitcode(status)
            return False, (rank, MTCoverError(
                f"sweep worker for slice {rank} exited with status {code} without a result"))

    def broadcast(self, value):
        """The caller's value, in every process: a child waits for it.  A
        child that has died is skipped; the next gather reports it."""
        if self.rank:
            return pickle.load(self._pipes[1])
        if self._children:
            data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            for _, _, down in self._children:
                with suppress(BrokenPipeError):
                    down.write(data)
                    down.flush()
        return value

    def close(self):
        """Kill and reap the children left.  It acts only in the process
        that opened the group, and a second call does nothing."""
        if os.getpid() != self.owner:
            return
        children, self._children = self._children, []
        for pid, up, down in children:
            if pid is not None:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            up.close()
            with suppress(OSError):  # a flush that a dead child left pending
                down.close()
            if pid is not None:
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)


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


def _sweep(job, t_values: list[float], workers: int | _Group) -> np.ndarray:
    """job(t) on the slices t_values (a Sample's slices), in slice order, as
    one array.  A non-finite slice value, or a factorization that fails on
    one, raises NonFiniteSlice.

    workers is a run's _Group, or a thread count for a group of this sweep
    alone.  Process r of the group computes slices r, r + size, ...; the
    caller gathers them, puts them back in slice order and broadcasts the
    array, so every process returns the same bits.  A failure raises the
    error of the lowest failing slice in the caller, as the serial loop
    does, so neither results nor errors depend on the group's size; the
    children wait until the group is closed.  A job keeps its side effects
    in the process that ran its slice, which runs that slice in every
    later sweep of the group.
    """
    if not isinstance(workers, _Group):
        group = _Group(workers, len(t_values))
        try:
            return group.start(lambda group: _sweep(job, t_values, group))
        finally:
            group.close()
    group = workers

    def guarded(t):
        try:
            return job(t)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteSlice(f"slice t={t}: {exc}") from exc

    def share():
        """(True, values) of this process's slices, or else (False, (slice
        index, exception)) of the first that fails."""
        values = []
        for i in range(group.rank, len(t_values), group.size):
            try:
                values.append(guarded(t_values[i]))
            except Exception as exc:
                return False, (i, exc)
        return True, values

    outcomes, values = group.gather(share()), None
    if outcomes is not None:
        failures = [body for ok, body in outcomes if not ok]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        values = np.array([outcomes[i % group.size][1][i // group.size]
                           for i in range(len(t_values))])
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            raise NonFiniteSlice(f"slice t={t_values[bad[0, 0]]} gave a non-finite value")
    return group.broadcast(values)


class SliceRecord:
    """One slice t of a cover, pulled back through its frame (slope, w, V).

    With the metric's fiber Gram m_dst at the image, P = V^T m_dst V and
    r = w^T m_dst w: the image of a vertical u has squared metric norm
    u^T P u, and that of the base direction (1, 0) has vertical part of
    squared norm r.  Both are batched products of _small; P is exactly
    symmetric where it is formed entry by entry.  The frame, at the
    sample's grid, and m_dst are built with the record; P, r, the source
    whitener and the vertical conorm are formed on first read and kept, so
    a sweep pays only for what it reads: K reads r, c_q the conorm (from P
    and the whitener), and the Finsler gain r and the conorm.  The frame
    and the whitener are kept for the adapted chain that verify continues
    from them, and a run keeps f's records from the K sweep, r read, until
    verify's pass takes them.
    """

    def __init__(self, cover, sample: Sample, t: float):
        self.sample, self.t = sample, t
        self.frame = cover.frame(t, sample.grid, +1)
        self.slope = self.frame.slope
        self.m_dst = sample.metric.fiber_gram(self.frame.t_out, self.frame.x_out)

    @cached_property
    def p(self) -> np.ndarray:
        return congruence(self.frame.v, self.m_dst)

    @cached_property
    def r(self) -> np.ndarray:
        return quadratic(self.frame.w, self.m_dst)

    @cached_property
    def whitener(self) -> np.ndarray:
        return self.sample.whitener(self.t)

    @cached_property
    def vertical_conorm(self) -> np.ndarray:
        """Vertical expansion of the chart differential at each point of the
        slice, from the metric at the source to the one at the image."""
        sq = whitened_min_eig(self.p, self.whitener)
        return np.sqrt(np.maximum(sq, 0.0))


def _record_sweep(cover, sample: Sample, reduce, workers: int | _Group) -> np.ndarray:
    """reduce(SliceRecord of the cover at t) on the sample's slices."""
    return _sweep(lambda t: reduce(SliceRecord(cover, sample, t)), sample.slices(), workers)


def _margin(rec: SliceRecord) -> float:
    """The slice's minimum vertical conorm."""
    return float(rec.vertical_conorm.min())


def local_vertical_conorms(cover, sample: Sample, threads: int = 1) -> np.ndarray:
    """SliceRecord.vertical_conorm at every sample point, (slices, points)
    in slice order."""
    return _record_sweep(cover, sample, lambda rec: rec.vertical_conorm, threads)


def estimate_metric_equiv(sample: Sample) -> float:
    """Largest c with c <= |v|_G / |v|_flat <= 1/c for vertical v at the
    sample's points and every t in [0, 1].

    The eigenvalues (1-t) + t lam of M(t) are monotone in t, so they are
    extreme at t = 0, where all are 1, and at t = 1, where they are those of D.
    """
    lam = sample.eigh[0]
    lo = np.sqrt(max(float(lam[..., 0].min()), 0.0))
    return float(min(1.0, lo, 1.0 / np.sqrt(lam[..., -1].max())))


def estimate_C(tower, sample: Sample, threads: int | _Group = 1, *,
               _bound: float | None = None):
    """Min flat conorm of the fiber derivative of the aligning stages, on
    the sample's closed slices and its points.

    Also returns the uniform lower bound given by the product of the grid
    minima of the conorms of the base map, its inverse, and the connecting
    isotopy slices; the measured value must not fall below it.  That bound
    reads only h and tower.isotopy(1), so a known one is passed as _bound.
    """
    fh = fiber_alignment_map(tower)
    phi = tower.isotopy(1)
    grid, t_values = sample.grid, sample.slices(closed=True)

    # these one-step Jacobians are well conditioned: closed form below n = 3,
    # the Gram's eigvalsh above, and no SVD either way
    def job(t):
        return float(singular_extremes(fh.frame(t, grid, +1).v)[0].min())

    def phi_job(s):
        return singular_extremes(phi.jet(s, grid)[1])[0].min()

    c_val = float(_sweep(job, t_values, threads).min())
    if _bound is None:
        lo, hi = singular_extremes(tower.level(0).jacobian(grid))
        min_h, min_h_inv = float(lo.min()), float(1.0 / hi.max())
        min_phi = float(np.minimum(1.0, _sweep(phi_job, t_values, threads).min()))
        _bound = min_h * min_h_inv * min_phi
    if not c_val >= _bound * (1.0 - _FLOOR_SLACK):
        raise BoundViolation(f"measured conorm {c_val} fell below its uniform bound {_bound}")
    return c_val, _bound


def estimate_cq(qm, sample: Sample, threads: int | _Group = 1) -> float:
    """Min vertical expansion of the base-cover map in the interpolated metric."""
    return float(_record_sweep(qm, sample, _margin, threads).min())


def verify_vertical_expansion(f, sample: Sample, threads: int = 1) -> float:
    """Measured min of |Df v|_G / |v|_G over vertical tangents at the sample."""
    return float(_record_sweep(f, sample, _margin, threads).min())


def estimate_K(f, sample: Sample, threads: int | _Group = 1, *,
               _records: dict | None = None):
    """Max metric norm of the vertical part of the image of the unit base
    vector, plus its floor at 1 used for the mixed-norm construction.

    A run passes _records, where each process keeps the SliceRecord of
    every slice it sweeps, by t, for the verify pass to continue from.
    """
    def reduce(rec):
        if _records is not None:
            _records[rec.t] = rec
        return float(np.sqrt(rec.r).max())

    k_val = float(_record_sweep(f, sample, reduce, threads).max())
    return k_val, max(k_val, 1.0)


def _check_weight(k_eff: float):
    """Raise FinslerDegenerate unless the mixed norm's fiber weight is usable."""
    if not np.isfinite(k_eff) or k_eff <= 0.0:
        raise FinslerDegenerate(f"norm weight {k_eff} is unusable")


def finsler_norm(metric: MetricG, k_eff: float, p: MTPoint, v: Tangent) -> float:
    """max(|v_fiber|_G / k_eff, |v_base|)."""
    _check_weight(k_eff)
    m = metric.fiber_gram(p.t, p.x)
    return max(float(np.sqrt(v.u @ m @ v.u)) / k_eff, abs(v.a))


def _finsler_gain(k_eff: float):
    """gain(record): the cone floor of the mixed-norm gain over the slice,
    min(|s|, min_p(c_p - lift_p)).

    With |.|_S the metric at the source, c_p the vertical conorm and
    lift_p = sqrt(r_p) / k_eff, every tangent (a, u) at p gains at least
    min(|s|, c_p - lift_p), s the slope:
    - if |a| >= |u|_S / k_eff, its norm is |a| and the image's base part
      is |s a|, so it gains at least |s|;
    - otherwise its norm is |u|_S / k_eff, and |Vu + aw|_G >= c_p |u|_S -
      |a| sqrt(r_p) >= |u|_S (c_p - lift_p), so it gains at least
      c_p - lift_p.
    With k_eff = max(K, 1) and K = max sqrt(r), lift_p <= 1, so the floor
    is at least the case bound min(|s|, vertical margin - 1).  A NaN in r
    or in the conorm reaches _sweep through np.minimum.
    """
    _check_weight(k_eff)

    def gain(rec: SliceRecord) -> float:
        cone = (rec.vertical_conorm - np.sqrt(rec.r) / k_eff).min()
        return float(np.minimum(abs(rec.slope), cone))

    return gain


def _case_bound(vertical_margin: float, m: int) -> float:
    return float(min(2 * m + 1, vertical_margin - 1.0))


def verify_finsler_expansion(f, sample: Sample, k_eff: float, vertical_margin: float,
                             m: int, threads: int = 1):
    """Contraction constant of the mixed norm, with its case bound.

    Returns (mu, case_bound).  mu is the min over the slices of
    _finsler_gain, the cone floor min(|s|, c_p - sqrt(r_p) / k_eff) over
    the sample's points p.  case_bound is min(2m+1, vertical_margin - 1), the
    analytic floor from the same two-case cone argument at the global
    constants.
    """
    mu = float(_record_sweep(f, sample, _finsler_gain(k_eff), threads).min())
    if mu <= 0.0:
        raise FinslerDegenerate(f"contraction constant {mu} is not a positive number")
    return mu, _case_bound(vertical_margin, m)


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
        _, t, x, u = self.cover.source.normalize_raw(p.seg, p.t, p.x, v.u)
        return np.sqrt(self._squared_chain(t, torus_representative(x), v.a, u, self.n_steps))

    def norm(self, p: MTPoint, v: Tangent) -> float:
        _, t, x, u = self.cover.source.normalize_raw(p.seg, p.t, p.x, v.u)
        return float(self.norm_batch(t, torus_representative(x), v.a, u))

    def norm_batch(self, t: float, x: np.ndarray, a, u: np.ndarray):
        """Batched adapted norm for a shared parameter slice."""
        weights = self.rate ** (-2.0 * np.arange(self.n_steps))
        return np.sqrt(np.tensordot(weights, self._squared_chain(t, x, a, u, self.n_steps - 1), 1))


def _chain_factors(f, metric: MetricG, t: float, fr, w_src: np.ndarray, n_steps: int):
    """Factors of the n_steps-step chart Jacobian J at slice t, whitened to
    L_dst^T J W_src, generated first applied first: diag(1, W_src), J_1, ...,
    J_n, diag(1, L_dst^T).  fr is f's frame at slice t on the sample's grid
    and w_src that grid's whitener at t, both built by the caller; steps
    2..n continue from fr, and it is released at step 2.

    W_src is the source whitener of the slice and L_dst the Cholesky factor of
    the metric's Gram at the image, so the smallest singular value of their
    product is the smallest n-step expansion from G at the source to G at
    the image.
    """
    yield bordered(w_src)
    for step in range(n_steps):
        if step:
            fr = f.frame(t, x, +1)
        yield fr.matrix()
        # frames and the metric are Z^n-periodic in x; unreduced lift
        # coordinates grow until the absolute Newton tolerance falls
        # below their rounding
        t, x = fr.t_out, torus_representative(fr.x_out)
    l_dst = cholesky(metric.fiber_gram(t, x))
    yield bordered(np.swapaxes(l_dst, -1, -2))


def _step_count(mu_hat: float, k_eff: float):
    """(n_steps, r_plus, r_minus): r_plus = sqrt(1 + k_eff^2) and r_minus =
    min(1, k_eff) bound the mixed norm against the metric norm, and n_steps
    is the first power with mu_hat^n > r_plus / r_minus.  A mu_hat <= 1, or
    an unusable k_eff, raises FinslerDegenerate rather than loop."""
    if not np.isfinite(mu_hat) or mu_hat <= 1.0:
        raise FinslerDegenerate(
            f"need a contraction constant above 1, got {mu_hat}"
        )
    _check_weight(k_eff)
    r_plus = float(np.sqrt(1.0 + k_eff * k_eff))
    r_minus = min(1.0, k_eff)
    ratio = r_plus / r_minus
    n_steps = 1
    while mu_hat ** n_steps <= ratio:
        n_steps += 1
    return n_steps, r_plus, r_minus


def _chain_minimum(f, sample: Sample, n_steps: int, workers: int | _Group) -> float:
    """Sample minimum of the n_steps-step expansion of f from G to G, taken
    factor by factor (chain_sigma_min)."""
    def job(t):
        # the generator alone holds the first frame, so step 2 releases it
        factors = _chain_factors(f, sample.metric, t, f.frame(t, sample.grid, +1),
                                 sample.whitener(t), n_steps)
        return chain_sigma_min(factors).min()

    return float(_sweep(job, sample.slices(), workers).min())


def build_adapted_metric(f, sample: Sample, mu_hat: float, k_eff: float,
                         threads: int = 1) -> AdaptedMetric:
    """Choose the smallest power that beats the norm-equivalence gap and
    average the metric along it.

    r_plus = sqrt(1 + k_eff^2) and r_minus = min(1, k_eff) bound the mixed
    norm against the metric norm; n_steps is the first power with
    mu_hat^n > r_plus / r_minus.  The rate is the sample minimum of the full
    n-step expansion, so a single step expands the averaged norm by
    construction wherever the minimum is honest.  That minimum is taken
    factor by factor (chain_sigma_min): the Gram pencil of the n-step
    product squares its condition number, which lost the smallest eigenvalue
    on a 1-dimensional fiber.  A mu_hat <= 1 raises FinslerDegenerate and a
    rate <= 1 NotExpanding; verify_expansion reports both as failed checks.
    """
    n_steps, r_plus, r_minus = _step_count(mu_hat, k_eff)
    worst = _chain_minimum(f, sample, n_steps, threads)
    rate = worst ** (1.0 / n_steps)
    if rate <= 1.0:
        raise NotExpanding(
            f"{n_steps}-step expansion {worst:.6f} gives rate {rate:.6f} <= 1"
        )
    return AdaptedMetric(cover=f, metric=sample.metric, n_steps=n_steps, rate=rate,
                         equiv_upper=r_plus, equiv_lower=r_minus)


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
    adapted_steps: int | None  # None where mu <= 1 leaves no step count
    adapted_rate: float | None
    checks: dict = field(default_factory=dict)
    passed: bool = False


@dataclass
class Measurement:
    """What measure_constants measured, and the settings it ran with: the
    one argument of verify_expansion.  f is the composite at depth k, and
    sample the points every sweep of the run measures at, with the metric
    (run.metric) and its Gram factored there.

    The run also keeps, off the constructor, the worker group it was
    measured in and each process's SliceRecords of f from the K sweep:
    verify_expansion runs its pass in the group, continues from the
    records, and then closes the group.  A run released without a verify
    closes its group then.  A copy made by dataclasses.replace has
    neither, and its verify frames f afresh in groups of its own.
    """

    constants: ConstantsReport
    k: int
    f: CompositeCovering
    sample: Sample
    m: int
    nu_target: float
    threads: int
    _group: _Group | None = field(default=None, init=False, repr=False, compare=False)
    _records: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def metric(self) -> MetricG:
        return self.sample.metric


def measure_constants(h_field: TrigDisplacementField, m: int, *, k: int | None = None,
                      base: int = 3, fiber_res: int = 64, t_res: int = 32,
                      nu_target: float = 2.0, k_cap: int = 12, threads: int = 1) -> Measurement:
    """Measure c_eq and c_q, choose the fiber depth k, then measure C(k) and
    the coupling K of the composite self-cover.

    Returns the Measurement that verify_expansion takes.  Its one Sample,
    fiber_res points per axis times t_res slices, holds every sweep's
    points and the Gram factored there, so c_eq, c_q, C, K and a later
    verify_expansion share one grid and one factor.  Every map of the run
    is built from h_field, so the sample holds unit_grid's quotient by the
    axes that no frequency uses, where each constant reads the tensor
    grid's value.  The sweeps run in one
    worker group of threads processes, forked once after c_eq factors the Gram;
    every process measures the same constants from the same slice values,
    and the children stay parked with the run until verify_expansion.
    h, the base cover qm and the connecting isotopy are built once, and
    each depth only its tower and fiber stages; f at the chosen depth
    reuses qm's stages (build_stage_inventory).
    """
    h = TrigDisplacementMap(h_field)
    sample = Sample(MetricG(h), unit_grid(h.dim, fiber_res, h_field.unused_axes()), t_res)
    psi = default_psi(h_field)
    c_eq = estimate_metric_equiv(sample)
    qm, phi1 = build_qm(h, m, psi), default_phi1(h_field, base)

    def measure(group: _Group) -> Measurement:
        c_q = estimate_cq(qm, sample, group)
        lam = nu_target / c_q
        c_bound = None  # the bound of the first depth measured, which every depth shares
        for depth in ([k] if k is not None else range(1, k_cap + 1)):
            tower = build_tower(h, phi1, depth, base)
            c_val, c_bound = estimate_C(tower, sample, group, _bound=c_bound)
            # the smallest depth with c_eq^2 * base^k * C(k) > lam, unless k is given
            if k is not None or c_eq * c_eq * base ** depth * c_val > lam:
                break
        else:
            raise UnboundedSelection(f"no k <= {k_cap} reaches the target factor {lam:.4f}")

        f = build_stage_inventory(tower, qm)["f"]
        records = {}
        k_raw, k_eff = estimate_K(f, sample, group, _records=records)
        constants = ConstantsReport(
            c_eq=c_eq, c_q=c_q, conorm_C=c_val, conorm_C_bound=c_bound,
            coupling_K=k_raw, coupling_K_eff=k_eff, lambda_target=lam,
            base=base, fiber_res=fiber_res, t_res=t_res,
        )
        run = Measurement(constants=constants, k=depth, f=f, sample=sample, m=m,
                          nu_target=nu_target, threads=threads)
        run._group, run._records = group, records
        if group.rank:
            # a child goes on into the run's verify pass, and waits there
            # for the caller's verify_expansion or for close
            verify_expansion(run)
        return run

    group = _Group(threads, len(sample.slices(closed=True)))
    run = group.start(measure)
    weakref.finalize(run, group.close)
    return run


def verify_expansion(run: Measurement) -> ExpansionReport:
    """Check that the run's composite f expands, from the constants measured
    for it, at the run's m, nu_target and threads.

    One pass walks f once per adapted step.  Each slice job takes f's
    SliceRecord that the K sweep kept on the run (dropping it from there),
    or builds it where the run keeps none, which gives the vertical margin
    and mu from one vertical conorm (mu is the cone floor of
    _finsler_gain), and continues the adapted chain from the record's
    frame for n_guess steps: the step count at mu = 2m+1, the base slope,
    which caps the floor.  When mu asks for n_guess steps the rate comes
    from the pass's minima; otherwise the chain runs again at the step
    count it asks for.  A mu <= 1 has no step count: the report then fails
    mu_above_one and adapted_rate_above_one, with no adapted steps or
    rate, and a rate <= 1 fails the latter.

    The sweeps run in the run's worker group, whose children take the
    caller's constants and settings first; the group is closed on return.
    """
    group, records, run._group = run._group, run._records, None
    try:
        if group is not None:
            run.constants, run.m, run.nu_target = group.broadcast(
                (run.constants, run.m, run.nu_target))
        workers = run.threads if group is None else group
        constants, k, f, sample, m = run.constants, run.k, run.f, run.sample, run.m
        k_eff = constants.coupling_K_eff
        gain = _finsler_gain(k_eff)
        n_guess = _step_count(2 * m + 1, k_eff)[0]

        def job(t):
            rec = records.pop(t, None)
            if rec is None:
                rec = SliceRecord(f, sample, t)
            margin, mu_t = _margin(rec), gain(rec)
            # the chain needs only the record's frame and whitener: the rest
            # is freed first
            factors = _chain_factors(f, sample.metric, t, rec.frame, rec.whitener, n_guess)
            del rec
            return margin, mu_t, chain_sigma_min(factors).min()

        margin, mu, worst = _sweep(job, sample.slices(), workers).min(axis=0).tolist()
        n_steps = rate = None
        if mu > 1.0:
            n_steps = _step_count(mu, k_eff)[0]
            if n_steps != n_guess:
                worst = _chain_minimum(f, sample, n_steps, workers)
            rate = worst ** (1.0 / n_steps)
    finally:
        if group is not None:
            group.close()
    c_eq = constants.c_eq
    chain_floor = c_eq * c_eq * constants.base ** k * constants.conorm_C
    checks = {
        "vertical_margin_ok": bool(margin >= run.nu_target * (1.0 - _TOL_REL)),
        "mu_above_one": bool(mu > 1.0),
        "adapted_rate_above_one": rate is not None and bool(rate > 1.0),
        "chain_floor_ok": bool(chain_floor > constants.lambda_target),
    }
    return ExpansionReport(
        k=k, m=m, nu_target=run.nu_target, tol_rel=_TOL_REL,
        vertical_margin=margin, mu=mu, case_bound=_case_bound(margin, m),
        adapted_steps=n_steps, adapted_rate=rate,
        checks=checks, passed=all(checks.values()),
    )
