"""Measured expansion constants and the verification pipeline.

All estimates sweep a product grid: an evenly spaced parameter slice set
on [0,1) times a regular fiber grid.  Within a slice every chart branch is
fixed, so the sweeps are fully vectorized; slices can run on a thread pool
and are reduced in slice order, which keeps results independent of the
thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .coverings import CompositeCovering, build_f, build_qm_only, fiber_alignment_map
from .errors import (BoundViolation, FinslerDegenerate, NonFiniteSlice, NotExpanding,
                     UnboundedSelection)
from .fields import TrigDisplacementField, unit_grid
from .lifting import tower_from_field
from .manifolds import MetricG, MTPoint, Tangent
from .torus_maps import (
    TrigDisplacementMap,
    bridge_isotopy,
    compose_isotopy,
    constant_identity_isotopy,
    straight_line_isotopy,
    torus_representative,
)


def default_psi(h_field: TrigDisplacementField):
    """Path from the identity to the inverse square of id + field.

    Built as the bridge from the constant identity to the slice-wise square
    of the straight-line path, so it needs no closed form for the square.
    """
    line = straight_line_isotopy(h_field)
    squared = compose_isotopy(line, line)
    return bridge_isotopy(constant_identity_isotopy(h_field.dim), squared)


def _sweep(job, t_res: int, threads: int, closed: bool = False) -> np.ndarray:
    """job(t) on the slices t = i / t_res of [0, 1), in slice order, as one array.

    Closed sweeps add t = 1: chart-level (flat-norm) quantities differ between
    the two seam charts, so their extrema need both endpoints.  A non-finite
    slice value, or a factorization that fails on one, raises NonFiniteSlice.
    """
    t_values = np.linspace(0.0, 1.0, t_res + 1) if closed else np.arange(t_res) / t_res

    def guarded(t):
        try:
            return job(t)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteSlice(f"slice t={t}: {exc}") from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = np.array(list(pool.map(guarded, t_values.tolist())))
    else:
        values = np.array([guarded(t) for t in t_values.tolist()])
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise NonFiniteSlice(f"slice t={t_values[bad[0, 0]]} gave a non-finite value")
    return values


def _whitener(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """W = Q diag(eigvals)^(-1/2), so W^T M W = I for M = Q diag(eigvals) Q^T."""
    return eigvecs / np.sqrt(eigvals)[..., None, :]


def _whitened_min_eig(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetrised W^T a W, batched."""
    whitened = np.swapaxes(w, -1, -2) @ a @ w
    return np.linalg.eigvalsh(0.5 * (whitened + np.swapaxes(whitened, -1, -2)))[..., 0]


def generalized_conorm_sq(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the pencil (a, m) for SPD m, batched."""
    return _whitened_min_eig(a, _whitener(*np.linalg.eigh(m)))


class SourceGram:
    """The fiber Gram at the source points of a sweep, factored once.

    On a fixed grid the Gram is affine in t, M(t) = (1-t) I + t D with
    D = Dh^T Dh, so one eigendecomposition D = Q diag(lam) Q^T whitens every
    slice: W(t) = Q diag((1-t) + t lam)^(-1/2) has W^T M(t) W = I.
    """

    def __init__(self, metric: MetricG, grid: np.ndarray):
        self.metric, self.grid = metric, grid
        self.d, self.eye = metric.fiber_gram(1.0, grid), np.eye(metric.dim)
        # eigh returns NaN for NaN input, outside the guard of _sweep
        if not np.isfinite(self.d).all():
            raise NonFiniteSlice("slice t=1.0 gave a non-finite source Gram")
        self.eigvals, self.eigvecs = np.linalg.eigh(self.d)

    def gram(self, t: float) -> np.ndarray:
        """M(t), by the expression of MetricG.fiber_gram, so equal to it bit for bit."""
        return (1.0 - t) * self.eye + t * self.d

    def whitener(self, t: float) -> np.ndarray:
        return _whitener((1.0 - t) + t * self.eigvals, self.eigvecs)


class SliceRecord:
    """One slice t of a cover, pulled back through its frame (slope, w, V).

    With the fiber Gram M at the image, P = V^T M V, q = V^T M w and
    r = w^T M w, so the image of (a, u) has squared metric norm
    u^T P u + 2a u.q + a^2 r.  Every sweep over a cover reads these.
    """

    def __init__(self, cover, source: SourceGram, t: float):
        fr = cover.frame(t, source.grid, +1)
        m_dst = source.metric.fiber_gram(fr.t_out, fr.x_out)
        vt_m = np.swapaxes(fr.v, -1, -2) @ m_dst
        self.source, self.t, self.slope = source, t, fr.slope
        # einsum beats stacked matmul on (n, n) x (n,) products
        self.p, self.q = vt_m @ fr.v, np.einsum("...ij,...j->...i", vt_m, fr.w)
        self.r = np.einsum("...i,...ij,...j->...", fr.w, m_dst, fr.w)

    def vertical_conorm(self) -> np.ndarray:
        """Vertical expansion of the chart differential at each point of the
        slice, from the metric at the source to the one at the image."""
        sq = _whitened_min_eig(self.p, self.source.whitener(self.t))
        return np.sqrt(np.maximum(sq, 0.0))


def _record_job(cover, metric: MetricG, fiber_res: int, reduce):
    """Slice job t -> reduce(SliceRecord of the cover at t) on the fiber grid,
    with the source Gram factored once for all slices."""
    source = SourceGram(metric, unit_grid(cover.source.dim, fiber_res))
    return lambda t: reduce(SliceRecord(cover, source, t))


def local_vertical_conorms(cover, metric: MetricG, fiber_res: int, t_res: int,
                           threads: int = 1) -> np.ndarray:
    """SliceRecord.vertical_conorm at every grid point, (t_res, points) in
    slice order."""
    return _sweep(_record_job(cover, metric, fiber_res, SliceRecord.vertical_conorm),
                  t_res, threads)


def vertical_conorm_min(cover, metric: MetricG, fiber_res: int, t_res: int,
                        threads: int = 1) -> float:
    """Min over the grid of the local vertical conorm."""
    job = _record_job(cover, metric, fiber_res, lambda rec: float(rec.vertical_conorm().min()))
    return float(_sweep(job, t_res, threads).min())


def estimate_metric_equiv(metric: MetricG, fiber_res: int = 64, t_res: int = 32,
                          threads: int = 1) -> float:
    """Largest c with c <= |v|_G / |v|_flat <= 1/c for vertical v on the grid."""
    grid = unit_grid(metric.dim, fiber_res)

    def job(t):
        ev = np.linalg.eigvalsh(metric.fiber_gram(t, grid))
        lo = np.sqrt(np.maximum(ev[..., 0], 0.0))
        hi = np.sqrt(ev[..., -1])
        return float(np.minimum(lo, 1.0 / hi).min())

    return float(_sweep(job, t_res, threads, closed=True).min())


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

    def sq_sing(jac):
        # squared singular values from the Gram's eigvalsh: these one-step
        # Jacobians are well conditioned, so no SVD is needed
        return np.linalg.eigvalsh(np.swapaxes(jac, -1, -2) @ jac)

    def job(t):
        return float(np.sqrt(np.maximum(sq_sing(fh.frame(t, grid, +1).v)[..., 0].min(), 0.0)))

    def phi_job(s):
        return np.sqrt(np.maximum(sq_sing(phi.slice_at(s).jacobian(grid))[..., 0].min(), 0.0))

    c_val = float(_sweep(job, t_res, threads, closed=True).min())
    if _bound is None:
        sq = sq_sing(tower.level(0).jacobian(grid))
        min_h = float(np.sqrt(np.maximum(sq[..., 0].min(), 0.0)))
        min_h_inv = float(1.0 / np.sqrt(sq[..., -1].max()))
        min_phi = float(np.minimum(1.0, _sweep(phi_job, t_res, threads, closed=True).min()))
        _bound = min_h * min_h_inv * min_phi
    if not c_val >= _bound * (1.0 - floor_slack):
        raise BoundViolation(f"measured conorm {c_val} fell below its uniform bound {_bound}")
    return c_val, _bound


def estimate_cq(qm, metric: MetricG, fiber_res: int = 64, t_res: int = 32,
                threads: int = 1) -> float:
    """Min vertical expansion of the base-cover map in the interpolated metric."""
    return vertical_conorm_min(qm, metric, fiber_res, t_res, threads)


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
               threads: int = 1):
    """Max metric norm of the vertical part of the image of the unit base
    vector, plus its floor at 1 used for the mixed-norm construction."""
    job = _record_job(f, metric, fiber_res, lambda rec: float(np.sqrt(rec.r).max()))
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


def _finsler_gain(dim: int, k_eff: float, n_dirs: int, seed: int):
    """gain(record): min over the slice and the direction templates
    (a, u) of max(|Vu + aw|_G / k_eff, |slope a|) / max(|u|_G / k_eff, |a|)."""
    if not np.isfinite(k_eff) or k_eff <= 0.0:
        raise FinslerDegenerate(f"norm weight {k_eff} is unusable")
    templates = _direction_templates(dim, n_dirs, np.random.default_rng(seed))

    def gain(rec: SliceRecord) -> float:
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

    return gain


def _mu_and_case_bound(mu: float, vertical_margin: float, m: int):
    if not np.isfinite(mu) or mu <= 0.0:
        raise FinslerDegenerate(f"sampled contraction constant {mu}")
    return mu, float(min(2 * m + 1, vertical_margin - 1.0))


def verify_finsler_expansion(f, metric: MetricG, k_eff: float,
                             vertical_margin: float, m: int,
                             fiber_res: int = 64, t_res: int = 32,
                             n_dirs: int = 16, threads: int = 1, seed: int = 0):
    """Sampled contraction constant of the mixed norm, with its case bound.

    Returns (mu, case_bound) where mu is the min over grid points and
    stratified unit directions of the image norm, and case_bound is
    min(2m+1, vertical_margin - 1), the analytic floor from the two-case
    cone argument.
    """
    gain = _finsler_gain(f.source.dim, k_eff, n_dirs, seed)
    job = _record_job(f, metric, fiber_res, gain)
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
            chain.append(a * a + np.einsum("...i,...ij,...j->...", u, m, u))
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


def build_adapted_metric(f, metric: MetricG, mu_hat: float, k_eff: float,
                         fiber_res: int = 64, t_res: int = 32,
                         threads: int = 1) -> AdaptedMetric:
    """Choose the smallest power that beats the norm-equivalence gap and
    average the metric along it.

    r_plus = sqrt(1 + k_eff^2) and r_minus = min(1, k_eff) bound the mixed
    norm against the metric norm; n_steps is the first power with
    mu_hat^n > r_plus / r_minus.  The rate is the grid minimum of the full
    n-step expansion, so a single step expands the averaged norm by
    construction wherever the minimum is honest.
    """
    if not np.isfinite(mu_hat) or mu_hat <= 1.0:
        raise FinslerDegenerate(
            f"need a sampled contraction constant above 1, got {mu_hat}"
        )
    r_plus = float(np.sqrt(1.0 + k_eff * k_eff))
    r_minus = min(1.0, k_eff)
    ratio = r_plus / r_minus
    n_steps = 1
    while mu_hat ** n_steps <= ratio:
        n_steps += 1
    source = SourceGram(metric, unit_grid(f.source.dim, fiber_res))

    def job(t):
        x = source.grid
        jac = None
        l_src = np.linalg.cholesky(source.gram(t))
        for _ in range(n_steps):
            fr = f.frame(t, x, +1)
            jac = fr.matrix() if jac is None else fr.matrix() @ jac
            # frames and the metric are Z^n-periodic in x; unreduced lift
            # coordinates grow until the absolute Newton tolerance falls
            # below their rounding
            t, x = fr.t_out, torus_representative(fr.x_out)
        l_dst = np.linalg.cholesky(metric.fiber_gram(t, x))
        # sigma_min(L_dst^T J L_src^-T), through its transpose; the pencil
        # (J^T G_dst J, G_src) squares the condition number of the n-step
        # product, which loses the smallest eigenvalue on a 1-dimensional fiber.
        # G = diag(1, M) factors as diag(1, L_M): whiten fiber blocks only
        whitened = np.swapaxes(jac, -1, -2)
        whitened[..., 1:] = whitened[..., 1:] @ l_dst
        whitened[..., 1:, :] = np.linalg.solve(l_src, whitened[..., 1:, :])
        return np.linalg.svd(whitened, compute_uv=False)[..., -1].min()

    worst = float(_sweep(job, t_res, threads).min())
    rate = worst ** (1.0 / n_steps)
    if rate <= 1.0:
        raise NotExpanding(
            f"{n_steps}-step expansion {worst:.6f} gives rate {rate:.6f} <= 1"
        )
    return AdaptedMetric(cover=f, metric=metric, n_steps=n_steps, rate=rate,
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
    h = TrigDisplacementMap(h_field)
    metric = MetricG(h)
    psi = default_psi(h_field)
    c_eq = estimate_metric_equiv(metric, fiber_res, t_res, threads)
    qm = build_qm_only(h, m, psi)
    c_q = estimate_cq(qm, metric, fiber_res, t_res, threads)
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
    k_raw, k_eff = estimate_K(f, metric, fiber_res, t_res, threads)
    constants = ConstantsReport(
        c_eq=c_eq, c_q=c_q, conorm_C=c_val, conorm_C_bound=c_bound,
        coupling_K=k_raw, coupling_K_eff=k_eff, lambda_target=lam,
        base=base, fiber_res=fiber_res, t_res=t_res,
    )
    return constants, k, f, metric


def verify_expansion(constants: ConstantsReport, k: int, f, metric: MetricG, m: int, *,
                     n_dirs: int = 16, nu_target: float = 2.0, tol_rel: float = 1e-3,
                     seed: int = 0, threads: int = 1) -> ExpansionReport:
    """Check that the composite f expands, from the constants measured for it."""
    fiber_res, t_res = constants.fiber_res, constants.t_res
    k_eff = constants.coupling_K_eff
    gain = _finsler_gain(f.source.dim, k_eff, n_dirs, seed)

    def vertical_and_finsler(rec):
        # the vertical margin and mu read one record: one frame per slice
        return float(rec.vertical_conorm().min()), gain(rec)

    job = _record_job(f, metric, fiber_res, vertical_and_finsler)
    margin, mu = _sweep(job, t_res, threads).min(axis=0).tolist()
    mu, case_bound = _mu_and_case_bound(mu, margin, m)
    adapted = build_adapted_metric(f, metric, mu, k_eff, fiber_res, t_res, threads)
    c_eq = constants.c_eq
    chain_floor = c_eq * c_eq * constants.base ** k * constants.conorm_C
    checks = {
        "vertical_margin_ok": bool(margin >= nu_target * (1.0 - tol_rel)),
        "mu_above_one": bool(mu > 1.0),
        "adapted_rate_above_one": bool(adapted.rate > 1.0),
        "chain_floor_ok": bool(chain_floor > constants.lambda_target),
    }
    return ExpansionReport(
        k=k, m=m, nu_target=nu_target, tol_rel=tol_rel,
        vertical_margin=margin, mu=mu, case_bound=case_bound,
        adapted_steps=adapted.n_steps, adapted_rate=adapted.rate,
        checks=checks, passed=all(checks.values()),
    )


def run_pipeline(h_field: TrigDisplacementField, m: int, *, k: int | None = None,
                 base: int = 3, fiber_res: int = 64, t_res: int = 32,
                 n_dirs: int = 16, nu_target: float = 2.0, tol_rel: float = 1e-3,
                 k_cap: int = 12, seed: int = 0, threads: int = 1):
    """Measure all constants, choose k, and verify expansion end to end.

    Returns (ConstantsReport, ExpansionReport).
    """
    constants, k, f, metric = measure_constants(
        h_field, m, k=k, base=base, fiber_res=fiber_res, t_res=t_res,
        nu_target=nu_target, k_cap=k_cap, threads=threads)
    report = verify_expansion(constants, k, f, metric, m, n_dirs=n_dirs,
                              nu_target=nu_target, tol_rel=tol_rel, seed=seed,
                              threads=threads)
    return constants, report
