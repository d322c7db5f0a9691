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
from .errors import BoundViolation, FinslerDegenerate, NotExpanding, UnboundedSelection
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


def _t_slices(t_res: int, closed: bool = False) -> np.ndarray:
    # closed sweeps include t = 1: chart-level (flat-norm) quantities differ
    # between the two seam charts, so their extrema need both endpoints
    if closed:
        return np.linspace(0.0, 1.0, t_res + 1)
    return np.arange(t_res, dtype=float) / t_res


def _run_slices(job, t_values, threads: int):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(job, t_values))
    return [job(t) for t in t_values]


def generalized_conorm_sq(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the pencil (a, m) for SPD m, batched."""
    chol = np.linalg.cholesky(m)
    half = np.linalg.solve(chol, a)
    whitened = np.linalg.solve(chol, np.swapaxes(half, -1, -2))
    whitened = 0.5 * (whitened + np.swapaxes(whitened, -1, -2))
    return np.linalg.eigvalsh(whitened)[..., 0]


class SliceRecord:
    """One slice t of a cover, pulled back through its frame (slope, w, V).

    With the fiber Gram M at the image, P = V^T M V, q = V^T M w and
    r = w^T M w, so the image of (a, u) has squared metric norm
    u^T P u + 2a u.q + a^2 r.  Every sweep over a cover reads these.
    """

    def __init__(self, cover, metric: MetricG, t: float, grid: np.ndarray):
        fr = cover.frame(t, grid, +1)
        m_dst = metric.fiber_gram(fr.t_out, fr.x_out)
        vt_m = np.swapaxes(fr.v, -1, -2) @ m_dst
        self.metric, self.t, self.grid, self.slope = metric, t, grid, fr.slope
        # einsum beats stacked matmul on (n, n) x (n,) products
        self.p, self.q = vt_m @ fr.v, np.einsum("...ij,...j->...i", vt_m, fr.w)
        self.r = np.einsum("...i,...ij,...j->...", fr.w, m_dst, fr.w)

    def source_gram(self) -> np.ndarray:
        """Fiber Gram at the source, built by each reduction that reads it."""
        return self.metric.fiber_gram(self.t, self.grid)

    def vertical_conorm(self, m_src: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(generalized_conorm_sq(self.p, m_src), 0.0))


def _sweep(cover, metric: MetricG, fiber_res: int, t_res: int, reduce, threads: int):
    """reduce(SliceRecord) on every slice of the sweep grid, in slice order."""
    grid = unit_grid(cover.source.dim, fiber_res)
    return _run_slices(lambda t: reduce(SliceRecord(cover, metric, float(t), grid)),
                       _t_slices(t_res), threads)


def local_vertical_conorm(cover, metric: MetricG, t: float,
                          grid: np.ndarray) -> np.ndarray:
    """Vertical expansion of the chart differential at each point of the
    slice t, measured from the interpolated metric at the source to the one
    at the image."""
    rec = SliceRecord(cover, metric, t, grid)
    return rec.vertical_conorm(rec.source_gram())


def vertical_conorm_min(cover, metric: MetricG, fiber_res: int, t_res: int,
                        threads: int = 1) -> float:
    """Min over the grid of local_vertical_conorm."""
    return min(_sweep(cover, metric, fiber_res, t_res,
                      lambda rec: float(rec.vertical_conorm(rec.source_gram()).min()),
                      threads))


def estimate_metric_equiv(metric: MetricG, fiber_res: int = 64, t_res: int = 32,
                          threads: int = 1) -> float:
    """Largest c with c <= |v|_G / |v|_flat <= 1/c for vertical v on the grid."""
    grid = unit_grid(metric.dim, fiber_res)

    def job(t):
        ev = np.linalg.eigvalsh(metric.fiber_gram(float(t), grid))
        lo = np.sqrt(np.maximum(ev[..., 0], 0.0))
        hi = np.sqrt(ev[..., -1])
        return float(np.minimum(lo, 1.0 / hi).min())

    return min(_run_slices(job, _t_slices(t_res, closed=True), threads))


def estimate_C(tower, fiber_res: int = 64, t_res: int = 32,
               threads: int = 1, floor_slack: float = 1e-6):
    """Min flat conorm of the fiber derivative of the aligning stages.

    Also returns the uniform lower bound given by the product of the grid
    minima of the conorms of the base map, its inverse, and the connecting
    isotopy slices; the measured value must not fall below it.
    """
    fh = fiber_alignment_map(tower)
    grid = unit_grid(tower.dim, fiber_res)

    def job(t):
        fr = fh.frame(float(t), grid, +1)
        sq = np.linalg.eigvalsh(np.swapaxes(fr.v, -1, -2) @ fr.v)[..., 0]
        return float(np.sqrt(np.maximum(sq, 0.0)).min())

    c_val = min(_run_slices(job, _t_slices(t_res, closed=True), threads))

    h = tower.level(0)
    jac = h.jacobian(grid)
    sing = np.linalg.svd(jac, compute_uv=False)
    min_h = float(sing[..., -1].min())
    min_h_inv = float(1.0 / sing[..., 0].max())
    phi = tower.isotopy(1)
    min_phi = 1.0
    for s in np.linspace(0.0, 1.0, t_res + 1):
        jac_s = phi.slice_at(float(s)).jacobian(grid)
        min_phi = min(min_phi, float(np.linalg.svd(jac_s, compute_uv=False)[..., -1].min()))
    bound = min_h * min_h_inv * min_phi
    if not c_val >= bound * (1.0 - floor_slack):
        raise BoundViolation(f"measured conorm {c_val} fell below its uniform bound {bound}")
    return c_val, bound


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
    k_val = max(_sweep(f, metric, fiber_res, t_res,
                       lambda rec: float(np.sqrt(rec.r).max()), threads))
    if not np.isfinite(k_val):
        raise FinslerDegenerate("base-to-fiber coupling is not finite")
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
    """gain(record, m_src): min over the slice and the direction templates
    (a, u) of max(|Vu + aw|_G / k_eff, |slope a|) / max(|u|_G / k_eff, |a|)."""
    if not np.isfinite(k_eff) or k_eff <= 0.0:
        raise FinslerDegenerate(f"norm weight {k_eff} is unusable")
    templates = _direction_templates(dim, n_dirs, np.random.default_rng(seed))

    def gain(rec: SliceRecord, m_src: np.ndarray) -> float:
        src, img = m_src.reshape(-1, dim * dim), rec.p.reshape(-1, dim * dim)
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
    mu = min(_sweep(f, metric, fiber_res, t_res, lambda rec: gain(rec, rec.source_gram()),
                    threads))
    return _mu_and_case_bound(mu, vertical_margin, m)


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

    def chain_norms(self, p: MTPoint, v: Tangent):
        """[|v|_G, |Df v|_G, ..., |Df^n v|_G] along the orbit of p."""
        space = self.cover.source
        p = space.normalize(p)
        norms = [self.metric.norm(p, v)]
        for _ in range(self.n_steps):
            fr = self.cover.frame(p.t, p.x, +1)
            v = Tangent(fr.slope * v.a, v.a * fr.w + fr.v @ v.u)
            p = space.normalize(MTPoint(0, fr.t_out, fr.x_out))
            norms.append(self.metric.norm(p, v))
        return norms

    def norm(self, p: MTPoint, v: Tangent) -> float:
        chain = self.chain_norms(p, v)
        weights = self.rate ** (-2.0 * np.arange(self.n_steps))
        return float(np.sqrt(np.sum(weights * np.square(chain[:self.n_steps]))))

    def norm_batch(self, t: float, x: np.ndarray, a: np.ndarray, u: np.ndarray):
        """Batched adapted norm for a shared parameter slice."""
        total = np.zeros(x.shape[:-1])
        for j in range(self.n_steps):
            m = self.metric.fiber_gram(t, x)
            sq = a * a + np.einsum("...i,...ij,...j->...", u, m, u)
            total = total + self.rate ** (-2.0 * j) * sq
            fr = self.cover.frame(float(t), x, +1)
            u = np.asarray(a)[..., None] * fr.w + np.einsum("...ij,...j->...i", fr.v, u)
            a = fr.slope * a
            t, x = fr.t_out, torus_representative(fr.x_out)
        return np.sqrt(total)


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
    grid = unit_grid(f.source.dim, fiber_res)
    dim = f.source.dim

    def job(t):
        t_cur = float(t)
        x = grid
        jac = None
        g_src = metric.gram(MTPoint(0, t_cur, x))
        for _ in range(n_steps):
            fr = f.frame(t_cur, x, +1)
            step = np.zeros(x.shape[:-1] + (dim + 1, dim + 1))
            step[..., 0, 0] = fr.slope
            step[..., 1:, 0] = fr.w
            step[..., 1:, 1:] = fr.v
            jac = step if jac is None else step @ jac
            # frames and the metric are Z^n-periodic in x; unreduced lift
            # coordinates grow until the absolute Newton tolerance falls
            # below their rounding
            t_cur, x = fr.t_out, torus_representative(fr.x_out)
        g_dst = metric.gram(MTPoint(0, t_cur, x))
        pulled = np.swapaxes(jac, -1, -2) @ g_dst @ jac
        sq = generalized_conorm_sq(pulled, g_src)
        return float(np.sqrt(np.maximum(sq, 0.0)).min())

    worst = min(_run_slices(job, _t_slices(t_res), threads))
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

    c_cache: dict = {}

    def c_provider(kk: int) -> float:
        if kk not in c_cache:
            c_cache[kk] = estimate_C(tower_at(kk), fiber_res, t_res, threads)
        return c_cache[kk][0]

    if k is None:
        k = select_k(c_eq, c_provider, lam, base=base, k_cap=k_cap)
    c_val, c_bound = c_cache.get(k) or estimate_C(tower_at(k), fiber_res, t_res, threads)

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
        m_src = rec.source_gram()
        return float(rec.vertical_conorm(m_src).min()), gain(rec, m_src)

    margins, gains = zip(*_sweep(f, metric, fiber_res, t_res, vertical_and_finsler, threads))
    margin = min(margins)
    mu, case_bound = _mu_and_case_bound(min(gains), margin, m)
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
