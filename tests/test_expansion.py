import dataclasses
import os
import subprocess
import sys

import mtcover
import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover.coverings import (
    CompositeCovering,
    build_f,
    build_pk,
    build_qm_only,
    build_stage_inventory,
    fiber_alignment_map,
    pushforward,
)
from mtcover.errors import (
    BoundViolation,
    FinslerDegenerate,
    NonFiniteSlice,
    NotExpanding,
    UnboundedSelection,
)
from mtcover.expansion import (
    SliceRecord,
    SourceGram,
    build_adapted_metric,
    default_psi,
    estimate_C,
    estimate_K,
    estimate_cq,
    estimate_metric_equiv,
    finsler_norm,
    generalized_conorm_sq,
    measure_constants,
    run_pipeline,
    select_k,
    verify_expansion,
    verify_finsler_expansion,
    verify_vertical_expansion,
    vertical_conorm_min,
)
from mtcover.fields import TrigDisplacementField, shear_field, unit_grid
from mtcover.lifting import tower_from_field
from mtcover.manifolds import MetricG, MTPoint, Tangent
from mtcover.torus_maps import TrigDisplacementMap, torus_representative

EPS = 0.1

# reference values for the shear instance at fiber 64^2 and 32 parameter
# slices; the flat-norm equivalence and both conorm sweeps hit their extrema
# on the grid, so those are stable under refinement, while the vertical
# margins are honest sample minima pinned at their stated resolution
C_EQ_REF = 0.734027761850809
C_Q_REF = 0.8108259939343607
K_REF = 3.683845620833259
MARGIN_K1_COARSE_REF = 2.1479705407825627  # fiber 32^2, 16 slices
MARGIN_K1_REF = 2.1099899449983996
MARGIN_K2_REF = 6.178506871837525
C1_REF = 0.6277274434509977
C2_REF = 0.5757832869526645
C_BOUND_REF = 0.33821750966111847


def c_eq_closed_form():
    # smallest eigenvalue of Dh^T Dh at the steepest fiber point; the
    # determinant is 1, so the two equivalence branches coincide
    a2 = (0.2 * np.pi) ** 2
    return float(np.sqrt((2 + a2 - np.sqrt((2 + a2) ** 2 - 4)) / 2))


@pytest.fixture(scope="module")
def f_k1(tower1, psi):
    return build_f(tower1, 1, psi)


@pytest.fixture(scope="module")
def f_k2(tower2, psi):
    return build_f(tower2, 1, psi)


@pytest.fixture(scope="module")
def linear_setup():
    field = shear_field(0.0)
    h = TrigDisplacementMap(field)
    inv = build_stage_inventory(tower_from_field(field, 1), 1, default_psi(field))
    return inv, MetricG(h)


@pytest.fixture(scope="module")
def adapted(f_k2, metric):
    margin = verify_vertical_expansion(f_k2, metric, 32, 16)
    _, k_eff = estimate_K(f_k2, metric, 32, 16)
    mu, _ = verify_finsler_expansion(f_k2, metric, k_eff, margin, 1, 32, 16,
                                     n_dirs=8)
    return build_adapted_metric(f_k2, metric, mu, k_eff, 32, 16)


# ---------------------------------------------------------------------------
# Generalized conorm

def test_generalized_conorm_identity_pencil(rng):
    a = rng.standard_normal((2, 2))
    a = a + a.T
    tr, det = np.trace(a), np.linalg.det(a)
    closed = (tr - np.sqrt(tr * tr - 4 * det)) / 2
    assert_allclose(generalized_conorm_sq(a, np.eye(2)), closed, atol=1e-12)


def test_generalized_conorm_vs_direct_scan(rng):
    base = rng.standard_normal((2, 2))
    m = base @ base.T + 2 * np.eye(2)
    s = rng.standard_normal((2, 2))
    a = s + s.T
    # independent check: scan the direction circle, then refine the best
    # bracket by golden section
    def rayleigh(theta):
        d = np.array([np.cos(theta), np.sin(theta)])
        return (d @ a @ d) / (d @ m @ d)

    thetas = np.linspace(0.0, np.pi, 10001)
    values = [rayleigh(th) for th in thetas]
    i = int(np.argmin(values))
    lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, len(thetas) - 1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - gr * (hi - lo), lo + gr * (hi - lo)
    for _ in range(80):
        if rayleigh(c) < rayleigh(d):
            hi = d
        else:
            lo = c
        c, d = hi - gr * (hi - lo), lo + gr * (hi - lo)
    scanned = rayleigh((lo + hi) / 2)
    assert_allclose(float(generalized_conorm_sq(a, m)), scanned, atol=1e-6)


def test_generalized_conorm_batched(rng):
    base = rng.standard_normal((5, 3, 3))
    m = base @ np.swapaxes(base, -1, -2) + 3 * np.eye(3)
    s = rng.standard_normal((5, 3, 3))
    a = s + np.swapaxes(s, -1, -2)
    batched = generalized_conorm_sq(a, m)
    assert batched.shape == (5,)
    for i in range(5):
        assert_allclose(batched[i], float(generalized_conorm_sq(a[i], m[i])),
                        atol=1e-13)


CYC3 = TrigDisplacementField.from_terms(3, [
    (np.array([0.05, 0.0, 0.0]), np.array([0, 1, 0]), "sin"),
    (np.array([0.0, 0.05, 0.0]), np.array([0, 0, 1]), "sin"),
    (np.array([0.0, 0.0, 0.05]), np.array([1, 0, 0]), "sin"),
])


def pencil_oracle(a, m):
    """Smallest eigenvalue of the pencil (a, m) through a Cholesky factor of m."""
    chol = np.linalg.cholesky(m)
    whitened = np.linalg.solve(chol, np.swapaxes(np.linalg.solve(chol, a), -1, -2))
    return np.linalg.eigvalsh(0.5 * (whitened + np.swapaxes(whitened, -1, -2)))[..., 0]


@pytest.mark.parametrize("name", ["shear qm", "shear f", "mixed f", "cyc3 f"])
def test_factored_source_gram_matches_the_pencil(name, shear, mixed):
    # one eigh of D per sweep whitens every slice of M(t) = (1-t) I + t D
    field = {"shear": shear, "mixed": mixed, "cyc3": CYC3}[name.split()[0]]
    h, psi = TrigDisplacementMap(field), default_psi(field)
    metric = MetricG(h)
    cover = (build_qm_only(h, 1, psi) if name.endswith("qm")
             else build_f(tower_from_field(field, 1), 1, psi))
    source = SourceGram(metric, unit_grid(field.dim, 8 if field.dim == 2 else 4))
    for t in np.arange(4) / 4:
        m_src = metric.fiber_gram(t, source.grid)
        assert np.array_equal(source.gram(t), m_src)
        rec = SliceRecord(cover, source, t)
        local = rec.vertical_conorm()
        assert_allclose(local, np.sqrt(generalized_conorm_sq(rec.p, m_src)), rtol=1e-13)
        assert_allclose(local, np.sqrt(pencil_oracle(rec.p, m_src)), rtol=1e-13)


def test_vertical_sweep_factors_the_source_gram_once(f_k2, metric, monkeypatch):
    counts = {"cholesky": 0, "solve": 0, "eigh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    vertical_conorm_min(f_k2, metric, 8, 4)
    assert counts == {"cholesky": 0, "solve": 0, "eigh": 1}


# ---------------------------------------------------------------------------
# Flat-norm equivalence constant

def test_metric_equiv_linear_model(linear_setup):
    _, metric0 = linear_setup
    assert estimate_metric_equiv(metric0, 16, 8) == 1.0


def test_metric_equiv_matches_closed_form(metric):
    measured = estimate_metric_equiv(metric, 64, 32)
    assert_allclose(measured, c_eq_closed_form(), atol=1e-14)
    assert_allclose(measured, C_EQ_REF, rtol=1e-12)


def test_metric_equiv_grid_stable(metric):
    # the extreme point sits on every even grid, so refinement is a no-op
    assert_allclose(estimate_metric_equiv(metric, 32, 16),
                    estimate_metric_equiv(metric, 64, 32), rtol=1e-14)


# ---------------------------------------------------------------------------
# Conorm of the aligning stages

def test_conorm_c_linear_model():
    tower = tower_from_field(shear_field(0.0), 2)
    c_val, bound = estimate_C(tower, 16, 8)
    assert c_val == 1.0
    assert bound == 1.0


def test_conorm_c_reference_values(tower1, tower2):
    c1, b1 = estimate_C(tower1, 64, 32)
    c2, b2 = estimate_C(tower2, 64, 32)
    assert_allclose(c1, C1_REF, rtol=1e-12)
    assert_allclose(c2, C2_REF, rtol=1e-12)
    assert_allclose(b2, C_BOUND_REF, rtol=1e-12)
    assert c1 >= b1 and c2 >= b2


def test_conorm_c_stabilizes_in_k(shear):
    c2, _ = estimate_C(tower_from_field(shear, 2), 32, 16)
    c3, _ = estimate_C(tower_from_field(shear, 3), 32, 16)
    # deeper towers add ever flatter levels, so the sweep minimum freezes
    assert_allclose(c3, c2, rtol=1e-12)


@pytest.mark.parametrize("name", ["shear", "mixed", "cyc3"])
def test_conorm_c_bound_without_svd(name, shear, mixed, monkeypatch):
    # the one-step Jacobians of h and of the isotopy slices are well
    # conditioned, so the singular values of their Grams' eigvalsh match an SVD
    field = {"shear": shear, "mixed": mixed, "cyc3": CYC3}[name]
    tower = tower_from_field(field, 1)
    grid = unit_grid(field.dim, 8 if field.dim == 2 else 4)
    sing_h = np.linalg.svd(tower.level(0).jacobian(grid), compute_uv=False)
    min_phi = min(1.0, min(
        np.linalg.svd(tower.isotopy(1).slice_at(s).jacobian(grid), compute_uv=False)[..., -1].min()
        for s in np.linspace(0.0, 1.0, 5)))
    oracle = sing_h[..., -1].min() / sing_h[..., 0].max() * min_phi
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    _, bound = estimate_C(tower, 8 if field.dim == 2 else 4, 4)
    assert calls == []
    assert_allclose(bound, oracle, rtol=1e-13)


def test_conorm_c_floor_raises_typed_error():
    # a negative slack doubles the floor, which the measured conorm misses
    with pytest.raises(BoundViolation, match="uniform bound"):
        estimate_C(tower_from_field(shear_field(0.1), 1), 8, 4, floor_slack=-1.0)


def test_conorm_c_floor_survives_optimized_mode():
    # python -O strips assert statements; the floor check must not be one
    script = """
import sys
from mtcover.errors import BoundViolation
from mtcover.expansion import estimate_C
from mtcover.fields import shear_field
from mtcover.lifting import tower_from_field
try:
    estimate_C(tower_from_field(shear_field(0.1), 1), 8, 4, floor_slack=-1.0)
except BoundViolation:
    sys.exit(0)
sys.exit(1)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtcover.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Vertical conorm of the base-cover map

def test_cq_linear_model(linear_setup):
    inv, metric0 = linear_setup
    assert_allclose(estimate_cq(inv["qm"], metric0, 8, 4), 1.0, atol=1e-12)


def test_cq_reference_value(shear_map, psi, metric):
    qm = build_qm_only(shear_map, 1, psi)
    coarse = estimate_cq(qm, metric, 32, 16)
    fine = estimate_cq(qm, metric, 64, 32)
    assert_allclose(fine, C_Q_REF, rtol=1e-12)
    assert abs(coarse - fine) < 0.02 * fine


def test_cq_stage_conorm_floor(shear_map, psi, metric):
    # c_q can never drop below the product of the worst equivalence factor
    # squared and the flat conorms of the only non-isometric stages
    qm = build_qm_only(shear_map, 1, psi)
    c_q = estimate_cq(qm, metric, 32, 16)
    grid = unit_grid(2, 32)
    min_h = float(np.linalg.svd(shear_map.jacobian(grid),
                                compute_uv=False)[..., -1].min())
    min_psi = 1.0
    for s in np.linspace(0.0, 1.0, 17):
        jac = psi.slice_at(float(s)).jacobian(grid)
        min_psi = min(min_psi, float(np.linalg.svd(jac, compute_uv=False)[..., -1].min()))
    c_eq = c_eq_closed_form()
    assert c_q >= c_eq * c_eq * min_h * min_psi * (1 - 1e-3)


# ---------------------------------------------------------------------------
# Fiber-cover depth selection

def test_select_k_small_targets():
    assert select_k(1.0, lambda k: 1.0, 2.0) == 1
    assert select_k(1.0, lambda k: 1.0, 10.0) == 3


def test_select_k_shear_instance():
    provider = {1: C1_REF, 2: C2_REF}
    lam = 2.0 / C_Q_REF
    assert select_k(C_EQ_REF, lambda k: provider.get(k, C2_REF), lam) == 2
    assert select_k(C_EQ_REF, lambda k: provider.get(k, C2_REF), 1.0) == 1


def test_select_k_unbounded():
    with pytest.raises(UnboundedSelection):
        select_k(1.0, lambda k: 0.0, 2.0, k_cap=4)


# ---------------------------------------------------------------------------
# Vertical expansion of the composites

def test_vertical_margin_linear_model(linear_setup):
    inv, metric0 = linear_setup
    assert_allclose(verify_vertical_expansion(inv["f"], metric0, 8, 4), 3.0,
                    atol=1e-12)
    field = shear_field(0.0)
    f2 = build_f(tower_from_field(field, 2), 1, default_psi(field))
    assert_allclose(verify_vertical_expansion(f2, metric0, 8, 4), 9.0,
                    atol=1e-11)


def test_vertical_margin_reference_values(f_k1, f_k2, metric):
    # nested refinement can only lower a sweep minimum; the analytic chain
    # floor caps the drop from below
    coarse = verify_vertical_expansion(f_k1, metric, 32, 16)
    fine = verify_vertical_expansion(f_k1, metric, 64, 32)
    assert_allclose(coarse, MARGIN_K1_COARSE_REF, rtol=1e-12)
    assert_allclose(fine, MARGIN_K1_REF, rtol=1e-12)
    assert fine <= coarse
    margin2 = verify_vertical_expansion(f_k2, metric, 64, 32)
    assert_allclose(margin2, MARGIN_K2_REF, rtol=1e-12)
    assert margin2 >= C_Q_REF * C_EQ_REF ** 2 * 9 * C2_REF


def test_fiber_cover_chain_floor(tower2, metric):
    # pointwise: metric gain of the fiber cover >= c_eq^2 * 9 * local conorm
    pk = build_pk(tower2)
    align = fiber_alignment_map(tower2)
    c_eq = c_eq_closed_form()
    grid = unit_grid(2, 16)
    for t in np.linspace(0.0, 1.0, 9):
        fr = pk.frame(float(t), grid, +1)
        m_src = metric.fiber_gram(float(t), grid)
        m_dst = metric.fiber_gram(fr.t_out, fr.x_out)
        pulled = np.swapaxes(fr.v, -1, -2) @ m_dst @ fr.v
        lhs = np.sqrt(np.maximum(generalized_conorm_sq(pulled, m_src), 0.0))
        fr_a = align.frame(float(t), grid, +1)
        gram_a = np.swapaxes(fr_a.v, -1, -2) @ fr_a.v
        c_local = np.sqrt(np.maximum(np.linalg.eigvalsh(gram_a)[..., 0], 0.0))
        assert np.all(lhs >= c_eq * c_eq * 9 * c_local * (1 - 1e-3))


# ---------------------------------------------------------------------------
# Base-to-fiber coupling

def test_coupling_linear_model(linear_setup):
    inv, metric0 = linear_setup
    k_raw, k_eff = estimate_K(inv["f"], metric0, 8, 4)
    assert k_raw == 0.0
    assert k_eff == 1.0


def test_coupling_reference_value(f_k2, metric):
    k64, _ = estimate_K(f_k2, metric, 64, 32)
    assert_allclose(k64, K_REF, rtol=1e-12)
    k128, _ = estimate_K(f_k2, metric, 128, 32)
    assert abs(k64 - k128) < 0.02 * k128


def test_coupling_rerun_is_bitwise(f_k2, metric):
    first = estimate_K(f_k2, metric, 16, 8)
    second = estimate_K(f_k2, metric, 16, 8)
    threaded = estimate_K(f_k2, metric, 16, 8, threads=3)
    assert first == second == threaded


def test_threaded_sweeps_are_bitwise(f_k2, metric, tower2):
    # every sweep reduces one array kept in slice order, so the thread
    # count cannot change a result, not even in its last bit
    assert (vertical_conorm_min(f_k2, metric, 16, 8)
            == vertical_conorm_min(f_k2, metric, 16, 8, threads=4))
    assert (estimate_metric_equiv(metric, 16, 8)
            == estimate_metric_equiv(metric, 16, 8, threads=3))
    assert estimate_C(tower2, 16, 8) == estimate_C(tower2, 16, 8, threads=3)
    assert estimate_K(f_k2, metric, 16, 8) == estimate_K(f_k2, metric, 16, 8, threads=3)
    _, k_eff = estimate_K(f_k2, metric, 16, 8)
    assert (verify_finsler_expansion(f_k2, metric, k_eff, 6.0, 1, 16, 8, n_dirs=4)
            == verify_finsler_expansion(f_k2, metric, k_eff, 6.0, 1, 16, 8, n_dirs=4,
                                        threads=3))
    assert (build_adapted_metric(f_k2, metric, 3.0, k_eff, 16, 8).rate
            == build_adapted_metric(f_k2, metric, 3.0, k_eff, 16, 8, threads=3).rate)


# ---------------------------------------------------------------------------
# Mixed-norm contraction

def test_finsler_norm_values(metric):
    p = MTPoint(0, 0.0, np.array([0.3, 0.4]))
    assert finsler_norm(metric, 2.0, p, Tangent(0.0, np.array([3.0, 4.0]))) == 2.5
    assert finsler_norm(metric, 2.0, p, Tangent(3.0, np.array([0.0, 0.0]))) == 3.0
    with pytest.raises(FinslerDegenerate):
        finsler_norm(metric, 0.0, p, Tangent(1.0, np.zeros(2)))


def test_finsler_linear_model(linear_setup):
    inv, metric0 = linear_setup
    mu, case_bound = verify_finsler_expansion(inv["f"], metric0, 1.0, 3.0, 1,
                                              16, 8, n_dirs=8)
    assert_allclose(mu, 3.0, atol=1e-12)
    assert case_bound == 2.0  # min(2m+1, margin - 1) with margin 3


def test_finsler_case_bound_branches(f_k2, metric, tower1, psi):
    _, bound = verify_finsler_expansion(f_k2, metric, 4.0, 2.5, 1, 8, 4,
                                        n_dirs=4)
    assert bound == 1.5
    f_m2 = build_f(tower1, 2, psi)
    _, bound = verify_finsler_expansion(f_m2, metric, 4.0, 7.0, 2, 8, 4,
                                        n_dirs=4)
    assert bound == 5.0


def test_finsler_rejects_bad_weight(f_k2, metric):
    with pytest.raises(FinslerDegenerate):
        verify_finsler_expansion(f_k2, metric, 0.0, 6.0, 1, 8, 4)


def test_finsler_horizontal_directions_gain_base_degree(f_k2, metric, rng):
    # base-dominated case of the cone argument: the slope alone wins
    _, k_eff = estimate_K(f_k2, metric, 16, 8)
    for _ in range(20):
        p = MTPoint(0, rng.uniform(0, 1), rng.uniform(0, 1, 2))
        v = Tangent(rng.uniform(0.5, 2.0), np.zeros(2))
        w, q = pushforward(f_k2, p, v, return_point=True)
        before = finsler_norm(metric, k_eff, p, v)
        after = finsler_norm(metric, k_eff, q, w)
        assert after >= 3 * before


def test_finsler_two_case_inequality(f_k2, metric, rng):
    # sampled tangents, split by dominating component; the image norm obeys
    # the analytic floor built from slightly deflated global constants
    margin = verify_vertical_expansion(f_k2, metric, 32, 16) * (1 - 5e-3)
    k_raw, k_eff = estimate_K(f_k2, metric, 32, 16)
    k_raw *= 1 + 5e-3
    for _ in range(200):
        p = MTPoint(0, rng.uniform(0, 1), rng.uniform(0, 1, 2))
        v = Tangent(rng.standard_normal(), rng.standard_normal(2))
        w, q = pushforward(f_k2, p, v, return_point=True)
        before = finsler_norm(metric, k_eff, p, v)
        after = finsler_norm(metric, k_eff, q, w)
        vert = metric.norm(p, Tangent(0.0, v.u)) / k_eff
        if vert >= abs(v.a):
            floor = (margin - k_raw / k_eff) * before
        else:
            floor = 3 * before
        assert after >= floor * (1 - 1e-9)


def test_finsler_sweep_matches_pointwise_norms(f_k2, metric):
    # the sweep expands |Vu + aw|_G^2 as a quadratic form in (a, u); pin it
    # against the mixed norm of each pushed-forward tangent, point by point
    _, k_eff = estimate_K(f_k2, metric, 8, 4)
    # the stratified templates for n=2 and 4 directions, written out
    dirs = [np.array([np.cos(ang), np.sin(ang)]) for ang in np.pi / 2 * np.arange(4)]
    betas = np.pi * np.arange(1, 5) / 10
    templates = ([(1.0, np.zeros(2))] + [(0.0, u) for u in dirs]
                 + [((-1.0) ** i * np.cos(b), np.sin(b) * u)
                    for i, (b, u) in enumerate(zip(betas, dirs))])
    pushed = []
    for t in np.arange(4) / 4:
        for x in unit_grid(2, 8):
            p = MTPoint(0, float(t), x)
            for a, u in templates:
                v = Tangent(a, u)
                pushed.append((p, v) + pushforward(f_k2, p, v, return_point=True)[::-1])
    # at k_eff the base slope 3 is the minimum; at k_eff / 20 a mixed
    # template is, so the cross term 2a u.q and a^2 r decide it
    for weight in (k_eff, k_eff / 20):
        mu, _ = verify_finsler_expansion(f_k2, metric, weight, 6.0, 1, 8, 4, n_dirs=4)
        ratios = [finsler_norm(metric, weight, q, w) / finsler_norm(metric, weight, p, v)
                  for p, v, q, w in pushed]
        assert_allclose(mu, min(ratios), rtol=1e-12)
    assert mu < 2.9


@pytest.fixture(scope="module")
def shear_measured(shear):
    # constants, k, f and metric of the shear at 16^2 x 8
    return measure_constants(shear, 1, fiber_res=16, t_res=8)


def test_verify_expansion_builds_one_frame_per_slice(shear_measured, monkeypatch):
    constants, k, f, metric = shear_measured
    frame = CompositeCovering.frame
    calls = []

    def counting_frame(self, t, *args, **kwargs):
        if self is f:
            calls.append(t)
        return frame(self, t, *args, **kwargs)

    # patched on the class: an instance attribute would outlive the undo on
    # the module-scoped f and hide it from later class-level patches
    monkeypatch.setattr(CompositeCovering, "frame", counting_frame)
    report = verify_expansion(constants, k, f, metric, 1)
    # one frame per slice feeds the vertical margin and mu; the adapted
    # sweep walks adapted_steps frames per slice
    assert len(calls) == constants.t_res * (1 + report.adapted_steps)


def test_fused_verify_keeps_finsler_checks(shear_measured):
    constants, k, f, metric = shear_measured
    for bad in (0.0, np.nan):
        broken = dataclasses.replace(constants, coupling_K_eff=bad)
        with pytest.raises(FinslerDegenerate):
            verify_expansion(broken, k, f, metric, 1)


def _nan_on_slices(t):
    # the slices t = 0.5 (and 0.625 at eight slices) of every sweep grid
    return 0.5 <= t < 0.75


@pytest.mark.parametrize("patched", ["fiber_gram", "frame"])
def test_nan_slice_raises_typed_error(shear_measured, tower2, shear_map, psi, metric,
                                     monkeypatch, patched):
    # a NaN on a slice that is not the first one must not vanish into a
    # minimum or maximum: every sweep that reads it stops with a typed error
    constants, k, _, _ = shear_measured
    # covers built here, so that no earlier test has bound their frame
    f, qm = build_f(tower2, 1, psi), build_qm_only(shear_map, 1, psi)
    if patched == "fiber_gram":
        gram = MetricG.fiber_gram

        def nan_gram(self, t, x):
            m = gram(self, t, x)
            return np.full_like(m, np.nan) if _nan_on_slices(t) else m

        monkeypatch.setattr(MetricG, "fiber_gram", nan_gram)
    else:
        frame = CompositeCovering.frame

        def nan_frame(self, t, x, side=+1):
            fr = frame(self, t, x, side)
            return fr._replace(v=np.full_like(fr.v, np.nan)) if _nan_on_slices(t) else fr

        monkeypatch.setattr(CompositeCovering, "frame", nan_frame)
    sweeps = {
        "estimate_cq": lambda: estimate_cq(qm, metric, 8, 4),
        "estimate_C": lambda: estimate_C(tower2, 8, 4),
        "estimate_K": lambda: estimate_K(f, metric, 8, 4),
        "verify_finsler_expansion": lambda: verify_finsler_expansion(
            f, metric, 4.0, 6.0, 1, 8, 4, n_dirs=4),
        "verify_expansion": lambda: verify_expansion(constants, k, f, metric, 1),
        "build_adapted_metric": lambda: build_adapted_metric(f, metric, 3.0, 4.0, 8, 4),
    }
    if patched == "fiber_gram":
        # the flat conorm C reads no Gram, and c_eq reads nothing else
        del sweeps["estimate_C"]
        sweeps["estimate_metric_equiv"] = lambda: estimate_metric_equiv(metric, 8, 4)
    else:
        # K reads only the image w of the base direction, not v
        del sweeps["estimate_K"]
    for sweep in sweeps.values():
        with pytest.raises(NonFiniteSlice, match=r"t=0\.5\b"):
            sweep()


def test_nan_in_the_factored_source_gram_raises_typed_error(shear_measured, tower2,
                                                            shear_map, psi, monkeypatch):
    # each sweep factors the Gram at t = 1 once, before its slices run, and
    # eigh returns NaN for NaN input without raising
    constants, k, _, metric = shear_measured
    f, qm = build_f(tower2, 1, psi), build_qm_only(shear_map, 1, psi)
    gram = MetricG.fiber_gram

    def nan_at_one(self, t, x):
        m = gram(self, t, x)
        return np.full_like(m, np.nan) if t == 1.0 else m

    monkeypatch.setattr(MetricG, "fiber_gram", nan_at_one)
    sweeps = [lambda: estimate_cq(qm, metric, 8, 4),
              lambda: verify_expansion(constants, k, f, metric, 1),
              lambda: build_adapted_metric(f, metric, 3.0, 4.0, 8, 4)]
    for sweep in sweeps:
        with pytest.raises(NonFiniteSlice, match=r"t=1\.0\b"):
            sweep()


# ---------------------------------------------------------------------------
# Adapted metric

def test_adapted_linear_model(linear_setup):
    inv, metric0 = linear_setup
    adapted0 = build_adapted_metric(inv["f"], metric0, 2.999, 1.0, 8, 4)
    assert adapted0.n_steps == 1
    assert_allclose(adapted0.rate, 3.0, atol=1e-12)
    p = MTPoint(0, 0.3, np.array([0.2, 0.7]))
    v = Tangent(0.4, np.array([1.0, -2.0]))
    assert_allclose(adapted0.norm(p, v), metric0.norm(p, v), atol=1e-12)


def test_adapted_rejects_weak_contraction(f_k2, metric):
    with pytest.raises(FinslerDegenerate):
        build_adapted_metric(f_k2, metric, 1.0, 1.0, 8, 4)


def test_adapted_detects_non_expanding_map(shear_map, psi, metric):
    # the base cover alone compresses some vertical direction, so no power
    # averaging can certify expansion
    qm = build_qm_only(shear_map, 1, psi)
    with pytest.raises(NotExpanding):
        build_adapted_metric(qm, metric, 1.5, 1.0, 16, 8)


def test_adapted_shape(adapted):
    assert adapted.n_steps == 2
    assert 1.0 < adapted.rate < 3.0
    assert adapted.equiv_lower == 1.0
    assert adapted.equiv_upper > 1.0


def test_adapted_telescoping_identity(adapted, rng):
    # |Df v|_a^2 = rate^2 (|v|_a^2 - |v|_G^2) + rate^(2-2N) |Df^N v|_G^2
    f = adapted.cover
    for _ in range(25):
        p = MTPoint(0, rng.uniform(0, 1), rng.uniform(0, 1, 2))
        v = Tangent(rng.standard_normal(), rng.standard_normal(2))
        w, q = pushforward(f, p, v, return_point=True)
        chain = adapted.chain_norms(p, v)
        lhs = adapted.norm(q, w) ** 2
        r = adapted.rate
        rhs = (r ** 2 * (adapted.norm(p, v) ** 2 - chain[0] ** 2)
               + r ** (2 - 2 * adapted.n_steps) * chain[-1] ** 2)
        assert_allclose(lhs, rhs, rtol=1e-10)


def test_adapted_single_step_rate_on_grid(adapted, rng):
    # at sweep nodes the one-step gain meets the certified rate
    f = adapted.cover
    grid = unit_grid(2, 32)
    t_nodes = np.arange(16) / 16
    for _ in range(50):
        p = MTPoint(0, float(rng.choice(t_nodes)),
                    grid[rng.integers(0, len(grid))])
        v = Tangent(rng.standard_normal(), rng.standard_normal(2))
        w, q = pushforward(f, p, v, return_point=True)
        assert adapted.norm(q, w) >= adapted.rate * adapted.norm(p, v) * (1 - 1e-9)


def test_adapted_expands_off_grid(adapted, rng):
    f = adapted.cover
    for _ in range(500):
        p = MTPoint(0, rng.uniform(0, 1), rng.uniform(0, 1, 2))
        v = Tangent(rng.standard_normal(), rng.standard_normal(2))
        w, q = pushforward(f, p, v, return_point=True)
        assert adapted.norm(q, w) > adapted.norm(p, v)


def test_adapted_norm_is_chart_independent(adapted, shear_map, rng):
    # t = 1 is glued to t = 0 by h, so a tangent there crosses through Dh,
    # as pushforward transports it
    for _ in range(5):
        x = rng.uniform(0, 1, 2)
        v = Tangent(rng.standard_normal(), rng.standard_normal(2))
        p, q = MTPoint(0, 1.0, x), MTPoint(0, 0.0, shear_map(x))
        w = Tangent(v.a, shear_map.jacobian(x) @ v.u)
        assert_allclose(adapted.norm(p, v), adapted.norm(q, w), rtol=1e-12)
        assert_allclose(adapted.chain_norms(p, v), adapted.chain_norms(q, w), rtol=1e-12)


def test_adapted_norm_batch_matches_scalar(adapted, rng):
    t = 0.37
    x = rng.uniform(0, 1, (10, 2))
    a = rng.standard_normal(10)
    u = rng.standard_normal((10, 2))
    batch = adapted.norm_batch(t, x, a, u)
    for i in range(10):
        assert_allclose(batch[i],
                        adapted.norm(MTPoint(0, t, x[i]), Tangent(a[i], u[i])),
                        rtol=1e-12)


def test_adapted_rate_on_a_one_dimensional_fiber():
    # x += 0.1 sin 2 pi x at depth 5: the 5-step product spans about twelve
    # orders of magnitude, so the pencil form of the rate lost its smallest
    # eigenvalue and reported no expansion
    field = TrigDisplacementField.from_terms(1, [(np.array([1.0]), np.array([1]), "sin")])
    _, report = run_pipeline(field.scaled(0.1), 1, k=5, fiber_res=16, t_res=4, n_dirs=4)
    assert report.passed
    assert report.adapted_steps == 5
    # sigma_min of the 5-step product is itself conditioned at about 1e-8
    assert_allclose(report.adapted_rate, 2.8556513129, rtol=1e-6)


def full_gram_rate(f, metric, n_steps, fiber_res, t_res):
    """The adapted rate whitened by Cholesky factors of the full (n+1)^2 Gram."""
    worst = np.inf
    for t0 in np.arange(t_res) / t_res:
        t, x, jac = t0, unit_grid(f.source.dim, fiber_res), None
        l_src = np.linalg.cholesky(metric.gram(MTPoint(0, t, x)))
        for _ in range(n_steps):
            fr = f.frame(t, x, +1)
            jac = fr.matrix() if jac is None else fr.matrix() @ jac
            t, x = fr.t_out, torus_representative(fr.x_out)
        l_dst = np.linalg.cholesky(metric.gram(MTPoint(0, t, x)))
        whitened = np.linalg.solve(l_src, np.swapaxes(jac, -1, -2) @ l_dst)
        worst = min(worst, np.linalg.svd(whitened, compute_uv=False)[..., -1].min())
    return worst ** (1.0 / n_steps)


@pytest.mark.parametrize("name", ["shear", "mixed", "n1"])
def test_adapted_rate_whitens_fiber_blocks_only(name, shear, mixed):
    # G = diag(1, M) factors as diag(1, L_M): whitening the fiber blocks
    # alone gives the full-Gram rate bit for bit
    field = {"shear": shear, "mixed": mixed,
             "n1": TrigDisplacementField.from_terms(1, [([0.1], [1], "sin")])}[name]
    metric = MetricG(TrigDisplacementMap(field))
    f = build_f(tower_from_field(field, 2), 1, default_psi(field))
    adapted = build_adapted_metric(f, metric, 2.5, 1.0, 8, 4)
    assert adapted.n_steps == 1
    assert adapted.rate == full_gram_rate(f, metric, 1, 8, 4)
    chained = build_adapted_metric(f, metric, 1.1, 1.0, 8, 4)
    assert chained.n_steps == 4
    assert chained.rate == full_gram_rate(f, metric, 4, 8, 4)


# ---------------------------------------------------------------------------
# End-to-end pipeline

def test_pipeline_linear_model():
    constants, report = run_pipeline(shear_field(0.0), 1, fiber_res=8, t_res=4,
                                     n_dirs=4)
    assert report.passed
    assert report.k == 1
    assert_allclose(report.vertical_margin, 3.0, atol=1e-12)
    assert_allclose(report.mu, 3.0, atol=1e-12)
    assert_allclose(report.adapted_rate, 3.0, atol=1e-12)
    assert report.adapted_steps == 1
    assert constants.c_eq == 1.0
    assert constants.c_q == 1.0


def test_pipeline_shear_instance():
    constants, report = run_pipeline(shear_field(EPS), 1, fiber_res=16, t_res=8,
                                     n_dirs=4)
    assert report.passed
    assert report.k == 2
    assert report.m == 1
    assert report.vertical_margin > 2.0
    assert report.mu > 1.0
    assert report.adapted_rate > 1.0
    assert constants.lambda_target == 2.0 / constants.c_q
    assert all(report.checks.values())


def test_pipeline_honors_fixed_k():
    constants, report = run_pipeline(shear_field(EPS), 1, k=1, fiber_res=16,
                                     t_res=8, n_dirs=4, nu_target=5.0)
    assert report.k == 1
    assert not report.checks["vertical_margin_ok"]
    assert not report.passed
