import dataclasses
import gc
import inspect
import itertools
import json
import os
import subprocess
import sys
import weakref

import mtcover
import mtcover.cli
import mtcover.expansion
import mtcover.torus_maps
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mtcover._small import matvec, whitened_min_eig, whitener
from mtcover.coverings import (
    CompositeCovering,
    build_qm,
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
    _chain_factors,
    _finsler_gain,
    build_adapted_metric,
    default_psi,
    estimate_C,
    estimate_K,
    estimate_cq,
    estimate_metric_equiv,
    finsler_norm,
    measure_constants,
    verify_expansion,
    verify_finsler_expansion,
    verify_vertical_expansion,
)
from mtcover.fields import TrigDisplacementField, shear_field, unit_grid
from mtcover.lifting import tower_from_field
from mtcover.manifolds import MetricG, MTPoint, MultiMappingTorus, SourceGram, Tangent
from mtcover.lifting import LiftedIsotopy
from mtcover.torus_maps import (BridgedIsotopy, StraightLineIsotopy, TrigDisplacementMap,
                                torus_representative)

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


def _composite(tower, m, psi):
    """The composite f over tower, as measure_constants builds it."""
    return build_stage_inventory(tower, build_qm(tower.level(0), m, psi))["f"]


@pytest.fixture(scope="module")
def f_k1(tower1, psi):
    return _composite(tower1, 1, psi)


@pytest.fixture(scope="module")
def f_k2(tower2, psi):
    return _composite(tower2, 1, psi)


@pytest.fixture(scope="module")
def linear_setup():
    field = shear_field(0.0)
    h = TrigDisplacementMap(field)
    inv = build_stage_inventory(tower_from_field(field, 1), build_qm(h, 1, default_psi(field)))
    return inv, MetricG(h)


@pytest.fixture(scope="module")
def adapted(f_k2, metric):
    margin = verify_vertical_expansion(f_k2, metric, 32, 16)
    _, k_eff = estimate_K(f_k2, metric, 32, 16)
    mu, _ = verify_finsler_expansion(f_k2, metric, k_eff, margin, 1, 32, 16)
    return build_adapted_metric(f_k2, metric, mu, k_eff, 32, 16)


# ---------------------------------------------------------------------------
# Generalized conorm


def generalized_conorm_sq(a, m):
    """Smallest eigenvalue of the pencil (a, m) for SPD m, batched, by the
    sweeps' kernels: whitened by a fresh eigh of m, as SourceGram does."""
    return whitened_min_eig(a, whitener(*np.linalg.eigh(m)))


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
    cover = (build_qm(h, 1, psi) if name.endswith("qm")
             else _composite(tower_from_field(field, 1), 1, psi))
    source = SourceGram(metric, unit_grid(field.dim, 8 if field.dim == 2 else 4))
    for t in np.arange(4) / 4:
        m_src = metric.fiber_gram(t, source.grid)
        assert np.array_equal((1.0 - t) * np.eye(field.dim) + t * source.d, m_src)
        rec = SliceRecord(cover, metric, source, t)
        local = rec.vertical_conorm
        assert_allclose(local, np.sqrt(generalized_conorm_sq(rec.p, m_src)), rtol=1e-13)
        assert_allclose(local, np.sqrt(pencil_oracle(rec.p, m_src)), rtol=1e-13)


def test_vertical_sweep_factors_the_source_gram_once(f_k2, shear_map, monkeypatch):
    # a fresh metric: the shared fixture may hold a factor from earlier tests
    metric = MetricG(shear_map)
    counts = {"cholesky": 0, "solve": 0, "eigh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    verify_vertical_expansion(f_k2, metric, 8, 4)
    assert counts == {"cholesky": 0, "solve": 0, "eigh": 1}


def test_sweeps_that_never_whiten_skip_the_eigh(f_k2, shear_map, monkeypatch):
    # K reads r only, so the metric's factored Gram leaves its
    # eigendecomposition to a first whitener.  The Finsler sweep's cone
    # floor reads the vertical conorm, which whitens: one eigh, which the
    # metric keeps for every later sweep at that resolution, the adapted
    # one included.  Another resolution is another grid and factor
    metric = MetricG(shear_map)
    calls = []
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    _, k_eff = estimate_K(f_k2, metric, 8, 4)
    assert calls == []
    verify_finsler_expansion(f_k2, metric, k_eff, 6.0, 1, 8, 4)
    assert calls == [1]
    build_adapted_metric(f_k2, metric, 3.0, k_eff, 8, 4)
    metric.source(8).whitener(0.5)
    metric.source(8).whitener(1.0)
    assert calls == [1]
    metric.source(4)
    assert calls == [1]
    build_adapted_metric(f_k2, metric, 3.0, k_eff, 4, 4)
    assert calls == [1, 1]


def _count_factors(monkeypatch):
    """([], []) that fill with one entry per SourceGram built and per eigh."""
    built, eighs = [], []
    init, eigh = SourceGram.__init__, np.linalg.eigh

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)

    def counted_eigh(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(SourceGram, "__init__", counted_init)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return built, eighs


def test_a_pipeline_factors_the_source_gram_once_per_stage(shear, monkeypatch):
    # c_eq, c_q and K share the metric's one factor, and verify_expansion,
    # given that metric, reads the same one: one Gram evaluation at t = 1
    # and one eigh for the two steps
    built, eighs = _count_factors(monkeypatch)
    run = measure_constants(shear, 1, fiber_res=8, t_res=4)
    assert (len(built), len(eighs)) == (1, 1)
    verify_expansion(run)
    assert (len(built), len(eighs)) == (1, 1)


@pytest.mark.parametrize("entry", ["library", "cli", "cli csv", "cli constants"])
def test_a_verify_run_factors_the_source_gram_once(entry, shear, tmp_path, monkeypatch):
    # the metric keeps its factor for verify_expansion and the CSV dump: one
    # Gram evaluation at t = 1 and one eigh per run, as a library call or a
    # command (the library's two steps: the test above)
    built, eighs = _count_factors(monkeypatch)
    if entry == "library":
        assert verify_expansion(measure_constants(shear, 1, fiber_res=8, t_res=4)).passed
    else:
        config = tmp_path / "shear.json"
        csv = {"csv_out": str(tmp_path / "conorm.csv")} if entry.endswith("csv") else {}
        config.write_text(json.dumps({
            "n": 2, "eps": EPS, "fiber_res": 8, "t_res": 4, "directions": 4,
            "field": [{"coeff": [1.0, 0.0], "freq": [0, 1], "phase": "sin"}], **csv}))
        out = tmp_path / "report.json"
        command = "constants" if entry.endswith("constants") else "verify"
        assert mtcover.cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    assert (len(built), len(eighs)) == (1, 1)


def test_a_run_leaves_no_reference_cycle_through_its_metric(shear):
    # the metric keeps its factored Gram, which holds arrays only: once the
    # caller drops the two steps' results, reference counting frees the
    # metric and its factor, with no wait for the cyclic collector
    gc.disable()
    try:
        run = measure_constants(shear, 1, fiber_res=8, t_res=4)
        verify_expansion(run)
        refs = weakref.ref(run.metric), weakref.ref(run.metric.source(8))
        del run
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["shear", "cyc3"])
def test_small_fibers_make_no_lapack_call_per_slice(name, shear, monkeypatch):
    # below n = 3 every per-slice eigenvalue and singular value is closed
    # form; the 3-dimensional fibers of cyc3 still go through LAPACK
    field = {"shear": shear, "cyc3": CYC3}[name]
    res = 8 if field.dim == 2 else 4
    run = measure_constants(field, 1, k=2, fiber_res=res, t_res=4)
    h, psi = TrigDisplacementMap(field), default_psi(field)
    counts = dict.fromkeys(("eigvalsh", "svd", "solve"), 0)
    for fn in counts:
        original = getattr(np.linalg, fn)

        def counted(*args, _name=fn, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, counted)
    estimate_C(tower_from_field(field, 2), res, 4)
    estimate_cq(build_qm(h, 1, psi), run.metric, res, 4)
    verify_expansion(run)
    if field.dim == 2:
        assert counts == {"eigvalsh": 0, "svd": 0, "solve": 0}
    else:
        assert counts["eigvalsh"] > 0 and counts["svd"] > 0


# ---------------------------------------------------------------------------
# Flat-norm equivalence constant

def test_metric_equiv_linear_model(linear_setup):
    _, metric0 = linear_setup
    assert estimate_metric_equiv(metric0, 16) == 1.0


def test_metric_equiv_matches_closed_form(metric):
    measured = estimate_metric_equiv(metric, 64)
    assert_allclose(measured, c_eq_closed_form(), atol=1e-14)
    assert_allclose(measured, C_EQ_REF, rtol=1e-12)


def test_metric_equiv_grid_stable(metric):
    # the extreme point sits on every even grid, so refinement is a no-op
    assert_allclose(estimate_metric_equiv(metric, 32),
                    estimate_metric_equiv(metric, 64), rtol=1e-14)


def _metric_equiv_sweep(metric, fiber_res, t_res):
    """c_eq as the closed sweep over t of eigvalsh(M(t)) on the grid."""
    grid = unit_grid(metric.dim, fiber_res)
    worst = np.inf
    for t in np.linspace(0.0, 1.0, t_res + 1).tolist():
        ev = np.linalg.eigvalsh(metric.fiber_gram(t, grid))
        lo, hi = np.sqrt(np.maximum(ev[..., 0], 0.0)), np.sqrt(ev[..., -1])
        worst = min(worst, float(np.minimum(lo, 1.0 / hi).min()))
    return worst


@pytest.mark.parametrize("name", ["shear", "mixed", "cyc3", "zero"])
def test_metric_equiv_is_the_sweep_at_its_endpoints(name, shear, mixed):
    # the eigenvalues (1-t) + t lam(D) of M(t) are monotone in t, so the
    # sweep's extremes sit at t = 0 and t = 1: equal to the last bit
    field = {"shear": shear, "mixed": mixed, "cyc3": CYC3,
             "zero": TrigDisplacementField.zero(2)}[name]
    metric = MetricG(TrigDisplacementMap(field))
    res = 16 if field.dim == 2 else 8
    for t_res in (4, 16):
        assert estimate_metric_equiv(metric, res) == _metric_equiv_sweep(metric, res, t_res)


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


@pytest.mark.parametrize("name", ["shear", "mixed", "cyc3"])
def test_the_phi_bound_reads_the_isotopy_jet(name, shear, mixed):
    # the phi sweep of estimate_C reads phi.jet(s, grid)[1], the one way to
    # evaluate an isotopy, in place of the slice map's Jacobian; they agree
    # on the straight line (shear), the bridge (mixed) and its lift (cyc3 at
    # depth 2), at a writable grid and at a read-only one the fields keep.
    # They agree to rtol 1e-13 in each point's Frobenius norm, which bounds
    # the move of the singular values the bound reads; entrywise, the
    # straight line's cancelling terms leave 3e-17 where the other gives 0
    field = {"shear": shear, "mixed": mixed, "cyc3": CYC3}[name]
    tower = tower_from_field(field, 2)
    phi = tower.isotopy(2 if name == "cyc3" else 1)
    kind = {"shear": StraightLineIsotopy, "mixed": BridgedIsotopy, "cyc3": LiftedIsotopy}[name]
    assert isinstance(phi, kind)
    grid = unit_grid(field.dim, 8 if field.dim == 2 else 4)
    frozen = grid.copy()
    frozen.flags.writeable = False
    for s in np.linspace(0.0, 1.0, 9):
        expected = phi.slice_at(s).jacobian(grid)
        scale = np.linalg.norm(expected, axis=(-2, -1))
        for x in (grid, frozen):
            gap = np.linalg.norm(phi.jet(s, x)[1] - expected, axis=(-2, -1))
            assert np.all(gap <= 1e-13 * scale)


# conorm_C_bound in the verify report of each configs/*.json, as the phi
# sweep gave it from the slice maps' Jacobians
CONFIG_C_BOUNDS = {"cyc3": 0.3313250085748365, "linear": 1.0,
                   "mixed2": 0.3100131305926034, "shear": 0.33821750966111847}


@pytest.mark.parametrize("name", sorted(CONFIG_C_BOUNDS))
def test_the_conorm_c_bound_of_each_config_is_unchanged(name):
    # the bound reads only h and tower.isotopy(1), so depth 1 gives the
    # value of the depth the run selects; it must match to the last bit
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = mtcover.cli.load_config(os.path.join(root, "configs", f"{name}.json"))
    tower = tower_from_field(cfg.displacement_field(), 1, cfg.base)
    assert estimate_C(tower, cfg.fiber_res, cfg.t_res)[1] == CONFIG_C_BOUNDS[name]


def test_conorm_c_floor_raises_typed_error(monkeypatch):
    # a negative slack doubles the floor, which the measured conorm misses
    monkeypatch.setattr(mtcover.expansion, "_FLOOR_SLACK", -1.0)
    with pytest.raises(BoundViolation, match="uniform bound"):
        estimate_C(tower_from_field(shear_field(0.1), 1), 8, 4)


def test_conorm_c_floor_survives_optimized_mode():
    # python -O strips assert statements; the floor check must not be one
    script = """
import sys
import mtcover.expansion
from mtcover.errors import BoundViolation
from mtcover.expansion import estimate_C
from mtcover.fields import shear_field
from mtcover.lifting import tower_from_field
mtcover.expansion._FLOOR_SLACK = -1.0
try:
    estimate_C(tower_from_field(shear_field(0.1), 1), 8, 4)
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
    qm = build_qm(shear_map, 1, psi)
    coarse = estimate_cq(qm, metric, 32, 16)
    fine = estimate_cq(qm, metric, 64, 32)
    assert_allclose(fine, C_Q_REF, rtol=1e-12)
    assert abs(coarse - fine) < 0.02 * fine


def test_cq_stage_conorm_floor(shear_map, psi, metric):
    # c_q can never drop below the product of the worst equivalence factor
    # squared and the flat conorms of the only non-isometric stages
    qm = build_qm(shear_map, 1, psi)
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

def _counted_depths(monkeypatch):
    """[(depth, _bound passed, bound returned), ...] of every estimate_C call."""
    original = mtcover.expansion.estimate_C
    calls = []

    def counted(tower, *args, _bound=None, **kwargs):
        c_val, bound = original(tower, *args, _bound=_bound, **kwargs)
        calls.append((tower.k, _bound, bound))
        return c_val, bound

    monkeypatch.setattr(mtcover.expansion, "estimate_C", counted)
    return calls


def test_the_depth_search_stops_at_its_cap(shear):
    # the shear needs k = 2 to reach its target factor
    with pytest.raises(UnboundedSelection, match=r"^no k <= 1 reaches the target factor "
                                                 r"\d+\.\d{4}$"):
        measure_constants(shear, 1, fiber_res=8, t_res=4, k_cap=1)


def test_a_small_target_selects_depth_one(shear, monkeypatch):
    calls = _counted_depths(monkeypatch)
    assert measure_constants(shear, 1, fiber_res=8, t_res=4, nu_target=0.5).k == 1
    assert [depth for depth, _, _ in calls] == [1]


def test_the_depth_search_measures_each_depth_once_with_one_bound(shear, monkeypatch):
    # a given k is measured at that depth only; a selected one tries 1, 2,
    # and every depth after the first reuses the first one's bound
    calls = _counted_depths(monkeypatch)
    run = measure_constants(shear, 1, k=3, fiber_res=8, t_res=4)
    assert run.k == 3 and [(depth, known) for depth, known, _ in calls] == [(3, None)]
    calls.clear()
    run = measure_constants(shear, 1, fiber_res=8, t_res=4)
    first_bound = calls[0][2]
    assert run.k == 2 and calls == [(1, None, first_bound), (2, first_bound, first_bound)]
    assert run.constants.conorm_C_bound == first_bound


# ---------------------------------------------------------------------------
# Vertical expansion of the composites

def test_vertical_margin_linear_model(linear_setup):
    inv, metric0 = linear_setup
    assert_allclose(verify_vertical_expansion(inv["f"], metric0, 8, 4), 3.0,
                    atol=1e-12)
    field = shear_field(0.0)
    f2 = _composite(tower_from_field(field, 2), 1, default_psi(field))
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


def test_fiber_cover_chain_floor(tower2, psi, metric):
    # pointwise: metric gain of the fiber cover >= c_eq^2 * 9 * local conorm
    pk = build_stage_inventory(tower2, build_qm(tower2.level(0), 1, psi))["pk"]
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
    assert (verify_vertical_expansion(f_k2, metric, 16, 8)
            == verify_vertical_expansion(f_k2, metric, 16, 8, threads=4))
    assert estimate_C(tower2, 16, 8) == estimate_C(tower2, 16, 8, threads=3)
    assert estimate_K(f_k2, metric, 16, 8) == estimate_K(f_k2, metric, 16, 8, threads=3)
    _, k_eff = estimate_K(f_k2, metric, 16, 8)
    assert (verify_finsler_expansion(f_k2, metric, k_eff, 6.0, 1, 16, 8)
            == verify_finsler_expansion(f_k2, metric, k_eff, 6.0, 1, 16, 8,
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
                                              16, 8)
    assert_allclose(mu, 3.0, atol=1e-12)
    assert case_bound == 2.0  # min(2m+1, margin - 1) with margin 3


def test_finsler_case_bound_branches(f_k2, metric, tower1, psi):
    _, bound = verify_finsler_expansion(f_k2, metric, 4.0, 2.5, 1, 8, 4)
    assert bound == 1.5
    f_m2 = _composite(tower1, 2, psi)
    _, bound = verify_finsler_expansion(f_m2, metric, 4.0, 7.0, 2, 8, 4)
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


def direction_templates(dim, n_dirs, rng):
    """Stratified tangent templates (a, u): base-only, fiber-only, and mixed;
    the vertical parts are evenly spaced on the circle for dim 2, and drawn
    from rng otherwise."""
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
        verticals = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    else:
        raw = rng.normal(size=(n_dirs, dim))
        verticals = list(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    templates = [(1.0, np.zeros(dim))] + [(0.0, u) for u in verticals]
    for idx, u in enumerate(verticals):
        beta = np.pi * (idx + 1) / (2.0 * (len(verticals) + 1))
        sign = 1.0 if idx % 2 == 0 else -1.0
        templates.append((sign * np.cos(beta), np.sin(beta) * u))
    return templates


def template_loop_gain(rec, templates, k_eff):
    """Min over the slice record and the direction templates (a, u) of
    max(|Vu + aw|_G / k_eff, |slope a|) / max(|u|_S / k_eff, |a|), with the
    image's squared norm u^T P u + 2a u.q + a^2 r, q = V^T m_dst w: the
    sampled mixed-norm gain of one slice, the oracle of the cone floor."""
    dim = rec.frame.v.shape[-1]
    src = ((1.0 - rec.t) * np.eye(dim) + rec.t * rec.source.d).reshape(-1, dim * dim)
    img = rec.p.reshape(-1, dim * dim)
    q = matvec(np.swapaxes(rec.frame.v, -1, -2), matvec(rec.m_dst, rec.frame.w))
    worst = np.full(len(src), np.inf)
    for a, u in templates:
        uu = np.outer(u, u).ravel()
        scale = np.maximum(np.sqrt(src @ uu) / k_eff, abs(a))
        sq = img @ uu + 2.0 * a * (q @ u) + a * a * rec.r
        worst = np.minimum(worst, np.maximum(np.sqrt(sq) / k_eff, abs(rec.slope * a)) / scale)
    return float(worst.min())


def test_finsler_sweep_matches_pointwise_norms(f_k2, metric):
    # the cone floor bounds the mixed-norm gain of every pushed-forward
    # tangent from below, point by point; at k_eff the base-only direction
    # attains it, the slope 3
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
    # at k_eff = 0.45 the lift sqrt(r) / k_eff pulls the floor below the slope
    for weight in (k_eff, 0.45):
        mu, _ = verify_finsler_expansion(f_k2, metric, weight, 6.0, 1, 8, 4)
        ratios = [finsler_norm(metric, weight, q, w) / finsler_norm(metric, weight, p, v)
                  for p, v, q, w in pushed]
        assert mu <= min(ratios) * (1 + 1e-12)
        if weight == k_eff:
            assert mu == 3.0
            assert_allclose(min(ratios), 3.0, rtol=1e-12)
    assert 1.0 < mu < 2.9


def _cone_decides(rec, k_eff):
    """Whether the cone bound pins the slice's min over all directions to
    the slope: some lift_p <= |s|, and every c_p - lift_p >= |s| (1 + 1e-9)."""
    slope, lift = abs(rec.slope), np.sqrt(rec.r) / k_eff
    return bool(lift.min() <= slope and (rec.vertical_conorm - lift).min() >= slope * (1 + 1e-9))


@pytest.mark.parametrize("name", ["shear", "mixed2", "cyc3", "n1", "shear m=2"])
def test_cone_decision_is_the_template_loop(name, shear, mixed):
    # the cone floor is at most the template loop on every slice; where the
    # cone bound decides a slice the floor is the slope, the exact min over
    # all directions, and the loop reaches it bit for bit, except that on n1
    # it rounds |slope a| / |a| one ulp below 3.  At the measured k_eff
    # every slice is decided; at a 6th or a 12th of it the slice t = 0.5 is
    # not, except on n1, whose k_eff is 38
    field = {"shear": shear, "mixed2": mixed, "cyc3": CYC3, "shear m=2": shear,
             "n1": TrigDisplacementField.from_terms(1, [([0.1], [1], "sin")])}[name]
    m, res = (2 if name.endswith("m=2") else 1), (8 if field.dim < 3 else 4)
    run = measure_constants(field, m, fiber_res=res, t_res=4)
    k_eff, f, metric = run.constants.coupling_K_eff, run.f, run.metric
    templates = direction_templates(field.dim, 16, np.random.default_rng(0))
    source = SourceGram(metric, unit_grid(field.dim, res))
    undecided = []
    for weight in (k_eff, k_eff / 6, k_eff / 12):
        gain = _finsler_gain(weight)
        for t in np.arange(4) / 4:
            rec = SliceRecord(f, metric, source, t)
            floor, loop = gain(rec), template_loop_gain(rec, templates, weight)
            assert floor - loop <= 4 * np.spacing(abs(loop))
            if _cone_decides(rec, weight):
                assert floor == 2 * m + 1
                if name == "n1":
                    assert 0.0 <= floor - loop <= 4 * np.spacing(floor)
                else:
                    assert loop == floor
            else:
                undecided.append((weight, t))
    assert all(weight != k_eff for weight, _ in undecided)
    assert (0.5 in {t for _, t in undecided}) == (name != "n1")


@st.composite
def small_covers(draw):
    """(field, m, k): 1 or 2 trig terms on a 1- or 2-dimensional fiber,
    small enough to pass the diffeotopy check, at m and a forced depth k of
    1 or 2 each; k = 1 leaves k_eff weak against the fiber expansion."""
    n = draw(st.sampled_from([1, 2]))
    freqs = st.sampled_from([b for b in itertools.product((-1, 0, 1), repeat=n) if any(b)])
    terms = [(np.eye(n)[draw(st.integers(0, n - 1))], np.array(draw(freqs)),
              draw(st.sampled_from(["sin", "cos"])))
             for _ in range(draw(st.integers(1, 2)))]
    field = TrigDisplacementField.from_terms(n, terms).scaled(draw(st.floats(0.005, 0.04)))
    return field, draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_covers(), st.data())
def test_cone_floor_bounds_the_loop_and_every_pointwise_gain(case, data):
    # the floor is a lower bound: of the template loop on each slice, and of
    # the mixed-norm gain of tangents pushed forward from grid points
    field, m, k = case
    metric = MetricG(TrigDisplacementMap(field))
    f = _composite(tower_from_field(field, k), m, default_psi(field))
    _, k_eff = estimate_K(f, metric, 4, 2)
    gain = _finsler_gain(k_eff)
    templates = direction_templates(field.dim, 4, np.random.default_rng(0))
    source = SourceGram(metric, unit_grid(field.dim, 4))
    for t in (0.0, 0.5):
        rec = SliceRecord(f, metric, source, t)
        floor = gain(rec)
        assert floor - template_loop_gain(rec, templates, k_eff) <= 4 * np.spacing(floor)
        for _ in range(2):
            x = source.grid[data.draw(st.integers(0, len(source.grid) - 1))]
            a = data.draw(st.floats(-2.0, 2.0))
            u = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=field.dim,
                                            max_size=field.dim)))
            p, v = MTPoint(0, t, x), Tangent(a, u)
            before = finsler_norm(metric, k_eff, p, v)
            if before < 1e-6:
                continue
            w, q = pushforward(f, p, v, return_point=True)
            ratio = finsler_norm(metric, k_eff, q, w) / before
            assert ratio >= floor - 1e-12 * abs(floor)


def test_a_weak_weight_lowers_mu_to_the_cone_floor(shear):
    # at the measured k_eff the floor is the slope on every slice; at
    # k_eff = 0.45 the lift sqrt(r) / k_eff is large where the base direction
    # shears the fiber, and mu is the floor of the worst slice, below the
    # slope and below the template loop
    run = measure_constants(shear, 1, fiber_res=8, t_res=4)
    f, metric = run.f, run.metric
    assert verify_expansion(run).mu == 3.0
    mu = verify_expansion(weakened(run, 0.45)).mu
    source = SourceGram(metric, unit_grid(2, 8))
    templates = direction_templates(2, 16, None)
    floors, loops = [], []
    for t in np.arange(4) / 4:
        rec = SliceRecord(f, metric, source, t)
        floors.append(min(3.0, float((rec.vertical_conorm - np.sqrt(rec.r) / 0.45).min())))
        loops.append(template_loop_gain(rec, templates, 0.45))
    assert mu == min(floors) and 1.0 < mu < 3.0
    assert mu <= min(loops)
    assert floors.count(3.0) == 3


def test_a_nan_lift_reaches_the_sweep(shear_measured, tower2, psi, metric, monkeypatch):
    # NaN in w leaves P and the conorm finite but makes r NaN: the floor
    # keeps the NaN (a Python min would drop it), and _sweep raises
    f = _composite(tower2, 1, psi)
    frame = CompositeCovering.frame

    def nan_frame(self, t, x, side=+1):
        fr = frame(self, t, x, side)
        return fr._replace(w=np.full_like(fr.w, np.nan)) if _nan_on_slices(t) else fr

    monkeypatch.setattr(CompositeCovering, "frame", nan_frame)
    rec = SliceRecord(f, metric, SourceGram(metric, unit_grid(2, 8)), 0.5)
    assert np.isfinite(rec.vertical_conorm).all()
    assert np.isnan(_finsler_gain(4.0)(rec))
    with pytest.raises(NonFiniteSlice, match=r"t=0\.5\b"):
        verify_finsler_expansion(f, metric, 4.0, 6.0, 1, 8, 4)
    with pytest.raises(NonFiniteSlice, match=r"t=0\.5\b"):
        verify_expansion(dataclasses.replace(shear_measured, f=f, metric=metric))


@pytest.fixture(scope="module")
def shear_measured(shear):
    # the measured run of the shear at 16^2 x 8
    return measure_constants(shear, 1, fiber_res=16, t_res=8)


def weakened(run, k_eff):
    """The run with its coupling K_eff replaced."""
    return dataclasses.replace(
        run, constants=dataclasses.replace(run.constants, coupling_K_eff=k_eff))


def test_verify_expansion_builds_one_frame_per_slice(shear, monkeypatch):
    # a fresh run: the K sweep framed f once per slice and kept the
    # records, so verify's pass starts each slice at the second chain step
    run = measure_constants(shear, 1, fiber_res=16, t_res=8)
    f = run.f
    frame = CompositeCovering.frame
    calls = []

    def counting_frame(self, t, *args, **kwargs):
        if self is f:
            calls.append(t)
        return frame(self, t, *args, **kwargs)

    monkeypatch.setattr(CompositeCovering, "frame", counting_frame)
    first = verify_expansion(run)
    assert first.adapted_steps == 2
    assert len(calls) == run.constants.t_res * (first.adapted_steps - 1)
    # the pass dropped each record as it read it: a second verify frames f
    # afresh, once per adapted step, to the same report bit for bit
    calls.clear()
    second = verify_expansion(run)
    assert len(calls) == run.constants.t_res * second.adapted_steps
    assert json.dumps(dataclasses.asdict(second)) == json.dumps(dataclasses.asdict(first))


def test_verify_expansion_that_misses_its_step_guess_reruns_the_chain(shear, monkeypatch):
    # at k_eff = 0.4 the norm gap is sqrt(1 + 0.4^2) / 0.4 = 2.69, so the
    # guess at mu = 3 is 1 step, while the cone floor (1.5) needs 3: the
    # pass walks 1 frame per slice and the adapted sweep 3 more
    run = measure_constants(shear, 1, fiber_res=8, t_res=4)
    f = run.f
    frame = CompositeCovering.frame
    calls = []

    def counting_frame(self, t, *args, **kwargs):
        if self is f:
            calls.append(t)
        return frame(self, t, *args, **kwargs)

    monkeypatch.setattr(CompositeCovering, "frame", counting_frame)
    report = verify_expansion(weakened(run, 0.4))
    monkeypatch.undo()
    assert_allclose(report.mu, 1.5, rtol=1e-12)
    assert report.adapted_steps == 3
    assert len(calls) == run.constants.t_res * (1 + report.adapted_steps)
    standalone = build_adapted_metric(f, run.metric, report.mu, 0.4, 8, 4)
    assert (report.adapted_steps, report.adapted_rate) == (standalone.n_steps, standalone.rate)


def test_verify_expansion_reports_a_contraction_constant_at_most_one(shear_measured,
                                                                     monkeypatch):
    # mu^n never exceeds the norm gap for mu <= 1, so there is no step count
    # and no adapted metric: the report fails mu_above_one and
    # adapted_rate_above_one and has no adapted steps or rate, where a
    # standalone adapted sweep raises
    f, metric = shear_measured.f, shear_measured.metric
    measured = verify_expansion(shear_measured)
    assert measured.passed
    # at k_eff = 0.5 the cone floor is 0.11, at k_eff = 0.1 below 0, and a
    # gain patched to 1.0 gives mu = 1 exactly
    weak = [verify_expansion(weakened(shear_measured, weight)) for weight in (0.5, 0.1)]
    monkeypatch.setattr(mtcover.expansion, "_finsler_gain", lambda *args: lambda rec: 1.0)
    weak.append(verify_expansion(shear_measured))
    monkeypatch.undo()
    assert 0.0 < weak[0].mu < 0.2 and weak[1].mu < 0.0 and weak[2].mu == 1.0
    for report in weak:
        assert (report.adapted_steps, report.adapted_rate) == (None, None)
        assert report.checks == dict(measured.checks, mu_above_one=False,
                                     adapted_rate_above_one=False)
        assert not report.passed
        assert report.vertical_margin == measured.vertical_margin
        assert report.case_bound == measured.case_bound
    for mu_hat in (0.11, 1.0):
        with pytest.raises(FinslerDegenerate, match="above 1"):
            build_adapted_metric(f, metric, mu_hat, 4.0, 8, 4)
    for bad in (0.0, np.inf):
        with pytest.raises(FinslerDegenerate):
            build_adapted_metric(f, metric, 3.0, bad, 8, 4)


def test_verify_expansion_reports_an_adapted_rate_at_most_one(shear_measured, monkeypatch):
    # a chain whose grid minimum is 0.81 gives the rate 0.81^(1/n) < 1: the
    # report keeps the step count and the rate and fails
    # adapted_rate_above_one only, where a standalone adapted sweep raises
    measured = verify_expansion(shear_measured)
    monkeypatch.setattr(mtcover.expansion, "chain_sigma_min", lambda factors: np.array([0.81]))
    report = verify_expansion(shear_measured)
    assert report.adapted_steps == measured.adapted_steps
    assert report.adapted_rate == 0.81 ** (1.0 / measured.adapted_steps)
    assert report.checks == dict(measured.checks, adapted_rate_above_one=False)
    assert not report.passed
    with pytest.raises(NotExpanding):
        build_adapted_metric(shear_measured.f, shear_measured.metric, report.mu,
                             shear_measured.constants.coupling_K_eff, 16, 8)


def test_fused_verify_keeps_finsler_checks(shear_measured):
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(FinslerDegenerate):
            verify_expansion(weakened(shear_measured, bad))


def _nan_on_slices(t):
    # the slices t = 0.5 (and 0.625 at eight slices) of every sweep grid
    return 0.5 <= t < 0.75


@pytest.mark.parametrize("patched", ["fiber_gram", "frame"])
def test_nan_slice_raises_typed_error(shear_measured, tower2, shear_map, psi, metric,
                                     monkeypatch, patched):
    # a NaN on a slice that is not the first one must not vanish into a
    # minimum or maximum: every sweep that reads it stops with a typed error
    # covers built here, so that no earlier test has bound their frame
    f, qm = _composite(tower2, 1, psi), build_qm(shear_map, 1, psi)
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
            f, metric, 4.0, 6.0, 1, 8, 4),
        "verify_expansion": lambda: verify_expansion(
            dataclasses.replace(shear_measured, f=f, metric=metric)),
        "build_adapted_metric": lambda: build_adapted_metric(f, metric, 3.0, 4.0, 8, 4),
    }
    if patched == "fiber_gram":
        # the flat conorm C reads no Gram
        del sweeps["estimate_C"]
    else:
        # K reads only the image w of the base direction, not v
        del sweeps["estimate_K"]
    for sweep in sweeps.values():
        with pytest.raises(NonFiniteSlice, match=r"t=0\.5\b"):
            sweep()


def test_nan_in_the_factored_source_gram_raises_typed_error(shear_measured, tower2,
                                                            shear_map, psi, monkeypatch):
    # a metric factors its Gram at t = 1 once, before the slices of the first
    # sweep that needs it run, and eigh returns NaN for NaN input without
    # raising; each sweep gets a fresh metric, since the measured one already
    # keeps a clean factor
    f, qm = _composite(tower2, 1, psi), build_qm(shear_map, 1, psi)
    gram = MetricG.fiber_gram

    def nan_at_one(self, t, x):
        m = gram(self, t, x)
        return np.full_like(m, np.nan) if t == 1.0 else m

    monkeypatch.setattr(MetricG, "fiber_gram", nan_at_one)
    # c_eq reads only the factored Gram at t = 1
    sweeps = [lambda metric: estimate_cq(qm, metric, 8, 4),
              lambda metric: verify_expansion(
                  dataclasses.replace(shear_measured, f=f, metric=metric)),
              lambda metric: build_adapted_metric(f, metric, 3.0, 4.0, 8, 4),
              lambda metric: estimate_metric_equiv(metric, 8)]
    for sweep in sweeps:
        with pytest.raises(NonFiniteSlice, match=r"t=1\.0\b"):
            sweep(MetricG(shear_map))


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
    qm = build_qm(shear_map, 1, psi)
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
    report = verify_expansion(measure_constants(field.scaled(0.1), 1, k=5, fiber_res=16,
                                                t_res=4))
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


def full_gram_whitened(f, metric, n_steps, t, x):
    """L^T J diag(1, W) for the n-step Jacobian J: L the Cholesky factor of
    the full (n+1)^2 Gram at the image, W the eigen-whitener of M(t)."""
    lam, q = np.linalg.eigh(metric.fiber_gram(1.0, x))
    product = np.zeros(x.shape[:-1] + (f.source.dim + 1,) * 2)
    product[..., 0, 0] = 1.0
    product[..., 1:, 1:] = q / np.sqrt((1.0 - t) + t * lam)[..., None, :]
    for _ in range(n_steps):
        fr = f.frame(t, x, +1)
        product = fr.matrix() @ product
        t, x = fr.t_out, torus_representative(fr.x_out)
    return np.swapaxes(np.linalg.cholesky(metric.gram(MTPoint(0, t, x))), -1, -2) @ product


@pytest.mark.parametrize("name", ["shear", "mixed", "n1"])
def test_adapted_rate_whitens_fiber_blocks_only(name, shear, mixed):
    # G = diag(1, M) factors as diag(1, L_M) and is whitened by diag(1, W):
    # the sweep's factors multiply to the full-Gram whitened product bit for
    # bit, and its rate, taken factor by factor, matches the full-Gram SVD
    field = {"shear": shear, "mixed": mixed,
             "n1": TrigDisplacementField.from_terms(1, [([0.1], [1], "sin")])}[name]
    metric = MetricG(TrigDisplacementMap(field))
    f = _composite(tower_from_field(field, 2), 1, default_psi(field))
    source = SourceGram(metric, unit_grid(field.dim, 8))
    for mu_hat, n_steps in ((2.5, 1), (1.1, 4)):
        adapted = build_adapted_metric(f, metric, mu_hat, 1.0, 8, 4)
        assert adapted.n_steps == n_steps
        assert_allclose(adapted.rate, full_gram_rate(f, metric, n_steps, 8, 4), rtol=1e-14)
        for t in np.arange(4) / 4:
            factors = _chain_factors(f, metric, t, f.frame(t, source.grid, +1),
                                     source.whitener(t), n_steps)
            product = next(factors)
            for factor in factors:
                product = factor @ product
            assert np.array_equal(product, full_gram_whitened(f, metric, n_steps, t, source.grid))


# ---------------------------------------------------------------------------
# End-to-end pipeline

def test_verify_expansion_takes_the_measured_run_alone(shear):
    # m, nu_target and threads come from the run that measured the
    # constants, so they cannot disagree with it
    assert list(inspect.signature(verify_expansion).parameters) == ["run"]
    run = measure_constants(shear, 2, fiber_res=8, t_res=4, nu_target=7.0, threads=2)
    report = verify_expansion(run)
    assert (report.m, report.nu_target) == (run.m, run.nu_target) == (2, 7.0)


def test_pipeline_linear_model():
    run = measure_constants(shear_field(0.0), 1, fiber_res=8, t_res=4)
    constants, report = run.constants, verify_expansion(run)
    assert report.passed
    assert report.k == 1
    assert_allclose(report.vertical_margin, 3.0, atol=1e-12)
    assert_allclose(report.mu, 3.0, atol=1e-12)
    assert_allclose(report.adapted_rate, 3.0, atol=1e-12)
    assert report.adapted_steps == 1
    assert constants.c_eq == 1.0
    assert constants.c_q == 1.0


def test_pipeline_shear_instance():
    run = measure_constants(shear_field(EPS), 1, fiber_res=16, t_res=8)
    constants, report = run.constants, verify_expansion(run)
    assert report.passed
    assert report.k == 2
    assert report.m == 1
    assert report.vertical_margin > 2.0
    assert report.mu > 1.0
    assert report.adapted_rate > 1.0
    assert constants.lambda_target == 2.0 / constants.c_q
    assert all(report.checks.values())


def test_a_run_builds_each_cover_once(shear, monkeypatch):
    # with k null the shear tries depths 1 and 2: the base cover's four
    # spaces, the aligning chain's three at each depth and f's two fiber
    # spaces make 12 (22 when every chain built its own); h passes its
    # diffeotopy check once for psi and once for phi1, and f's base stages
    # are the objects of the qm that c_q swept
    spaces, checks, covers = [], [], []
    init = MultiMappingTorus.__init__
    bound = mtcover.torus_maps.jacobian_norm_bound
    build = mtcover.expansion.build_qm
    monkeypatch.setattr(MultiMappingTorus, "__init__",
                        lambda self, *args, **kw: spaces.append(1) or init(self, *args, **kw))
    monkeypatch.setattr(mtcover.torus_maps, "jacobian_norm_bound",
                        lambda field: checks.append(1) or bound(field))
    monkeypatch.setattr(mtcover.expansion, "build_qm",
                        lambda *args: covers.append(build(*args)) or covers[-1])
    run = measure_constants(shear, 1, fiber_res=16, t_res=8)
    assert verify_expansion(run).passed and run.k == 2
    assert (len(spaces), len(checks)) == (12, 2)
    (qm,) = covers
    assert all(a is b for a, b in zip(run.f.stages[3:], qm.stages, strict=True))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [10, 12])
def test_the_adapted_chain_stays_finite_at_large_depth(shear, k):
    # unscaled, the chain's adjugate reaches entries near 2^317 at k = 10
    # and 2^418 at k = 12; sym3_max squares the entries of its Gram, which
    # overflowed, and the rate read 0
    report = verify_expansion(measure_constants(shear, 1, k=k, fiber_res=8, t_res=4))
    assert report.passed and 2.9 < report.adapted_rate <= 3.0


def test_pipeline_honors_fixed_k():
    report = verify_expansion(measure_constants(shear_field(EPS), 1, k=1, fiber_res=16,
                                                t_res=8, nu_target=5.0))
    assert report.k == 1 and report.nu_target == 5.0
    assert not report.checks["vertical_margin_ok"]
    assert not report.passed
