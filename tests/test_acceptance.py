"""Acceptance gate: one test per shipped guarantee.

Each test states its tolerance in the docstring and prints one pass/fail
line under pytest -v.  Resolutions mirror the CLI defaults (fiber 64^2,
32 parameter slices) unless the guarantee is about the exact linear model,
which runs on small grids.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover.cli import main
from mtcover.coverings import (
    build_qm,
    build_stage_inventory,
    pi1_linear_part,
    preimages,
    pushforward,
)
from mtcover.expansion import build_adapted_metric, measure_constants, verify_expansion
from mtcover.fields import shear_field, unit_grid
from mtcover.lifting import tower_from_field
from mtcover.manifolds import MetricG, MTPoint, Sample, Tangent, check_seams
from mtcover.torus_maps import HomothetyMap, TrigDisplacementMap

EPS = 0.1


@pytest.fixture(scope="module")
def full_run():
    # full-resolution pipeline on the shear instance, timed once
    started = time.perf_counter()
    run = measure_constants(shear_field(EPS), 1, fiber_res=64, t_res=32, threads=1)
    report = verify_expansion(run)
    elapsed = time.perf_counter() - started
    return (run.constants, report), elapsed


@pytest.fixture(scope="module")
def full_adapted(full_run, tower2, psi, metric):
    (constants, report), _ = full_run
    assert report.k == 2
    f = build_stage_inventory(tower2, build_qm(tower2.level(0), 1, psi))["f"]
    adapted = build_adapted_metric(f, Sample(metric, unit_grid(2, 64), 32), report.mu,
                                   constants.coupling_K_eff)
    return f, adapted, report


def test_linear_model_is_exact_and_fast(linear_inventory):
    """eps = 0: margin, contraction constant, and adapted rate all equal 3
    within 1e-12; the composite map is (3t mod 1, 3x mod 1) bit for bit;
    the whole run finishes in under a second."""
    started = time.perf_counter()
    report = verify_expansion(measure_constants(shear_field(0.0), 1, fiber_res=16, t_res=8))
    elapsed = time.perf_counter() - started
    assert report.passed
    assert abs(report.vertical_margin - 3.0) < 1e-12
    assert abs(report.mu - 3.0) < 1e-12
    assert abs(report.adapted_rate - 3.0) < 1e-12
    assert report.adapted_steps == 1 and report.k == 1
    f = linear_inventory["f"]
    rng = np.random.default_rng(3)
    for _ in range(100):
        t, x = rng.uniform(0, 1), rng.uniform(0, 1, 2)
        p = f.apply_point(MTPoint(0, t, x))
        assert p.t == 3 * t - math.floor(3 * t)
        assert np.array_equal(p.x, (3 * x) % 1.0)
    assert elapsed < 1.0


def test_shear_instance_verifies_at_full_resolution(full_run):
    """Shear instance at fiber 64^2 x 32 slices: every check passes, the
    vertical margin clears the target 2 with relative slack 1e-3, and the
    run takes under 60 seconds single-threaded."""
    (constants, report), elapsed = full_run
    assert report.passed
    assert report.k == 2 and report.m == 1
    assert report.vertical_margin >= 2.0 * (1 - 1e-3)
    assert all(report.checks.values())
    assert constants.c_eq == pytest.approx(0.734027761850809, rel=1e-12)
    assert elapsed < 60.0


def test_covering_degree_is_twenty_seven(inventory, linear_inventory):
    """Both the linear model and the shear instance have exactly 27
    preimages per point, pairwise at least 0.01 apart, and the induced
    lattice map is diag(3, 3, 3)."""
    q = MTPoint(0, 0.35, np.array([0.45, 0.8]))
    for inv in (linear_inventory, inventory):
        f = inv["f"]
        points = preimages(f, q).points
        assert len(points) == 27
        gaps = [f.source.distance(points[i], points[j])
                for i in range(27) for j in range(i + 1, 27)]
        assert min(gaps) > 0.01
        assert np.array_equal(pi1_linear_part(f), np.diag([3, 3, 3]))


def test_all_stage_maps_glue_across_seams(inventory_k2):
    """All ten chart maps (seven stages, three composites) agree across
    every seam and the wrap to within 1e-9 over 500 random fiber samples."""
    for name, cover in inventory_k2.items():
        gap = check_seams(cover, n_samples=500,
                          rng=np.random.default_rng(11))
        assert gap < 1e-9, f"map {name} has seam gap {gap}"


def test_lift_tower_commutes_with_base_cover(shear, rng):
    """Depth-3 tower: every level and every connecting path commutes with
    the degree-3 self-cover of the fiber to within 1e-10 at 100 random
    points and 5 path times."""
    tower = tower_from_field(shear, 3)
    pi = HomothetyMap(2, 3)
    pts = rng.uniform(0, 1, (100, 2))
    for i in range(tower.k):
        gap = np.abs(pi.apply(tower.level(i + 1).apply(pts))
                     - tower.level(i).apply(pi.apply(pts))).max()
        assert gap < 1e-10
    for j in range(1, tower.k):
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            lo = tower.isotopy(j).slice_at(s)
            hi = tower.isotopy(j + 1).slice_at(s)
            gap = np.abs(pi.apply(hi.apply(pts)) - lo.apply(pi.apply(pts))).max()
            assert gap < 1e-10


def test_exact_structural_identities(inventory, inventory_k2, rng):
    """Bit-level laws: the fiber cover fixes the parameter, the composite
    sends t to (2m+1)t minus its integer part, vertical tangents stay
    vertical with base part exactly 0.0, the fiber-power stage scales flat
    norms by 3^k within 1e-12, and base speed multiplies by exactly 3."""
    pk, f = inventory["pk"], inventory["f"]
    for _ in range(100):
        t, x = rng.uniform(0, 1), rng.uniform(0, 1, 2)
        assert pk.apply_fiber(t, x)[0] == t
        t_img = f.apply_fiber(t, x)[0]
        assert t_img == 3 * t - math.floor(3 * t)
        u = rng.standard_normal(2)
        w = pushforward(f, MTPoint(0, t, x), Tangent(0.0, u))
        assert w.a == 0.0
        a = rng.standard_normal()
        w = pushforward(f, MTPoint(0, t, x), Tangent(a, np.zeros(2)))
        assert w.a == 3 * a
    for inv, scale in ((inventory, 3.0), (inventory_k2, 9.0)):
        for _ in range(25):
            u = rng.standard_normal(2)
            w = pushforward(inv["P"], MTPoint(0, rng.uniform(0, 1),
                                              rng.uniform(0, 1, 2)),
                            Tangent(0.0, u))
            assert abs(np.linalg.norm(w.u) - scale * np.linalg.norm(u)) < 1e-12


def test_chart_differentials_match_finite_differences(inventory_k2, rng):
    """Every chart Jacobian entry of all ten maps matches a central finite
    difference with step 1e-6 to relative tolerance 1e-5 (absolute floor
    1e-7) at 100 random points per map, kept 1e-3 away from breakpoints."""
    step = 1e-6
    for name, cover in inventory_k2.items():
        circ = cover.source.circumference
        knots = np.array([0.0] + list(cover.breakpoints()) + [circ])
        checked = 0
        while checked < 100:
            t = rng.uniform(0, circ)
            if np.abs(knots - t).min() < 1e-3:
                continue
            checked += 1
            x = rng.uniform(0, 1, 2)
            fr = cover.frame(t, x, +1)
            tp, xp = cover.apply_fiber(t + step, x)
            tm, xm = cover.apply_fiber(t - step, x)
            assert np.isclose((tp - tm) / (2 * step), fr.slope,
                              rtol=1e-5, atol=1e-7), name
            assert np.allclose((xp - xm) / (2 * step), fr.w,
                               rtol=1e-5, atol=1e-7), name
            offsets = np.array([[step, 0.0], [-step, 0.0],
                                [0.0, step], [0.0, -step]])
            _, images = cover.apply_fiber(t, x + offsets)
            fd_cols = np.stack([(images[0] - images[1]) / (2 * step),
                                (images[2] - images[3]) / (2 * step)], axis=-1)
            assert np.allclose(fd_cols, fr.v, rtol=1e-5, atol=1e-7), name


def test_adapted_metric_certifies_single_step_expansion(full_adapted, rng):
    """Full-resolution adapted metric: contraction constant and rate both
    above 1; the telescoping identity holds to relative 1e-10; one step
    gains the rate (slack 1e-9) at sweep nodes and strictly exceeds 1 at
    10,000 off-grid samples."""
    f, adapted, report = full_adapted
    assert report.mu > 1.0
    assert adapted.rate > 1.0
    assert adapted.rate == pytest.approx(report.adapted_rate, rel=1e-12)
    r = adapted.rate
    for _ in range(25):
        p = MTPoint(0, rng.uniform(0, 1), rng.uniform(0, 1, 2))
        v = Tangent(rng.standard_normal(), rng.standard_normal(2))
        w, q = pushforward(f, p, v, return_point=True)
        chain = adapted.chain_norms(p, v)
        lhs = adapted.norm(q, w) ** 2
        rhs = (r ** 2 * (adapted.norm(p, v) ** 2 - chain[0] ** 2)
               + r ** (2 - 2 * adapted.n_steps) * chain[-1] ** 2)
        assert_allclose(lhs, rhs, rtol=1e-10)
    grid = unit_grid(2, 64)
    t_nodes = np.arange(32) / 32
    for _ in range(100):
        p = MTPoint(0, float(rng.choice(t_nodes)),
                    grid[rng.integers(0, len(grid))])
        v = Tangent(rng.standard_normal(), rng.standard_normal(2))
        w, q = pushforward(f, p, v, return_point=True)
        assert adapted.norm(q, w) >= r * adapted.norm(p, v) * (1 - 1e-9)
    for _ in range(20):
        t = rng.uniform(0, 1)
        x = rng.uniform(0, 1, (500, 2))
        a = rng.standard_normal(500)
        u = rng.standard_normal((500, 2))
        before = adapted.norm_batch(t, x, a, u)
        fr = f.frame(t, x, +1)
        a_img = fr.slope * a
        u_img = a[:, None] * fr.w + np.einsum("...ij,...j->...i", fr.v, u)
        after = adapted.norm_batch(fr.t_out, fr.x_out, a_img, u_img)
        assert np.all(after > before)


def test_reports_are_byte_deterministic(tmp_path):
    """Verification reports are byte-identical across reruns and across
    thread counts (1 vs 3) for a fixed config and seed."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 2, "eps": EPS,
        "field": [{"coeff": [1.0, 0.0], "freq": [0, 1], "phase": "sin"}],
        "fiber_res": 16, "t_res": 8, "directions": 8,
    }))
    outs = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    codes = [
        main(["verify", "--config", str(cfg), "--out", str(outs[0])]),
        main(["verify", "--config", str(cfg), "--out", str(outs[1])]),
        main(["verify", "--config", str(cfg), "--out", str(outs[2]),
              "--threads", "3"]),
    ]
    assert codes == [0, 0, 0]
    blobs = [out.read_bytes() for out in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    doc = json.loads(blobs[0])
    assert doc["pass"] is True
    assert "threads" not in doc["config_echo"]
    assert "threads" not in doc["timings"]
