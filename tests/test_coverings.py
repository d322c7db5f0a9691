import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mtcover.coverings
from mtcover.coverings import (
    IdentityFrame,
    StageFrame,
    StageP,
    StageQ,
    build_qm,
    build_stage_inventory,
    differential,
    fiber_alignment_map,
    orbit,
    pi1_linear_part,
    preimages,
    pushforward,
)
from mtcover.errors import DuplicatePreimage, MTCoverError, UnsupportedForm
from mtcover.expansion import default_psi
from mtcover.fields import TrigDisplacementField, unit_grid
from mtcover.lifting import tower_from_field
from mtcover.manifolds import MTPoint, Tangent, mapping_torus

EPS = 0.1


# ---------------------------------------------------------------------------
# Stage point oracles (hand-checked values for the shear instance, k=1, m=1)

def test_stage_h_oracle(inventory):
    t, x = inventory["H"].apply_fiber(0.25, np.array([0.25, 0.25]))
    assert t == 0.25
    # connecting isotopy at local time 0.5: displacement eps/2 (1 + 1/3)
    assert_allclose(x, [0.25 + 0.5 * EPS * (4.0 / 3.0), 0.25], atol=1e-14)
    assert_allclose(x, [0.31666666666666665, 0.25], atol=1e-12)


def test_stage_f_oracle(inventory):
    t, x = inventory["F"].apply_fiber(0.75, np.array([0.25, 0.25]))
    assert t == 0.75
    # h1^-1(h0(x)): +eps from h0 and +eps/3 from the inverse top level
    assert_allclose(x, [0.25 + EPS + EPS / 3.0, 0.25], atol=1e-14)
    assert_allclose(x, [0.38333333333333336, 0.25], atol=1e-12)


def test_stage_p_oracle(inventory):
    p = inventory["P"].apply_point(MTPoint(0, 0.5, np.array([0.2, 0.7])))
    assert p.t == 0.5
    assert_allclose(p.x, [0.6, 0.1], atol=1e-14)


def test_stage_r_oracle(inventory, rng):
    x = rng.uniform(0, 1, 2)
    t, y = inventory["R"].apply_fiber(0.4, x)
    assert t == 3 * 0.4
    assert abs(t - 1.2) < 1e-15
    assert_allclose(y, x, atol=0)


def test_stage_s_oracle(inventory):
    p = inventory["S"].apply_point(MTPoint(0, 1.5, np.array([0.25, 0.25])))
    assert p.seg == 1 and p.t == 1.5
    # odd segment, untwisting slice at local time 0.5: -2 * 0.5 * eps
    assert_allclose(p.x, [0.15, 0.25], atol=1e-12)


def test_stage_t_oracle(inventory):
    p = inventory["T"].apply_point(MTPoint(1, 1.5, np.array([0.25, 0.25])))
    assert p.seg == 1 and p.t == 1.5
    assert_allclose(p.x, [0.35, 0.25], atol=1e-15)


def test_stage_q_oracle(inventory, rng):
    x = rng.uniform(0, 1, 2)
    p = inventory["Q"].apply_point(MTPoint(1, 1.2, x))
    assert p.seg == 0
    assert p.t == 1.2 - 1
    assert_allclose(p.x, x, atol=0)


def test_even_segments_are_identity(inventory, rng):
    x = rng.uniform(0, 1, 2)
    for key in ("S", "T"):
        for t in (0.5, 2.5):
            t_out, y = inventory[key].apply_fiber(t, x)
            assert t_out == t
            assert_allclose(y, x, atol=0)


# ---------------------------------------------------------------------------
# Composites

def test_t_slopes(inventory):
    slopes = {"H": 1.0, "F": 1.0, "P": 1.0, "R": 3.0, "S": 1.0, "T": 1.0,
              "Q": 1.0, "pk": 1.0, "qm": 3.0, "f": 3.0}
    for key, expected in slopes.items():
        assert inventory[key].t_slope == expected


def test_pk_preserves_parameter(inventory, rng):
    pk = inventory["pk"]
    for _ in range(25):
        t = rng.uniform(0, 1)
        t_out, _ = pk.apply_fiber(t, rng.uniform(0, 1, 2))
        assert t_out == t  # every stage of pk leaves the parameter bit-equal


def test_linear_composite_is_times_three(linear_inventory, rng):
    f = linear_inventory["f"]
    t, x = 0.2, rng.uniform(0, 1, 2)
    p = f.apply_point(MTPoint(0, t, x))
    assert abs(p.t - 0.6) < 1e-15
    assert_allclose(p.x, (3 * x) % 1.0, atol=1e-12)


def test_linear_pushforward_triples(linear_inventory, rng):
    f = linear_inventory["f"]
    v = Tangent(rng.standard_normal(), rng.standard_normal(2))
    w = pushforward(f, MTPoint(0, 0.37, rng.uniform(0, 1, 2)), v)
    assert_allclose(w.a, 3 * v.a, atol=1e-14)
    assert_allclose(w.u, 3 * v.u, atol=1e-13)


def test_stage_p_scales_flat_norm(inventory, rng):
    for _ in range(25):
        u = rng.standard_normal(2)
        w = pushforward(inventory["P"], MTPoint(0, rng.uniform(0, 1), rng.uniform(0, 1, 2)),
                        Tangent(0.0, u))
        assert w.a == 0.0
        assert abs(np.linalg.norm(w.u) - 3 * np.linalg.norm(u)) < 1e-12


def test_differential_matches_pushforward(inventory, rng):
    f = inventory["f"]
    p = MTPoint(0, 0.41, rng.uniform(0, 1, 2))
    jac = differential(f, p)
    for col, v in enumerate([Tangent(1.0, np.zeros(2)),
                             Tangent(0.0, np.array([1.0, 0.0])),
                             Tangent(0.0, np.array([0.0, 1.0]))]):
        w = pushforward(f, p, v)
        assert_allclose(jac[:, col], np.concatenate([[w.a], w.u]), atol=1e-13)


def test_differential_finite_difference(inventory, rng):
    step = 1e-6
    for key in ("H", "S", "f"):
        cover = inventory[key]
        t = 0.41  # interior of every branch for these maps
        x = rng.uniform(0.1, 0.9, 2)
        jac = differential(cover, MTPoint(0, t, x))
        tp, xp = cover.apply_fiber(t + step, x)
        tm, xm = cover.apply_fiber(t - step, x)
        assert_allclose(jac[0, 0], (tp - tm) / (2 * step), rtol=1e-6, atol=1e-8)
        assert_allclose(jac[1:, 0], (xp - xm) / (2 * step), rtol=1e-4, atol=1e-7)
        for i in range(2):
            dx = np.zeros(2)
            dx[i] = step
            _, xp = cover.apply_fiber(t, x + dx)
            _, xm = cover.apply_fiber(t, x - dx)
            assert_allclose(jac[1:, 1 + i], (xp - xm) / (2 * step),
                            rtol=1e-4, atol=1e-7)


def test_pushforward_chart_independence(inventory, shear_map, rng):
    f = inventory["f"]
    x = rng.uniform(0, 1, 2)
    v = Tangent(0.7, rng.standard_normal(2))
    w1, q1 = pushforward(f, MTPoint(0, 1.0, x), v, return_point=True)
    w2, q2 = pushforward(f, MTPoint(0, 0.0, shear_map(x)),
                         Tangent(v.a, shear_map.jacobian(x) @ v.u),
                         return_point=True)
    assert abs(w1.a - w2.a) < 1e-13
    assert_allclose(w1.u, w2.u, atol=1e-12)
    assert f.target.distance(q1, q2) < 1e-12


# ---------------------------------------------------------------------------
# Induced lattice maps

def test_pi1_linear_parts(inventory, shear_map):
    # on a one-segment torus StageQ(space, space) is the identity chart map
    space = mapping_torus(shear_map)
    assert np.array_equal(pi1_linear_part(StageQ(space, space)), np.eye(3, dtype=int))
    assert np.array_equal(pi1_linear_part(inventory["pk"]), np.diag([1, 3, 3]))
    assert np.array_equal(pi1_linear_part(inventory["qm"]), np.diag([3, 1, 1]))
    assert np.array_equal(pi1_linear_part(inventory["f"]), np.diag([3, 3, 3]))


# ---------------------------------------------------------------------------
# Preimages and orbits

def test_preimages_linear_lattice(linear_inventory):
    f = linear_inventory["f"]
    q = MTPoint(0, 0.3, np.array([0.4, 0.7]))
    pts = preimages(f, q).points
    assert len(pts) == 27
    expected = []
    for j in range(3):
        for c1 in range(3):
            for c2 in range(3):
                expected.append(((q.t + j) / 3,
                                 (q.x[0] + c1) / 3, (q.x[1] + c2) / 3))
    expected.sort()
    got = sorted((p.t, p.x[0], p.x[1]) for p in pts)
    for e, g in zip(expected, got):
        assert e == g  # linear model roots are exact lattice points


def test_preimages_shear_separation(inventory):
    f = inventory["f"]
    q = MTPoint(0, 0.3, np.array([0.4, 0.7]))
    pts, linear, gap = preimages(f, q)
    assert len(pts) == 27
    for p in pts:
        assert f.target.distance(f.apply_point(p), q) < 1e-9
    gaps = [f.source.distance(pts[i], pts[j])
            for i in range(27) for j in range(i + 1, 27)]
    assert gap == min(gaps) > 0.01
    assert np.array_equal(linear, pi1_linear_part(f))


def test_preimages_fiber_cover_shares_parameter(inventory):
    pk = inventory["pk"]
    q = MTPoint(0, 0.62, np.array([0.15, 0.85]))
    pts = preimages(pk, q).points
    assert len(pts) == 9
    assert all(p.t == q.t for p in pts)


def test_preimages_rejects_multi_segment_charts(inventory):
    with pytest.raises(UnsupportedForm):
        preimages(inventory["H"], MTPoint(0, 0.3, np.array([0.4, 0.7])))


def test_preimages_dedupe_guard(inventory, monkeypatch):
    monkeypatch.setattr(mtcover.coverings, "_DEDUPE_TOL", 1.0)
    with pytest.raises(DuplicatePreimage) as err:
        preimages(inventory["f"], MTPoint(0, 0.3, np.array([0.4, 0.7])))
    named = re.search(r"candidates (\d+) and (\d+) collapsed", str(err.value))
    assert named is not None
    i, j = int(named[1]), int(named[2])
    assert 0 <= i < j < 27


def test_preimage_newton_failure_names_its_branch(inventory):
    # a zero tolerance is never met: the fiber Newton solve gives up on the
    # first branch, and the typed error says which cover and which t
    q = MTPoint(0, 0.3, np.array([0.4, 0.7]))
    with pytest.raises(MTCoverError, match=re.escape(f"f at t={q.t / 3};")):
        preimages(inventory["f"], q, newton_tol=0.0)


def test_stage_p_requires_positive_power(inventory):
    mh = inventory["pk"].source
    with pytest.raises(UnsupportedForm):
        StageP(2, 3, 0, mh, mh)


def test_orbit_parameter_column(linear_inventory):
    f = linear_inventory["f"]
    pts = orbit(f, MTPoint(0, 0.1, np.array([0.2, 0.3])), 3)
    assert len(pts) == 4
    t = 0.1
    for p in pts:
        assert abs(p.t - t) < 1e-12
        assert 0.0 <= p.t < 1.0
        t = (3 * t) % 1.0


def test_orbit_steps_match_apply(inventory, rng):
    f = inventory["f"]
    pts = orbit(f, MTPoint(0, rng.uniform(0, 1), rng.uniform(0, 1, 2)), 4)
    for a, b in zip(pts, pts[1:]):
        img = f.apply_point(a)
        assert f.target.distance(img, b) < 1e-12


def test_alignment_frame_solves_each_newton_inverse_once(mixed, monkeypatch):
    # one jet per Newton step: a composite's Jacobian does not re-apply its
    # inner map and an inverse's Jacobian does not solve again (the nested
    # re-solving made 3,480 evaluate and 2,862 jacobian calls here); the
    # field's jet is its one trig pass, so it counts every evaluation
    cover = fiber_alignment_map(tower_from_field(mixed, 2))
    calls = []
    original = TrigDisplacementField.jet

    def counted(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(TrigDisplacementField, "jet", counted)
    cover.frame(0.9, unit_grid(2, 8))
    assert 0 < len(calls) <= 40


def explicit_fold(cover, t, x):
    """A composite's frame folded stage by stage, identity stages included."""
    n = x.shape[-1]
    fr = StageFrame(t, x, 1.0, np.zeros_like(x), np.broadcast_to(np.eye(n), x.shape + (n,)))
    for st in cover.stages:
        step = st.frame(fr.t_out, fr.x_out, +1)
        fr = StageFrame(step.t_out, step.x_out, *step.push(fr.slope, fr.w), step.v @ fr.v)
    return fr


@pytest.mark.parametrize("dim, terms", [
    (1, [([0.1], [1], "sin")]),
    (2, [([0.05, 0.0], [0, 1], "sin"), ([0.0, 0.05], [1, 0], "cos")]),
    (3, [([0.05, 0.0, 0.0], [0, 1, 0], "sin"), ([0.0, 0.05, 0.0], [0, 0, 1], "sin"),
         ([0.0, 0.0, 0.05], [1, 0, 0], "sin")]),
])
def test_identity_stages_pass_frames_through(dim, terms, rng):
    # k = 2, m = 1: t = 0.1 takes F's identity branch and the even segments
    # of S and T, t = 0.5 their odd ones, t = 0.9 the identity branch of H;
    # R and Q are identities everywhere
    field = TrigDisplacementField.from_terms(dim, terms)
    tower = tower_from_field(field, 2)
    inv = build_stage_inventory(tower, build_qm(tower.level(0), 1, default_psi(field)))
    x = rng.uniform(0, 1, (6, dim))
    for name in ("f", "qm", "pk"):
        for t in (0.1, 0.5, 0.9):
            got, want = inv[name].frame(t, x), explicit_fold(inv[name], t, x)
            assert got.t_out == want.t_out and got.slope == want.slope
            for a, b in zip(got[1:], want[1:]):
                assert np.array_equal(a, b)
    assert isinstance(inv["H"].frame(0.9, x), IdentityFrame)
    assert isinstance(inv["F"].frame(0.1, x), IdentityFrame)
    # every stage of qm is an identity at t = 0.1: no fold reaches a matmul
    assert isinstance(inv["qm"].frame(0.1, x), IdentityFrame)
    assert not isinstance(inv["qm"].frame(0.5, x), IdentityFrame)
    # identity frames at one shape share their read-only views of 0 and I
    first, again = inv["H"].frame(0.9, x), inv["R"].frame(0.3, x.copy())
    assert first.w is again.w and first.v is again.v
    assert not first.w.flags.writeable and not first.v.flags.writeable
    assert not first.w.any() and np.array_equal(first.v[0], np.eye(dim))
    assert inv["R"].frame(0.3, x[:2]).w.shape == (2, dim)


def test_stage_chains_over_one_tower_share_its_aligning_maps(shear):
    # F's branch j is h_k^-1 o h_(k-j), built once by the tower: the F
    # stages of f and of the aligning chain of C(k) share the maps, and so
    # the jets their fields keep at a run's grid
    tower = tower_from_field(shear, 2)
    stage_f = build_stage_inventory(tower, build_qm(tower.level(0), 1, default_psi(shear)))["F"]
    aligning = fiber_alignment_map(tower).stages[1]
    maps = [tower.aligned(1), tower.aligned(2)]
    for stage in (stage_f, aligning):
        assert all(a is b for a, b in zip(stage._branch_maps[1:], maps, strict=True))
