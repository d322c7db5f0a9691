import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover.coverings import StageQ, build_qm, build_stage_inventory
from mtcover.errors import UnsupportedForm
from mtcover.expansion import default_psi
from mtcover.fields import TrigDisplacementField, unit_grid
from mtcover.lifting import tower_from_field
from mtcover.manifolds import (
    MTPoint,
    MultiMappingTorus,
    Tangent,
    check_seams,
    mapping_torus,
)
from mtcover.torus_maps import TrigDisplacementMap, identity_map

EPS = 0.1


def test_normalize_interior_point_unchanged(shear_map):
    space = mapping_torus(shear_map)
    p = space.normalize(MTPoint(0, 0.4, np.array([0.2, 0.7])))
    assert p.seg == 0 and p.t == 0.4
    assert_allclose(p.x, [0.2, 0.7], atol=0)


def test_normalize_wrap_applies_monodromy(shear_map):
    space = mapping_torus(shear_map)
    p = space.normalize(MTPoint(0, 1.0, np.array([0.25, 0.25])))
    assert p.seg == 0 and p.t == 0.0
    assert_allclose(p.x, [0.35, 0.25], atol=1e-15)


def test_normalize_long_space_seam(inventory):
    mtilde = inventory["Q"].source
    assert mtilde.n_segments == 3
    p = mtilde.normalize(MTPoint(0, 1.0, np.array([0.25, 0.25])))
    assert p.seg == 1 and p.t == 1.0
    assert_allclose(p.x, [0.35, 0.25], atol=1e-15)


def test_normalize_idempotent(shear_map, rng):
    space = mapping_torus(shear_map)
    for _ in range(20):
        p = space.normalize(MTPoint(0, rng.uniform(-2, 3), rng.uniform(0, 1, 2)))
        q = space.normalize(p)
        assert q.seg == p.seg and q.t == p.t
        assert_allclose(q.x, p.x, atol=0)


def test_normalize_roundtrip(shear_map, rng):
    space = mapping_torus(shear_map)
    for _ in range(50):
        x = rng.uniform(0, 1, 2)
        t = rng.uniform(0, 1)
        seg, t2, x2, _ = space.normalize_raw(0, t + 1.0, x)
        seg, t3, x3, _ = space.normalize_raw(seg, t2 - 1.0, x2)
        assert abs(t3 - t) < 1e-12
        assert_allclose(x3, x, atol=1e-12)


def test_normalize_transports_tangents(shear_map, rng):
    space = mapping_torus(shear_map)
    x = rng.uniform(0, 1, 2)
    u = rng.standard_normal(2)
    _, _, _, u2 = space.normalize_raw(0, 1.0, x, u)
    assert_allclose(u2, shear_map.jacobian(x) @ u, atol=1e-14)


def test_normalize_refuses_a_parameter_past_the_winding_bound(shear_map):
    # each winding costs a wrap evaluation, so 1e9 would run for hours;
    # NaN and infinities fail the same comparison
    space = mapping_torus(shear_map)
    for t in (1e9, -1e9, np.nan, np.inf, -np.inf):
        with pytest.raises(UnsupportedForm, match="windings from the chart"):
            space.normalize_raw(0, t, np.zeros(2))


def test_space_constructor_validation(shear_map):
    with pytest.raises(UnsupportedForm):
        MultiMappingTorus([0.0, 1.0, 0.5], [identity_map(2)], shear_map)
    with pytest.raises(UnsupportedForm):
        MultiMappingTorus([0.0, 1.0, 2.0], [], shear_map)


def test_seg_of_sides(inventory):
    mtilde = inventory["Q"].source
    assert mtilde.seg_of(1.0, side=+1) == 1
    assert mtilde.seg_of(1.0, side=-1) == 0
    assert mtilde.seg_of(0.0, side=-1) == 0
    assert mtilde.seg_of(3.0, side=+1) == 2


def test_gram_at_t0_is_euclidean(metric, rng):
    x = rng.uniform(0, 1, 2)
    assert_allclose(metric.fiber_gram(0.0, x), np.eye(2), atol=0)


def test_gram_at_t1_closed_form(metric):
    a = 0.2 * np.pi
    expected = np.array([[1.0, a], [a, 1.0 + a * a]])
    got = metric.fiber_gram(1.0, np.array([0.3, 0.0]))
    assert_allclose(got, expected, atol=1e-14)
    eigs = np.linalg.eigvalsh(got)
    assert_allclose(eigs, [0.53879676, 1.85598742], atol=1e-3)


def test_gram_interpolates_linearly(metric, rng):
    x = rng.uniform(0, 1, 2)
    mid = metric.fiber_gram(0.5, x)
    ends = 0.5 * (metric.fiber_gram(0.0, x) + metric.fiber_gram(1.0, x))
    assert_allclose(mid, ends, atol=1e-15)


def test_gram_rejects_out_of_chart(metric):
    with pytest.raises(UnsupportedForm):
        metric.fiber_gram(1.5, np.array([0.1, 0.1]))


def test_norm_oracles(metric):
    p = MTPoint(0, 1.0, np.array([0.3, 0.0]))
    assert metric.norm(p, Tangent(1.0, np.zeros(2))) == 1.0
    vert = metric.norm(p, Tangent(0.0, np.array([0.0, 1.0])))
    assert_allclose(vert, np.sqrt(1.0 + (0.2 * np.pi) ** 2), atol=1e-14)
    assert_allclose(vert, 1.1810, atol=1e-3)


def test_norm_matches_euclidean_at_t0(metric, rng):
    x = rng.uniform(0, 1, 2)
    u = rng.standard_normal(2)
    p = MTPoint(0, 0.0, x)
    assert_allclose(metric.norm(p, Tangent(0.0, u)), np.linalg.norm(u), atol=1e-14)


def test_split_is_orthogonal_in_g(metric, rng):
    # the Gram is block diagonal, so the split of a tangent (a, u) into its
    # vertical part (0, u) and its base part (a, 0) is orthogonal in G at
    # every point, exactly
    for _ in range(20):
        a, u = rng.standard_normal(), rng.standard_normal(2)
        p = MTPoint(0, rng.uniform(0, 1), rng.uniform(0, 1, 2))
        g = metric.gram(p)
        assert g[0, 0] == 1.0
        assert np.all(g[0, 1:] == 0.0) and np.all(g[1:, 0] == 0.0)
        full = np.concatenate([[a], u])
        vv = np.concatenate([[0.0], u])
        hh = np.concatenate([[a], np.zeros(2)])
        assert vv @ g @ hh == 0.0
        assert_allclose(full @ g @ full, vv @ g @ vv + hh @ g @ hh, rtol=1e-15)


def test_wrap_is_isometry(metric, shear_map, rng):
    # |u|_{G(1,x)} equals |Dh u|_{G(0,h(x))}; this is the design constraint
    for _ in range(200):
        x = rng.uniform(0, 1, 2)
        u = rng.standard_normal(2)
        before = metric.norm(MTPoint(0, 1.0, x), Tangent(0.0, u))
        after = metric.norm(MTPoint(0, 0.0, shear_map(x)), Tangent(0.0, shear_map.jacobian(x) @ u))
        assert abs(before - after) < 1e-10


def test_gram_is_spd_on_grid(metric):
    grid = unit_grid(2, 32)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        m = metric.fiber_gram(t, grid)
        np.linalg.cholesky(m)  # raises if any slice is not SPD


def test_distance_sanity(shear_map):
    space = mapping_torus(shear_map)
    p = MTPoint(0, 0.4, np.array([0.2, 0.7]))
    assert space.distance(p, p) == 0.0
    q = MTPoint(0, 0.4, np.array([0.2, 0.7 + 1e-6]))
    assert abs(space.distance(p, q) - 1e-6) < 1e-12
    # same underlying point written on both sides of the wrap
    a = MTPoint(0, 1.0 - 1e-7, np.array([0.25, 0.25]))
    b = MTPoint(0, 0.0, shear_map(np.array([0.25, 0.25])))
    assert space.distance(a, b) < 1e-6


def test_distance_across_the_wrap_of_a_torus_that_starts_past_zero(shear_map):
    # the wrap sits at the last boundary, 1.5 here, not at the circumference
    space = MultiMappingTorus([0.5, 1.5], [], shear_map)
    x = np.array([0.25, 0.25])
    a = MTPoint(0, 1.5 - 1e-7, x)
    b = MTPoint(0, 0.5, shear_map(x))
    assert abs(space.distance(a, b) - 1e-7) < 1e-12


def chart_spaces(tower, m):
    """The chart spaces of the stage chains over tower, read off the stages."""
    h = tower.level(0)
    inv = build_stage_inventory(tower, build_qm(h, m, default_psi(h.field)))
    return {"mh": inv["R"].source, "mbar": inv["R"].target, "mprime": inv["S"].target,
            "mtilde": inv["T"].target, "nk": inv["H"].target, "mhk": inv["F"].target}


@pytest.mark.parametrize("name", ["mprime", "mtilde", "nk"])
def test_distance_broadcast_matches_scalar(shear, name, rng):
    """A broadcast (N,1,n) x (1,M,n) distance equals the scalar call on
    every pair: same segment, across a seam, across the wrap, and inf for
    non-adjacent segments (five segments each at m=2, k=4)."""
    space = chart_spaces(tower_from_field(shear, 4), 2)[name]
    assert space.n_segments == 5
    bounds = space.boundaries
    params = []
    for seg in range(space.n_segments):
        lo, hi = bounds[seg], bounds[seg + 1]
        params += [(seg, lo + 1e-3), (seg, 0.5 * (lo + hi)), (seg, hi - 1e-3)]
    kinds = set()
    for (sa, ta), (sb, tb) in itertools.product(params, repeat=2):
        xa = rng.random((3, space.dim))
        xb = rng.random((4, space.dim))
        got = space.distance(MTPoint(sa, ta, xa[:, None, :]),
                             MTPoint(sb, tb, xb[None, :, :]))
        assert got.shape == (3, 4)
        for i, j in itertools.product(range(3), range(4)):
            want = space.distance(MTPoint(sa, ta, xa[i]), MTPoint(sb, tb, xb[j]))
            assert isinstance(want, float)
            assert got[i, j] == want
        step = (sb - sa) % space.n_segments
        if step == 0:
            kinds.add("same")
        elif np.isinf(got).all():
            kinds.add("non-adjacent")
        elif {sa, sb} == {0, space.n_segments - 1}:
            kinds.add("wrap")
        else:
            kinds.add("seam")
    assert kinds == {"same", "seam", "wrap", "non-adjacent"}


def test_distance_broadcast_matches_scalar_to_rounding_with_a_multi_term_gluing(rng):
    # x1 += 0.04 sin 2 pi x2 + 0.03 cos 4 pi x2 - 0.02 sin 6 pi x2 glues both
    # seams; the batch sums its three terms in one product, whose order may
    # follow the batch shape, so a pair can differ from the scalar call in
    # the last bit
    field = TrigDisplacementField.from_terms(2, [([0.04, 0.0], [0, 1], "sin"),
                                                 ([0.03, 0.0], [0, 2], "cos"),
                                                 ([-0.02, 0.0], [0, 3], "sin")])
    glue = TrigDisplacementMap(field)
    space = MultiMappingTorus([0.0, 1.0, 2.0], [glue], glue)
    xa, xb = rng.random((90, 2)), rng.random((90, 2))
    for (sa, ta), (sb, tb) in [((0, 0.5), (1, 1.25)), ((1, 1.5), (0, 0.25))]:
        got = space.distance(MTPoint(sa, ta, xa[:, None, :]), MTPoint(sb, tb, xb[None, :, :]))
        want = [[space.distance(MTPoint(sa, ta, a), MTPoint(sb, tb, b)) for b in xb]
                for a in xa]
        assert np.isfinite(got).all()
        assert_allclose(got, want, rtol=1e-15, atol=0)


def test_min_separation_matches_pairwise_loop(tower2, rng):
    space = chart_spaces(tower2, 1)["mtilde"]
    points = [MTPoint(seg, t, rng.random(2))
              for seg, t in [(0, 0.9), (1, 1.1), (1, 1.1), (2, 2.5), (0, 0.9),
                             (1, 1.1), (2, 2.99), (0, 0.01)]]
    gap, i, j = space.min_separation(points)
    pairs = {(a, b): space.distance(points[a], points[b])
             for a in range(len(points)) for b in range(len(points)) if a < b}
    assert gap == min(pairs.values())
    assert i < j and pairs[(i, j)] == gap
    assert space.min_separation(points[:1]) == (float("inf"), None, None)
    assert space.min_separation([]) == (float("inf"), None, None)


def test_check_seams_identity_is_exact(shear_map):
    # on a one-segment torus StageQ(space, space) is the identity chart map
    space = mapping_torus(shear_map)
    assert check_seams(StageQ(space, space), n_samples=50) == 0.0


def test_check_seams_stage_maps(inventory_k2, rng):
    worst = check_seams(inventory_k2["H"], n_samples=200, rng=rng)
    assert worst < 1e-9


def test_check_seams_detects_corrupted_gluing(shear_map, inventory):
    # regression guard: replacing one gluing by the identity must surface
    # a seam mismatch of roughly the displacement amplitude
    mh = inventory["Q"].target
    good = inventory["Q"].source
    bad = MultiMappingTorus(good.boundaries,
                            [good.gluings[0], identity_map(2)],
                            good.wrap)
    gap = check_seams(StageQ(bad, mh), n_samples=200)
    assert abs(gap - EPS) < 0.2 * EPS


def test_check_seams_detects_corrupted_wrap(inventory):
    # the wrap is a seam too: replacing it by the identity must surface a
    # mismatch of roughly the displacement amplitude
    mh = inventory["Q"].target
    good = inventory["Q"].source
    bad = MultiMappingTorus(good.boundaries, good.gluings, identity_map(2))
    assert check_seams(StageQ(good, mh), n_samples=200) < 1e-9
    gap = check_seams(StageQ(bad, mh), n_samples=200)
    assert abs(gap - EPS) < 0.2 * EPS


def test_check_seams_finds_the_wrap_of_a_torus_that_starts_past_zero(shear_map):
    # the identity chart map into a torus with the identity wrap misses the
    # shear's gluing across the wrap at 1.5, by about its amplitude
    space = MultiMappingTorus([0.5, 1.5], [], shear_map)
    plain = MultiMappingTorus([0.5, 1.5], [], identity_map(2))
    assert check_seams(StageQ(space, space), n_samples=200) < 1e-9
    gap = check_seams(StageQ(space, plain), n_samples=200)
    assert abs(gap - EPS) < 0.2 * EPS


def test_build_spaces_shapes(tower2):
    spaces = chart_spaces(tower2, 1)
    assert spaces["mh"].n_segments == 1
    assert spaces["mbar"].n_segments == 1
    assert spaces["mbar"].circumference == 3.0
    assert spaces["mprime"].n_segments == 3
    assert spaces["mtilde"].n_segments == 3
    assert spaces["nk"].n_segments == 3
    assert spaces["nk"].circumference == 1.0
