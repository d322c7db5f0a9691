import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover.errors import EndpointMismatch, UnsupportedForm
from mtcover.fields import TrigDisplacementField, shear_field, unit_grid
from mtcover.lifting import (
    NaturalLiftMap,
    build_tower,
    default_phi1,
    lift_isotopy,
    lift_map,
    tower_from_field,
)
from mtcover.torus_maps import (
    HomothetyMap,
    StraightLineIsotopy,
    TrigDisplacementMap,
    compose,
    constant_identity_isotopy,
    identity_map,
    is_identity,
)

EPS = 0.1
PI3 = HomothetyMap(2, 3)


def generic_field():
    # moves both coordinates and depends on both, so nothing cancels exactly
    return TrigDisplacementField.from_terms(
        2, [(np.array([0.02, 0.02]), np.array([1, 1]), "sin")])


def test_lift_identity():
    assert is_identity(lift_map(identity_map(2)))


def test_lift_shear_closed_form():
    h1 = lift_map(TrigDisplacementMap(shear_field(EPS)))
    out = h1(np.array([0.25, 0.25]))
    assert_allclose(out, [0.25 - EPS / 3, 0.25], atol=1e-15)
    assert_allclose(out, [0.21666666666666667, 0.25], atol=1e-15)


def test_lift_commuting_square(rng):
    h = TrigDisplacementMap(shear_field(EPS))
    h1 = lift_map(h)
    for x in rng.uniform(0, 1, (100, 2)):
        assert_allclose(PI3(h1(x)), h(PI3(x)), atol=1e-12)


def test_lift_rejects_non_identity_degree():
    with pytest.raises(UnsupportedForm):
        lift_map(HomothetyMap(2, 3))


def test_lift_isotopy_constant_identity(rng):
    lifted = lift_isotopy(constant_identity_isotopy(2))
    x = rng.uniform(0, 1, 2)
    assert_allclose(lifted.slice_at(0.4)(x), x, atol=0)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_lift_isotopy_commuting_square(t, rng):
    iso = StraightLineIsotopy(shear_field(EPS))
    lifted = lift_isotopy(iso)
    for x in rng.uniform(0, 1, (20, 2)):
        assert_allclose(PI3(lifted.slice_at(t)(x)), iso.slice_at(t)(PI3(x)),
                        atol=1e-12)
    assert_allclose(3 * lifted.jet(t, np.array([0.1, 0.2]))[2],
                    iso.jet(t, PI3(np.array([0.1, 0.2])))[2], atol=1e-12)


def test_trivial_tower():
    tower = build_tower(identity_map(2), constant_identity_isotopy(2), 3)
    x = np.array([0.3, 0.7])
    for i in range(4):
        assert_allclose(tower.level(i)(x), x, atol=0)
    for i in range(1, 4):
        assert_allclose(tower.isotopy(i).slice_at(1.0)(x), x, atol=0)


def tower_invariant_gaps(tower, rng, n_points=100, t_values=(0.0, 0.25, 0.5, 0.75, 1.0)):
    pts = rng.uniform(0, 1, (n_points, 2))
    worst_map = 0.0
    worst_iso = 0.0
    worst_induction = 0.0
    for i in range(tower.k):
        hi, hnext = tower.level(i), tower.level(i + 1)
        worst_map = max(worst_map, np.abs(PI3(hnext(pts)) - hi(PI3(pts))).max())
        step = compose(hi, tower.isotopy(i + 1).slice_at(1.0).inverse())
        worst_induction = max(worst_induction, np.abs(hnext(pts) - step(pts)).max())
    for i in range(1, tower.k):
        for t in t_values:
            lo = tower.isotopy(i).slice_at(t)
            hi = tower.isotopy(i + 1).slice_at(t)
            worst_iso = max(worst_iso, np.abs(PI3(hi(pts)) - lo(PI3(pts))).max())
    return worst_map, worst_iso, worst_induction


def test_shear_tower_invariants(rng):
    tower = tower_from_field(shear_field(EPS), 3)
    worst_map, worst_iso, worst_induction = tower_invariant_gaps(tower, rng)
    assert worst_map < 1e-10
    assert worst_iso < 1e-10
    assert worst_induction < 1e-10


def test_shear_tower_closed_form(rng):
    tower = tower_from_field(shear_field(EPS), 3)
    for i in range(4):
        level = tower.level(i)
        assert isinstance(level, TrigDisplacementMap)
        for x in rng.uniform(0, 1, (20, 2)):
            disp = (EPS / 3 ** i) * np.sin(2 * np.pi * 3 ** i * x[1])
            assert_allclose(level(x), x + np.array([disp, 0.0]), atol=1e-14)
    for j in (1, 2, 3):
        base = 3 ** (j - 1)
        for s in (0.5, 1.0):
            for x in rng.uniform(0, 1, (10, 2)):
                gain = (EPS / base) * (np.sin(2 * np.pi * base * x[1])
                                       - np.sin(2 * np.pi * 3 * base * x[1]) / 3)
                assert_allclose(tower.isotopy(j).slice_at(s)(x),
                                x + s * np.array([gain, 0.0]), atol=1e-14)


def test_tower_matches_generic_induction(rng, shear, mixed):
    # closed-form levels lift^i(h) must equal the composition-tree definition
    x = rng.uniform(0, 1, (20, 2))
    for tower in (tower_from_field(shear, 2), tower_from_field(mixed, 3)):
        for i in range(tower.k):
            assert isinstance(tower.level(i + 1), TrigDisplacementMap)
            generic = compose(tower.level(i), tower.isotopy(i + 1).slice_at(1.0).inverse())
            value, jac = tower.level(i + 1).jet(x)
            tree_value, tree_jac = generic.jet(x)
            assert_allclose(value, tree_value, rtol=0, atol=1e-12)
            assert_allclose(jac, tree_jac, rtol=0, atol=1e-12)


def test_tower_endpoint_mismatch():
    h = TrigDisplacementMap(shear_field(EPS))
    wrong = StraightLineIsotopy(shear_field(EPS))  # ends at h, not h1^-1 o h0
    with pytest.raises(EndpointMismatch):
        build_tower(h, wrong, 1)


def test_tower_displacement_sup_norm():
    tower = tower_from_field(shear_field(EPS), 3)
    grid = unit_grid(2, 64)
    for i in range(4):
        sup = np.abs(tower.level(i)(grid) - grid).max()
        assert sup <= 1.5 * EPS + 1e-12


def test_tower_uniform_conorm_floor():
    tower = tower_from_field(shear_field(EPS), 3)
    grid = unit_grid(2, 64)
    floor = 1.0 - 0.2 * np.pi * 1.5
    worst = np.inf
    for i in range(4):
        sing = np.linalg.svd(tower.level(i).jacobian(grid), compute_uv=False)
        worst = min(worst, sing[..., -1].min(), 1.0 / sing[..., 0].max())
    for j in (1, 2, 3):
        for s in (0.0, 0.5, 1.0):
            jac = tower.isotopy(j).slice_at(s).jacobian(grid)
            worst = min(worst, np.linalg.svd(jac, compute_uv=False)[..., -1].min())
    assert worst > 0
    assert worst >= floor


def test_generic_field_tower(rng):
    # non-shear displacement exercises the Newton-backed tower path
    tower = tower_from_field(generic_field(), 2)
    worst_map, worst_iso, worst_induction = tower_invariant_gaps(
        tower, rng, n_points=25, t_values=(0.0, 0.5, 1.0))
    assert worst_map < 1e-10
    assert worst_iso < 1e-10
    assert worst_induction < 1e-10


def test_default_phi1_connects_identity_to_lift_bridge(rng):
    phi1 = default_phi1(shear_field(EPS))
    x = rng.uniform(0, 1, (10, 2))
    assert_allclose(phi1.slice_at(0.0)(x), x, atol=1e-14)
    h = TrigDisplacementMap(shear_field(EPS))
    h1 = lift_map(h)
    target = compose(h1.inverse(), h)
    assert_allclose(phi1.slice_at(1.0)(x), target(x), atol=1e-12)


def test_jet_matches_apply_and_jacobian_on_lifts_and_towers(mixed, rng):
    x = rng.uniform(-1, 2, (6, 4, 2))
    lifted = lift_map(TrigDisplacementMap(mixed).inverse())
    assert isinstance(lifted, NaturalLiftMap)
    for handle in (lifted, tower_from_field(mixed, 2).level(2)):
        value, jac = handle.jet(x)
        assert np.array_equal(value, handle.apply(x))
        assert np.array_equal(jac, handle.jacobian(x))
