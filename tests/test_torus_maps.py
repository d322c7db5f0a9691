import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover import torus_maps
from mtcover.errors import (
    EndpointMismatch,
    NoConvergence,
    NotDiffeotopy,
    SingularJacobian,
    UnsupportedForm,
)
from mtcover.fields import TrigDisplacementField, shear_field
from mtcover.lifting import LiftedIsotopy, default_phi1, lift_isotopy
from mtcover.torus_maps import (
    BridgedIsotopy,
    ComposedIsotopy,
    CompositeMap,
    HomothetyMap,
    NewtonInverseMap,
    StraightLineIsotopy,
    TorusMapHandle,
    TrigDisplacementMap,
    bridge_isotopy,
    compose,
    compose_isotopy,
    constant_identity_isotopy,
    identity_map,
    newton_invert,
    torus_representative,
)

EPS = 0.1


def shear_map():
    return TrigDisplacementMap(shear_field(EPS))


def assert_jet_matches_views(handle, x):
    value, jac = handle.jet(x)
    assert np.array_equal(value, handle.apply(x))
    assert np.array_equal(jac, handle.jacobian(x))


class ApplyJacobianOnly(TorusMapHandle):
    """A leaf map written against apply/jacobian only, without a jet."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def apply(self, x):
        return self.inner.apply(x)

    def jacobian(self, x):
        return self.inner.jacobian(x)

    @property
    def degree_matrix(self):
        return np.eye(self.dim, dtype=np.int64)


def shear_inverse_oracle(y):
    return np.stack([y[..., 0] - EPS * np.sin(2 * np.pi * y[..., 1]), y[..., 1]],
                    axis=-1)


def test_identity_apply():
    x = np.array([0.3, 0.7])
    assert_allclose(identity_map(2)(x), x, atol=0)


def test_shear_apply():
    assert_allclose(shear_map()(np.array([0.25, 0.25])), [0.35, 0.25], atol=1e-15)


def test_homothety_lift_and_representative():
    pi3 = HomothetyMap(2, 3)
    lift = pi3(np.array([0.2, 0.7]))
    assert_allclose(lift, [0.6, 2.1], atol=1e-15)
    assert_allclose(torus_representative(lift), [0.6, 0.1], atol=1e-14)


def test_identity_jacobian():
    assert_allclose(identity_map(2).jacobian(np.array([0.4, 0.9])), np.eye(2))


def test_shear_jacobian():
    jac = shear_map().jacobian(np.array([0.0, 0.0]))
    assert_allclose(jac, [[1.0, 0.2 * np.pi], [0.0, 1.0]], atol=1e-15)


def test_composite_jacobian_matches_finite_differences(rng):
    g = compose(shear_map(), shear_map().__class__(shear_field(0.05)).inverse())
    step = 1e-6
    for x in rng.uniform(0, 1, (20, 2)):
        cols = []
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            cols.append((g(x + e) - g(x - e)) / (2 * step))
        assert_allclose(g.jacobian(x), np.stack(cols, axis=-1), rtol=1e-6, atol=1e-8)


def test_jet_matches_apply_and_jacobian(mixed, rng):
    x = rng.uniform(-1, 2, (7, 5, 2))
    plain = TrigDisplacementMap(mixed)
    inv = plain.inverse()
    composite = compose(shear_map(), inv)
    assert isinstance(inv, NewtonInverseMap) and isinstance(composite, CompositeMap)
    for handle in (shear_map(), plain, HomothetyMap(2, 3), inv, composite,
                   compose(inv, composite), composite.inverse()):
        assert_jet_matches_views(handle, x)
        assert_jet_matches_views(handle, x[0, 0])


def test_apply_jacobian_only_map_composes_and_inverts(mixed, rng):
    # the default jet serves a leaf that defines only apply and jacobian
    plain = TrigDisplacementMap(mixed)
    leaf = ApplyJacobianOnly(plain)
    x = rng.uniform(0, 1, (40, 2))
    for built, reference in ((leaf.inverse(), plain.inverse()),
                             (compose(shear_map(), leaf), compose(shear_map(), plain)),
                             (compose(leaf.inverse(), shear_map()),
                              compose(plain.inverse(), shear_map()))):
        assert isinstance(built, (CompositeMap, NewtonInverseMap))
        assert_jet_matches_views(built, x)
        value, jac = built.jet(x)
        assert np.array_equal(value, reference.apply(x))
        assert np.array_equal(jac, reference.jacobian(x))
    assert_allclose(leaf.inverse()(leaf(x)), x, atol=1e-12)


class NearlySingular(TorusMapHandle):
    """The identity on points, with a Jacobian of condition 1e13."""

    dim = 2

    def apply(self, x):
        return np.array(x, dtype=float)

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.diag([1.0, 1e-13]), x.shape + (2,)).copy()

    @property
    def degree_matrix(self):
        return np.eye(2, dtype=np.int64)


def test_newton_inverse_rejects_ill_conditioned_jacobian(rng):
    inv = NearlySingular().inverse()
    y = rng.uniform(0, 1, (6, 2))
    assert isinstance(inv, NewtonInverseMap)
    assert np.array_equal(inv.apply(y), y)  # only the derivative is refused
    with pytest.raises(SingularJacobian, match="condition .* exceeds 1.0e\\+12"):
        inv.jacobian(y)
    with pytest.raises(SingularJacobian, match="condition .* exceeds 1.0e\\+12"):
        inv.jet(y)


class ExactlySingular(NearlySingular):
    """The identity on points, with a singular Jacobian."""

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.diag([1.0, 0.0]), x.shape + (2,)).copy()


def test_newton_inverse_rejects_singular_jacobian(rng):
    # the conditioning test reads the inverse it solves, so a singular
    # Jacobian must stop in that solve with the typed error
    inv = ExactlySingular().inverse()
    with pytest.raises(SingularJacobian):
        inv.jet(rng.uniform(0, 1, (6, 2)))


def test_newton_invert_identity():
    y = np.array([0.3, 0.7])
    assert_allclose(newton_invert(identity_map(2), y), y, atol=1e-14)


def test_newton_invert_shear_against_oracle(rng):
    h = shear_map()
    y = np.array([0.35, 0.25])
    assert_allclose(newton_invert(h, y), [0.25, 0.25], atol=1e-12)
    for y in rng.uniform(0, 1, (100, 2)):
        x = newton_invert(h, y)
        assert_allclose(x, shear_inverse_oracle(y), atol=1e-12)
        assert_allclose(h(x), y, atol=1e-10)


def test_newton_invert_no_convergence():
    with pytest.raises(NoConvergence):
        newton_invert(shear_map(), np.array([0.35, 0.25]), tol=1e-15, max_iter=1)


def test_invert_shear_is_exact_displacement(rng):
    # the shear displacement is self-invariant, so id - v is the exact inverse
    inv = shear_map().inverse()
    assert isinstance(inv, TrigDisplacementMap)
    for y in rng.uniform(0, 1, (30, 2)):
        assert_allclose(inv(y), shear_inverse_oracle(y), atol=1e-15)


def test_invert_rejects_non_identity_degree():
    with pytest.raises(UnsupportedForm):
        HomothetyMap(2, 3).inverse()


def test_compose_identity_is_noop(rng):
    h = shear_map()
    c = compose(identity_map(2), h)
    for x in rng.uniform(0, 1, (10, 2)):
        assert_allclose(c(x), h(x), atol=1e-14)


def test_compose_shears_add(rng):
    h = shear_map()
    sq = compose(h, h)
    for x in rng.uniform(0, 1, (20, 2)):
        expect = x + np.array([2 * EPS * np.sin(2 * np.pi * x[1]), 0.0])
        assert_allclose(sq(x), expect, atol=1e-14)


def test_lift_commutes_with_cover(rng):
    # pi o h1 = h o pi for the natural lift h1 = id + v(3x)/3
    h = shear_map()
    h1 = TrigDisplacementMap(shear_field(EPS).dilate(3))
    pi3 = HomothetyMap(2, 3)
    left = compose(pi3, h1)
    right = compose(h, pi3)
    for x in rng.uniform(0, 1, (100, 2)):
        assert_allclose(left(x), right(x), atol=1e-12)


def test_degree_law(rng):
    handles = [shear_map(), HomothetyMap(2, 3),
               compose(shear_map(), HomothetyMap(2, 3))]
    for handle in handles:
        deg = handle.degree_matrix
        for _ in range(10):
            x = rng.uniform(0, 1, 2)
            m = rng.integers(-3, 4, 2).astype(float)
            assert_allclose(handle(x + m) - handle(x), deg @ m, atol=1e-12)


def test_straight_line_zero_field_is_identity(rng):
    iso = constant_identity_isotopy(2)
    x = rng.uniform(0, 1, 2)
    assert_allclose(iso.slice_at(0.7)(x), x, atol=0)
    assert_allclose(iso.jet(0.7, x)[2], np.zeros(2), atol=0)


def test_straight_line_shear_midpoint():
    iso = StraightLineIsotopy(shear_field(EPS))
    assert_allclose(iso.slice_at(0.5)(np.array([0.25, 0.25])), [0.30, 0.25],
                    atol=1e-15)


@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
def test_straight_line_time_derivative_is_field(s):
    iso = StraightLineIsotopy(shear_field(EPS))
    assert_allclose(iso.jet(s, np.array([0.25, 0.25]))[2], [EPS, 0.0], atol=1e-15)


def test_straight_line_rejects_large_field():
    big = shear_field(0.2)  # sup-norm of the Jacobian is 0.4 pi > 1
    with pytest.raises(NotDiffeotopy):
        StraightLineIsotopy(big)


def test_certified_bound_passes_the_field_without_the_grid(monkeypatch):
    # |Dv| <= 2 pi eps everywhere, so 0.2 pi * 1.1 < 1 decides the check
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was sampled")

    monkeypatch.setattr(torus_maps, "jacobian_sup_norm", no_grid)
    StraightLineIsotopy(shear_field(EPS))


def test_grid_decides_where_the_bound_cannot(monkeypatch):
    # x1 += a (sin + cos)(2 pi x2): the bound 4 pi a misses 1 / 1.1, while
    # the true sup 2 sqrt(2) pi a is clear of it
    a = 0.08
    field = TrigDisplacementField.from_terms(2, [
        (np.array([a, 0.0]), np.array([0, 1]), "sin"),
        (np.array([a, 0.0]), np.array([0, 1]), "cos"),
    ])
    sampled = []
    original = torus_maps.jacobian_sup_norm

    def counted(*args, **kwargs):
        sampled.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(torus_maps, "jacobian_sup_norm", counted)
    StraightLineIsotopy(field)
    assert sampled == [1]
    with pytest.raises(NotDiffeotopy, match="field Jacobian sup norm 1.2566 leaves no margin below 1"):
        StraightLineIsotopy(shear_field(0.2))
    assert sampled == [1, 1]


def test_bridge_of_equal_isotopies_is_identity(rng):
    iso = StraightLineIsotopy(shear_field(EPS))
    bridged = bridge_isotopy(iso, iso)
    x = rng.uniform(0, 1, 2)
    assert_allclose(bridged.slice_at(0.6)(x), x, atol=1e-14)


def test_bridge_to_natural_lift_closed_form(rng):
    # b(s)^-1 o a(s) for two additive shears stays an additive shear
    a = StraightLineIsotopy(shear_field(EPS))
    b = StraightLineIsotopy(shear_field(EPS).dilate(3), check=False)
    phi1 = bridge_isotopy(a, b)
    for s in (0.25, 0.5, 1.0):
        for x in rng.uniform(0, 1, (10, 2)):
            gain = EPS * (np.sin(2 * np.pi * x[1]) - np.sin(6 * np.pi * x[1]) / 3)
            assert_allclose(phi1.slice_at(s)(x), x + s * np.array([gain, 0.0]),
                            atol=1e-14)


def test_bridge_builds_inverse_square_endpoint(rng):
    # a = const identity, b = path to h^2; endpoint must invert h^2
    v = shear_field(EPS)
    line = StraightLineIsotopy(v)
    squared = compose_isotopy(line, line)
    psi = bridge_isotopy(constant_identity_isotopy(2), squared)
    h = shear_map()
    h2 = compose(h, h)
    for x in rng.uniform(0, 1, (20, 2)):
        s = 0.5
        assert_allclose(psi.slice_at(s)(x),
                        x - np.array([2 * s * EPS * np.sin(2 * np.pi * x[1]), 0.0]),
                        atol=1e-14)
        assert_allclose(h2(psi.slice_at(1.0)(x)), x, atol=1e-10)


def test_bridge_endpoint_mismatch():
    a = StraightLineIsotopy(shear_field(EPS))
    shifted = StraightLineIsotopy(shear_field(0.05), check=False)

    class OffsetIsotopy(StraightLineIsotopy):
        def slice_at(self, s):
            return compose(shear_map(), shifted.slice_at(s))

    bad = OffsetIsotopy(shear_field(0.05), check=False)
    with pytest.raises(EndpointMismatch):
        bridge_isotopy(a, bad)


def test_generic_bridge_matches_composition(rng):
    # fields moving different coordinates force the Newton-backed path
    a_field = shear_field(0.05)
    b_field = TrigDisplacementField.from_terms(
        2, [(np.array([0.0, 0.05]), np.array([1, 0]), "sin")])
    a = StraightLineIsotopy(a_field)
    b = StraightLineIsotopy(b_field)
    bridged = bridge_isotopy(a, b)
    assert isinstance(bridged, BridgedIsotopy)
    for s in (0.4, 1.0):
        expect = compose(b.slice_at(s).inverse(), a.slice_at(s))
        for x in rng.uniform(0, 1, (10, 2)):
            assert_allclose(bridged.slice_at(s)(x), expect(x), atol=1e-10)


def _generic_isotopies():
    # lines along fields that move different coordinates, so no path
    # collapses to a straight line and every d/ds runs a chain or implicit rule
    a = StraightLineIsotopy(shear_field(0.05))
    b = StraightLineIsotopy(TrigDisplacementField.from_terms(
        2, [(np.array([0.0, 0.05]), np.array([1, 0]), "sin")]))
    bridged = bridge_isotopy(a, b)
    return {"composed": compose_isotopy(a, b), "bridged": bridged,
            "lifted": lift_isotopy(bridged)}


@pytest.mark.parametrize("kind", ["composed", "bridged", "lifted"])
def test_isotopy_time_derivative_matches_finite_difference(kind, rng):
    iso = _generic_isotopies()[kind]
    assert type(iso) is {"composed": ComposedIsotopy, "bridged": BridgedIsotopy,
                         "lifted": LiftedIsotopy}[kind]
    step = 1e-5
    x = rng.uniform(0, 1, (10, 2))
    for s in (0.3, 0.7):
        fd = (iso.slice_at(s + step)(x) - iso.slice_at(s - step)(x)) / (2 * step)
        x_out, jac, dx_ds = iso.jet(s, x)
        assert_allclose(dx_ds, fd, rtol=1e-5, atol=1e-7)
        # value and Jacobian are the slice's, to rounding
        ref_x, ref_jac = iso.slice_at(s).jet(x)
        assert_allclose(x_out, ref_x, rtol=0, atol=1e-15)
        assert_allclose(jac, ref_jac, rtol=0, atol=1e-15)


# non-commuting sin and cos terms
SIN_COS_FIELD = TrigDisplacementField.from_terms(2, [
    (np.array([0.05, 0.0]), np.array([0, 1]), "sin"),
    (np.array([0.0, 0.05]), np.array([1, 0]), "cos"),
])


@pytest.mark.parametrize("field", [shear_field(EPS), SIN_COS_FIELD, TrigDisplacementField.zero(2)])
def test_straight_line_jet_is_one_trig_pass(field, rng, monkeypatch):
    # slice, Jacobian and d/ds from one jet of the field; the slice's own
    # jet scales the coefficients first, so the two agree to rounding
    iso = StraightLineIsotopy(field, check=False)
    x = rng.uniform(0, 1, (50, 2))
    jet = TrigDisplacementField.jet
    calls = []

    def counted(self, pts):
        calls.append(self)
        return jet(self, pts)

    refs = {s: (*iso.slice_at(s).jet(x), field.evaluate(x)) for s in (0.0, 0.3, 1.0)}
    monkeypatch.setattr(TrigDisplacementField, "jet", counted)
    for s, (ref_x, ref_jac, ref_dx) in refs.items():
        calls.clear()
        x_out, jac, dx_ds = iso.jet(s, x)
        assert len(calls) == 1 and calls[0] is field
        assert_allclose(x_out, ref_x, rtol=0, atol=1e-15)
        assert_allclose(jac, ref_jac, rtol=0, atol=1e-15)
        assert np.array_equal(dx_ds, ref_dx)


def _leaf_inverses(handle):
    """Newton-backed leaves of a map tree."""
    if isinstance(handle, NewtonInverseMap):
        return 1
    if isinstance(handle, CompositeMap):
        return _leaf_inverses(handle.outer) + _leaf_inverses(handle.inner)
    return 0


@pytest.mark.parametrize("kind", ["phi1", "psi"])
def test_bridged_jet_solves_each_leaf_inverse_once(kind, rng, monkeypatch):
    # z and its Jacobian are the slice jet's, bit for bit, and d/ds follows
    # the implicit rule at that z without solving the inverse again
    mixed = TrigDisplacementField.from_terms(2, [
        (np.array([0.05, 0.0]), np.array([0, 1]), "sin"),
        (np.array([0.0, 0.05]), np.array([1, 0]), "sin")])
    line = StraightLineIsotopy(mixed)
    if kind == "phi1":
        # the tower's first connecting path: one Newton leaf per slice
        bridged = default_phi1(mixed)
    else:
        # the base cover's untwisting path: two
        bridged = bridge_isotopy(constant_identity_isotopy(2), compose_isotopy(line, line))
    assert isinstance(bridged, BridgedIsotopy)
    x = rng.uniform(0, 1, (20, 2))
    ref_x, ref_jac = bridged.slice_at(0.4).jet(x)
    leaves = _leaf_inverses(bridged.slice_at(0.4))
    assert leaves == {"phi1": 1, "psi": 2}[kind]
    solves = []
    original = torus_maps.newton_invert

    def counted(*args, **kwargs):
        solves.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(torus_maps, "newton_invert", counted)
    x_out, jac, dx_ds = bridged.jet(0.4, x)
    assert len(solves) == leaves
    assert np.array_equal(x_out, ref_x) and np.array_equal(jac, ref_jac)
    _, jac_b, db = bridged.b.jet(0.4, ref_x)
    da = bridged.a.jet(0.4, x)[2]
    assert np.array_equal(dx_ds, np.linalg.solve(jac_b, (da - db)[..., None])[..., 0])


def test_isotopies_define_only_slice_at_and_jet():
    for cls in (StraightLineIsotopy, ComposedIsotopy, BridgedIsotopy, LiftedIsotopy):
        methods = {name for name, value in vars(cls).items()
                   if callable(value) and not name.startswith("__")}
        assert methods <= {"slice_at", "jet"}, cls


def test_isotopy_slices_are_diffeomorphisms(rng):
    iso = StraightLineIsotopy(shear_field(EPS))
    for s in (0.0, 0.5, 1.0):
        jac = iso.slice_at(s).jacobian(rng.uniform(0, 1, (50, 2)))
        assert np.abs(np.linalg.det(jac)).min() > 0.5
