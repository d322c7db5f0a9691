"""Diffeomorphisms of the n-torus and isotopies between them.

Maps are stored as lifts R^n -> R^n satisfying g(x + m) = g(x) + L m for
an integer degree matrix L.  Displacement-backed maps (id + trig field)
compose and invert in closed form whenever the relevant field is constant
along the coordinates the other one moves; otherwise generic composition
trees are used, inverted leaf by leaf so that Newton solves only leaf maps.
"""

from __future__ import annotations

import numpy as np

from ._small import matmul, matvec, zeros
from .errors import (
    DimensionMismatch,
    EndpointMismatch,
    NoConvergence,
    NotDiffeotopy,
    SingularJacobian,
    UnsupportedForm,
)
from .fields import TrigDisplacementField, jacobian_norm_bound, jacobian_sup_norm

_COND_LIMIT = 1e12
_NEWTON_TOL = 1e-12  # residual at which a Newton inverse stops
_NEWTON_MAX_ITER = 60
_DIFFEOTOPY_GRID = 64  # grid points per axis of the sampled diffeotopy check
_DIFFEOTOPY_MARGIN = 1.1  # sup |Dv| times this must stay below 1
_BRIDGE_START_TOL = 1e-10  # how far bridged paths may differ at s = 0
_BRIDGE_CHECKS = 16  # sample points of that check
_ENDPOINT_CHECKS = 64  # sample points of isotopy_endpoint_gap


def torus_representative(x: np.ndarray) -> np.ndarray:
    """Canonical representative in [0,1)^n."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x)


class TorusMapHandle:
    """A torus self-map given by a lift.

    jet(x) -> (value, Jacobian) is the one evaluation a map implements: it
    evaluates the lift and its Jacobian together on arrays of shape (..., n),
    so a composition tree is walked once per point and a Newton inverse
    checks its conditioning on every read.  apply and jacobian are views of
    it, jet(x)[0] and jet(x)[1]; the maps that perfbench/tracing.py times
    restate them in their own class body, since the tracer wraps a class's
    own methods.  Subclasses give jet, the degree matrix and inverse(),
    which is Newton unless an exact identity applies.  Values are lift
    values (not reduced mod 1); use torus_representative for the canonical
    point.
    """

    dim: int

    def jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x)[0]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x)[1]

    @property
    def degree_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def inverse(self) -> TorusMapHandle:
        return NewtonInverseMap(self)

    def describe(self) -> str:
        return type(self).__name__

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


class TrigDisplacementMap(TorusMapHandle):
    """id + v for a trigonometric displacement field v (degree = identity)."""

    def __init__(self, field: TrigDisplacementField):
        self.field = field
        self.dim = field.dim

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        disp, jac = self.field.jet(x)
        return x + disp, _plus_identity(jac)

    def apply(self, x):
        return self.jet(x)[0]

    def jacobian(self, x):
        return self.jet(x)[1]

    @property
    def degree_matrix(self):
        return np.eye(self.dim, dtype=np.int64)

    def inverse(self):
        if self.field.is_self_invariant():
            return TrigDisplacementMap(self.field.scaled(-1.0))
        return super().inverse()

    def describe(self):
        return f"id+field[{self.field.n_terms} terms]"


def _plus_identity(jac: np.ndarray) -> np.ndarray:
    """I + jac, in place unless jac is read-only (a field's memo), in which
    case into a copy of the same layout."""
    if not jac.flags.writeable:
        jac = jac.copy(order="K")
    diagonal = np.einsum("...ii->...i", jac)  # a writable view
    diagonal += 1.0
    return jac


def identity_map(dim: int) -> TrigDisplacementMap:
    return TrigDisplacementMap(TrigDisplacementField.zero(dim))


def is_identity(handle: TorusMapHandle) -> bool:
    return isinstance(handle, TrigDisplacementMap) and handle.field.n_terms == 0


class HomothetyMap(TorusMapHandle):
    """x -> factor * x, the standard expanding self-cover of the torus."""

    def __init__(self, dim: int, factor: int):
        factor = int(factor)
        if factor < 2:
            raise UnsupportedForm("homothety factor must be an integer >= 2")
        self.dim = dim
        self.factor = factor

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        jac = zeros(x.shape[:-1], (self.dim, self.dim))
        for i in range(self.dim):
            jac[..., i, i] = self.factor
        return x * self.factor, jac

    def apply(self, x):
        return self.jet(x)[0]

    def jacobian(self, x):
        return self.jet(x)[1]

    @property
    def degree_matrix(self):
        return self.factor * np.eye(self.dim, dtype=np.int64)

    def describe(self):
        return f"x->{self.factor}x"


class CompositeMap(TorusMapHandle):
    """outer after inner, by the chain rule."""

    def __init__(self, outer: TorusMapHandle, inner: TorusMapHandle):
        if outer.dim != inner.dim:
            raise DimensionMismatch("composition of maps on different tori")
        self.outer = outer
        self.inner = inner
        self.dim = outer.dim

    def jet(self, x):
        y, jac_inner = self.inner.jet(x)
        z, jac_outer = self.outer.jet(y)
        return z, jac_outer @ jac_inner

    def apply(self, x):
        return self.jet(x)[0]

    def jacobian(self, x):
        return self.jet(x)[1]

    @property
    def degree_matrix(self):
        return self.outer.degree_matrix @ self.inner.degree_matrix

    def inverse(self):
        return compose(self.inner.inverse(), self.outer.inverse())

    def describe(self):
        return f"({self.outer.describe()} o {self.inner.describe()})"


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve, raising SingularJacobian on an exactly singular matrix."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(str(exc)) from exc


def newton_invert(handle: TorusMapHandle, y: np.ndarray, tol: float = _NEWTON_TOL,
                  x0: np.ndarray | None = None) -> np.ndarray:
    """Solve handle(x) = y by Newton iteration seeded at x0 (default y).

    Valid for maps with identity degree whose displacement Jacobian stays
    well below 1 in norm; all maps constructed in this package satisfy that
    whenever the underlying isotopy checks pass.  The step computed where the
    residual falls below tol is still taken: it brings x from up to tol off
    the root to rounding level, so chained inverses do not add up errors.
    """
    y = np.asarray(y, dtype=float)
    x = y.copy() if x0 is None else np.asarray(x0, dtype=float)
    for _ in range(_NEWTON_MAX_ITER):
        value, jac = handle.jet(x)
        residual = value - y
        step = _solve(jac, residual[..., None])[..., 0]
        if float(np.abs(residual).max(initial=0.0)) < tol:
            return x - step
        x = x - step
    raise NoConvergence(
        f"Newton stalled for {handle.describe()}; residual "
        f"{float(np.abs(handle.apply(x) - y).max(initial=0.0)):.3e} > {tol:.1e}"
    )


class NewtonInverseMap(TorusMapHandle):
    """Inverse of a degree-identity diffeomorphism, evaluated by Newton.

    The Jacobian comes from the implicit function rule
    D(g^-1)(y) = [Dg(g^-1(y))]^-1.
    """

    def __init__(self, inner: TorusMapHandle):
        if not np.array_equal(inner.degree_matrix, np.eye(inner.dim, dtype=np.int64)):
            raise UnsupportedForm("only degree-identity maps are inverted")
        self.inner = inner
        self.dim = inner.dim

    def jet(self, y):
        x = newton_invert(self.inner, y)
        jac = self.inner.jacobian(x)
        inv = _solve(jac, np.broadcast_to(np.eye(self.dim), jac.shape))
        # |J|_F |J^-1|_F >= cond_2(J), so this refuses whatever cond_2 would
        cond = np.linalg.norm(jac, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
        if not np.all(np.isfinite(cond)) or float(np.max(cond)) > _COND_LIMIT:
            raise SingularJacobian(
                f"inner Jacobian condition {float(np.max(cond)):.3e} exceeds {_COND_LIMIT:.1e}"
            )
        return x, inv

    def apply(self, y):
        return self.jet(y)[0]

    def jacobian(self, y):
        return self.jet(y)[1]

    @property
    def degree_matrix(self):
        return np.eye(self.dim, dtype=np.int64)

    def inverse(self):
        return self.inner

    def describe(self):
        return f"inv({self.inner.describe()})"


def compose(outer: TorusMapHandle, inner: TorusMapHandle) -> TorusMapHandle:
    """Composition outer o inner, in closed form when the algebra is exact.

    For displacement maps id+u and id+w the composite is id + (w + u) when
    u is constant along every coordinate w moves.
    """
    if outer.dim != inner.dim:
        raise DimensionMismatch("composition of maps on different tori")
    if is_identity(outer):
        return inner
    if is_identity(inner):
        return outer
    if isinstance(outer, TrigDisplacementMap) and isinstance(inner, TrigDisplacementMap):
        if outer.field.is_invariant_along(inner.field.moved_coordinates()):
            return TrigDisplacementMap(inner.field.plus(outer.field))
    return CompositeMap(outer, inner)


# ---------------------------------------------------------------------------
# Isotopies


class IsotopyHandle:
    """A path s in [0,1] of torus diffeomorphisms.

    jet(s, x) -> (value, Jacobian, d/ds) of the slice at source points x is
    the one way to evaluate it; slice_at(s) is the map at time s, for
    inversion and endpoint checks.
    """

    dim: int

    def slice_at(self, s: float) -> TorusMapHandle:
        raise NotImplementedError

    def jet(self, s: float, x: np.ndarray):
        raise NotImplementedError


class StraightLineIsotopy(IsotopyHandle):
    """s -> id + s * v along a fixed displacement field."""

    def __init__(self, field: TrigDisplacementField, check: bool = True):
        # the certified bound, clear of 1 past rounding, passes without the grid
        if check and jacobian_norm_bound(field) * _DIFFEOTOPY_MARGIN * (1.0 + 1e-12) >= 1.0:
            sup = jacobian_sup_norm(field, per_axis=_DIFFEOTOPY_GRID)
            if sup * _DIFFEOTOPY_MARGIN >= 1.0:
                raise NotDiffeotopy(
                    f"field Jacobian sup norm {sup:.4f} leaves no margin below 1"
                )
        self.field = field
        self.dim = field.dim

    def slice_at(self, s):
        return TrigDisplacementMap(self.field.scaled(float(s)))

    def jet(self, s, x):
        # one trig pass: v and Dv give the slice x + s v, I + s Dv and d/ds = v
        x = np.asarray(x, dtype=float)
        disp, jac = self.field.jet(x)
        # out of place: the field's jet may be its memo
        return x + float(s) * disp, _plus_identity(float(s) * jac), disp


def constant_identity_isotopy(dim: int) -> StraightLineIsotopy:
    return StraightLineIsotopy(TrigDisplacementField.zero(dim), check=False)


class ComposedIsotopy(IsotopyHandle):
    """Slice-wise composition s -> a(s) o b(s)."""

    def __init__(self, a: IsotopyHandle, b: IsotopyHandle):
        if a.dim != b.dim:
            raise DimensionMismatch("isotopies on different tori")
        self.a = a
        self.b = b
        self.dim = a.dim

    def slice_at(self, s):
        return compose(self.a.slice_at(s), self.b.slice_at(s))

    def jet(self, s, x):
        y, jac_b, db = self.b.jet(s, x)
        z, jac_a, da = self.a.jet(s, y)
        return z, matmul(jac_a, jac_b), da + matvec(jac_a, db)


def compose_isotopy(a: IsotopyHandle, b: IsotopyHandle) -> IsotopyHandle:
    """a(s) o b(s); collapses to a straight line when the algebra is exact."""
    if isinstance(a, StraightLineIsotopy) and isinstance(b, StraightLineIsotopy):
        if a.field.is_invariant_along(b.field.moved_coordinates()):
            return StraightLineIsotopy(b.field.plus(a.field), check=False)
    return ComposedIsotopy(a, b)


class BridgedIsotopy(IsotopyHandle):
    """s -> b(s)^-1 o a(s), connecting id to b(1)^-1 o a(1).

    The time derivative uses the implicit rule: with z = b(s)^-1(a(s)(x)),

        dz/ds = Db(s)(z)^-1 [ d/ds a(s)(x) - d/ds b(s)(z) ].
    """

    def __init__(self, a: IsotopyHandle, b: IsotopyHandle):
        if a.dim != b.dim:
            raise DimensionMismatch("isotopies on different tori")
        self.a = a
        self.b = b
        self.dim = a.dim

    def slice_at(self, s):
        return compose(self.b.slice_at(s).inverse(), self.a.slice_at(s))

    def jet(self, s, x):
        # the slice jet solves each leaf inverse once and checks its conditioning
        z, jac = self.slice_at(s).jet(x)
        da = self.a.jet(s, x)[2]
        _, jac_b, db = self.b.jet(s, z)
        return z, jac, _solve(jac_b, (da - db)[..., None])[..., 0]


def bridge_isotopy(a: IsotopyHandle, b: IsotopyHandle) -> IsotopyHandle:
    """The path s -> b(s)^-1 o a(s).

    Requires a(0) = b(0) so the result starts at the identity; checked on a
    sample of points.  Collapses to a straight line along u - w when both
    inputs are straight lines and w is constant along its own and u's moved
    coordinates.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("isotopies on different tori")
    rng = np.random.default_rng(7)
    probe = rng.random((_BRIDGE_CHECKS, a.dim))
    gap = np.abs(a.slice_at(0.0).apply(probe) - b.slice_at(0.0).apply(probe))
    if float(gap.max(initial=0.0)) > _BRIDGE_START_TOL:
        raise EndpointMismatch(
            f"isotopies start {float(gap.max()):.3e} apart; need matching slices at s=0"
        )
    if isinstance(a, StraightLineIsotopy) and isinstance(b, StraightLineIsotopy):
        moved = b.field.moved_coordinates() | a.field.moved_coordinates()
        if b.field.is_invariant_along(moved):
            return StraightLineIsotopy(a.field.plus(b.field.scaled(-1.0)), check=False)
    return BridgedIsotopy(a, b)


def isotopy_endpoint_gap(iso: IsotopyHandle, target: TorusMapHandle) -> float:
    """Max |iso(1)(x) - target(x)| over sample points."""
    rng = np.random.default_rng(11)
    probe = rng.random((_ENDPOINT_CHECKS, iso.dim))
    return float(np.abs(iso.slice_at(1.0).apply(probe) - target.apply(probe)).max(initial=0.0))
