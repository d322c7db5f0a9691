"""Lifts of isotopy-trivial torus maps through the standard self-cover.

With pi(x) = base * x mod Z^n, any map g = id + w with identity degree has
the natural lift x -> x + w(base * x) / base, the unique lift whose
displacement averages to the same translation class (zero here).  Towers
iterate this: each level is the natural lift of the one below, which is the
previous map corrected by the inverse of the time-1 slice of the lifted
connecting isotopy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EndpointMismatch, UnsupportedForm
from .fields import TrigDisplacementField
from .torus_maps import (
    IsotopyHandle,
    StraightLineIsotopy,
    TorusMapHandle,
    TrigDisplacementMap,
    bridge_isotopy,
    compose,
    isotopy_endpoint_gap,
)

_ENDPOINT_TOL = 1e-9  # how far phi1's time-1 slice may miss the lift correction


class NaturalLiftMap(TorusMapHandle):
    """Generic natural lift of a degree-identity map.

    apply(x) = x + (g(base x) - base x) / base, whose Jacobian is exactly
    Dg(base x); it is conjugation by x -> base x, so inv(lift g) = lift(inv g).
    """

    def __init__(self, inner: TorusMapHandle, base: int):
        self.inner = inner
        self.base = int(base)
        self.dim = inner.dim

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        y = self.base * x
        value, jac = self.inner.jet(y)
        return x + (value - y) / self.base, jac

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        y = self.base * x
        return x + (self.inner.apply(y) - y) / self.base

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return self.inner.jacobian(self.base * x)

    @property
    def degree_matrix(self):
        return np.eye(self.dim, dtype=np.int64)

    def inverse(self, tol=1e-12):
        return lift_map(self.inner.inverse(tol), self.base)

    def describe(self):
        return f"lift_{self.base}({self.inner.describe()})"


def lift_map(handle: TorusMapHandle, base: int = 3) -> TorusMapHandle:
    """Natural lift of a degree-identity map through x -> base * x.

    Displacement-backed maps lift exactly (frequencies scaled by base,
    coefficients divided by base); anything else gets a pointwise wrapper.
    Raises UnsupportedForm when the degree matrix is not the identity.
    """
    if not np.array_equal(handle.degree_matrix, np.eye(handle.dim, dtype=np.int64)):
        raise UnsupportedForm(
            f"cannot lift {handle.describe()}: degree matrix is not the identity"
        )
    if isinstance(handle, TrigDisplacementMap):
        return TrigDisplacementMap(handle.field.dilate(base))
    return NaturalLiftMap(handle, base)


class LiftedIsotopy(IsotopyHandle):
    """Slice-wise natural lift of an isotopy; derivative scales the same way."""

    def __init__(self, inner: IsotopyHandle, base: int):
        self.inner = inner
        self.base = int(base)
        self.dim = inner.dim

    def slice_at(self, s):
        return lift_map(self.inner.slice_at(s), self.base)

    def jet(self, s, x):
        x = np.asarray(x, dtype=float)
        y = self.base * x
        value, jac, d_ds = self.inner.jet(s, y)
        return x + (value - y) / self.base, jac, d_ds / self.base


def lift_isotopy(iso: IsotopyHandle, base: int = 3) -> IsotopyHandle:
    if isinstance(iso, StraightLineIsotopy):
        return StraightLineIsotopy(iso.field.dilate(base), check=False)
    return LiftedIsotopy(iso, base)


@dataclass
class LiftTower:
    """Tower of lifted maps h_0 .. h_k with connecting isotopies.

    maps[i] is the level-i map; isotopies[i] (for i >= 1) is the path from
    the identity to maps[i]^-1 o maps[i-1], and each maps[i+1] equals
    maps[i] composed with the inverse time-1 slice of isotopies[i+1].
    """

    base: int
    maps: list = field(default_factory=list)
    isotopies: list = field(default_factory=list)  # index 0 unused

    @property
    def k(self) -> int:
        return len(self.maps) - 1

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    def level(self, i: int) -> TorusMapHandle:
        return self.maps[i]

    def isotopy(self, i: int) -> IsotopyHandle:
        if i < 1:
            raise IndexError("connecting isotopies start at level 1")
        return self.isotopies[i]


def build_tower(h: TorusMapHandle, phi1: IsotopyHandle, k: int, base: int = 3) -> LiftTower:
    """Build the lift tower of depth k over h.

    phi1 must run from the identity to (lift of h)^-1 o h; the endpoint is
    checked on sample points.  Lifting is conjugation, so level i composed
    with the inverse time-1 slice of isotopy i+1 is lift^(i+1)(h), which is
    stored in closed form (a displacement map when h is one).
    """
    if k < 0:
        raise UnsupportedForm("tower depth must be >= 0")
    h1 = lift_map(h, base)
    target = compose(h1.inverse(), h)
    gap = isotopy_endpoint_gap(phi1, target)
    if gap > _ENDPOINT_TOL:
        raise EndpointMismatch(
            f"phi1 time-1 slice misses lift correction by {gap:.3e}"
        )
    tower = LiftTower(base=int(base), maps=[h], isotopies=[None])
    phi = phi1
    for _ in range(k):
        tower.isotopies.append(phi)
        tower.maps.append(lift_map(tower.maps[-1], base))
        phi = lift_isotopy(phi, base)
    return tower


def default_phi1(h_field: TrigDisplacementField, base: int = 3) -> IsotopyHandle:
    """Connecting isotopy from straight lines to h and to its natural lift."""
    to_h = StraightLineIsotopy(h_field)
    to_lift = StraightLineIsotopy(h_field.dilate(base), check=False)
    return bridge_isotopy(to_h, to_lift)


def tower_from_field(h_field: TrigDisplacementField, k: int, base: int = 3) -> LiftTower:
    """Tower for id + field with the default connecting isotopy."""
    h = TrigDisplacementMap(h_field)
    return build_tower(h, default_phi1(h_field, base), k, base)
