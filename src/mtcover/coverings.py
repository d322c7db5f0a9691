"""Self-covering maps between mapping tori, assembled from chart stages.

Every map here sends the parameter t by an affine rule with a positive
integer slope and acts on fibers by torus diffeomorphisms chosen per
parameter branch, so a composite is evaluated by walking its stages.  The
`side` argument selects one-sided limits at branch boundaries: +1 is the
canonical half-open convention, -1 evaluates the lower branch, which is
what seam-consistency checks compare.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from ._small import matmul, matvec, zeros
from .errors import (
    DuplicatePreimage,
    MissingPreimage,
    NonIntegral,
    UnsupportedForm,
)
from .manifolds import MTPoint, MultiMappingTorus, Tangent, mapping_torus
from .torus_maps import (
    HomothetyMap,
    IsotopyHandle,
    TorusMapHandle,
    compose,
    identity_map,
    is_identity,
    newton_invert,
    torus_representative,
)

_INTEGRAL_TOL = 1e-8  # how far a slope or translation law may sit from an integer
_PREIMAGE_TOL = 1e-9  # how far a refined preimage may map from its target
_DEDUPE_TOL = 1e-6  # two preimages closer than this are one found twice


class StageFrame(NamedTuple):
    """Output point plus chart derivative blocks of one stage.

    slope is dt'/dt, w is the fiber velocity from the base direction, and
    v is the fiber-to-fiber Jacobian, all in chart coordinates.
    """

    t_out: float
    x_out: np.ndarray
    slope: float
    w: np.ndarray
    v: np.ndarray

    def push(self, a, u):
        """Image (slope a, a w + v u) of tangents (a, u), batched like u (..., n)."""
        a = np.asarray(a)
        return self.slope * a, a[..., None] * self.w + matvec(self.v, u)

    def matrix(self) -> np.ndarray:
        """The (n+1) x (n+1) chart Jacobian [[slope, 0], [w, v]], batched and
        entry-major (_small.zeros)."""
        n = self.w.shape[-1]
        jac = zeros(self.w.shape[:-1], (n + 1, n + 1))
        jac[..., 0, 0] = self.slope
        jac[..., 1:, 0] = self.w
        jac[..., 1:, 1:] = self.v
        return jac


class IdentityFrame(StageFrame):
    """Frame of a stage whose fiber action is the identity: w = 0 and v = I."""

    __slots__ = ()


class CoveringMapHandle:
    """Common interface of stage maps and their composites.

    frame is the single description of a map: the parameter rule, the
    branch choice and the chart derivative; everything else reads it.  A
    branching stage takes branch j on segment j of branch_space (its source,
    or its target when it keeps t), whose interior boundaries are breakpoints.
    """

    name: str = ""
    t_slope: float = 1.0

    def __init__(self, source, target, branch_space=None):
        self.source = source
        self.target = target
        self.branch_space = branch_space

    def breakpoints(self):
        """Sorted interior source parameters where the chart formula can switch."""
        if self.branch_space is None:
            return []
        return self.branch_space.boundaries[1:-1].tolist()

    def frame(self, t: float, x: np.ndarray, side: int = +1) -> StageFrame:
        raise NotImplementedError

    def apply_fiber(self, t: float, x: np.ndarray, side: int = +1):
        fr = self.frame(t, x, side)
        return fr.t_out, fr.x_out

    def apply_raw(self, t: float, x: np.ndarray, side: int = +1):
        t_out, x_out = self.apply_fiber(t, np.asarray(x, dtype=float), side)
        return self.target.seg_of(t_out, side), t_out, x_out

    def apply_point(self, p: MTPoint) -> MTPoint:
        seg, t, x, _ = self.source.normalize_raw(p.seg, p.t, p.x)
        t_out, x_out = self.apply_fiber(t, x, +1)
        return MTPoint(self.target.seg_of(t_out, +1), t_out,
                       torus_representative(x_out))

    def describe(self) -> str:
        return self.name or type(self).__name__


@functools.lru_cache(maxsize=4)
def _identity_blocks(shape: tuple):
    """Read-only 0 and I, shaped as w and v of a frame at points of the
    given shape; they hold no run data, so frames share them.  I is a
    broadcast view; 0 is an entry-major array (_small.zeros), since a
    product with a broadcast takes C order and a sum of the two layouts
    writes across the short axis.  So each cached shape keeps one float
    per point coordinate; a run frames at one or two shapes (its grid, and
    single points)."""
    zero = zeros(shape[:-1], shape[-1:])
    zero.flags.writeable = False
    return (zero, np.broadcast_to(np.eye(shape[-1]), shape + shape[-1:]))


def _identity_frame(t, x, slope=1.0):
    # w and v are read-only 0 and I: no reader of a frame writes into them
    return IdentityFrame(t, x, slope, *_identity_blocks(x.shape))


def _handle_frame(t_out, handle, x):
    if is_identity(handle):
        return _identity_frame(t_out, x)
    x_out, v = handle.jet(x)
    return StageFrame(t_out, x_out, 1.0, _identity_blocks(x.shape)[0], v)


class StageH(CoveringMapHandle):
    """Unwinds the wrap monodromy across the tower, one level per branch.

    On branch j (parameter in [j, j+1] / (k+1)) the fiber moves along the
    level-(k-j) connecting isotopy at local time (k+1) t - j; the last
    branch is the identity.
    """

    name = "H"

    def __init__(self, tower, source, target):
        super().__init__(source, target, branch_space=target)
        self.tower = tower
        self.k = tower.k

    def frame(self, t, x, side=+1):
        x = np.asarray(x, dtype=float)
        j = self.branch_space.seg_of(t, side)
        if j == self.k:
            return _identity_frame(t, x)
        x_out, v, dx_ds = self.tower.isotopy(self.k - j).jet(float((self.k + 1) * t - j), x)
        return StageFrame(t, x_out, 1.0, (self.k + 1) * dx_ds, v)


class StageF(CoveringMapHandle):
    """Aligns every branch to the top tower level: x -> h_k^{-1}(h_{k-j}(x))."""

    name = "F"

    def __init__(self, tower, source, target):
        super().__init__(source, target, branch_space=source)
        self._branch_maps = [identity_map(tower.dim)]
        self._branch_maps += [tower.aligned(j) for j in range(1, tower.k + 1)]

    def frame(self, t, x, side=+1):
        x = np.asarray(x, dtype=float)
        j = self.branch_space.seg_of(t, side)
        return _handle_frame(t, self._branch_maps[j], x)


class StageP(CoveringMapHandle):
    """Fiberwise power of the torus self-cover; the parameter is untouched."""

    name = "P"

    def __init__(self, dim, base, k, source, target):
        if k < 1:
            raise UnsupportedForm("fiber cover stage needs k >= 1")
        super().__init__(source, target)
        self.handle = HomothetyMap(dim, base ** k)

    def frame(self, t, x, side=+1):
        return _handle_frame(t, self.handle, np.asarray(x, dtype=float))


class StageR(CoveringMapHandle):
    """Stretch onto the long mapping torus: t -> (2m+1) t."""

    name = "R"

    def __init__(self, m, source, target):
        super().__init__(source, target)
        self.t_slope = float(2 * m + 1)

    def frame(self, t, x, side=+1):
        return _identity_frame(self.t_slope * t, np.asarray(x, dtype=float),
                               slope=self.t_slope)


class StageS(CoveringMapHandle):
    """Inserts the untwisting isotopy on every odd unit segment."""

    name = "S"

    def __init__(self, psi: IsotopyHandle, source, target):
        super().__init__(source, target, branch_space=target)
        self.psi = psi

    def frame(self, t, x, side=+1):
        x = np.asarray(x, dtype=float)
        j = self.branch_space.seg_of(t, side)
        if j % 2 == 0:
            return _identity_frame(t, x)
        x_out, v, dx_ds = self.psi.jet(t - j, x)
        return StageFrame(t, x_out, 1.0, dx_ds, v)


class StageT(CoveringMapHandle):
    """Applies the base gluing map on every odd unit segment."""

    name = "T"

    def __init__(self, h: TorusMapHandle, source, target):
        super().__init__(source, target, branch_space=source)
        self.h = h

    def frame(self, t, x, side=+1):
        x = np.asarray(x, dtype=float)
        j = self.branch_space.seg_of(t, side)
        if j % 2 == 0:
            return _identity_frame(t, x)
        return _handle_frame(t, self.h, x)


class StageQ(CoveringMapHandle):
    """Folds the unit segments of the twisted product back onto one."""

    name = "Q"

    def __init__(self, source, target):
        super().__init__(source, target, branch_space=source)

    def frame(self, t, x, side=+1):
        j = self.branch_space.seg_of(t, side)
        return _identity_frame(t - j, np.asarray(x, dtype=float))


class CompositeCovering(CoveringMapHandle):
    """Chain of stages applied left to right."""

    def __init__(self, stages, name=""):
        if not stages:
            raise UnsupportedForm("empty composite")
        for a, b in zip(stages, stages[1:]):
            if a.target is not b.source:
                raise UnsupportedForm(
                    f"stage chain broken between {a.describe()} and {b.describe()}"
                )
        super().__init__(stages[0].source, stages[-1].target)
        self.stages = list(stages)
        self.name = name

    @property
    def t_slope(self):
        slope = 1.0
        for st in self.stages:
            slope *= st.t_slope
        return slope

    def breakpoints(self):
        points = []
        pre = 1.0
        circ = self.source.circumference
        for st in self.stages:
            for b in st.breakpoints():
                tb = b / pre
                if 1e-12 < tb < circ - 1e-12:
                    points.append(tb)
            pre *= st.t_slope
        uniq = []
        for tb in sorted(points):
            if not uniq or tb - uniq[-1] > 1e-12:
                uniq.append(tb)
        return uniq

    def frame(self, t, x, side=+1):
        fr = _identity_frame(t, np.asarray(x, dtype=float))
        for st in self.stages:
            if isinstance(st, StageP) and not isinstance(fr, IdentityFrame):
                # P is x -> c x with Jacobian c I: scale, with no jet and no product
                c = st.handle.factor
                fr = fr._replace(x_out=fr.x_out * c, w=c * fr.w, v=c * fr.v)
                continue
            step = st.frame(fr.t_out, fr.x_out, side)
            # an identity frame passes the other side's w and v through unchanged
            if isinstance(step, IdentityFrame):
                fr = fr._replace(t_out=step.t_out, x_out=step.x_out, slope=step.slope * fr.slope)
            elif isinstance(fr, IdentityFrame):
                fr = step._replace(slope=step.slope * fr.slope, w=fr.slope * step.w)
            else:
                fr = StageFrame(step.t_out, step.x_out, *step.push(fr.slope, fr.w),
                                matmul(step.v, fr.v))
        return fr

    def fiber_handle_at(self, t):
        """Torus map handle for the fiber action at parameter t."""
        return FiberSlice(self, t)


class FiberSlice(TorusMapHandle):
    """Fiber action of a chart map at a fixed parameter, read off its frame."""

    def __init__(self, cover: CoveringMapHandle, t: float):
        self.cover = cover
        self.t = t
        self.dim = cover.source.dim

    def jet(self, x):
        fr = self.cover.frame(self.t, x, +1)
        return fr.x_out, fr.v

    def describe(self):
        return f"{self.cover.describe()} at t={self.t}"


# ---------------------------------------------------------------------------
# Space and map builders


def _base_spaces(h, m):
    """Chart spaces of the base cover: unit, long, paired and twisted."""
    long = 2 * m + 1
    unit_bounds = [float(i) for i in range(long + 1)]
    h_square = compose(h, h)
    prime_gluings = [identity_map(h.dim) if i % 2 == 0 else h_square
                     for i in range(long - 1)]
    tilde_gluings = [h for _ in range(long - 1)]
    return {
        "mh": mapping_torus(h, name="unit"),
        "mbar": mapping_torus(h, circumference=float(long), name="long"),
        "mprime": MultiMappingTorus(unit_bounds, prime_gluings, h, name="paired"),
        "mtilde": MultiMappingTorus(unit_bounds, tilde_gluings, h, name="twisted"),
    }


def build_spaces(tower, m):
    """All chart spaces for the fiber-cover and base-cover constructions.

    Returns a dict sharing the unit mapping torus between both chains so
    composites can be stitched together.
    """
    h = tower.level(0)
    k = tower.k
    width = 1.0 / (k + 1)
    nk_bounds = [i * width for i in range(k + 1)] + [1.0]
    nk_gluings = [compose(tower.level(k - i - 1).inverse(), tower.level(k - i))
                  for i in range(k)]
    spaces = _base_spaces(h, m)
    spaces["nk"] = MultiMappingTorus(nk_bounds, nk_gluings, h, name="tower-segments")
    spaces["mhk"] = mapping_torus(tower.level(k), name="top-level")
    return spaces


def _fiber_stages(tower, spaces):
    """Stages H, F, P of the fiber cover, unit torus to unit torus."""
    return [
        StageH(tower, spaces["mh"], spaces["nk"]),
        StageF(tower, spaces["nk"], spaces["mhk"]),
        StageP(tower.dim, tower.base, tower.k, spaces["mhk"], spaces["mh"]),
    ]


def _base_stages(h, m, psi, spaces):
    """Stages R, S, T, Q of the base cover, unit torus to unit torus."""
    return [
        StageR(m, spaces["mh"], spaces["mbar"]),
        StageS(psi, spaces["mbar"], spaces["mprime"]),
        StageT(h, spaces["mprime"], spaces["mtilde"]),
        StageQ(spaces["mtilde"], spaces["mh"]),
    ]


def build_stage_inventory(tower, m, psi):
    """Every stage map plus the three composites, keyed by short names."""
    spaces = build_spaces(tower, m)
    fiber = _fiber_stages(tower, spaces)
    base = _base_stages(tower.level(0), m, psi, spaces)
    inventory = {st.name: st for st in fiber + base}
    inventory["pk"] = CompositeCovering(fiber, name="pk")
    inventory["qm"] = CompositeCovering(base, name="qm")
    inventory["f"] = CompositeCovering(fiber + base, name="f")
    return inventory


def build_qm_only(h, m, psi) -> CompositeCovering:
    """Base-cover composite straight from the gluing map, no tower needed."""
    return CompositeCovering(_base_stages(h, m, psi, _base_spaces(h, m)), name="qm")


def build_f(tower, m, psi) -> CompositeCovering:
    return build_stage_inventory(tower, m, psi)["f"]


def fiber_alignment_map(tower) -> CompositeCovering:
    """The two stages that straighten fibers before the fiber homothety."""
    stage_h, stage_f, _ = _fiber_stages(tower, build_spaces(tower, m=1))
    return CompositeCovering([stage_h, stage_f], name="fiber-align")


# ---------------------------------------------------------------------------
# Derivatives, degree data, preimages


def pushforward(cover: CoveringMapHandle, p: MTPoint, v: Tangent,
                return_point: bool = False):
    """Image of a tangent under the chart differential.

    The input is normalized first (transporting v through any seam
    crossings), so the result does not depend on the chart representative.
    """
    seg, t, x, u = cover.source.normalize_raw(p.seg, p.t, p.x, v.u)
    fr = cover.frame(t, x, +1)
    w = Tangent(*fr.push(v.a, u))
    if return_point:
        q = MTPoint(cover.target.seg_of(fr.t_out, +1), fr.t_out,
                    torus_representative(fr.x_out))
        return w, q
    return w


def differential(cover: CoveringMapHandle, p: MTPoint) -> np.ndarray:
    """Full (n+1) x (n+1) chart Jacobian at the canonical representative."""
    seg, t, x, _ = cover.source.normalize_raw(p.seg, p.t, p.x)
    return cover.frame(t, x, +1).matrix()


def _probe_parameter(cover: CoveringMapHandle) -> float:
    """Parameter in the widest branch gap, away from every breakpoint."""
    circ = cover.source.circumference
    knots = [0.0] + list(cover.breakpoints()) + [circ]
    gaps = [(b - a, a, b) for a, b in zip(knots, knots[1:])]
    _, a, b = max(gaps)
    return a + (b - a) / 2.0


def pi1_linear_part(cover: CoveringMapHandle) -> np.ndarray:
    """Integer matrix induced on the lattice of deck translations.

    The base slope comes from the chart t-rule; the fiber block is measured
    from the translation law of the fiber lift and must be integral.
    """
    n = cover.source.dim
    slope = cover.t_slope
    mu = round(slope)
    if abs(slope - mu) > _INTEGRAL_TOL:
        raise NonIntegral(f"base slope {slope} is not an integer")
    rng = np.random.default_rng(12345)
    x0 = rng.random(n)
    # x0 and its n unit translates, as one batch
    points = x0 + np.vstack([np.zeros(n), np.eye(n)])
    images = cover.frame(_probe_parameter(cover), points, +1).x_out
    cols = (images[1:] - images[0]).T
    rounded = np.round(cols)
    if float(np.abs(cols - rounded).max()) > _INTEGRAL_TOL:
        raise NonIntegral(
            f"fiber translation law deviates by {float(np.abs(cols - rounded).max()):.3e}"
        )
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    out[0, 0] = mu
    out[1:, 1:] = rounded.astype(np.int64)
    return out


class Preimages(NamedTuple):
    """Sorted preimages, the lattice map that seeded them, their least gap."""

    points: list
    pi1_linear_part: np.ndarray
    min_separation: float


def preimages(cover: CoveringMapHandle, q: MTPoint, newton_tol: float = 1e-12) -> Preimages:
    """All preimages of q, refined by Newton on the fiber lift.

    Requires single-segment source and target charts (the unit mapping
    torus on both ends, as for the composite covers built here).  Seeds
    come from the linear model: base preimages are (t + j) / slope and
    fiber seeds are coset representatives divided by the fiber degree.
    """
    if cover.source.n_segments != 1 or cover.target.n_segments != 1:
        raise UnsupportedForm("preimage search expects single-segment charts")
    q = cover.target.normalize(q)
    linear = pi1_linear_part(cover)
    mu = int(linear[0, 0])
    fiber_deg = linear[1:, 1:]
    n = cover.source.dim
    scale = int(fiber_deg[0, 0])
    if not np.array_equal(fiber_deg, scale * np.eye(n, dtype=np.int64)):
        raise UnsupportedForm("fiber degree matrix is not scalar")
    expected = mu * scale ** n
    cosets = np.array(list(itertools.product(range(scale), repeat=n)), dtype=float)
    found = []
    for j in range(mu):
        t_j = (q.t + j) / mu
        targets = q.x[None, :] + cosets
        # the coset seeds, not the targets, keep the preimages distinct
        x = newton_invert(cover.fiber_handle_at(t_j), targets, newton_tol,
                          x0=targets / scale)
        branch = MTPoint(0, t_j, torus_representative(x))
        gaps = cover.target.distance(cover.apply_point(branch), q)
        worst = float(gaps.max(initial=0.0))
        if worst > _PREIMAGE_TOL:
            raise MissingPreimage(
                f"candidate at t={t_j:.6f} maps {worst:.3e} away from the target"
            )
        found.extend(MTPoint(0, t_j, row) for row in branch.x)
    gap, i, j = cover.source.min_separation(found)
    if gap < _DEDUPE_TOL:
        raise DuplicatePreimage(
            f"candidates {i} and {j} collapsed within {_DEDUPE_TOL}"
        )
    if len(found) != expected:
        raise MissingPreimage(f"found {len(found)} of {expected} preimages")
    found.sort(key=lambda p: (round(p.t, 12),) + tuple(np.round(p.x, 12)))
    return Preimages(found, linear, gap)


def orbit(cover: CoveringMapHandle, p: MTPoint, steps: int):
    """Forward orbit [p, f(p), ..., f^steps(p)] with canonical points."""
    points = [cover.source.normalize(p)]
    for _ in range(steps):
        points.append(cover.apply_point(points[-1]))
    return points
