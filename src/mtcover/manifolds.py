"""Mapping tori built from segments, seam gluings, and a wrap map.

A space here is a disjoint union of parameter segments [a_i, a_{i+1}] x T^n
with the right edge of each segment glued to the left edge of the next by a
torus diffeomorphism, and the last right edge glued back to the first left
edge by the wrap map.  A point is stored in chart form (segment, t, fiber);
the canonical representative uses the half-open segment [a_i, a_{i+1}) and
fiber coordinates in [0,1)^n.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._small import entry_major, gram, matvec, whitener
from .errors import DimensionMismatch, NonFiniteSlice, UnsupportedForm
from .torus_maps import TorusMapHandle, torus_representative

_MAX_WINDINGS = 10 ** 5  # how far from the chart normalize_raw takes a parameter


@dataclass
class MTPoint:
    """Chart representative (segment index, parameter, fiber point)."""

    seg: int
    t: float
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)


@dataclass
class Tangent:
    """Tangent vector (a, u): a along the base parameter, u in the fiber."""

    a: float
    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)


class MultiMappingTorus:
    """Segments with seam gluings and a wrap identification."""

    def __init__(self, boundaries, gluings, wrap: TorusMapHandle, name: str = ""):
        self.boundaries = np.asarray(boundaries, dtype=float)
        if self.boundaries.ndim != 1 or len(self.boundaries) < 2:
            raise UnsupportedForm("need at least one segment")
        if np.any(np.diff(self.boundaries) <= 0):
            raise UnsupportedForm("segment boundaries must increase")
        self.gluings = list(gluings)
        if len(self.gluings) != len(self.boundaries) - 2:
            raise UnsupportedForm("need one gluing per interior seam")
        self.wrap = wrap
        self.dim = wrap.dim
        for g in self.gluings:
            if g.dim != self.dim:
                raise DimensionMismatch("gluing dimension mismatch")
        self.name = name
        self._inverses = {}  # seam index (-1: wrap) -> inverse handle, built on first use

    @property
    def n_segments(self) -> int:
        return len(self.boundaries) - 1

    @property
    def circumference(self) -> float:
        return float(self.boundaries[-1] - self.boundaries[0])

    def seg_of(self, t: float, side: int = +1) -> int:
        """Segment whose chart contains parameter t.

        side=+1 uses half-open segments [a, b); side=-1 uses (a, b], so a
        point exactly on a seam belongs to the lower segment.
        """
        if side >= 0:
            j = int(np.searchsorted(self.boundaries, t, side="right")) - 1
        else:
            j = int(np.searchsorted(self.boundaries, t, side="left")) - 1
        return min(max(j, 0), self.n_segments - 1)

    def _inverse(self, i: int) -> TorusMapHandle:
        if i not in self._inverses:
            self._inverses[i] = (self.wrap if i < 0 else self.gluings[i]).inverse()
        return self._inverses[i]

    def normalize_raw(self, seg: int, t: float, x: np.ndarray, u: np.ndarray | None = None):
        """Move a chart representative to canonical form.

        x may be a batch (..., n) sharing the scalar (seg, t); the tangent
        vector u, if given, is shaped like x and transported through every
        crossing by the gluing Jacobian.  Returns (seg, t, x, u).
        """
        x = np.asarray(x, dtype=float)
        if u is not None:
            u = np.asarray(u, dtype=float)
        if not 0 <= seg < self.n_segments:
            raise UnsupportedForm(f"segment {seg} out of range")
        # each winding costs a wrap evaluation; NaN and infinities fail too
        if not abs(t - self.boundaries[0]) <= _MAX_WINDINGS * self.circumference:
            raise UnsupportedForm(f"parameter {t} is more than {_MAX_WINDINGS} windings "
                                  "from the chart")
        while True:
            if t >= self.boundaries[seg + 1]:
                if seg == self.n_segments - 1:
                    handle, seg, t = self.wrap, 0, t - self.circumference
                else:
                    handle, seg = self.gluings[seg], seg + 1
            elif t < self.boundaries[seg]:
                if seg == 0:
                    handle, seg, t = self._inverse(-1), self.n_segments - 1, t + self.circumference
                else:
                    handle, seg = self._inverse(seg - 1), seg - 1
            else:
                return seg, t, x, u
            if u is None:
                x = handle.apply(x)
            else:
                x, jac = handle.jet(x)
                u = matvec(jac, u)

    def normalize(self, p: MTPoint) -> MTPoint:
        seg, t, x, _ = self.normalize_raw(p.seg, p.t, p.x)
        return MTPoint(seg, t, torus_representative(x))

    def distance(self, p: MTPoint, q: MTPoint):
        """Distance between nearby points, modulo the identifications.

        Compares in a common chart: directly when the segments agree, and
        through a single seam or wrap crossing when they are adjacent.
        Distant points in non-adjacent segments return inf.

        p.x and q.x may be batches that broadcast against each other, such
        as (N, 1, n) against (1, M, n); each side shares its scalar (seg, t).
        The result has the broadcast shape without the fiber axis, and is a
        float for two single points.  Each element matches the single-point
        call to rounding, not bit for bit: a gluing evaluates the batch as
        one product, whose multi-term sums BLAS may order by batch shape,
        and a Newton-inverse gluing iterates until the whole batch meets
        its tolerance.
        """
        p = self.normalize(p)
        q = self.normalize(q)
        gap = np.full(np.broadcast_shapes(p.x.shape, q.x.shape)[:-1], np.inf)
        if p.seg == q.seg:
            gap = np.minimum(gap, _chart_gap(p.t - q.t, p.x - q.x))
        for a, b in ((p, q), (q, p)):
            nxt = (a.seg + 1) % self.n_segments
            if nxt != b.seg:
                continue
            if a.seg == self.n_segments - 1:
                handle = self.wrap
                t_gap = (self.boundaries[-1] - a.t) + (b.t - self.boundaries[0])
            else:
                handle = self.gluings[a.seg]
                t_gap = (self.boundaries[a.seg + 1] - a.t) + (b.t - self.boundaries[b.seg])
            gap = np.minimum(gap, _chart_gap(t_gap, handle.apply(a.x) - b.x))
        return float(gap) if gap.ndim == 0 else gap

    def min_separation(self, points):
        """Smallest pairwise distance among points, as (gap, i, j) with i < j.

        Points sharing (seg, t) form a group; each pair of groups is measured
        by one broadcast distance call, and a group against itself by its
        strict upper triangle, which suffices because distance is symmetric
        bit for bit.  Returns (inf, None, None) for fewer than two points.
        """
        groups = {}
        for idx, p in enumerate(points):
            groups.setdefault((p.seg, p.t), []).append(idx)
        keys = list(groups)
        fibers = [np.stack([points[i].x for i in groups[key]]) for key in keys]
        best = (float("inf"), None, None)
        for a, b in itertools.combinations_with_replacement(range(len(keys)), 2):
            gaps = self.distance(MTPoint(*keys[a], fibers[a][:, None, :]),
                                 MTPoint(*keys[b], fibers[b][None, :, :]))
            if a == b:
                gaps[np.tril_indices_from(gaps)] = np.inf
            r, c = np.unravel_index(np.argmin(gaps), gaps.shape)
            if gaps[r, c] < best[0]:
                i, j = sorted((groups[keys[a]][r], groups[keys[b]][c]))
                best = (float(gaps[r, c]), i, j)
        return best


def _chart_gap(dt: float, dx: np.ndarray) -> np.ndarray:
    dx = dx - np.round(dx)
    return np.sqrt(dt * dt + np.sum(dx * dx, axis=-1))


def mapping_torus(h: TorusMapHandle, circumference: float = 1.0,
                  name: str = "") -> MultiMappingTorus:
    """Single segment [0, circumference] with wrap map h."""
    return MultiMappingTorus([0.0, circumference], [], h, name=name)


def _run_grid(grid: np.ndarray) -> np.ndarray:
    """A read-only copy of grid that owns its data, so that each field's jet
    at it is computed once (TrigDisplacementField.jet).  It is entry-major,
    each coordinate contiguous over the points, as the blocks of _small are,
    so the frames' points x + v(x) keep that layout."""
    grid = entry_major(grid)
    grid.flags.writeable = False
    return grid


class Sample:
    """The points a run's sweeps measure at: t_res parameter slices times a
    fiber point set, with its metric's fiber Gram factored there.

    It sweeps exactly the points it is given.  A run's are unit_grid's
    quotient by the field's unused axes (measure_constants), where every
    per-point quantity is the tensor grid's own; a library caller may pass
    any point set.  It owns the grid, a read-only copy of the one it is
    given: every sweep of a run frames its maps at that one array, so each
    field's jet there is computed once per run.  slices() is the one slice
    rule.  On a fixed grid the Gram is affine in t, M(t) = (1-t) I + t D
    with D = Dh^T Dh, so one eigendecomposition D = Q diag(lam) Q^T whitens
    every slice: W(t) = Q diag((1-t) + t lam)^(-1/2) has W^T M(t) W = I.
    The eigh runs on first use, since the K sweep never whitens; a forked
    sweep worker that runs it keeps its own copy, which the caller
    recomputes if it needs it.  The sample holds its metric, and the metric
    does not hold the sample, so no reference cycle forms.
    """

    def __init__(self, metric: MetricG, grid: np.ndarray, t_res: int):
        self.metric, self.t_res = metric, t_res
        self.grid = _run_grid(grid)
        self.d = metric.fiber_gram(1.0, self.grid)
        # eigh returns NaN for NaN input, outside the guard of the sweeps
        if not np.isfinite(self.d).all():
            raise NonFiniteSlice("slice t=1.0 gave a non-finite source Gram")

    def slices(self, closed: bool = False) -> list[float]:
        """The parameter slices i / t_res of [0, 1), in order.  closed adds
        t = 1: chart-level (flat-norm) quantities differ between the two
        seam charts, so their extrema need both endpoints.  A count that
        numpy cannot address raises MemoryError before any allocation."""
        t_res = self.t_res
        if t_res + 1 > sys.maxsize // 8:
            raise MemoryError(f"{t_res} parameter slices are more than numpy can address")
        return (np.linspace(0.0, 1.0, t_res + 1) if closed else np.arange(t_res) / t_res).tolist()

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, Q) of D, entry-major, so that every slice's whitener is
        entry-major too."""
        return tuple(entry_major(a) for a in np.linalg.eigh(self.d))

    def whitener(self, t: float) -> np.ndarray:
        lam, q = self.eigh
        return whitener((1.0 - t) + t * lam, q)


class MetricG:
    """Interpolated metric on the unit mapping torus of h.

    On the chart [0,1) x T^n the Gram matrix is block diagonal: 1 on the
    base direction and (1-t) I + t Dh(x)^T Dh(x) on the fiber, which makes
    the wrap identification an isometry.
    """

    def __init__(self, h: TorusMapHandle):
        self.h = h
        self.dim = h.dim

    def fiber_gram(self, t: float, x: np.ndarray) -> np.ndarray:
        """(1-t) I + t Dh^T Dh at the fiber points x, batched; Dh^T Dh is
        _small.gram."""
        x = np.asarray(x, dtype=float)
        if not 0.0 <= t <= 1.0:
            raise UnsupportedForm(f"metric chart needs t in [0,1], got {t}")
        return (1.0 - t) * np.eye(self.dim) + t * gram(self.h.jacobian(x))

    def gram(self, p: MTPoint) -> np.ndarray:
        m = self.fiber_gram(p.t, p.x)
        full = np.zeros(m.shape[:-2] + (self.dim + 1, self.dim + 1))
        full[..., 0, 0] = 1.0
        full[..., 1:, 1:] = m
        return full

    def norm(self, p: MTPoint, v: Tangent) -> float:
        m = self.fiber_gram(p.t, p.x)
        return float(np.sqrt(v.a * v.a + v.u @ m @ v.u))


def check_seams(covering, n_samples: int = 100, rng=None):
    """Max discrepancy of a chart map across every source seam.

    For each breakpoint of the map, and for the wrap, takes sample points
    on the lower side, carries them to the upper side with normalize_raw
    (the gluing of a source seam, the wrap map at the last boundary), and
    measures the distance of the two images in the target space.
    """
    space = covering.source
    target = covering.target
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for t_b in [*covering.breakpoints(), float(space.boundaries[-1])]:
        y = rng.random((n_samples, space.dim))
        _, t_r, y_r, _ = space.normalize_raw(space.seg_of(t_b, -1), t_b, y)
        left = covering.apply_raw(t_b, y, -1)
        right = covering.apply_raw(t_r, y_r, +1)
        gaps = target.distance(MTPoint(*left), MTPoint(*right))
        worst = max(worst, float(gaps.max()))
    return worst
