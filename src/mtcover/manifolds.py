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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotVertical, UnsupportedForm
from .torus_maps import TorusMapHandle, torus_representative

_SEAM_DEDUPE_TOL = 1e-12  # breakpoints this close to 0 or the circumference are the wrap


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


def split(v: Tangent) -> tuple[Tangent, Tangent]:
    """Exact splitting into vertical and base-orthogonal parts."""
    return Tangent(0.0, v.u.copy()), Tangent(v.a, np.zeros_like(v.u))


def norm_0_vertical(v: Tangent) -> float:
    """Euclidean fiber norm of a vertical tangent."""
    if v.a != 0.0:
        raise NotVertical(f"tangent has base component {v.a}")
    return float(np.linalg.norm(v.u))


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

    def normalize_raw(self, seg: int, t: float, x: np.ndarray, tangents=()):
        """Move a chart representative to canonical form.

        x may be a batch (..., n) sharing the scalar (seg, t); tangents is a
        sequence of arrays whose leading fiber axes match x with trailing
        shape (n,) or (n, m); each is transported through every crossing by
        the gluing Jacobian.  Returns (seg, t, x, tangents).
        """
        x = np.asarray(x, dtype=float)
        tangents = [np.asarray(v, dtype=float) for v in tangents]
        if not 0 <= seg < self.n_segments:
            raise UnsupportedForm(f"segment {seg} out of range")
        guard = 0
        while True:
            guard += 1
            if guard > 10000:  # pragma: no cover
                raise UnsupportedForm("normalization did not terminate")
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
                return seg, t, x, tangents
            x, tangents = self._push(handle, x, tangents)

    @staticmethod
    def _push(handle: TorusMapHandle, x, tangents):
        if not tangents:
            return handle.apply(x), tangents
        y, jac = handle.jet(x)
        moved = []
        for v in tangents:
            if v.shape[-1] == jac.shape[-1] and v.ndim == x.ndim:
                moved.append(np.einsum("...ij,...j->...i", jac, v))
            else:
                moved.append(jac @ v)
        return y, moved

    def normalize(self, p: MTPoint) -> MTPoint:
        seg, t, x, _ = self.normalize_raw(p.seg, p.t, p.x)
        return MTPoint(seg, t, torus_representative(x))

    def seams(self):
        """Interior seams as (boundary parameter, gluing handle) pairs."""
        return [(float(self.boundaries[i + 1]), self.gluings[i])
                for i in range(len(self.gluings))]

    def distance(self, p: MTPoint, q: MTPoint):
        """Distance between nearby points, modulo the identifications.

        Compares in a common chart: directly when the segments agree, and
        through a single seam or wrap crossing when they are adjacent.
        Distant points in non-adjacent segments return inf.

        p.x and q.x may be batches that broadcast against each other, such
        as (N, 1, n) against (1, M, n); each side shares its scalar (seg, t).
        The result has the broadcast shape without the fiber axis, and is a
        float for two single points.  Each element equals the single-point
        call whenever the gluings evaluate pointwise; a Newton-inverse gluing
        iterates until the whole batch meets its tolerance.
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
                t_gap = (self.circumference - a.t) + (b.t - self.boundaries[0])
            else:
                handle = self.gluings[a.seg]
                t_gap = (self.boundaries[a.seg + 1] - a.t) + (b.t - self.boundaries[b.seg])
            gap = np.minimum(gap, _chart_gap(t_gap, _apply_pointwise(handle, a.x) - b.x))
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


def _apply_pointwise(handle: TorusMapHandle, x: np.ndarray) -> np.ndarray:
    # One point per matrix product: numpy sums a multi-term field through
    # BLAS in an order that depends on the batch shape, so a (M, n) batch
    # can differ from M single-point calls in the last bit.
    return handle.apply(x[..., None, :])[..., 0, :]


def _chart_gap(dt: float, dx: np.ndarray) -> np.ndarray:
    dx = dx - np.round(dx)
    return np.sqrt(dt * dt + np.sum(dx * dx, axis=-1))


def mapping_torus(h: TorusMapHandle, circumference: float = 1.0,
                  name: str = "") -> MultiMappingTorus:
    """Single segment [0, circumference] with wrap map h."""
    return MultiMappingTorus([0.0, circumference], [], h, name=name)


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
        x = np.asarray(x, dtype=float)
        if not 0.0 <= t <= 1.0:
            raise UnsupportedForm(f"metric chart needs t in [0,1], got {t}")
        jac = self.h.jacobian(x)
        pulled = np.swapaxes(jac, -1, -2) @ jac
        eye = np.eye(self.dim)
        return (1.0 - t) * eye + t * pulled

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

    For each breakpoint of the map (including source seams and the wrap),
    evaluates the two one-sided representatives of the same source point
    and measures the distance of the images in the target space.
    """
    space = covering.source
    target = covering.target
    if rng is None:
        rng = np.random.default_rng(0)
    points = [("interior", t_b) for t_b in covering.breakpoints()
              if _SEAM_DEDUPE_TOL < t_b < space.circumference - _SEAM_DEDUPE_TOL]
    points.append(("wrap", space.circumference))
    seam_params = {round(b, 12): g for b, g in space.seams()}
    worst = 0.0
    for kind, t_b in points:
        y = rng.random((n_samples, space.dim))
        if kind == "wrap":
            right = (0.0, space.wrap.apply(y))
        else:
            g = seam_params.get(round(t_b, 12))
            right = (t_b, y if g is None else g.apply(y))
        seg_l, t_l, x_l = covering.apply_raw(t_b, y, -1)
        seg_r, t_r, x_r = covering.apply_raw(*right, +1)
        gaps = target.distance(MTPoint(seg_l, t_l, x_l), MTPoint(seg_r, t_r, x_r))
        worst = max(worst, float(gaps.max()))
    return worst
