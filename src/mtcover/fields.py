"""Periodic displacement fields given by finite trigonometric sums.

A field on the n-torus is a finite sum of terms

    c * sin(2 pi <b, x>)   or   c * cos(2 pi <b, x>)

with coefficient vector c in R^n and integer frequency vector b.  Such
fields are Z^n-periodic by construction, have exact Jacobians, and are
closed under the frequency dilation used to lift maps through the
standard torus self-cover.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._small import batched, singular_extremes
from .errors import DimensionMismatch, UnsupportedForm

SIN = 0
COS = 1

_PHASE_NAMES = {"sin": SIN, "cos": COS}
# the angles use float frequencies, which hold every integer up to 2**53
MAX_FREQ = 2 ** 53


@dataclass(frozen=True, eq=False)
class TrigDisplacementField:
    """Finite trigonometric sum with vector coefficients.

    Fields compare and hash by identity, as the jet memo keys them: two
    fields with equal terms are distinct objects with distinct memos.

    Attributes:
        dim: dimension n of the torus.
        coeffs: (T, n) float array, one coefficient vector per term.
        freqs: (T, n) integer array, one frequency vector per term.
        phases: (T,) integer array with entries SIN or COS.
    """

    dim: int
    coeffs: np.ndarray
    freqs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        try:
            freqs = np.atleast_2d(np.asarray(self.freqs, dtype=np.int64))
        except OverflowError as exc:
            raise UnsupportedForm(f"a frequency does not fit in int64: {exc}") from exc
        # both signs: np.abs(-2**63) is negative in int64
        if freqs.max(initial=0) > MAX_FREQ or freqs.min(initial=0) < -MAX_FREQ:
            raise UnsupportedForm(f"a frequency is past {MAX_FREQ} in absolute value")
        phases = np.atleast_1d(np.asarray(self.phases, dtype=np.int64))
        if coeffs.size == 0:
            coeffs = coeffs.reshape(0, self.dim)
        if freqs.size == 0:
            freqs = freqs.reshape(0, self.dim)
        if coeffs.shape != freqs.shape or coeffs.shape[1] != self.dim:
            raise DimensionMismatch(
                f"term arrays {coeffs.shape} vs {freqs.shape} for dim {self.dim}"
            )
        if phases.shape != (coeffs.shape[0],):
            raise DimensionMismatch("one phase flag required per term")
        if not np.all((phases == SIN) | (phases == COS)):
            raise UnsupportedForm("phase flags must be SIN or COS")
        self._set_terms(coeffs, freqs, phases)

    @classmethod
    def _of_valid(cls, dim: int, coeffs: np.ndarray, freqs: np.ndarray,
                  phases: np.ndarray) -> "TrigDisplacementField":
        """The field of term arrays in the form __post_init__ leaves them,
        such as those derived from a valid field, without its checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        out._set_terms(coeffs, freqs, phases)
        return out

    def _set_terms(self, coeffs: np.ndarray, freqs: np.ndarray, phases: np.ndarray):
        """Store valid term arrays and the tables the jet reads from them."""
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "phases", phases)
        # (T, n*n) rows c_t (x) 2 pi b_t: the Jacobian is one matmul
        table = coeffs[:, :, None] * (2.0 * np.pi * freqs)[:, None, :]
        object.__setattr__(self, "_jac_table", table.reshape(len(coeffs), self.dim * self.dim))
        object.__setattr__(self, "_float_freqs", freqs.astype(float))
        is_sin = phases == SIN
        object.__setattr__(self, "_is_sin", is_sin)
        # the phase of every term when they share one, else None
        object.__setattr__(self, "_one_phase",
                           SIN if is_sin.all() else COS if not is_sin.any() else None)
        object.__setattr__(self, "_memo", None)  # (points, disp, jac) of jet

    @property
    def n_terms(self) -> int:
        return self.coeffs.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "TrigDisplacementField":
        return cls(dim, np.zeros((0, dim)), np.zeros((0, dim), dtype=np.int64),
                   np.zeros((0,), dtype=np.int64))

    @classmethod
    def from_terms(cls, dim: int, terms) -> "TrigDisplacementField":
        """Build from an iterable of (coeff, freq, phase) triples.

        phase may be "sin"/"cos" or the SIN/COS constants.
        """
        coeffs, freqs, phases = [], [], []
        for coeff, freq, phase in terms:
            if isinstance(phase, str):
                if phase not in _PHASE_NAMES:
                    raise UnsupportedForm(f"unknown phase {phase!r}")
                phase = _PHASE_NAMES[phase]
            coeffs.append(np.asarray(coeff, dtype=float))
            freqs.append(freq)
            phases.append(phase)
        if not coeffs:
            return cls.zero(dim)
        # the frequencies reach __post_init__ as given, which casts and bounds them
        return cls(dim, np.stack(coeffs), freqs, np.asarray(phases, dtype=np.int64))

    def jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Displacement and exact Jacobian, (..., n) -> (..., n), (..., n, n),
        from one pass over the angles, their sines and their cosines.

        A read-only float array that owns its data, such as a run's fiber
        grid, cannot change, so the field keeps its jet and serves it again
        while that same array comes back.  The memo is keyed by the array's
        identity and holds the array, so the identity cannot be reused; it
        keeps one array, since a run evaluates a field on one grid, and its
        results are read-only.  Every other input is evaluated afresh.

        Both results are entry-major views: the points run along the last
        axis of their base array, so each entry [..., i] or [..., i, j] is
        contiguous over the points.
        """
        x = np.asarray(x, dtype=float)
        if not _memoizable(x):
            return self._jet(x)
        memo = self._memo
        if memo is None or memo[0] is not x:
            memo = (x, *self._jet(x))
            for out in memo[1:]:
                out.flags.writeable = False
            object.__setattr__(self, "_memo", memo)
        return memo[1], memo[2]

    def _jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = self._theta(x)
        waves = self._per_phase(theta, np.sin, np.cos)
        # sum over terms as a (k, T) @ (T, points) product; no terms give zeros
        return (batched(self.coeffs.T @ waves, 1).reshape(x.shape),
                self._dv(theta, x.shape))

    def _theta(self, x: np.ndarray) -> np.ndarray:
        """(T, points) angles 2 pi <b_t, x>, term-major.

        The product always sees x as one (n, points) C-order array, which is
        free for entry-major points such as a run's grid: BLAS sums a single
        term's angle in an order that follows the operand's layout, and the
        jet must not depend on how x is stored."""
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"points have dim {x.shape[-1]}, field has {self.dim}")
        coords = np.ascontiguousarray(x.reshape(-1, self.dim).T)
        return 2.0 * np.pi * (self._float_freqs @ coords)

    def _per_phase(self, theta: np.ndarray, on_sin, on_cos) -> np.ndarray:
        """on_sin on the angles of sin terms, on_cos on those of cos terms;
        one call on all of theta when every term has the same phase."""
        if self._one_phase == SIN:
            return on_sin(theta)
        if self._one_phase == COS:
            return on_cos(theta)
        is_sin = self._is_sin
        out = np.empty_like(theta)
        out[is_sin], out[~is_sin] = on_sin(theta[is_sin]), on_cos(theta[~is_sin])
        return out

    def _dv(self, theta: np.ndarray, shape: tuple) -> np.ndarray:
        # d/dx_j of sin(theta) is cos(theta) * 2 pi b_j; cos goes to -sin
        dwaves = self._per_phase(theta, np.cos, lambda angles: -np.sin(angles))
        rows = (self._jac_table.T @ dwaves).reshape(self.dim, self.dim, -1)
        return batched(rows, 2).reshape(shape + (self.dim,))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Displacement vectors at points x: jet(x)[0]."""
        return self.jet(x)[0]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact Jacobian of the displacement: jet(x)[1]."""
        return self.jet(x)[1]

    def dilate(self, factor: int) -> "TrigDisplacementField":
        """Replace v(x) by v(factor * x) / factor.

        This is the exact transform a displacement undergoes when the map
        id + v is lifted through the degree-factor^n torus self-cover.
        """
        factor = int(factor)
        if factor < 2:
            raise UnsupportedForm("dilation factor must be an integer >= 2")
        if int(np.abs(self.freqs).max(initial=0)) * factor > MAX_FREQ:
            raise UnsupportedForm(f"dilating by {factor} takes a frequency past {MAX_FREQ}")
        return self._of_valid(self.dim, self.coeffs / factor, self.freqs * factor, self.phases)

    def scaled(self, c: float) -> "TrigDisplacementField":
        return self._of_valid(self.dim, self.coeffs * float(c), self.freqs, self.phases)

    def plus(self, other: "TrigDisplacementField") -> "TrigDisplacementField":
        if other.dim != self.dim:
            raise DimensionMismatch("cannot add fields of different dims")
        return self._of_valid(
            self.dim,
            np.concatenate([self.coeffs, other.coeffs]),
            np.concatenate([self.freqs, other.freqs]),
            np.concatenate([self.phases, other.phases]),
        )

    def moved_coordinates(self) -> np.ndarray:
        """Boolean mask of coordinates the displacement can change."""
        mask = np.zeros(self.dim, dtype=bool)
        if self.n_terms:
            mask |= np.any(self.coeffs != 0.0, axis=0)
        return mask

    def unused_axes(self) -> np.ndarray:
        """Boolean mask of the coordinates that no frequency uses.

        An angle 2 pi <b, x> adds 0 * x_j for such a coordinate j, so the
        jet at x does not depend on x_j, and neither does that of any map or
        isotopy built from the field and its lifts: bit for bit where each
        angle is one product, and to rounding where a frequency uses two
        axes, since BLAS rounds that dot product by the point's place in
        the batch.
        """
        return ~np.any(self.freqs != 0, axis=0)

    def is_invariant_along(self, moved: np.ndarray) -> bool:
        """True if the field value cannot change when only `moved` coords move."""
        if self.n_terms == 0:
            return True
        return bool(np.all(self.freqs[:, np.asarray(moved, dtype=bool)] == 0))

    def is_self_invariant(self) -> bool:
        """True if v(x + t v(x)) == v(x) for all t (exact shear algebra)."""
        return self.is_invariant_along(self.moved_coordinates())


def _memoizable(x: np.ndarray) -> bool:
    """True for a read-only float array that owns its data: it cannot change."""
    return not x.flags.writeable and x.flags.owndata


def jacobian_norm_bound(field: TrigDisplacementField) -> float:
    """||E||_2 with E_ij = sum_t |c_t,i| 2 pi |b_t,j|, a certified bound on
    sup_x ||Dv(x)||_2: |Dv(x)| <= E entrywise, and the spectral norm is
    monotone on nonnegative matrices."""
    e = np.abs(field._jac_table).sum(axis=0).reshape(field.dim, field.dim)
    return float(np.linalg.norm(e, ord=2))


def jacobian_sup_norm(field: TrigDisplacementField, per_axis: int = 64) -> float:
    """Max spectral norm of the displacement Jacobian on a regular grid of
    per_axis points per axis.  The Jacobian is the same along an unused
    axis, so it is read on unit_grid's quotient by those axes,
    per_axis^(used axes) points: the tensor grid's maximum, bit for bit."""
    jac = field.jacobian(unit_grid(field.dim, per_axis, field.unused_axes()))
    if jac.size == 0:
        return 0.0
    return float(singular_extremes(jac)[1].max())


def unit_grid(dim: int, per_axis: int, fixed: np.ndarray | None = None) -> np.ndarray:
    """Regular grid on [0,1)^dim, i / per_axis on each axis, in lexicographic
    order, shape (per_axis ** free axes, dim).

    An axis in the boolean mask fixed takes only its first value, 0, so the
    result is the tensor grid's points that are 0 there, in grid order: one
    representative of each line along the fixed axes, with no tensor grid
    built.  A grid numpy cannot address raises MemoryError before anything
    is allocated.
    """
    sizes = [per_axis] * dim if fixed is None else [1 if f else per_axis for f in fixed]
    count = math.prod(sizes)
    if count * dim > sys.maxsize // 8:
        raise MemoryError(f"a grid of {count} points in dimension {dim} is more than "
                          "numpy can address")
    return np.stack(np.unravel_index(np.arange(count), sizes), axis=-1) / per_axis


def shear_field(eps: float, dim: int = 2, freq: int = 1) -> TrigDisplacementField:
    """The standard example: x_1 shifted by eps * sin(2 pi freq * x_2)."""
    coeff = np.zeros(dim)
    coeff[0] = eps
    fvec = [0] * dim
    fvec[1] = freq
    return TrigDisplacementField.from_terms(dim, [(coeff, fvec, "sin")])
