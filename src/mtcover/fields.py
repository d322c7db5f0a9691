"""Periodic displacement fields given by finite trigonometric sums.

A field on the n-torus is a finite sum of terms

    c * sin(2 pi <b, x>)   or   c * cos(2 pi <b, x>)

with coefficient vector c in R^n and integer frequency vector b.  Such
fields are Z^n-periodic by construction, have exact Jacobians, and are
closed under the frequency dilation used to lift maps through the
standard torus self-cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedForm

SIN = 0
COS = 1

_PHASE_NAMES = {"sin": SIN, "cos": COS}


@dataclass(frozen=True)
class TrigDisplacementField:
    """Finite trigonometric sum with vector coefficients.

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
        freqs = np.atleast_2d(np.asarray(self.freqs, dtype=np.int64))
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
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "phases", phases)

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
            freqs.append(np.asarray(freq, dtype=np.int64))
            phases.append(phase)
        if not coeffs:
            return cls.zero(dim)
        return cls(dim, np.stack(coeffs), np.stack(freqs),
                   np.asarray(phases, dtype=np.int64))

    def _angles(self, x: np.ndarray) -> np.ndarray:
        # (..., T) array of 2 pi <b_t, x>
        return 2.0 * np.pi * (x @ self.freqs.astype(float).T)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Displacement vectors at points x, shape (..., n) -> (..., n)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"points have dim {x.shape[-1]}, field has {self.dim}")
        if self.n_terms == 0:
            return np.zeros_like(x)
        theta = self._angles(x)
        waves = np.where(self.phases == SIN, np.sin(theta), np.cos(theta))
        return waves @ self.coeffs

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact Jacobian of the displacement, shape (..., n, n)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"points have dim {x.shape[-1]}, field has {self.dim}")
        out_shape = x.shape + (self.dim,)
        if self.n_terms == 0:
            return np.zeros(out_shape)
        theta = self._angles(x)
        # d/dx_j of sin(theta) is cos(theta) * 2 pi b_j; cos goes to -sin.
        dwaves = np.where(self.phases == SIN, np.cos(theta), -np.sin(theta))
        scaled_freqs = 2.0 * np.pi * self.freqs.astype(float)
        return np.einsum("...t,ti,tj->...ij", dwaves, self.coeffs, scaled_freqs)

    def dilate(self, factor: int) -> "TrigDisplacementField":
        """Replace v(x) by v(factor * x) / factor.

        This is the exact transform a displacement undergoes when the map
        id + v is lifted through the degree-factor^n torus self-cover.
        """
        factor = int(factor)
        if factor < 2:
            raise UnsupportedForm("dilation factor must be an integer >= 2")
        return TrigDisplacementField(self.dim, self.coeffs / factor,
                                     self.freqs * factor, self.phases)

    def scaled(self, c: float) -> "TrigDisplacementField":
        return TrigDisplacementField(self.dim, self.coeffs * float(c),
                                     self.freqs, self.phases)

    def plus(self, other: "TrigDisplacementField") -> "TrigDisplacementField":
        if other.dim != self.dim:
            raise DimensionMismatch("cannot add fields of different dims")
        return TrigDisplacementField(
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

    def is_invariant_along(self, moved: np.ndarray) -> bool:
        """True if the field value cannot change when only `moved` coords move."""
        if self.n_terms == 0:
            return True
        return bool(np.all(self.freqs[:, np.asarray(moved, dtype=bool)] == 0))

    def is_self_invariant(self) -> bool:
        """True if v(x + t v(x)) == v(x) for all t (exact shear algebra)."""
        return self.is_invariant_along(self.moved_coordinates())


def jacobian_sup_norm(field: TrigDisplacementField, per_axis: int = 64) -> float:
    """Max spectral norm of the displacement Jacobian on a regular grid."""
    grid = unit_grid(field.dim, per_axis)
    jac = field.jacobian(grid)
    if jac.size == 0:
        return 0.0
    return float(np.linalg.norm(jac, ord=2, axis=(-2, -1)).max())


def unit_grid(dim: int, per_axis: int) -> np.ndarray:
    """Regular grid on [0,1)^dim, shape (per_axis**dim, dim)."""
    axes = [np.arange(per_axis) / per_axis] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def shear_field(eps: float, dim: int = 2, freq: int = 1) -> TrigDisplacementField:
    """The standard example: x_1 shifted by eps * sin(2 pi freq * x_2)."""
    coeff = np.zeros(dim)
    coeff[0] = eps
    fvec = np.zeros(dim, dtype=np.int64)
    fvec[1] = freq
    return TrigDisplacementField.from_terms(dim, [(coeff, fvec, "sin")])
