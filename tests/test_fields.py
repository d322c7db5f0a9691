import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover.errors import DimensionMismatch, UnsupportedForm
from mtcover.fields import (
    COS,
    SIN,
    TrigDisplacementField,
    jacobian_norm_bound,
    jacobian_sup_norm,
    shear_field,
    unit_grid,
)

EPS = 0.1


def fd_jacobian(fn, x, step=1e-5):
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        cols.append((fn(x + e) - fn(x - e)) / (2 * step))
    return np.stack(cols, axis=-1)


def random_field(rng, dim=2, n_terms=3, coeff_scale=0.05, max_freq=4):
    coeffs = coeff_scale * rng.standard_normal((n_terms, dim))
    freqs = rng.integers(-max_freq, max_freq + 1, (n_terms, dim))
    phases = rng.integers(0, 2, n_terms)
    return TrigDisplacementField(dim, coeffs, freqs, phases)


def test_empty_field_is_zero():
    zero = TrigDisplacementField.zero(2)
    assert_allclose(zero.evaluate([0.3, 0.7]), [0.0, 0.0])
    assert_allclose(zero.jacobian([0.3, 0.7]), np.zeros((2, 2)))


def test_shear_value():
    v = shear_field(EPS)
    assert_allclose(v.evaluate([0.25, 0.25]), [EPS, 0.0], atol=1e-15)


@pytest.mark.parametrize("offset", [(0, 1), (1, 0), (-2, 3), (5, -5)])
def test_periodicity_shear(offset):
    v = shear_field(EPS)
    x = np.array([0.25, 0.25])
    assert_allclose(v.evaluate(x + np.array(offset, dtype=float)),
                    v.evaluate(x), atol=1e-14)


def test_periodicity_random_fields(rng):
    for _ in range(10):
        v = random_field(rng, max_freq=8)
        x = rng.uniform(0, 1, 2)
        m = rng.integers(-3, 4, 2).astype(float)
        assert_allclose(v.evaluate(x + m), v.evaluate(x), atol=1e-12)


def test_shear_jacobian_entry():
    v = shear_field(EPS)
    jac = v.jacobian(np.array([0.0, 0.0]))
    expect = np.array([[0.0, 0.2 * np.pi], [0.0, 0.0]])
    assert_allclose(jac, expect, atol=1e-15)


def test_jacobian_matches_finite_differences(rng):
    v = random_field(rng)
    for x in rng.uniform(0, 1, (100, 2)):
        approx = fd_jacobian(v.evaluate, x)
        exact = v.jacobian(x)
        assert_allclose(exact, approx, rtol=1e-6, atol=1e-9)


def test_jacobian_matches_per_term_sum(rng):
    field = TrigDisplacementField.from_terms(3, [
        ([0.1, -0.2, 0.05], [1, 0, 2], "sin"),
        ([0.0, 0.3, -0.1], [0, -1, 1], "cos"),
        ([-0.15, 0.0, 0.2], [2, 1, -3], "sin"),
    ])

    def written_out(x):
        # sum over terms of dwave_t * c_t (x) 2 pi b_t
        jac = np.zeros((3, 3))
        for c, b, phase in zip(field.coeffs, field.freqs, field.phases):
            theta = 2.0 * np.pi * (b @ x)
            dwave = np.cos(theta) if phase == SIN else -np.sin(theta)
            jac += dwave * np.outer(c, 2.0 * np.pi * b)
        return jac

    x = rng.uniform(-1.0, 2.0, (6, 3))
    expected = np.stack([written_out(pt) for pt in x])
    assert_allclose(field.jacobian(x), expected, rtol=1e-14)
    assert_allclose(field.jacobian(x[0]), expected[0], rtol=1e-14)


def test_dilate_zero_field():
    zero = TrigDisplacementField.zero(2)
    assert zero.dilate(3).n_terms == 0


def test_dilate_shear_closed_form():
    v = shear_field(EPS)
    w = v.dilate(3)
    # (0.1/3) sin(6 pi x2) at x2 = 0.25 is (0.1/3) sin(3 pi / 2) = -1/30
    assert_allclose(w.evaluate(np.array([0.25, 0.25])), [-EPS / 3, 0.0], atol=1e-15)


def test_dilate_twice_is_dilate_nine(rng):
    v = random_field(rng)
    twice = v.dilate(3).dilate(3)
    nine = v.dilate(9)
    for x in rng.uniform(0, 1, (20, 2)):
        assert_allclose(twice.evaluate(x), nine.evaluate(x), atol=1e-14)


def test_dilate_semantics(rng):
    v = random_field(rng)
    w = v.dilate(3)
    for x in rng.uniform(0, 1, (20, 2)):
        assert_allclose(w.evaluate(x), v.evaluate(3 * x) / 3, atol=1e-14)


def test_dilate_rejects_small_factor():
    with pytest.raises(UnsupportedForm):
        shear_field(EPS).dilate(1)


def test_plus_and_scaled(rng):
    a = random_field(rng)
    b = random_field(rng)
    x = rng.uniform(0, 1, 2)
    assert_allclose(a.plus(b).evaluate(x), a.evaluate(x) + b.evaluate(x), atol=1e-14)
    assert_allclose(a.scaled(-2.5).evaluate(x), -2.5 * a.evaluate(x), atol=1e-14)


def test_invariance_flags():
    v = shear_field(EPS)
    assert list(v.moved_coordinates()) == [True, False]
    # shear displacement only depends on x2, which it never moves
    assert v.is_self_invariant()
    w = TrigDisplacementField.from_terms(
        2, [(np.array([0.1, 0.0]), np.array([1, 0]), "sin")])
    assert not w.is_self_invariant()


def test_term_shape_validation():
    with pytest.raises(DimensionMismatch):
        TrigDisplacementField(2, np.zeros((1, 3)), np.zeros((1, 3), dtype=int),
                              np.zeros(1, dtype=int))


def test_unit_grid_shape():
    g = unit_grid(2, 8)
    assert g.shape == (64, 2)
    assert g.min() == 0.0 and g.max() < 1.0


def test_jacobian_sup_norm_shear():
    # sup |d(eps sin 2 pi x2)/dx2| = 2 pi eps, attained on the grid at x2 = 0
    assert_allclose(jacobian_sup_norm(shear_field(EPS)), 0.2 * np.pi, atol=1e-12)


def test_batched_evaluation_matches_pointwise(rng):
    v = random_field(rng)
    pts = rng.uniform(0, 1, (7, 5, 2))
    vals = v.evaluate(pts)
    jacs = v.jacobian(pts)
    assert vals.shape == (7, 5, 2) and jacs.shape == (7, 5, 2, 2)
    assert_allclose(vals[3, 2], v.evaluate(pts[3, 2]), atol=1e-15)
    assert_allclose(jacs[3, 2], v.jacobian(pts[3, 2]), atol=1e-15)


def per_term_jet(field, x):
    """Displacement and Jacobian summed term by term, apart from field.jet."""
    x = np.asarray(x, dtype=float)
    value = np.zeros(x.shape)
    jac = np.zeros(x.shape + (field.dim,))
    for c, b, phase in zip(field.coeffs, field.freqs, field.phases):
        theta = 2.0 * np.pi * (x @ b)
        if phase == SIN:
            wave, dwave = np.sin(theta), np.cos(theta)
        else:
            wave, dwave = np.cos(theta), -np.sin(theta)
        value += wave[..., None] * c
        jac += dwave[..., None, None] * np.multiply.outer(c, 2.0 * np.pi * b)
    return value, jac


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_jet_matches_per_term_sum(rng, dim):
    base = random_field(rng, dim=dim, n_terms=4)
    field = TrigDisplacementField(dim, base.coeffs, base.freqs, [SIN, COS, COS, SIN])
    for x in (rng.uniform(-1, 2, (6, 5, dim)), rng.uniform(0, 1, dim)):
        value, jac = field.jet(x)
        ref_value, ref_jac = per_term_jet(field, x)
        assert value.shape == x.shape and jac.shape == x.shape + (dim,)
        # angles up to about 2 pi * 24 carry rounding of order 1e-14
        assert_allclose(value, ref_value, rtol=0, atol=1e-13)
        assert_allclose(jac, ref_jac, rtol=0, atol=1e-12)
        # evaluate and jacobian are views of the one trig pass
        assert np.array_equal(field.evaluate(x), value)
        assert np.array_equal(field.jacobian(x), jac)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_jet_of_zero_field(rng, dim):
    zero = TrigDisplacementField.zero(dim)
    for x in (rng.uniform(0, 1, (4, dim)), rng.uniform(0, 1, dim)):
        value, jac = zero.jet(x)
        assert value.shape == x.shape and not value.any()
        assert jac.shape == x.shape + (dim,) and not jac.any()


def test_jacobian_norm_bound_of_shear_is_exact():
    # E has the single entry 2 pi eps, which the grid attains at x2 = 0
    assert jacobian_norm_bound(shear_field(EPS)) == pytest.approx(0.2 * np.pi, rel=1e-15)
    assert jacobian_norm_bound(TrigDisplacementField.zero(3)) == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_jacobian_norm_bound_dominates_the_grid(rng, dim):
    for _ in range(5):
        field = random_field(rng, dim=dim, n_terms=3, max_freq=3)
        per_axis = 64 if dim < 3 else 16
        assert jacobian_norm_bound(field) >= jacobian_sup_norm(field, per_axis=per_axis)
