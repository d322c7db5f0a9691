import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover._small import gram
from mtcover.cli import main
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
from mtcover.manifolds import MetricG
from mtcover.torus_maps import StraightLineIsotopy, TrigDisplacementMap

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


def test_dilate_refuses_a_frequency_past_two_to_the_53():
    # the angles use float frequencies, which hold every integer up to
    # 2**53; in int64, 4e18 times 3 wrapped to -6.4e18
    assert shear_field(EPS, freq=2 ** 52).dilate(2).freqs[0, 1] == 2 ** 53
    for freq in (2 ** 52, -2 ** 52, 4 * 10 ** 18):
        with pytest.raises(UnsupportedForm, match="past 9007199254740992"):
            shear_field(EPS, freq=freq).dilate(3)


@pytest.mark.parametrize("build", [
    lambda: shear_field(EPS, freq=2 ** 60),
    lambda: shear_field(EPS, freq=-2 ** 63),
    lambda: shear_field(EPS, freq=2 ** 53 + 1),
    lambda: TrigDisplacementField.from_terms(2, [([0.1, 0.0], [0, 10 ** 20], "sin")]),
    lambda: TrigDisplacementField(2, np.array([[0.1, 0.0]]), np.array([[0, -2 ** 63]]),
                                  np.array([0])),
])
def test_a_field_refuses_a_frequency_past_two_to_the_53(build):
    # the angles use float frequencies, exact up to 2**53; past int64 the
    # cast overflows, and -2**63 has a negative absolute value in int64
    with pytest.raises(UnsupportedForm, match="frequency"):
        build()


def test_a_field_keeps_a_frequency_of_two_to_the_53():
    for freq in (2 ** 53, -2 ** 53):
        assert shear_field(EPS, freq=freq).freqs[0, 1] == freq


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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_jacobian_sup_norm_is_the_max_spectral_norm(rng, dim):
    # sigma_max of the closed-form kernels (from the Gram at n = 3) against
    # LAPACK's spectral norm at every grid point
    per_axis = 64 if dim < 3 else 12
    for _ in range(3):
        field = random_field(rng, dim=dim, n_terms=3, max_freq=3)
        jac = field.jacobian(unit_grid(dim, per_axis))
        expected = np.linalg.norm(jac, ord=2, axis=(-2, -1)).max()
        assert_allclose(jacobian_sup_norm(field, per_axis), expected, rtol=1e-14)


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


# ---------------------------------------------------------------------------
# The jet memo: a field keeps its jet at a read-only array that owns its data


def frozen(x):
    """A read-only copy of x that owns its data, entry-major (Fortran order)
    as a run's fiber grid is."""
    x = np.array(x, dtype=float, order="F")
    x.flags.writeable = False
    return x


@pytest.fixture
def computed(monkeypatch):
    """(field, points) of every jet a field computes, not serving it from its memo."""
    calls = []
    original = TrigDisplacementField._jet

    def counted(self, x):
        calls.append((self, x))
        return original(self, x)

    monkeypatch.setattr(TrigDisplacementField, "_jet", counted)
    return calls


def test_a_read_only_array_is_evaluated_once(rng, computed):
    field = random_field(rng)
    grid = frozen(unit_grid(2, 8))
    first, second = field.jet(grid), field.jet(grid)
    assert len(computed) == 1
    assert first[0] is second[0] and first[1] is second[1]
    assert field.evaluate(grid) is first[0] and field.jacobian(grid) is first[1]
    # the kept jet is the one a writable copy computes, bit for bit
    fresh = field.jet(grid.copy())
    assert np.array_equal(first[0], fresh[0]) and np.array_equal(first[1], fresh[1])
    # identity, not content, is the key: an equal array is a new one
    field.jet(frozen(grid))
    assert len(computed) == 3


def test_writable_arrays_and_views_are_never_served_from_the_memo(rng, computed):
    field = random_field(rng)
    grid = unit_grid(2, 8)
    view = grid[:10]
    view.flags.writeable = False  # read-only, but its base can still change
    broadcast = np.broadcast_to(grid[3], (5, 2))  # read-only, owns nothing
    ints = np.zeros((4, 2), dtype=np.int64)
    ints.flags.writeable = False  # read-only, but not float: converted anew
    for x in (grid, view, broadcast, ints, [0.25, 0.5]):
        field.jet(x)
        field.jet(x)
    assert len(computed) == 10
    assert all(out.flags.writeable for out in field.jet(grid))


def test_a_changed_input_is_evaluated_again(rng):
    field = random_field(rng)
    grid = unit_grid(2, 8)
    view = grid[:]
    view.flags.writeable = False
    before = [field.jet(x)[0].copy() for x in (grid, view)]
    grid += 0.125  # moves the view's points too
    for x, old in zip((grid, view), before):
        value, jac = field.jet(x)
        assert not np.array_equal(value, old)
        expected = per_term_jet(field, grid)
        assert_allclose(value, expected[0], rtol=0, atol=1e-13)
        assert_allclose(jac, expected[1], rtol=0, atol=1e-12)


def test_writing_into_a_kept_jet_raises(rng):
    field = random_field(rng)
    grid = frozen(unit_grid(2, 8))
    for out in field.jet(grid):
        assert not out.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out += 1.0
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 0.0
    # the map and the isotopy built on a field add I out of place, so their
    # jets at the grid leave the kept one intact
    TrigDisplacementMap(field).jet(grid)
    StraightLineIsotopy(field, check=False).jet(0.5, grid)
    value, jac = field.jet(grid)
    assert np.array_equal(value, field.jet(grid.copy())[0])
    assert np.array_equal(jac, field.jet(grid.copy())[1])


def test_derived_fields_keep_their_own_jets(rng, computed):
    field = random_field(rng)
    grid = frozen(unit_grid(2, 8))
    family = [field, field.dilate(3), field.scaled(0.5), field.scaled(1.0),
              field.plus(TrigDisplacementField.zero(2))]
    jets = [f.jet(grid) for f in family]
    assert len(computed) == len(family)
    for f, (value, jac) in zip(family, jets):
        fresh = f.jet(grid.copy())
        assert np.array_equal(value, fresh[0]) and np.array_equal(jac, fresh[1])
        assert f.jet(grid)[1] is jac
    assert not np.array_equal(jets[0][0], jets[1][0])
    assert not np.array_equal(jets[0][0], jets[2][0])
    assert len(computed) == 2 * len(family)


def test_a_verify_run_computes_each_field_jet_at_its_grid_once(tmp_path, computed,
                                                              monkeypatch):
    # every sweep of a run frames its maps at its Sample's one read-only
    # grid; the straight-line isotopies of H, the last branch of F, h in the
    # metric and the phi bound all reach their field's memo there
    config = tmp_path / "shear.json"
    config.write_text(json.dumps({
        "n": 2, "eps": EPS, "fiber_res": 8, "t_res": 4, "directions": 4,
        "field": [{"coeff": [1.0, 0.0], "freq": [0, 1], "phase": "sin"}]}))
    served = []
    original = TrigDisplacementField.jet

    def counted(self, x):
        served.append(x)
        return original(self, x)

    monkeypatch.setattr(TrigDisplacementField, "jet", counted)
    assert main(["verify", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 0
    at_grid = [(f, x) for f, x in computed if not x.flags.writeable]
    grids = {id(x) for _, x in at_grid}
    fields = [id(f) for f, _ in at_grid]
    assert len(grids) == 1  # one grid per run
    assert len(fields) == len(set(fields)) >= 6  # each field's jet there once
    grid = at_grid[0][1]
    assert sum(x is grid for x in served) > 2 * len(at_grid)


def test_fields_compare_and_hash_by_identity():
    # equal terms make distinct fields, each with its own jet memo; a field
    # compares equal only to itself, and can key a dict or join a set
    field, other = shear_field(EPS), shear_field(EPS, freq=2)
    assert (field == other) is False and (field != other) is True
    assert (field == shear_field(EPS)) is False
    assert field == field
    assert hash(field) == hash(field) and isinstance(hash(other), int)
    members = {field, other, field}
    assert len(members) == 2 and field in members and shear_field(EPS) not in members
    assert {field: 1, other: 2}[other] == 2


# ---------------------------------------------------------------------------
# jacobian is a view of the jet: on every input layout, on and off the
# memo, it is jet's Jacobian bit for bit


def _jet_cases(rng, dim):
    """Fields of every phase mix at dim: zero, one term, sin only, cos only
    and mixed."""
    base = random_field(rng, dim=dim, n_terms=3)
    return [TrigDisplacementField.zero(dim),
            TrigDisplacementField(dim, base.coeffs[:1], base.freqs[:1], [COS]),
            TrigDisplacementField(dim, base.coeffs, base.freqs, [SIN] * 3),
            TrigDisplacementField(dim, base.coeffs, base.freqs, [COS] * 3),
            TrigDisplacementField(dim, base.coeffs, base.freqs, [SIN, COS, SIN])]


def _jet_inputs(rng, dim):
    """Writable arrays in C and Fortran order, the read-only grid, views
    that own nothing, a single point and an (a, b, n) batch."""
    grid = frozen(unit_grid(dim, 4))
    writable = rng.uniform(-1, 2, (37, dim))
    view = writable[5:20]
    view.flags.writeable = False
    return [writable, np.asfortranarray(writable), grid, view,
            np.broadcast_to(writable[3], (6, dim)), writable[::2],
            rng.uniform(-1, 2, dim), rng.uniform(-1, 2, (3, 5, dim))]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_jacobian_alone_is_the_jets_bit_for_bit(rng, dim):
    for field in _jet_cases(rng, dim):
        h = TrigDisplacementMap(field)
        for x in _jet_inputs(rng, dim):
            # the reference comes from a fresh writable C-order copy, never a memo
            value, jac = field.jet(np.array(x, order="C"))
            assert jac.shape == x.shape + (dim,)
            assert np.array_equal(field.jacobian(x), jac)
            assert np.array_equal(h.jacobian(x), h.jet(np.array(x, order="C"))[1])
            assert np.array_equal(h.jacobian(x), jac + np.eye(dim))
            # the jet itself does not depend on how x is stored
            assert np.array_equal(field.jet(x)[0], value) and np.array_equal(field.jet(x)[1], jac)
        grid = frozen(unit_grid(dim, 4))
        kept = field.jet(grid)[1]
        assert field.jacobian(grid) is kept  # served from the memo
        h.jacobian(grid)
        assert np.array_equal(field.jacobian(grid), field.jet(grid.copy())[1])


@pytest.mark.parametrize("n_terms", [1, 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_the_jet_at_an_entry_major_grid_is_the_jet_at_a_c_order_copy(rng, dim, n_terms):
    # frequencies with several nonzero components make each angle a real
    # dot product, whose BLAS summation order could follow the layout
    for _ in range(10):
        field = random_field(rng, dim=dim, n_terms=n_terms, max_freq=12)
        grid = frozen(rng.uniform(-3, 5, (4096, dim)))
        assert grid.flags.f_contiguous and not grid.flags.c_contiguous
        copy = np.ascontiguousarray(grid)
        value, jac = field.jet(grid)  # kept in the memo
        want_value, want_jac = field.jet(copy)
        assert np.array_equal(value, want_value) and np.array_equal(jac, want_jac)
        assert np.array_equal(field.jacobian(grid[:100]), field.jacobian(copy[:100]))
        h = TrigDisplacementMap(field)
        assert np.array_equal(h.jacobian(grid), h.jacobian(copy))


def test_a_fiber_gram_at_image_points_is_the_gram_of_the_jet(rng):
    # at writable points nothing is memoized: fiber_gram reads Dh from a jet
    field = shear_field(EPS).dilate(3)
    metric = MetricG(TrigDisplacementMap(field))
    points = rng.uniform(0, 1, (4096, 2))
    m = metric.fiber_gram(0.5, points)
    jac = field.jet(points)[1] + np.eye(2)
    assert np.array_equal(m, 0.5 * np.eye(2) + 0.5 * gram(jac))
