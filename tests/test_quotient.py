"""The quotient sample: a run sweeps one representative of each line along
the fiber axes that no frequency of its field uses, and reads the tensor
grid's constants from it bit for bit.  unit_grid builds those
representatives directly; _quotient, np.unique over the zeroed tensor grid,
is the oracle that maps each tensor point to its representative."""

import contextlib
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcover import cli, expansion, fields, torus_maps
from mtcover._small import singular_extremes
from mtcover.coverings import build_qm
from mtcover.errors import MTCoverError, NotDiffeotopy
from mtcover.expansion import (
    _chain_minimum,
    default_psi,
    estimate_C,
    estimate_K,
    estimate_cq,
    estimate_metric_equiv,
    local_vertical_conorms,
    measure_constants,
    verify_expansion,
    verify_finsler_expansion,
    verify_vertical_expansion,
)
from mtcover.fields import TrigDisplacementField, jacobian_norm_bound, unit_grid
from mtcover.lifting import tower_from_field
from mtcover.manifolds import Sample
from mtcover.torus_maps import StraightLineIsotopy


def test_unused_axes_are_those_no_frequency_uses(shear, mixed):
    assert shear.unused_axes().tolist() == [True, False]
    assert mixed.unused_axes().tolist() == [False, False]
    # a zero coefficient still uses its frequency's axes; no term uses none
    field = TrigDisplacementField.from_terms(3, [([0.0, 0.0, 0.0], [0, 2, 0], "cos")])
    assert field.unused_axes().tolist() == [True, False, True]
    assert TrigDisplacementField.zero(2).unused_axes().tolist() == [True, True]


def _quotient(points, fixed):
    """(representatives, rows): the points with their fixed coordinates set
    to 0, each distinct one once in lexicographic order, and for each point
    the row of its representative."""
    reps = np.array(points, dtype=float)
    reps[:, fixed] = 0.0
    reps, rows = np.unique(reps, axis=0, return_inverse=True)
    return reps, rows.reshape(-1)


def _tensor_grid(dim, per_axis):
    """The regular grid of np.meshgrid, independent of unit_grid."""
    mesh = np.meshgrid(*[np.arange(per_axis) / per_axis] * dim, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def test_the_quotient_of_the_unit_grid_is_its_points_at_zero():
    # the representatives are the grid points whose fixed coordinates are
    # 0, in grid order, and the oracle's rows take every grid point to its own
    grid = unit_grid(3, 4)
    fixed = np.array([True, False, True])
    reps = unit_grid(3, 4, fixed)
    assert np.array_equal(reps, grid[(grid[:, 0] == 0) & (grid[:, 2] == 0)])
    oracle, rows = _quotient(grid, fixed)
    assert np.array_equal(reps, oracle)
    assert np.array_equal(reps[rows][:, 1], grid[:, 1]) and not reps[:, fixed].any()
    assert np.array_equal(unit_grid(3, 4, np.zeros(3, dtype=bool)), grid)
    assert np.array_equal(_quotient(grid, np.zeros(3, dtype=bool))[1], np.arange(len(grid)))


@pytest.mark.parametrize("dim, per_axis", [(2, 64), (3, 12), (3, 7), (1, 5), (4, 8)])
def test_unit_grid_is_the_tensor_grid_and_its_quotient_bit_for_bit(dim, per_axis):
    tensor = _tensor_grid(dim, per_axis)
    assert unit_grid(dim, per_axis).tobytes() == tensor.tobytes()
    for fixed in itertools.product((False, True), repeat=dim):
        fixed = np.array(fixed)
        assert unit_grid(dim, per_axis, fixed).tobytes() == _quotient(tensor, fixed)[0].tobytes()


def test_unit_grid_builds_one_axis_past_the_meshgrid_limit():
    # numpy's meshgrid stops at 32 axes; the quotient of a 40-axis grid by
    # all but one is per_axis points
    fixed = np.ones(40, dtype=bool)
    fixed[1] = False
    grid = unit_grid(40, 4, fixed)
    assert grid.shape == (4, 40)
    assert grid[:, 1].tolist() == [0.0, 0.25, 0.5, 0.75] and not grid[:, fixed].any()


@st.composite
def rank_deficient_fields(draw):
    """(field, m, k, fiber_res): 1 or 2 terms at n = 2 or 3 whose
    frequencies leave at least one axis unused.  On the closed-form path the
    terms move only unused axes (a shear); on the Newton path each term
    moves an axis that its frequency uses.  Each frequency lies on one axis,
    so each angle is one product; see test_a_frequency_on_two_axes_agrees_to_rounding."""
    n = draw(st.sampled_from([2, 3]))
    used = draw(st.sampled_from([mask for mask in itertools.product((False, True), repeat=n)
                                 if any(mask) and not all(mask)]))
    newton = draw(st.booleans())
    freqs = [b * np.eye(n, dtype=int)[i] for i in range(n) if used[i] for b in (-2, -1, 1, 2)]
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        freq = draw(st.sampled_from(freqs))
        coeff = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        if newton:
            coeff[np.flatnonzero(freq)] = 1.0
        else:
            coeff[list(used)] = 0.0
            coeff[draw(st.sampled_from([i for i in range(n) if not used[i]]))] = 1.0
        terms.append((coeff, freq, draw(st.sampled_from(["sin", "cos"]))))
    field = TrigDisplacementField.from_terms(n, terms)
    # small enough for the certified diffeotopy bound
    field = field.scaled(draw(st.floats(0.1, 0.5)) / jacobian_norm_bound(field))
    assert field.is_self_invariant() != newton
    res = draw(st.sampled_from([5, 6, 8] if n == 2 else [4, 5]))
    return field, draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2])), res


def _tensor_axes(field):
    """unused_axes with no axis unused: measure_constants then samples the
    tensor grid."""
    return np.zeros(field.dim, dtype=bool)


def _reports(field, m, k, res, t_res, tensor=False):
    """(run, constants, expansion) of measure_constants and verify_expansion
    as reprs, which hold every bit, or (None, error type, message); on the
    tensor grid where tensor is set."""
    axes = (mock.patch.object(TrigDisplacementField, "unused_axes", _tensor_axes)
            if tensor else contextlib.nullcontext())
    with axes:
        try:
            run = measure_constants(field, m, k=k, fiber_res=res, t_res=t_res)
            return run, repr(run.constants), repr(verify_expansion(run))
        except MTCoverError as exc:
            return None, type(exc).__name__, str(exc)


def _sweeps(field, run, m, k, sample):
    """The sweeps of a run on sample, in sweep order: c_eq, c_q, C and its
    bound, the vertical margin, K, mu and its case bound, and the two-step
    adapted chain minimum."""
    f = run.f
    margin = verify_vertical_expansion(f, sample)
    k_raw, k_eff = estimate_K(f, sample)
    return [estimate_metric_equiv(sample),
            estimate_cq(build_qm(run.metric.h, m, default_psi(field)), sample),
            *estimate_C(tower_from_field(field, k), sample), margin, k_raw,
            *verify_finsler_expansion(f, sample, k_eff, margin, m),
            _chain_minimum(f, sample, 2, 1)]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(rank_deficient_fields())
def test_a_run_on_the_quotient_reads_the_tensor_grid_bit_for_bit(case):
    field, m, k, res = case
    t_res = 4
    unused = field.unused_axes()
    run, *reports = _reports(field, m, k, res, t_res)
    # the reports, or the failure, of the same run on the tensor grid
    assert tuple(reports) == _reports(field, m, k, res, t_res, tensor=True)[1:]
    if run is None:
        return
    reps = run.sample
    tensor = Sample(run.metric, unit_grid(field.dim, res), t_res)
    assert len(reps.grid) == res ** int((~unused).sum()) and len(tensor.grid) == res ** field.dim
    oracle, rows = _quotient(tensor.grid, unused)
    assert np.array_equal(reps.grid, oracle)
    got, want = _sweeps(field, run, m, k, reps), _sweeps(field, run, m, k, tensor)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    # every frame block is constant along the unused axes: the frame at
    # each tensor point is the frame at its representative
    f = run.f
    for t in tensor.slices():
        at_grid, at_reps = f.frame(t, tensor.grid), f.frame(t, reps.grid)
        assert at_grid.slope == at_reps.slope
        for name in ("v", "w"):
            assert np.array_equal(getattr(at_grid, name), getattr(at_reps, name)[rows])
        assert np.array_equal(at_grid.x_out[:, ~unused], at_reps.x_out[rows][:, ~unused])


def test_a_frequency_on_two_axes_agrees_to_rounding():
    # 2 pi <b, x> with two nonzero products is a BLAS dot product, which
    # may round by the point's place in the batch (whether it takes the
    # fused multiply-add), so a point's frame can differ in the last bits
    # within the tensor grid itself, and the quotient's frames and
    # constants agree with the tensor grid's to rounding
    field = TrigDisplacementField.from_terms(3, [([0.0, 0.02813488, 0.0], [0, -2, -2], "sin")])
    run = measure_constants(field, 1, k=1, fiber_res=3, t_res=4)
    tensor = Sample(run.metric, unit_grid(3, 3), 4)
    got, want = _sweeps(field, run, 1, 1, run.sample), _sweeps(field, run, 1, 1, tensor)
    np.testing.assert_allclose(got, want, rtol=1e-13)
    rows = _quotient(tensor.grid, field.unused_axes())[1]
    frames = [(run.f.frame(t, tensor.grid).v, run.f.frame(t, run.sample.grid).v[rows])
              for t in tensor.slices()]
    np.testing.assert_allclose(*map(np.stack, zip(*frames)), rtol=1e-12)


def test_a_full_rank_field_gets_the_tensor_grid(mixed):
    run = measure_constants(mixed, 1, k=1, fiber_res=8, t_res=2)
    assert np.array_equal(run.sample.grid, unit_grid(2, 8))
    assert np.array_equal(_quotient(run.sample.grid, mixed.unused_axes())[1], np.arange(64))


def test_a_library_sample_sweeps_the_grid_it_is_given(metric):
    # only measure_constants asks for the quotient
    grid = unit_grid(2, 8)
    sample = Sample(metric, grid, 4)
    assert np.array_equal(sample.grid, grid) and sample.grid is not grid


def _shear_type(n, eps):
    """x1 += eps (sin + cos)(2 pi x2) at n = 2, plus x3 += eps / 2 sin 2 pi
    (x2 - x3) at n = 3: x1 is unused, and the certified bound misses the
    sup of the Jacobian by a factor near sqrt(2)."""
    e1 = np.eye(n)[0] * eps
    b2 = np.eye(n, dtype=int)[1]
    terms = [(e1, b2, "sin"), (e1, b2, "cos")]
    if n == 3:
        terms.append((np.array([0.0, 0.0, eps / 2]), np.array([0, 1, -1]), "sin"))
    return TrigDisplacementField.from_terms(n, terms)


@pytest.mark.parametrize("n, eps_values", [(2, [0.08, 0.1, 0.12]), (3, [0.08, 0.11])])
def test_the_sampled_diffeotopy_check_reads_the_tensor_grid(n, eps_values, monkeypatch):
    # where the certified bound fails, the 64^n grid decides; it is swept on
    # the quotient, 64^(n - 1) points, and gives the tensor grid's norm and
    # decision bit for bit, on both sides of the margin
    points = []
    jacobian = TrigDisplacementField.jacobian

    def counted(self, x):
        points.append(len(x))
        return jacobian(self, x)

    decisions = []
    for eps in eps_values:
        field = _shear_type(n, eps)
        assert field.unused_axes().tolist() == [True] + [False] * (n - 1)
        assert jacobian_norm_bound(field) * torus_maps._DIFFEOTOPY_MARGIN >= 1.0
        tensor = float(singular_extremes(field.jacobian(unit_grid(n, 64)))[1].max())
        with monkeypatch.context() as patch:
            patch.setattr(TrigDisplacementField, "jacobian", counted)
            assert fields.jacobian_sup_norm(field).hex() == tensor.hex()
            try:
                StraightLineIsotopy(field)
                passed = True
            except NotDiffeotopy:
                passed = False
        assert passed == (tensor * torus_maps._DIFFEOTOPY_MARGIN < 1.0)
        decisions.append(passed)
    assert points == [64 ** (n - 1)] * (2 * len(eps_values))
    assert True in decisions and False in decisions


@pytest.fixture
def grid_rows(monkeypatch):
    """The row count of every grid unit_grid returns, wherever it is called."""
    counts = []
    real = fields.unit_grid

    def counted(*args, **kwargs):
        grid = real(*args, **kwargs)
        counts.append(len(grid))
        return grid

    for module in (fields, expansion, cli):
        monkeypatch.setattr(module, "unit_grid", counted, raising=False)
    return counts


def _write(tmp_path, name, n, field, **settings):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(n=n, field=field, **settings)))
    return str(path)


def _shear_terms(n):
    """x1 += sin 2 pi x2 in n dimensions, to be scaled by eps."""
    return [{"coeff": [1.0] + [0.0] * (n - 1), "freq": [0, 1] + [0] * (n - 2),
             "phase": "sin"}]


def _blocks(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc["constants"], doc["expansion"], doc["pass"]


@pytest.mark.parametrize("n", [4, 33])
def test_a_shear_past_three_axes_reads_the_two_axis_shear(tmp_path, grid_rows, n):
    # fake tori need n >= 4; the shear moves x1 by x2 alone, so its run
    # sweeps 8 points per slice at any n and measures the n = 2 constants
    settings = dict(eps=0.1, fiber_res=8, t_res=4, k=None)
    reports = []
    for dim in (2, n):
        out = tmp_path / f"verify{dim}.json"
        cfg = _write(tmp_path, f"shear{dim}", dim, _shear_terms(dim), **settings)
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        reports.append(_blocks(out))
    assert grid_rows and max(grid_rows) == 8
    (constants2, expansion2, _), (constants, report, passed) = reports
    assert passed and report["passed"] and report["k"] == 2
    for want, got in ((constants2, constants), (expansion2, report)):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
            else:
                assert got[key] == value, key


def test_a_run_builds_no_tensor_grid(tmp_path, grid_rows):
    # the shear at 64 points per axis gets 64 points, not 64^2, and the
    # sampled diffeotopy check at n = 3 gets 64^2, not 64^3
    cfg = _write(tmp_path, "shear", 2, _shear_terms(2), eps=0.1, fiber_res=64, t_res=4)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out.json")]) == 0
    assert grid_rows and max(grid_rows) <= 64
    grid_rows.clear()
    field = _shear_type(3, 0.11)
    assert jacobian_norm_bound(field) * torus_maps._DIFFEOTOPY_MARGIN >= 1.0
    with contextlib.suppress(NotDiffeotopy):
        StraightLineIsotopy(field)
    assert grid_rows and max(grid_rows) <= 64 ** 2


def test_the_csv_dump_broadcasts_the_quotient_onto_the_tensor_grid(tmp_path):
    # x3 is unused: the run sweeps 6^2 points per slice and the dump writes
    # 6^3, each with the value a hand-built tensor sample gives there
    res, t_res = 6, 4
    field = [{"coeff": [1.0, 0.0, 0.5], "freq": [0, 1, 0], "phase": "sin"},
             {"coeff": [0.0, 1.0, 0.2], "freq": [1, 0, 0], "phase": "sin"}]
    csv_path = tmp_path / "conorm.csv"
    path = _write(tmp_path, "rank2", 3, field, eps=0.05, fiber_res=res, t_res=t_res,
                  csv_out=str(csv_path))
    assert cli.main(["constants", "--config", path, "--out", str(tmp_path / "out.json")]) == 0
    cfg = cli.load_config(path)
    run = measure_constants(cfg.displacement_field(), cfg.m, k=cfg.k, fiber_res=res,
                            t_res=t_res)
    assert len(run.sample.grid) == res ** 2
    tensor = Sample(run.metric, unit_grid(3, res), t_res)
    want = local_vertical_conorms(run.f, tensor)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,x_3,local_conorm"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == t_res * res ** 3
    for i, (t, slice_values) in enumerate(zip(tensor.slices(), want)):
        block = rows[i * res ** 3:(i + 1) * res ** 3]
        assert [row[0] for row in block] == ["%.17g" % t] * res ** 3
        assert [row[1:4] for row in block] == [["%.17g" % x for x in point]
                                               for point in tensor.grid]
        assert [row[4] for row in block] == ["%.17g" % c for c in slice_values]
