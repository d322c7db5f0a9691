import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import mtcover.coverings
import mtcover.expansion
from mtcover.cli import load_config, main
from mtcover.errors import ConfigError, NoConvergence
from mtcover.expansion import measure_constants, verify_expansion
from mtcover.manifolds import MultiMappingTorus

SHEAR_TERM = {"coeff": [1.0, 0.0], "freq": [0, 1], "phase": "sin"}
# x1 += eps sin 2 pi x2 and x2 += eps sin 2 pi x1: no closed-form inverse
MIXED_FIELD = [SHEAR_TERM, {"coeff": [0.0, 1.0], "freq": [1, 0], "phase": "sin"}]


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "n": 2,
        "eps": 0.1,
        "field": [SHEAR_TERM],
        "fiber_res": 16,
        "t_res": 8,
        "directions": 4,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Config loading

def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path), threads=3, seed=7)
    assert cfg.n == 2 and cfg.eps == 0.1
    assert cfg.threads == 3 and cfg.seed == 7
    echo = cfg.echo()
    assert "threads" not in echo
    assert echo["fiber_res"] == 16 and echo["k"] is None
    field = cfg.displacement_field()
    assert field.evaluate(np.array([0.25, 0.25]))[0] == pytest.approx(0.1)


def test_load_config_unknown_key(tmp_path):
    path = write_config(tmp_path, bogus=1)
    with pytest.raises(ConfigError, match="unknown config key: 'bogus'"):
        load_config(path)


def test_load_config_missing_required(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2}))
    with pytest.raises(ConfigError, match="missing config key: 'field'"):
        load_config(str(path))
    path.write_text(json.dumps({"field": []}))
    with pytest.raises(ConfigError, match="missing config key: 'n'"):
        load_config(str(path))


@pytest.mark.parametrize("overrides,needle", [
    ({"m": 0}, "'m'"),
    ({"fiber_res": 2}, "'fiber_res'"),
    ({"nu_target": -1.0}, "'nu_target'"),
    ({"k": 0}, "'k'"),
    ({"base": 1}, "'base'"),
    ({"eps": float("nan")}, "'eps'"),
    ({"field": [{"coeff": [1.0], "freq": [0, 1], "phase": "sin"}]}, "term 0"),
    ({"field": [{"coeff": [1.0, 0.0], "freq": [0.5, 1], "phase": "sin"}]}, "term 0"),
    ({"field": [{"coeff": [1.0, 0.0], "freq": [0, 1], "phase": "tan"}]}, "term 0"),
    ({"field": [{"coeff": [1.0, 0.0], "freq": [0, 1], "phase": "sin",
                 "extra": 1}]}, "unknown keys"),
    ({"nu_target": float("inf")}, "'nu_target'"),
    ({"seed": -1}, "'seed' must be an integer >= 0"),
    # 10**20 passed and then overflowed int64: exit 1 with a traceback
    ({"field": [{"coeff": [1.0, 0.0], "freq": [0, 10 ** 20], "phase": "sin"}]},
     "term 0: 'freq'"),
    ({"field": [{"coeff": [1.0, 0.0], "freq": [-2 ** 53 - 1, 1], "phase": "sin"}]},
     "term 0: 'freq'"),
])
def test_load_config_validation(tmp_path, overrides, needle):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=needle):
        load_config(path)



_NUMERIC_KEYS = ("n", "eps", "m", "k", "base", "fiber_res", "t_res", "directions",
                 "newton_tol", "seam_tol", "fd_rel_tol", "nu_target", "k_cap", "seed")


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("key", _NUMERIC_KEYS)
def test_verify_rejects_a_boolean_for_a_number(tmp_path, capsys, key, flag):
    # JSON true and false load as bool, which Python counts as an int
    cfg = write_config(tmp_path, **{key: flag})
    assert run(["verify", "--config", cfg, "--out", str(tmp_path / "out.json")]) == 2
    assert f"config error: '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("coeff", [["a", 0], [float("nan"), 0], [None, 0], [True, 0],
                                   [float("inf"), 0], [10 ** 400, 0]],
                         ids=["string", "nan", "null", "bool", "inf", "huge"])
def test_verify_rejects_a_field_coefficient_that_is_no_finite_number(tmp_path, capsys,
                                                                     coeff):
    # json writes and reads NaN and Infinity; before validation these reached
    # the numerics (exit 3) or escaped as an untyped error (exit 1)
    cfg = write_config(tmp_path, field=[dict(SHEAR_TERM, coeff=coeff)])
    assert run(["verify", "--config", cfg, "--out", str(tmp_path / "out.json")]) == 2
    assert "'coeff' must be a list of n=2 finite numbers" in capsys.readouterr().err


def test_a_lift_past_two_to_the_53_is_a_numerical_failure(tmp_path, capsys):
    # the angles use float frequencies, exact up to 2**53, and the config
    # validator stops there (the table above); a lift that would dilate a
    # frequency past it is refused too: in int64, 4e18 times 3 wrapped to
    # -6.4e18 and constants exited 0
    cfg = write_config(tmp_path, k=1, fiber_res=4, t_res=4,
                       field=[dict(SHEAR_TERM, coeff=[0.0, 0.0], freq=[0, 2 ** 52])])
    assert run(["constants", "--config", cfg]) == 3
    assert "UnsupportedForm: dilating by 3" in capsys.readouterr().err


@pytest.mark.parametrize("csv_out", [True, 2, "", ["a.csv"]],
                         ids=["true", "int", "empty", "list"])
def test_verify_rejects_a_csv_out_that_is_no_path(tmp_path, capsys, csv_out):
    # open() takes true or 2 as a file descriptor: the dump went to stdout or
    # stderr and closed it, and the command exited 0
    cfg = write_config(tmp_path, fiber_res=4, t_res=4, csv_out=csv_out)
    assert run(["verify", "--config", cfg, "--out", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()
    assert "config error: 'csv_out' must be null or a non-empty path" in capsys.readouterr().err


def test_load_config_bad_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


# ---------------------------------------------------------------------------
# constants

def test_constants_linear_model(tmp_path):
    cfg = write_config(tmp_path, eps=0.0, fiber_res=8, t_res=4)
    out = tmp_path / "out.json"
    assert run(["constants", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(str(out))
    assert sorted(doc) == ["config_echo", "constants", "expansion", "pass",
                           "timings"]
    assert doc["expansion"] is None
    assert doc["pass"] is True
    cons = doc["constants"]
    assert cons["c_eq"] == 1.0 and cons["c_q"] == 1.0
    assert cons["conorm_C"] == 1.0 and cons["coupling_K"] == 0.0
    assert cons["coupling_K_eff"] == 1.0
    assert cons["k"] == 1 and cons["lambda_target"] == 2.0
    assert doc["timings"] == {"parameter_slices": 4,
                              "grid_points_per_slice": 64,
                              "direction_templates": 9}
    assert "threads" not in doc["config_echo"]


def test_constants_csv_dump(tmp_path):
    csv_path = tmp_path / "conorm.csv"
    cfg = write_config(tmp_path, eps=0.0, fiber_res=4, t_res=4,
                       csv_out=str(csv_path))
    out = tmp_path / "out.json"
    assert run(["constants", "--config", cfg, "--out", str(out)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,local_conorm"
    assert len(lines) == 1 + 4 * 16
    first = lines[1].split(",")
    assert len(first) == 4
    assert float(first[-1]) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_csv_minimum_is_the_vertical_margin(tmp_path, threads):
    # the dump and the verify sweep read the same records of the same slices
    csv_path = tmp_path / "conorm.csv"
    cfg = write_config(tmp_path, fiber_res=8, t_res=4, csv_out=str(csv_path))
    out = tmp_path / "out.json"
    assert run(["verify", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
    column = [float(line.rsplit(",", 1)[1]) for line in csv_path.read_text().splitlines()[1:]]
    assert len(column) == 4 * 64
    assert min(column) == read_json(str(out))["expansion"]["vertical_margin"]


# ---------------------------------------------------------------------------
# verify

def test_verify_linear_model(tmp_path):
    cfg = write_config(tmp_path, eps=0.0, fiber_res=8, t_res=4)
    out = tmp_path / "out.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(str(out))
    assert doc["pass"] is True
    exp = doc["expansion"]
    assert exp["k"] == 1 and exp["adapted_steps"] == 1
    assert abs(exp["mu"] - 3.0) < 1e-12
    assert abs(exp["vertical_margin"] - 3.0) < 1e-12
    assert abs(exp["adapted_rate"] - 3.0) < 1e-12
    assert exp["checks"] == {"vertical_margin_ok": True, "mu_above_one": True,
                             "adapted_rate_above_one": True,
                             "chain_floor_ok": True}


def test_verify_target_scaling(tmp_path):
    cfg = write_config(tmp_path, eps=0.0, fiber_res=8, t_res=4, nu_target=3.0)
    out = tmp_path / "out.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(str(out))
    # tighter target raises lambda and forces one more cover level
    assert doc["constants"]["lambda_target"] == 3.0
    assert doc["expansion"]["k"] == 2
    assert abs(doc["expansion"]["vertical_margin"] - 9.0) < 1e-11


def test_verify_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert run(["verify", "--config", cfg, "--out", str(a)]) == 0
    assert run(["verify", "--config", cfg, "--out", str(b)]) == 0
    assert run(["verify", "--config", cfg, "--out", str(c), "--threads", "3"]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_verify_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, k=1, nu_target=5.0)
    out = tmp_path / "out.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 1
    doc = read_json(str(out))
    assert doc["pass"] is False
    assert doc["expansion"]["checks"]["vertical_margin_ok"] is False


def test_verify_on_generic_field_at_depth_three(tmp_path):
    # each step of f multiplies lift coordinates by about 3^(k+1); carried
    # unreduced into the next step of the adapted sweep, they left the Newton
    # residual at 3.6e-12 against its 1e-12 tolerance (NoConvergence, exit 3)
    cfg = write_config(tmp_path, field=MIXED_FIELD, eps=0.05, k=3, m=1,
                       fiber_res=8, t_res=4, directions=8, seed=1)
    out = tmp_path / "out.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(str(out))
    exp = doc["expansion"]
    assert doc["pass"] is True and exp["k"] == 3
    assert exp["adapted_steps"] == 3
    assert exp["adapted_rate"] > 1.0


@pytest.mark.xfail(raises=NoConvergence, strict=True,
                   reason="Newton's absolute stop cannot pass at lift coordinates near 1.7e4")
def test_verify_on_a_small_field_at_depth_nine(tmp_path):
    # the field passes the diffeotopy check and measure_constants picks
    # k = 9; then StageS.frame inverts id + field by Newton at lift
    # coordinates up to 1.7e4, where one ulp is 3.6e-12, against an absolute
    # tolerance of 1e-12
    field = [{"coeff": [-0.143], "freq": [1], "phase": "cos"},
             {"coeff": [-1.216], "freq": [2], "phase": "cos"},
             {"coeff": [-0.507], "freq": [-2], "phase": "cos"}]
    cfg = load_config(write_config(tmp_path, n=1, eps=0.04, m=2, fiber_res=8, t_res=4,
                                   directions=4, field=field))
    report = verify_expansion(measure_constants(cfg.displacement_field(), cfg.m,
                                                fiber_res=cfg.fiber_res, t_res=cfg.t_res))
    assert report.k == 9


def test_constants_and_verify_share_one_pipeline(tmp_path, monkeypatch):
    # both commands measure C(k) once per depth that measure_constants
    # tries, and report the same constants; patched wherever mtcover binds
    # the name
    original = mtcover.expansion.estimate_C
    depths = []

    def counted(tower, *args, **kwargs):
        depths.append(tower.k)
        return original(tower, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "mtcover" or name.startswith("mtcover."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    cfg = write_config(tmp_path, fiber_res=16, t_res=8)
    docs = {}
    calls = {}
    for command in ("constants", "verify"):
        out = tmp_path / f"{command}.json"
        depths.clear()
        assert run([command, "--config", cfg, "--out", str(out)]) == 0
        docs[command] = read_json(str(out))
        calls[command] = list(depths)
    assert calls == {"constants": [1, 2], "verify": [1, 2]}
    assert docs["constants"]["constants"] == dict(docs["verify"]["constants"], k=2)


# ---------------------------------------------------------------------------
# degree

def test_degree_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.json"
    assert run(["degree", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(str(out))
    deg = doc["degree"]
    assert deg["preimage_count"] == 27 and deg["expected"] == 27
    assert deg["min_separation"] > 0.01
    assert deg["pi1_linear_part"] == [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
    assert len(deg["probe"]) == 3
    assert doc["pass"] is True


def test_degree_seed_moves_probe(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
    assert run(["degree", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["degree", "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0
    p1 = read_json(str(out1))["degree"]["probe"]
    p2 = read_json(str(out2))["degree"]["probe"]
    assert p1 != p2
    assert read_json(str(out2))["degree"]["preimage_count"] == 27


def test_degree_reads_the_lattice_map_and_separation_from_preimages(tmp_path, monkeypatch):
    # preimages computes both next to its points; degree reports them and
    # computes neither again
    calls = []
    separation, linear = MultiMappingTorus.min_separation, mtcover.coverings.pi1_linear_part

    def counted_separation(self, points):
        calls.append("min_separation")
        return separation(self, points)

    def counted_linear(cover):
        calls.append("pi1_linear_part")
        return linear(cover)

    monkeypatch.setattr(MultiMappingTorus, "min_separation", counted_separation)
    for name, module in list(sys.modules.items()):
        if name == "mtcover" or name.startswith("mtcover."):
            for key, value in list(vars(module).items()):
                if value is linear:
                    monkeypatch.setattr(module, key, counted_linear)
    assert run(["degree", "--config", write_config(tmp_path), "--out",
                str(tmp_path / "out.json")]) == 0
    assert sorted(calls) == ["min_separation", "pi1_linear_part"]


@pytest.mark.parametrize("command", ["degree", "seams"])
def test_a_negative_seed_flag_is_a_config_error(tmp_path, capsys, command):
    # numpy's default_rng takes no negative seed: this exited 1 with a traceback
    assert run([command, "--config", write_config(tmp_path), "--seed", "-1"]) == 2
    assert "config error: 'seed' must be an integer >= 0" in capsys.readouterr().err


def test_degree_batches_distance_calls(tmp_path, monkeypatch):
    """degree at k=2 compares 243 preimages with a few broadcast distance
    calls, not one call per pair (59,049)."""
    calls = []
    original = MultiMappingTorus.distance

    def counted(self, p, q):
        calls.append(1)
        return original(self, p, q)

    monkeypatch.setattr(MultiMappingTorus, "distance", counted)
    cfg = write_config(tmp_path, k=2, fiber_res=8, t_res=4)
    out = tmp_path / "out.json"
    assert run(["degree", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(str(out))["degree"]["preimage_count"] == 243
    assert len(calls) < 30


def test_degree_on_generic_field(tmp_path):
    cfg = write_config(tmp_path, field=MIXED_FIELD, eps=0.05, k=1,
                       fiber_res=8, t_res=4)
    out = tmp_path / "out.json"
    assert run(["degree", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(str(out))
    deg = doc["degree"]
    assert deg["preimage_count"] == 27 and deg["expected"] == 27
    assert deg["min_separation"] > 0.0
    assert doc["pass"] is True


# ---------------------------------------------------------------------------
# orbit

def test_orbit_command(tmp_path):
    cfg = write_config(tmp_path, eps=0.0)
    out = tmp_path / "orbit.csv"
    assert run(["orbit", "--config", cfg, "--start", "0.1,0.2,0.3",
                "--steps", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2"
    assert len(lines) == 5
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    t = 0.1
    x = [0.2, 0.3]
    for row in rows:
        assert row[0] == pytest.approx(t, abs=1e-12)
        assert row[1] == pytest.approx(x[0], abs=1e-12)
        assert row[2] == pytest.approx(x[1], abs=1e-12)
        assert 0.0 <= row[0] < 1.0
        t = (3 * t) % 1.0
        x = [(3 * v) % 1.0 for v in x]
    # full precision round trip
    assert lines[1].split(",")[0] == "%.17g" % 0.1


def test_orbit_start_validation(tmp_path):
    # a wrong count, a non-number, a non-finite coordinate (which would
    # spin the chart normalization) and a negative step count are config
    # errors, not a failed verification or a numerical failure
    cfg = write_config(tmp_path)
    for flags in (["--start", "0.1,0.2"], ["--start", "0.1,x,0.2"],
                  ["--start", "inf,0.1,0.2"], ["--start", "0.1,nan,0.2"],
                  ["--steps", "-2"]):
        assert run(["orbit", "--config", cfg, *flags]) == 2, flags


def test_orbit_default_start_fits_the_dimension(tmp_path):
    # the default start is 0.1 for t and for each of the n fiber coordinates
    for n in (1, 3):
        term = {"coeff": [1.0] + [0.0] * (n - 1), "freq": [0] * (n - 1) + [1],
                "phase": "sin"}
        cfg = write_config(tmp_path, n=n, field=[term], eps=0.05, fiber_res=4,
                           t_res=4)
        out = tmp_path / f"orbit-{n}.csv"
        assert run(["orbit", "--config", cfg, "--steps", "1", "--out", str(out)]) == 0, n
        lines = out.read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"x_{i + 1}" for i in range(n))
        assert [float(v) for v in lines[1].split(",")] == [0.1] * (n + 1)
        assert len(lines) == 3


def test_orbit_starts_many_windings_from_the_chart(tmp_path):
    # normalizing t = 20000 crosses the wrap 20000 times, within the bound
    # of 10^5 windings
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = os.path.join(root, "configs", "shear.json")
    out = tmp_path / "orbit.csv"
    assert run(["orbit", "--config", cfg, "--start", "20000,0.1,0.2", "--steps", "1",
                "--out", str(out)]) == 0
    first = [float(v) for v in out.read_text().splitlines()[1].split(",")]
    assert all(0.0 <= v < 1.0 for v in first)
    # a start past the bound is refused at once, not spun on for hours
    for start in ("1e9,0.1,0.2", "-1e9,0.1,0.2", "1e300,0.1,0.2"):
        started = time.perf_counter()
        assert run(["orbit", "--config", cfg, f"--start={start}"]) == 3, start
        assert time.perf_counter() - started < 5.0, start


@pytest.mark.parametrize("k", [5, 12])
def test_degree_refuses_a_depth_whose_preimages_it_cannot_compare(tmp_path, capsys, k):
    # 3^(2k) preimages per branch: from k = 5 on their pairwise differences
    # pass 10^8 (at k = 12 the cosets alone are 2.8e11 tuples), so the
    # search stops before it enumerates any
    cfg = write_config(tmp_path, k=k, fiber_res=8, t_res=4)
    started = time.perf_counter()
    assert run(["degree", "--config", cfg]) == 3
    assert time.perf_counter() - started < 2.0
    err = capsys.readouterr().err
    assert "UnsupportedForm" in err and f"{3 ** (2 * k)} preimages per branch" in err


# ---------------------------------------------------------------------------
# seams

def test_seams_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.json"
    assert run(["seams", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(str(out))
    assert doc["pass"] is True
    assert sorted(doc["seams"]) == ["F", "H", "P", "Q", "R", "S", "T",
                                    "f", "pk", "qm"]
    assert max(doc["seams"].values()) < 1e-9


# ---------------------------------------------------------------------------
# Exit codes

def test_exit_code_config_error(tmp_path):
    path = write_config(tmp_path, bogus=1)
    assert run(["constants", "--config", path]) == 2
    assert run(["verify", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("command, csv", [("verify", False), ("orbit", False),
                                          ("verify", True)])
def test_an_unwritable_output_path_is_a_config_error(tmp_path, capsys, command, csv):
    # the pipeline runs first and then fails to write: a file error, not a failed check
    missing = tmp_path / "missing" / "out"
    if csv:
        cfg = write_config(tmp_path, fiber_res=8, t_res=4, csv_out=str(missing))
        args = [command, "--config", cfg, "--out", str(tmp_path / "out.json")]
    else:
        args = [command, "--config", write_config(tmp_path, fiber_res=8, t_res=4),
                "--out", str(missing)]
    assert run(args) == 2
    assert f"config error: cannot write {missing}" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path):
    # displacement slope above one: the straight-line path is not a
    # diffeotopy, which the construction must refuse
    term = {"coeff": [3.0, 0.0], "freq": [0, 1], "phase": "sin"}
    cfg = write_config(tmp_path, field=[term], fiber_res=8, t_res=4)
    assert run(["verify", "--config", cfg]) == 3


@pytest.mark.parametrize("command", ["constants", "verify"])
def test_a_grid_too_large_to_allocate_is_a_numerical_failure(tmp_path, capsys, command):
    # configs/cyc3.json at 2^18 points per axis: its 2^54 grid points need
    # 128 PiB, more than any address space, so numpy refuses the grid up
    # front and nothing is allocated; a numerical failure, not a failed check
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    data = read_json(os.path.join(root, "configs", "cyc3.json"))
    cfg = write_config(tmp_path, **dict(data, k=1, fiber_res=2 ** 18))
    started = time.perf_counter()
    assert run([command, "--config", cfg]) == 3
    assert time.perf_counter() - started < 2.0
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory: ") and err.count("\n") == 1


_ALL_ONES_40 = {"n": 40, "eps": 0.001,
                "field": [{"coeff": [1.0] + [0.0] * 39, "freq": [1] * 40, "phase": "sin"}]}


@pytest.mark.parametrize("overrides", [
    {"fiber_res": 2 ** 22, "k": 1},
    {"t_res": 2 ** 62, "fiber_res": 4},
    dict(_ALL_ONES_40, fiber_res=4, t_res=4),
], ids=["cyc3-fiber_res-2^22", "cyc3-t_res-2^62", "n40-all-ones"])
def test_a_size_numpy_cannot_address_is_a_numerical_failure(tmp_path, overrides):
    # 2^66 grid points, 2^62 + 1 slices, 4^40 grid points: the sizes are
    # counted in Python integers and refused before numpy is asked, so the
    # run stops at once with one line and no traceback
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    data = read_json(os.path.join(root, "configs", "cyc3.json"))
    cfg = write_config(tmp_path, **dict(data, **overrides))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "mtcover", "constants", "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - started < 10.0
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical failure: out of memory: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_a_contraction_constant_at_most_one_fails_with_a_report(tmp_path):
    # at the forced depth k = 1 the cone floor of this field is 0.74: no
    # step count beats the norm gap, so verify reports the failed checks
    # with null adapted steps and rate and exits 1, not 3
    field = [{"coeff": [0.0, 1.0], "freq": [2, 1], "phase": "cos"},
             {"coeff": [0.0, 1.0], "freq": [-1, 2], "phase": "sin"}]
    cfg = write_config(tmp_path, eps=0.04, k=1, field=field, fiber_res=8, t_res=4)
    out = tmp_path / "report.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 1
    doc = read_json(str(out))
    expansion = doc["expansion"]
    assert 0.0 < expansion["mu"] <= 1.0
    assert expansion["adapted_steps"] is None and expansion["adapted_rate"] is None
    assert not expansion["checks"]["mu_above_one"]
    assert not expansion["checks"]["adapted_rate_above_one"]
    assert doc["pass"] is False and expansion["passed"] is False


def _plain_and_optimized_reports(tmp_path, config):
    """The verify report on config from python and from python -O."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{len(flags)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "mtcover", "verify",
             "--config", config, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    return reports


def test_verify_under_optimize_flag_matches_plain_run(tmp_path):
    # no check may disappear under python -O: configs/mixed2.json (the
    # generic n=2 field at k=3, 8^2 x 4) gives the same report either way
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    reports = _plain_and_optimized_reports(tmp_path, os.path.join(root, "configs", "mixed2.json"))
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["pass"] is True


def test_a_tiny_shear_verify_under_optimize_flag_matches_plain_run(tmp_path):
    # the closed-form shear at 32^2 x 4: 1,024 points per slice run the
    # entry forms of _small, and the run's read-only grid the jet memo
    reports = _plain_and_optimized_reports(tmp_path, write_config(tmp_path, fiber_res=32,
                                                                  t_res=4))
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["pass"] is True


def test_verify_on_stdout_prints_one_report_at_two_workers(tmp_path):
    # the csv_out dump sweeps again after the report is buffered on stdout,
    # so a forked sweep worker that flushed its copy of that buffer on exit
    # would print the report twice (stdout is a pipe here, so it is block
    # buffered unless PYTHONUNBUFFERED is set)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    csv = tmp_path / "conorm.csv"
    cfg = write_config(tmp_path, csv_out=str(csv))
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "mtcover", "verify", "--config", cfg, "--threads", threads],
            env=env, capture_output=True, timeout=300)
        runs.append((proc.returncode, proc.stdout, csv.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert json.loads(runs[0][1])["pass"] is True


# the configs/cyc3.json verify report: every Newton-backed stage of an n=3
# field feeds these, and reruns must match them to rounding
CYC3_REF = {
    "constants": {
        "c_eq": 0.6858407346410206,
        "c_q": 0.8020923703701007,
        "conorm_C": 0.6576659566698718,
        "conorm_C_bound": 0.3313250085748365,
        "coupling_K": 3.772394500549991,
        "coupling_K_eff": 3.772394500549991,
        "lambda_target": 2.4934783995977443,
    },
    "expansion": {
        "adapted_rate": 2.911489305054229,
        "adapted_steps": 2,
        "case_bound": 3.0,
        "mu": 3.0,
        "vertical_margin": 6.677050421996585,
    },
}


def test_verify_on_the_cyclic_three_torus_config(tmp_path):
    # configs/cyc3.json: the cyclic n=3 field at 8^3 x 8; reports must not
    # depend on the thread count, and their constants are pinned
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = os.path.join(root, "configs", "cyc3.json")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"cyc3-{threads}.json"
        assert run(["verify", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["pass"] is True and doc["expansion"]["k"] == 2
    for block, ref in CYC3_REF.items():
        for key, value in ref.items():
            assert math.isclose(doc[block][key], value, rel_tol=1e-12, abs_tol=0.0), key


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="a pass is a claim about the sampled grid: C(2) reads 0.5497 "
                          "on 7^3, below the 0.5658 it needs there, and 0.6577 on 8^3, "
                          "above 0.5890")
def test_the_cyclic_verdict_does_not_depend_on_the_fiber_grid(tmp_path):
    # configs/cyc3.json at k = 2 and 8 slices, on 7^3 and 8^3 fiber grids
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    data = read_json(os.path.join(root, "configs", "cyc3.json"))
    verdicts = []
    for res in (7, 8):
        cfg = write_config(tmp_path, f"cyc3-{res}.json", **dict(data, k=2, t_res=8, fiber_res=res))
        out = tmp_path / f"cyc3-{res}-report.json"
        run(["verify", "--config", cfg, "--out", str(out)])
        verdicts.append(read_json(str(out))["pass"])
    assert verdicts[0] == verdicts[1]
