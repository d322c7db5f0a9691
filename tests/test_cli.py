import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mtcover.expansion
from mtcover.cli import load_config, main
from mtcover.errors import ConfigError
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
])
def test_load_config_validation(tmp_path, overrides, needle):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=needle):
        load_config(path)


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


def test_constants_and_verify_share_one_pipeline(tmp_path, monkeypatch):
    # both commands measure C(k) once per depth that select_k tries, and
    # report the same constants; patched wherever mtcover binds the name
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
    cfg = write_config(tmp_path)
    assert run(["orbit", "--config", cfg, "--start", "0.1,0.2"]) == 2


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


def test_exit_code_numerical_failure(tmp_path):
    # displacement slope above one: the straight-line path is not a
    # diffeotopy, which the construction must refuse
    term = {"coeff": [3.0, 0.0], "freq": [0, 1], "phase": "sin"}
    cfg = write_config(tmp_path, field=[term], fiber_res=8, t_res=4)
    assert run(["verify", "--config", cfg]) == 3


def test_verify_under_optimize_flag_matches_plain_run(tmp_path):
    # no check may disappear under python -O: configs/mixed2.json (the
    # generic n=2 field at k=3, 8^2 x 4) gives the same report either way
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{len(flags)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "mtcover", "verify",
             "--config", os.path.join(root, "configs", "mixed2.json"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["pass"] is True


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
