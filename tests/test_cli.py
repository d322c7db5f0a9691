import json
import math
import sys

import numpy as np
import pytest

import mtcover.expansion
from mtcover.cli import load_config, main
from mtcover.errors import ConfigError

SHEAR_TERM = {"coeff": [1.0, 0.0], "freq": [0, 1], "phase": "sin"}


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
