"""The benchmark's report gate, at its tiny sizes.

perfbench/worker.py checks every `verify` and `constants` report it times
against a stored reference (perfbench/reference/, rtol 1e-12), and every
`degree` report against the covering degree the config implies; it counts
a failed check as a failed operation.  These tests run the same commands
on the tiny configs and apply the worker's own check, so a change that
moves a report past the gate fails here before a benchmark run.  The
benchmark's files are loaded, never changed.
"""

import glob
import importlib.util
import json
import os
import sys

import pytest

from mtcover.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
SEED = 0  # the worker overwrites the reference's seed with the run's


def _load_worker():
    # worker.py imports its siblings calibration and workloads by bare name
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                      os.path.join(PERFBENCH, "worker.py"))
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
    finally:
        sys.path.remove(PERFBENCH)
        for name in ("calibration", "workloads"):
            sys.modules.pop(name, None)
    return worker


WORKER = _load_worker()


def _tiny_references():
    # <config>.tiny.<command>.json -> (config, command)
    names = (os.path.basename(p).split(".")
             for p in sorted(glob.glob(os.path.join(PERFBENCH, "reference", "*.tiny.*.json"))))
    return [(parts[0], parts[2]) for parts in names]


def test_every_referenced_command_has_a_tiny_reference():
    commands = {command for _, command in _tiny_references()}
    assert commands == set(WORKER.workloads.REFERENCED)


@pytest.mark.parametrize("config,command", _tiny_references())
def test_tiny_reports_pass_the_benchmark_gate(config, command, tmp_path):
    path = WORKER.workloads.write_config(config, "tiny", SEED, str(tmp_path))
    with open(path) as fh:
        cfg = json.load(fh)
    texts = []
    for threads in (1, 2):
        out = tmp_path / f"{command}-{threads}t.json"
        assert main([command, "--config", path, "--threads", str(threads),
                     "--out", str(out)]) == 0
        texts.append(out.read_bytes())
        assert WORKER.check_report(command, json.loads(texts[-1]), config, cfg, "tiny") is None
    # the benchmark also requires byte-identical reports across thread counts
    assert texts[0] == texts[1]


def test_the_gate_rejects_a_report_moved_past_its_tolerance():
    config, command = _tiny_references()[0]
    with open(WORKER.workloads.reference_path(config, "tiny", command)) as fh:
        report = json.load(fh)
    cfg = {"seed": report["config_echo"]["seed"]}
    assert WORKER.check_report(command, report, config, cfg, "tiny") is None
    report["constants"]["c_q"] *= 1.0 + 1e-11
    assert WORKER.check_report(command, report, config, cfg, "tiny") is not None


def test_tiny_degree_passes_the_benchmark_gate(tmp_path):
    # the benchmark's degree command has no stored report: the worker checks
    # the preimage count, the lattice map and the separation instead
    config = "shear-k2"
    assert (config, "degree", 1) in WORKER.workloads.WORKLOADS["newton-pointwise"]
    path = WORKER.workloads.write_config(config, "tiny", SEED, str(tmp_path))
    with open(path) as fh:
        cfg = json.load(fh)
    out = tmp_path / "degree.json"
    assert main(["degree", "--config", path, "--threads", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_bytes())
    assert WORKER.check_report("degree", report, config, cfg, "tiny") is None
    report["degree"]["preimage_count"] -= 1
    assert WORKER.check_report("degree", report, config, cfg, "tiny") is not None
