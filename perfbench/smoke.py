"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks that a run emits exactly
the metrics named there (end-to-end with --trace 0, per-layer with
--trace 1) with their units and no failed operation, that --spans writes
spans, and that per-layer call counts repeat exactly between two traced
runs with the same seed.
It also checks that the benchmark refuses to run, printing no result, in
a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 1 and names each problem if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(root: str, workload: str, trace: int, extra=()):
    """(exit code, final JSON object or None) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         *extra], cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def check_workload(workload: str, spec: dict, spans: str, problems: list):
    results = []
    for trace, declared, extra in ((0, spec["end_to_end"], ()),
                                   (1, spec["per_layer"], ("--spans", spans)),
                                   (1, spec["per_layer"], ())):
        code, out = bench(ROOT, workload, trace, extra)
        if code != 0 or out is None:
            problems.append(f"{workload} --trace {trace}: exit {code}, no result")
            return
        results.append(out)
        units = {name: entry["unit"] for name, entry in out["metrics"].items()}
        if units != {m["name"]: m["unit"] for m in declared}:
            problems.append(f"{workload} --trace {trace}: metrics {sorted(units)} "
                            f"differ from BENCHMARK.json")
        if not out["correct"] or out["failed"]:
            problems.append(f"{workload} --trace {trace}: {out['failed']} failed")
    with open(spans) as fh:
        if len(fh.readlines()) < 2:
            problems.append(f"{workload}: --spans wrote no span")
    first, second = results[1]["metrics"], results[2]["metrics"]
    changed = [name for name, entry in first.items()
               if entry["unit"] == "count" and second[name] != entry]
    if changed:
        problems.append(f"{workload}: counts differ between traced runs: {changed}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as work:
        for workload in spec["workloads"]:
            spans = os.path.join(work, f"{workload['name']}.spans.csv")
            check_workload(workload["name"], spec, spans, problems)

        bare = os.path.join(work, "bare")
        os.mkdir(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench(bare, spec["workloads"][0]["name"], 0)
        if code == 0 or out is not None:
            problems.append(f"without sources: exit {code}, result {out}")

    for problem in problems:
        print(problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
