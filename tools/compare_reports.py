"""Compare mtcover's reports on this tree with those on another checkout.

    python tools/compare_reports.py PARENT_TREE

Runs one check matrix through `python -m mtcover` on both trees, each with
PYTHONPATH=<tree>/src and BLAS pinned to one thread:

- `constants` and `verify` at --threads 1, 2 and 3, and `degree` and
  `seams` at 1 thread, on configs/*.json, on the benchmark's full
  shear-64x16, mixed2-k3 and shear-k2 configs (seed 0), and on two
  rank-deficient Newton-path fields;
- `constants` and `verify` with csv_out on shear, mixed2, cyc3 and the two
  rank-deficient fields.

Report files, exit codes, stderr without its `elapsed` line and the csv_out
dumps must match byte for byte.  Each mismatch is printed with its file
and the largest relative move of a number in it.  Exits 0 when everything
is identical and 1 otherwise.  The configs come from this tree, and the
benchmark's from its perfbench/workloads.py.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# the rank-deficient Newton-path fields: x1 is unused at n = 2 and x3 at n = 3
RANK_DEFICIENT = {
    "rank1-n2": dict(n=2, eps=0.08, fiber_res=32, t_res=8, field=[
        {"coeff": [1.0, 0.5], "freq": [0, 1], "phase": "sin"},
        {"coeff": [0.3, -0.4], "freq": [0, 2], "phase": "cos"}]),
    "rank2-n3": dict(n=3, eps=0.05, fiber_res=12, t_res=8, field=[
        {"coeff": [1.0, 0.0, 0.5], "freq": [0, 1, 0], "phase": "sin"},
        {"coeff": [0.0, 1.0, 0.2], "freq": [1, 0, 0], "phase": "sin"}]),
}
BENCHMARK_CONFIGS = ("shear-64x16", "mixed2-k3", "shear-k2")
CSV_CONFIGS = ("shear", "mixed2", "cyc3", *RANK_DEFICIENT)
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def _configs() -> dict:
    """Config name -> config dict of the matrix."""
    configs = {path.stem: json.loads(path.read_text())
               for path in sorted((HERE / "configs").glob("*.json"))}
    spec = importlib.util.spec_from_file_location("workloads", HERE / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in BENCHMARK_CONFIGS:
        configs[name] = dict(workloads.CONFIGS[name]["full"], seed=0)
    configs.update(RANK_DEFICIENT)
    return configs


def _runs(configs: dict) -> list[tuple[str, str, int, bool]]:
    """(config, command, threads, csv) of every run of the matrix."""
    runs = []
    for name in configs:
        runs += [(name, command, threads, False)
                 for command in ("constants", "verify") for threads in (1, 2, 3)]
        runs += [(name, command, 1, False) for command in ("degree", "seams")]
    runs += [(name, command, 1, True) for name in CSV_CONFIGS for command in ("constants", "verify")]
    return runs


def _run_side(tree: Path, work: Path, configs: dict, runs: list) -> dict:
    """Run the matrix on tree, in work; label -> {file name: bytes}."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(BLAS_THREADS, "1"))
    results = {}
    for name, command, threads, csv in runs:
        label = f"{name}.{command}.t{threads}" + (".csv" if csv else "")
        # csv_out is echoed in the report, so both sides write the same
        # relative path from their own work directory
        config = dict(configs[name], csv_out=f"{label}.csv") if csv else configs[name]
        (work / f"{label}.config.json").write_text(json.dumps(config, indent=1))
        proc = subprocess.run(
            [sys.executable, "-m", "mtcover", command, "--config", f"{label}.config.json",
             "--out", f"{label}.out", "--threads", str(threads)],
            cwd=work, env=env, capture_output=True)
        stderr = b"".join(line for line in proc.stderr.splitlines(keepends=True)
                          if not line.startswith(b"elapsed "))
        files = {"exit code": str(proc.returncode).encode(), "stderr": stderr}
        for suffix in (".out", ".csv"):
            path = work / f"{label}{suffix}"
            files[path.name] = path.read_bytes() if path.exists() else b"(missing)"
        results[label] = files
        print(f"{tree.name}: {label} exit {proc.returncode}", file=sys.stderr)
    return results


def _largest_move(a: bytes, b: bytes) -> str:
    """The largest relative move between the numbers of a and b, in order."""
    x, y = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(x) != len(y):
        return f"{len(x)} vs {len(y)} numbers"
    moves = []
    for p, q in zip(x, y):
        p, q = float(p), float(q)
        if p != q and p == p and q == q:
            moves.append(abs(p - q) / max(abs(p), abs(q)))
    if not moves:
        return "the numbers agree; the text differs"
    return f"largest relative move {max(moves):.3g} over {len(moves)} numbers"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path, help="checkout to compare with")
    args = parser.parse_args(argv)
    parent = args.parent_tree.resolve()
    if not (parent / "src" / "mtcover").is_dir():
        parser.error(f"{parent} holds no src/mtcover")
    configs = _configs()
    runs = _runs(configs)
    with tempfile.TemporaryDirectory() as work:
        here = _run_side(HERE, Path(work) / "this", configs, runs)
        there = _run_side(parent, Path(work) / "parent", configs, runs)
    mismatches = 0
    for label, files in here.items():
        for name, data in files.items():
            if data != there[label][name]:
                mismatches += 1
                print(f"DIFFERS {label}: {name}: {_largest_move(data, there[label][name])}")
    print(f"{len(runs)} runs a side, {mismatches} differing files")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
