"""mtcover benchmark: time to verdict, set-up time and memory per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mtcover is imported from ./src.
The seed becomes the generated config's `seed`.  With --trace 0 the last
stdout line holds the end-to-end metrics of BENCHMARK.json; with --trace 1
it holds the per-layer metrics of a separate, traced run at 1 thread.
Earlier lines name every operation's latency (verify_s, degree_s, ...),
scaled and as wall time, the environment stamp and each failure.
Latencies are scaled to a reference machine speed (calibration.py).  Every report is checked; a wrong
or failed operation counts in `failed`, and its time is left out.

All work runs in child processes with BLAS and OpenMP pinned to one
thread, so only the --threads value of an operation adds threads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({name: "1" for name in PINNED})
    return env


def summarize(workload: str, result: dict, trace: int):
    """Print the named latencies and failures; return the final JSON object."""
    ops = result["ops"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    failed = [op for op in ops if op["error"] is not None]
    for op in failed:
        print(f"failure {op['command']} --threads {op['threads']}: {op['error']}")
    scale = 1.0
    if not trace:
        kernel = statistics.mean(result["calibration_s"])
        scale = calibration.REFERENCE_S / kernel
        print(f"calibration kernel {kernel:.4f} s mean of {len(result['calibration_s'])}; "
              f"latencies scaled by {calibration.REFERENCE_S} / {kernel:.4f} = {scale:.4f}")
    latencies = {}
    for slot, (_, command, threads) in enumerate(workloads.WORKLOADS[workload]):
        good = [op["seconds"] for op in ops
                if op["slot"] == slot and op["error"] is None and not op["traced"]]
        tried = sum(op["slot"] == slot and not op["traced"] for op in ops)
        label = workloads.op_label(command, threads)
        if good:
            wall = statistics.median(good)
            latencies[f"op_{'ab'[slot]}_s"] = wall * scale
            scaled = "" if trace else f"{wall * scale:.4f} s scaled, "
            print(f"{label} {scaled}wall {wall:.4f} s  ({len(good)} of {tried} ok, "
                  f"wall min {min(good):.4f}, max {max(good):.4f})")
        elif tried:
            print(f"{label} absent  (0 of {tried} ok)")
    print(f"fail_share {len(failed) / len(ops):.4f}  ({len(failed)} of {len(ops)})")
    if trace:
        metrics = result["per_layer"]
        print(f"counts_repeat {result['counts_repeat']}")
    else:
        metrics = {name: {"value": value, "unit": "s"} for name, value in latencies.items()}
        metrics["setup_s"] = {"value": result["setup_s"], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny configs are for perfbench/smoke.py")
    parser.add_argument("--spans", help="with --trace 1, write every span to this CSV")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mtcover", "__init__.py")):
        print(f"no mtcover sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        env = child_env()
        result_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--result", result_path]
        if args.spans:
            cmd += ["--spans", os.path.abspath(args.spans)]
        # its own process group, so that a timeout also stops set-up children
        worker = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
        try:
            code = worker.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            raise
        if code != 0:
            print(f"worker exited {code}", file=sys.stderr)
            return 1
        with open(result_path) as fh:
            result = json.load(fh)
        final = summarize(args.workload, result, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
