"""Child process of perfbench/run.py: runs one workload and checks outputs.

Each operation is one call of `mtcover.cli.main`, the code path of the
`mtcover` command, with the generated config and `--out` in the work
directory.  Import of mtcover happens before any timed region; its cost is
measured separately as set-up time (`--setup-only`).  With --trace 0
the calibration kernel (calibration.py) runs before every operation, so
that run.py can scale latencies to a reference machine speed.

Writes a JSON result file for the parent; prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
import workloads

RTOL = 1e-12  # as tests/test_expansion.py pins the reference constants
MIN_SETUPS = 9
CHILD_TIMEOUT_S = 60


def setup_only(config: str):
    """Fresh interpreter to ready pipeline: import, validate, build."""
    from mtcover import MetricG, TrigDisplacementMap, default_psi
    from mtcover.cli import load_config

    cfg = load_config(config)
    field = cfg.displacement_field()
    h = TrigDisplacementMap(field)
    MetricG(h)
    default_psi(field)
    print("ready", flush=True)


def measure_setup(config: str) -> float:
    """Seconds from spawning an interpreter to its ready pipeline."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-only", config],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child exited {code} without a ready pipeline")
    return elapsed


def _close(a, b) -> bool:
    """Equal structure, floats within RTOL, everything else exactly."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)) and not isinstance(b, bool):
        return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))
    return type(a) is type(b) and a == b


def check_report(command: str, report: dict, config: str, cfg: dict, size: str):
    """None if the report is right, else what is wrong with it."""
    if command in workloads.REFERENCED:
        path = workloads.reference_path(config, size, command)
        if not os.path.exists(path):
            return f"no reference report {os.path.basename(path)}"
        with open(path) as fh:
            reference = json.load(fh)
        if report["config_echo"]["seed"] != cfg["seed"]:
            return "config_echo.seed differs from the run seed"
        reference["config_echo"]["seed"] = cfg["seed"]
        if not _close(report, reference):
            return f"{command} report differs from reference {os.path.basename(path)}"
        return None
    if command == "degree":
        deg = report["degree"]
        k = cfg["k"] if cfg["k"] is not None else 1
        fiber = cfg["base"] ** k
        expected = fiber ** cfg["n"] * (2 * cfg["m"] + 1)
        diagonal = [2 * cfg["m"] + 1] + [fiber] * cfg["n"]
        linear = [[d if i == j else 0 for j in range(len(diagonal))]
                  for i, d in enumerate(diagonal)]
        if not (deg["preimage_count"] == deg["expected"] == expected and report["pass"]):
            return f"degree found {deg['preimage_count']} of {expected} preimages"
        if deg["pi1_linear_part"] != linear or not deg["min_separation"] > 0.0:
            return "degree lattice map or separation is wrong"
        return None
    return f"no output check for {command}"


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, cli, configs: dict, size: str, workdir: str):
        self.cli = cli
        self.configs = configs  # name -> path of the generated config
        self.size = size
        self.workdir = workdir
        self.records = []

    def run(self, slot: int, config: str, command: str, threads: int,
            traced: bool = False) -> dict:
        out = os.path.join(self.workdir, f"{config}.{command}-{threads}t.json")
        argv = [command, "--config", self.configs[config], "--threads", str(threads),
                "--out", out]
        err = io.StringIO()
        error = None
        with contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an escaped exception is a failed operation
                code = None
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        if error is None and code != 0:
            lines = [ln for ln in err.getvalue().splitlines() if not ln.startswith("elapsed")]
            error = f"exit {code}: " + " | ".join(lines)
        text = None
        if error is None:
            with open(out, "rb") as fh:
                text = fh.read()
            with open(self.configs[config]) as fh:
                cfg = json.load(fh)
            error = check_report(command, json.loads(text), config, cfg, self.size)
        record = {"slot": slot, "command": command, "threads": threads,
                  "traced": traced, "seconds": elapsed, "error": error}
        self.records.append(record)
        record["bytes"] = text
        return record

    def iteration(self, ops, traced: bool = False, before_op=None) -> float | None:
        """Run ops in order, calling before_op() ahead of each; their summed
        time, or None if any failed."""
        by_command = {}
        total = 0.0
        ok = True
        for slot, (config, command, threads) in ops:
            if before_op is not None:
                before_op()
            rec = self.run(slot, config, command, threads, traced)
            ok = ok and rec["error"] is None
            total += rec["seconds"]
            first = by_command.setdefault((config, command), rec)
            if (rec is not first and rec["error"] is None
                    and first["bytes"] is not None and rec["bytes"] != first["bytes"]):
                rec["error"] = (f"{command} report at --threads {threads} is not "
                                f"byte-identical to --threads {first['threads']}")
                ok = False
        for rec in self.records:
            rec.pop("bytes", None)
        return total if ok else None


def warm_up(cli, ops, seed: int, workdir: str):
    """Run every operation once on its tiny config; nothing is recorded."""
    tiny = os.path.join(workdir, "warm-up")
    os.makedirs(tiny, exist_ok=True)
    configs = {name: workloads.write_config(name, "tiny", seed, tiny)
               for _, (name, _, _) in ops}
    Runner(cli, configs, "tiny", tiny).iteration(ops)


def timed_loop(seconds: float, body):
    """Call body() at least once, and again while the next call, estimated
    from the last, fits in `seconds`."""
    start = perf_counter()
    while True:
        began = perf_counter()
        body()
        last = perf_counter() - began
        if perf_counter() - start + last > seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", metavar="CONFIG",
                        help="only time the set-up of a pipeline for CONFIG")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--spans", help="write every traced span to this CSV")
    args = parser.parse_args(argv)

    if args.setup_only:
        setup_only(args.setup_only)
        return 0

    import numpy as np
    from mtcover import cli

    ops = list(enumerate(workloads.WORKLOADS[args.workload]))
    configs = {name: workloads.write_config(name, args.size, args.seed, args.workdir)
               for _, (name, _, _) in ops}
    runner = Runner(cli, configs, args.size, args.workdir)
    result = {
        "env": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mtcover": os.path.dirname(cli.__file__),
            "threads_env": {k: os.environ.get(k) for k in sorted(os.environ)
                            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
            "op_threads": {workloads.op_label(c, t): t for _, (_, c, t) in ops},
        },
    }
    if args.trace:
        # the traced run uses 1 thread; its reports are checked like any other
        ops = [(slot, op) for slot, op in ops if op[2] == 1]
        import tracing

        tracer = tracing.Tracer()
        windows, untraced, traced = [], [], []

        def untraced_then_traced():
            untraced.append(runner.iteration(ops))
            remove = tracing.instrument(tracer)
            try:
                first = tracer.mark()
                traced.append(runner.iteration(ops, traced=True))
            finally:
                remove()
            windows.append(tracer.metrics(first))

        timed_loop(args.seconds, untraced_then_traced)
        per_layer = windows[0]
        for name, entry in per_layer.items():
            if entry["unit"] == "s":
                entry["value"] = statistics.median(w[name]["value"] for w in windows)
        result["counts_repeat"] = all(
            w[name] == per_layer[name] for w in windows for name in w
            if per_layer[name]["unit"] == "count")
        if None not in untraced + traced:
            per_layer[tracing.OVERHEAD] = {
                "value": statistics.median(traced) / statistics.median(untraced),
                "unit": "ratio"}
        result["per_layer"] = per_layer
        if args.spans:
            tracer.write(args.spans)
    else:
        # the calibration kernel runs before every operation, and set-up
        # children between iterations, so that both span the same stretch
        # of machine time as the operations
        setups, calibrations = [], []
        started = perf_counter()
        calibration.measure()
        warm_up(cli, ops, args.seed, args.workdir)

        def iteration_then_setups():
            runner.iteration(ops, before_op=lambda: calibrations.append(calibration.measure()))
            setups.append(measure_setup(configs[ops[0][1][0]]))

        # the warm-up counts against --seconds, so that a run's length stays put
        timed_loop(args.seconds - (perf_counter() - started), iteration_then_setups)
        while len(setups) < MIN_SETUPS:
            setups.append(measure_setup(configs[ops[0][1][0]]))
        result["calibration_s"] = calibrations
        result["setup_s"] = statistics.median(setups)
        result["setup_samples"] = len(setups)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = runner.records
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
