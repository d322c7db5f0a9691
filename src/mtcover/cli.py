"""Batch command line front end.

Subcommands:
    constants   measure the metric and conorm constants, emit JSON
    verify      run the full expansion pipeline, exit 0 iff it passes
    degree      enumerate preimages of a seeded probe point, report counts
    orbit       iterate the composite map from a start point, emit CSV
    seams       max chart discrepancy across every seam, per map

Exit codes: 0 success/pass, 1 verification failed, 2 config error,
3 numerical failure.

The JSON report is deterministic for a fixed config and seed: keys are
sorted, floats use repr round-tripping, and the timings block holds work
counters rather than wall-clock times (those go to stderr), so reruns and
runs at any --threads (sweep worker processes) are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .coverings import build_qm, build_stage_inventory, orbit, preimages
from .errors import ConfigError, MTCoverError
from .expansion import default_psi, local_vertical_conorms, measure_constants, verify_expansion
from .fields import MAX_FREQ, TrigDisplacementField
from .lifting import tower_from_field
from .manifolds import MetricG, MTPoint, check_seams


@dataclass
class RunConfig:
    """Validated run parameters; threads, the number of sweep worker
    processes, is runtime-only (flag, not config)."""

    n: int
    field: list
    eps: float = 1.0
    m: int = 1
    k: int | None = None
    base: int = 3
    fiber_res: int = 64
    t_res: int = 32
    directions: int = 16
    newton_tol: float = 1e-12
    seam_tol: float = 1e-9
    fd_rel_tol: float = 1e-5
    nu_target: float = 2.0
    k_cap: int = 12
    seed: int = 0
    csv_out: str | None = None
    threads: int = 1

    def echo(self) -> dict:
        return {key: getattr(self, key) for key in _CONFIG_KEYS}

    def displacement_field(self) -> TrigDisplacementField:
        terms = [(term["coeff"], term["freq"], term["phase"])
                 for term in self.field]
        return TrigDisplacementField.from_terms(self.n, terms).scaled(self.eps)


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "threads")
_REQUIRED_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig)
                       if f.default is dataclasses.MISSING)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def load_config(path: str, threads: int | None = None,
                seed: int | None = None) -> RunConfig:
    """Read and validate a JSON config; unknown or missing keys fail fast."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ConfigError(f"missing config key: {key!r}")
    cfg = RunConfig(**data)
    if seed is not None:
        cfg.seed = seed
    if threads is not None:
        cfg.threads = threads
    _validate(cfg)
    return cfg


def _is_int(val) -> bool:
    # JSON true and false load as bool, a subclass of int, and are no numbers
    return isinstance(val, int) and not isinstance(val, bool)


def _is_finite(val) -> bool:
    """A JSON number within float range: not a bool, NaN, infinite or a huge integer."""
    return (_is_int(val) or isinstance(val, float)) and abs(val) <= sys.float_info.max


# integer keys and their least values
_INT_FLOORS = {"n": 1, "m": 1, "base": 2, "fiber_res": 4, "t_res": 4, "directions": 4,
               "k_cap": 1, "seed": 0}


def _validate(cfg: RunConfig):
    for key, floor in _INT_FLOORS.items():
        val = getattr(cfg, key)
        _require(_is_int(val) and val >= floor,
                 f"{key!r} must be an integer >= {floor}, got {val!r}")
    _require(cfg.k is None or (_is_int(cfg.k) and cfg.k >= 1),
             f"'k' must be null or an integer >= 1, got {cfg.k!r}")
    for key in ("newton_tol", "seam_tol", "fd_rel_tol", "nu_target"):
        val = getattr(cfg, key)
        _require(_is_finite(val) and val > 0,
                 f"{key!r} must be a positive finite number, got {val!r}")
    # open() takes an integer as a file descriptor: true would write to and
    # then close stdout
    _require(cfg.csv_out is None or (isinstance(cfg.csv_out, str) and cfg.csv_out != ""),
             f"'csv_out' must be null or a non-empty path, got {cfg.csv_out!r}")
    _require(_is_finite(cfg.eps), f"'eps' must be a finite number, got {cfg.eps!r}")
    _require(_is_int(cfg.threads) and cfg.threads >= 1,
             f"thread count must be >= 1, got {cfg.threads!r}")
    _require(isinstance(cfg.field, list), "'field' must be a list of term objects")
    for i, term in enumerate(cfg.field):
        _require(isinstance(term, dict), f"'field' term {i} must be an object")
        extra = set(term) - {"coeff", "freq", "phase"}
        _require(not extra, f"'field' term {i} has unknown keys: {sorted(extra)}")
        for part in ("coeff", "freq", "phase"):
            _require(part in term, f"'field' term {i} is missing {part!r}")
        _require(isinstance(term["coeff"], list) and len(term["coeff"]) == cfg.n
                 and all(_is_finite(v) for v in term["coeff"]),
                 f"'field' term {i}: 'coeff' must be a list of n={cfg.n} finite numbers")
        _require(isinstance(term["freq"], list) and len(term["freq"]) == cfg.n
                 and all(_is_int(v) and abs(v) <= MAX_FREQ for v in term["freq"]),
                 f"'field' term {i}: 'freq' must be a list of n={cfg.n} integers in ±2**53")
        _require(term["phase"] in ("sin", "cos"),
                 f"'field' term {i}: 'phase' must be \"sin\" or \"cos\"")


# ---------------------------------------------------------------------------
# Report plumbing


def _sanitize(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def emit_json(doc: dict, out_path: str | None):
    _write(json.dumps(_sanitize(doc), indent=2, sort_keys=True) + "\n", out_path)


def _work_counters(cfg: RunConfig) -> dict:
    # deterministic work-size counters; wall time goes to stderr only
    return {
        "parameter_slices": cfg.t_res,
        "grid_points_per_slice": cfg.fiber_res ** cfg.n,
        "direction_templates": 2 * cfg.directions + 1,
    }


def _csv_rows(rows, header: str, out_path: str | None):
    lines = [header]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    _write("\n".join(lines) + "\n", out_path)


def _dump_conorm_csv(cfg: RunConfig, f, metric: MetricG):
    """Grid dump of the local vertical conorm of the composite map, on the
    metric's grid and factored Gram; it frames f once more per slice."""
    grid = metric.source(cfg.fiber_res).grid
    local = local_vertical_conorms(f, metric, cfg.fiber_res, cfg.t_res, cfg.threads)
    rows = []
    for t, slice_values in zip(np.arange(cfg.t_res, dtype=float) / cfg.t_res, local):
        for x, c in zip(grid, slice_values):
            rows.append([t, *x, c])
    header = "t," + ",".join(f"x_{i + 1}" for i in range(cfg.n)) + ",local_conorm"
    _csv_rows(rows, header, cfg.csv_out)


def _stage_inventory(cfg: RunConfig) -> dict:
    """Stage maps and composites at depth cfg.k, or 1 when k is null."""
    field = cfg.displacement_field()
    tower = tower_from_field(field, cfg.k if cfg.k is not None else 1, cfg.base)
    return build_stage_inventory(tower, build_qm(tower.level(0), cfg.m, default_psi(field)))


def _report(cfg: RunConfig, out_path: str | None, passed: bool, **blocks) -> int:
    """Emit the report {config_echo, *blocks, timings, pass}; the exit code
    of its verdict."""
    emit_json({"config_echo": cfg.echo(), **blocks, "timings": _work_counters(cfg),
               "pass": passed}, out_path)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Commands


def cmd_measure(cfg: RunConfig, out_path: str | None = None, verify: bool = False) -> int:
    """The constants command, or with verify the verify command: the
    library's verify_expansion(measure_constants(...)); the run's f and
    metric are kept for the CSV dump."""
    run = measure_constants(cfg.displacement_field(), cfg.m, k=cfg.k, base=cfg.base,
                            fiber_res=cfg.fiber_res, t_res=cfg.t_res,
                            nu_target=cfg.nu_target, k_cap=cfg.k_cap, threads=cfg.threads)
    if verify:
        report = verify_expansion(run)
        block, passed = run.constants, report.passed
    else:
        # with no expansion report to hold it, k goes in the constants block
        report, block, passed = None, dict(dataclasses.asdict(run.constants), k=run.k), True
    code = _report(cfg, out_path, passed, constants=block, expansion=report)
    if cfg.csv_out:
        _dump_conorm_csv(cfg, run.f, run.metric)
    return code


def cmd_degree(cfg: RunConfig, out_path: str | None = None) -> int:
    inventory = _stage_inventory(cfg)
    f = inventory["f"]
    rng = np.random.default_rng(cfg.seed)
    probe = MTPoint(0, float(rng.uniform(0.05, 0.95)), rng.uniform(0.0, 1.0, cfg.n))
    probe = f.source.normalize(probe)
    points, linear, min_sep = preimages(f, probe, newton_tol=cfg.newton_tol)
    expected = cfg.base ** (inventory["H"].k * cfg.n) * (2 * cfg.m + 1)
    return _report(cfg, out_path, len(points) == expected, degree={
        "preimage_count": len(points),
        "expected": expected,
        "min_separation": min_sep,
        "pi1_linear_part": linear.tolist(),
        "probe": [probe.t, *probe.x],
    })


def cmd_orbit(cfg: RunConfig, start, steps: int,
              out_path: str | None = None) -> int:
    f = _stage_inventory(cfg)["f"]
    t0, x0 = start
    points = orbit(f, MTPoint(0, t0, np.asarray(x0, dtype=float)), steps)
    header = "t," + ",".join(f"x_{i + 1}" for i in range(cfg.n))
    _csv_rows([[p.t, *p.x] for p in points], header, out_path)
    return 0


def cmd_seams(cfg: RunConfig, out_path: str | None = None) -> int:
    inventory = _stage_inventory(cfg)
    rng = np.random.default_rng(cfg.seed)
    gaps = {name: float(check_seams(cover, n_samples=500, rng=rng))
            for name, cover in inventory.items()}
    return _report(cfg, out_path, max(gaps.values()) < cfg.seam_tol, seams=gaps)


# ---------------------------------------------------------------------------
# Entry point


def _parse_start(text: str, n: int):
    message = f"--start needs {n + 1} comma-separated finite numbers, got {text!r}"
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(message) from exc
    # an infinite or NaN coordinate would spin the chart normalization
    _require(len(parts) == n + 1 and bool(np.isfinite(parts).all()), message)
    return parts[0], parts[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtcover",
        description="Expansion verification for self-covers of mapping tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("constants", "verify", "degree", "orbit", "seams"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "orbit":
            p.add_argument("--start", default=None,
                           help="comma-separated t,x_1,...,x_n (default 0.1 for each)")
            p.add_argument("--steps", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config, threads=args.threads, seed=args.seed)
        if args.command in ("constants", "verify"):
            code = cmd_measure(cfg, args.out, verify=args.command == "verify")
        elif args.command == "degree":
            code = cmd_degree(cfg, args.out)
        elif args.command == "orbit":
            _require(args.steps >= 0, f"--steps must be >= 0, got {args.steps}")
            start = args.start or ",".join(["0.1"] * (cfg.n + 1))
            code = cmd_orbit(cfg, _parse_start(start, cfg.n), args.steps, args.out)
        else:
            code = cmd_seams(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MTCoverError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
