"""Command-line front end.

Subcommands: ``histogram``, ``sweep-g``, ``sweep-reset``, ``verify``,
``sample``.  Configuration comes from built-in defaults, optionally a
JSON config file (``--config``), the ``DEMON_BATTERY_SEED`` environment
variable, and individual flag overrides, in increasing precedence.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 I/O
error.

Output files carry the full parameter set and master seed in comment /
sidecar form; floats are written with 17 significant digits and LF line
endings so reruns with the same seed are byte-identical for any
``--threads`` value.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .engine import EngineConfig
from .experiments import (DEFAULT_G_TAU_GRID, DEFAULT_GAMMA_TAU_GRID,
                          HaarQubitSampler, SweepSpec,
                          run_histogram_experiment, run_sweep,
                          verify_energetics)
from .states import ergotropy_pure

SEED_ENV = "DEMON_BATTERY_SEED"

DEFAULTS = {
    "seed": 12345,
    "n_samples": 10000,
    "omega": 1.0,
    "omega_s": 1.0,
    "g_tau": math.pi / 8,
    "gamma_tau_se": 8.0,
    "tau_se": 1.0,
    "reset_mode": "full",
    "g_tau_grid": list(DEFAULT_G_TAU_GRID),
    "gamma_tau_se_grid": list(DEFAULT_GAMMA_TAU_GRID),
    "bins": 40,
    "threads": None,
}


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    # bool is a subclass of int, but JSON true is not a count
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _validate(cfg: dict) -> dict:
    for key in cfg:
        _require(key in DEFAULTS, f"unknown config key: {key!r}")
    _require(_is_int(cfg["seed"]) and 0 <= cfg["seed"] < 2 ** 64,
             "seed must be an integer in [0, 2^64)")
    _require(_is_int(cfg["n_samples"]) and cfg["n_samples"] >= 1,
             "n_samples must be ≥ 1")
    for key in ("omega", "omega_s", "g_tau", "gamma_tau_se", "tau_se"):
        _require(_is_number(cfg[key]), f"{key} must be a finite number")
    _require(cfg["omega"] > 0, "omega must be > 0")
    _require(cfg["omega_s"] >= 0, "omega_s must be ≥ 0")
    _require(cfg["tau_se"] > 0, "tau_se must be > 0")
    _require(cfg["gamma_tau_se"] >= 0, "gamma_tau_se must be ≥ 0")
    _require(cfg["reset_mode"] in ("full", "finite"),
             "reset_mode must be 'full' or 'finite'")
    for key in ("g_tau_grid", "gamma_tau_se_grid"):
        grid = cfg[key]
        _require(isinstance(grid, list) and len(grid) >= 1,
                 f"{key} must be a nonempty list")
        _require(all(_is_number(v) for v in grid),
                 f"{key} values must be finite numbers")
        _require(all(b > a for a, b in zip(grid, grid[1:])),
                 f"{key} must be strictly increasing")
    _require(all(v >= 0 for v in cfg["gamma_tau_se_grid"]),
             "gamma_tau_se_grid values must be ≥ 0")
    _require(_is_int(cfg["bins"]) and cfg["bins"] >= 1, "bins must be ≥ 1")
    _require(cfg["threads"] is None
             or (_is_int(cfg["threads"]) and cfg["threads"] >= 1),
             "threads must be ≥ 1")
    return cfg


def load_config(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < DEMON_BATTERY_SEED < flags."""
    cfg = dict(DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(loaded)
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env_seed!r}")
    for flag, key in (("seed", "seed"), ("n", "n_samples"),
                      ("g_tau", "g_tau"), ("gamma_tau_se", "gamma_tau_se"),
                      ("threads", "threads")):
        value = getattr(args, flag)
        if value is not None:
            cfg[key] = value
    return _validate(cfg)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _engine_config(cfg: dict) -> EngineConfig:
    return EngineConfig.default(
        g_tau=cfg["g_tau"], omega=cfg["omega"], omega_s=cfg["omega_s"],
        gamma_tau_se=cfg["gamma_tau_se"], tau_se=cfg["tau_se"],
        reset_mode=cfg["reset_mode"])


def _provenance(cfg: dict, command: str) -> dict:
    # threads is an execution knob with no effect on the numbers; leaving
    # it out keeps outputs byte-identical across --threads values
    params = {k: v for k, v in cfg.items() if k != "threads"}
    params["command"] = command
    return params


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _header(cfg: dict, command: str):
    return [
        f"# demon-battery {command}",
        "# params = " + json.dumps(_provenance(cfg, command), sort_keys=True),
    ]


def cmd_histogram(cfg: dict, out: Path) -> int:
    engine_cfg = _engine_config(cfg)
    result = run_histogram_experiment(
        engine_cfg, cfg["n_samples"], cfg["seed"], bins=cfg["bins"],
        threads=cfg["threads"])
    lines = _header(cfg, "histogram")
    lines.append("bin_lo,bin_hi,raw_count,processed_count")
    edges = result.raw.bin_edges
    for i in range(len(edges) - 1):
        lines.append(",".join([
            _fmt(edges[i]), _fmt(edges[i + 1]),
            str(int(result.raw.counts[i])),
            str(int(result.processed.counts[i])),
        ]))
    _write_lines(out, lines)
    sidecar = {
        "raw_mean": result.raw.mean,
        "processed_mean": result.processed.mean,
        "std_errors": {"raw": result.raw.std_error,
                       "processed": result.processed.std_error},
        "n": result.raw.n,
        "seed": cfg["seed"],
        "params": _provenance(cfg, "histogram"),
    }
    _write_lines(out.with_suffix(".json"),
                 [json.dumps(sidecar, sort_keys=True, indent=2)])
    print(f"wrote {out} and {out.with_suffix('.json')}")
    return 0


def cmd_sweep(cfg: dict, variable: str, out: Path) -> int:
    command = "sweep-g" if variable == "g_tau" else "sweep-reset"
    grid = cfg["g_tau_grid"] if variable == "g_tau" \
        else cfg["gamma_tau_se_grid"]
    spec = SweepSpec(variable=variable, grid=tuple(float(v) for v in grid),
                     n_samples=cfg["n_samples"], base=_engine_config(cfg),
                     master_seed=cfg["seed"])
    rows = run_sweep(spec, threads=cfg["threads"])
    lines = _header(cfg, command)
    columns = list(rows[0].keys())
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    _write_lines(out, lines)
    print(f"wrote {out}")
    return 0


def cmd_verify(cfg: dict, out) -> int:
    report = verify_energetics(omega=cfg["omega"])
    payload = {
        "max_deviation": report.max_deviation,
        "field_deviations": report.field_deviations,
        "pass": report.passed,
        "tolerance": report.tolerance,
        "grid": {
            "theta_points": report.theta_count,
            "g_tau_values": list(report.g_taus),
            "phi": report.phi,
            "n_points": report.n_points,
            "skipped_degenerate_branches": report.skipped_branches,
        },
        "seed": cfg["seed"],
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out is None:
        print(text)
    else:
        _write_lines(out, [text])
        print(f"wrote {out}")
    return 0 if report.passed else 1


def cmd_sample(cfg: dict, out: Path) -> int:
    sampler = HaarQubitSampler.from_seed(
        np.random.SeedSequence([cfg["seed"], 0, 0]))
    lines = _header(cfg, "sample")
    lines.append("ergotropy")
    for _ in range(cfg["n_samples"]):
        psi = sampler.sample()
        lines.append(_fmt(ergotropy_pure(psi, cfg["omega"])))
    _write_lines(out, lines)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demon-battery",
        description="Collision-model battery-charging engine: Monte Carlo "
                    "experiments and closed-form verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("histogram", "raw vs processed ergotropy histograms", "histogram.csv"),
        ("sweep-g", "average ergotropy vs interaction strength", "sweep_g.csv"),
        ("sweep-reset", "average ergotropy vs reset quality", "sweep_reset.csv"),
        ("verify", "check the simulation against closed forms", None),
        ("sample", "dump raw Haar-sampled ergotropies", "samples.csv"),
    )
    for name, help_text, default_out in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (see README for the schema)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config and env)")
        p.add_argument("--n", type=int, default=None,
                       help="number of Monte Carlo samples")
        p.add_argument("--g-tau", dest="g_tau", type=float, default=None,
                       help="interaction strength g*tau_SA")
        p.add_argument("--gamma-tau-se", dest="gamma_tau_se", type=float,
                       default=None, help="reset strength gamma*tau_SE")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: machine parallelism)")
        if name == "verify":
            p.add_argument("--out", type=str, default=None,
                           help="report path (default: stdout)")
        else:
            p.add_argument("--out", type=str, default=default_out,
                           help=f"output CSV path (default: {default_out})")
    return parser


def _outputs(args: argparse.Namespace) -> list:
    """Every file the command writes: --out, and the histogram's sidecar."""
    if args.out is None:
        return []
    out = Path(args.out)
    return [out, out.with_suffix(".json")] if args.command == "histogram" \
        else [out]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        _require(args.command != "histogram"
                 or Path(args.out).suffix != ".json",
                 "histogram --out must not end in .json: its .json "
                 "sidecar would overwrite it")
        if args.config is not None:
            # the config was just read, so an output that is it exists
            for path in _outputs(args):
                _require(not (path.exists()
                              and os.path.samefile(path, args.config)),
                         f"output {path} would overwrite the config file "
                         f"{args.config}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "histogram":
            return cmd_histogram(cfg, Path(args.out))
        if args.command == "sweep-g":
            return cmd_sweep(cfg, "g_tau", Path(args.out))
        if args.command == "sweep-reset":
            return cmd_sweep(cfg, "gamma_tau_se", Path(args.out))
        if args.command == "verify":
            return cmd_verify(cfg, Path(args.out) if args.out else None)
        if args.command == "sample":
            return cmd_sample(cfg, Path(args.out))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled command {args.command!r}")


def entry() -> None:
    sys.exit(main())
