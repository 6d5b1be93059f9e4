"""Command-line front end.

Human-readable output goes to stdout; machine-readable artifacts are only
ever written to files named by ``--out`` / ``--cache``. Every random choice
flows from ``--seed``. Options may also come from a ``key=value`` config
file; explicit flags win, unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .conformal import read_score_matrix_csv
from .coverage_table import CoverageTable, TableKey, load_table, save_table, select_ranks
from .errors import FedcalError, InvalidArgumentError
from .federation import (
    METHODS, SAMPLERS, FederationSpec, Method, coverage_experiment, write_rows_csv,
)
from .privacy import BinGrid, DpConfig

CACHE_DIR_ENV = "FEDCAL_CACHE_DIR"

# dest -> converter; a config file may set any of these, and _DEFAULTS
# holds the defaults of those that have one
_OPTION_TYPES = {
    "m": int,
    "n": int,
    "alpha": float,
    "method": str,
    "epsilon": float,
    "bins": int,
    "smax": float,
    "seed": int,
    "reps": int,
    "sampler": str,
    "test_size": int,
    "cache": str,
    "out": str,
}

_DEFAULTS = {
    "bins": 100,
    "seed": 0,
    "sampler": "uniform",
    "test_size": 1000,
}


@functools.cache  # built once per process; parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcal",
        description="One-shot federated conformal calibration tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        p.add_argument("--config", help="key=value file; flags override it")
        for name in names:
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, default=None)

    table = sub.add_parser("table", help="build or reuse a coverage table")
    add_common(table, "m", "n", "alpha", "cache")

    calibrate = sub.add_parser("calibrate", help="calibrate from score CSV files")
    calibrate.add_argument("scores", nargs="+", help="per-agent files or one agent,score file")
    add_common(
        calibrate,
        "alpha", "method", "epsilon", "bins", "smax", "seed", "cache", "out",
    )

    simulate = sub.add_parser("simulate", help="replicated coverage experiment")
    add_common(
        simulate,
        "m", "n", "alpha", "method", "reps", "seed", "sampler", "test_size",
        "epsilon", "bins", "smax", "out",
    )
    return parser


def _read_config(path: str) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _OPTION_TYPES:
                raise InvalidArgumentError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = value
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags (strongest last)."""
    names = [name for name in vars(args) if name in _OPTION_TYPES]
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    for key in config:
        if key not in names:
            raise InvalidArgumentError(
                f"config key {key!r} does not apply to this subcommand"
            )
    resolved: dict = {}
    for name in names:
        raw = getattr(args, name, None)
        if raw is None:
            raw = config.get(name, _DEFAULTS.get(name))
        if raw is None:
            resolved[name] = None
        else:
            try:
                resolved[name] = _OPTION_TYPES[name](raw)
            except ValueError:
                raise InvalidArgumentError(f"bad value {raw!r} for --{name}") from None
    if resolved.get("seed", 0) < 0:  # numpy seeds only from non-negative integers
        raise InvalidArgumentError(f"--seed must be >= 0, got {resolved['seed']}")
    return resolved


def _require(options: dict, *names: str) -> None:
    missing = [n for n in names if options.get(n) is None]
    if missing:
        raise InvalidArgumentError(
            "missing required option(s): " + ", ".join("--" + n for n in missing)
        )


def _cache_path(options: dict, m: int, n: int) -> Path:
    if options.get("cache"):
        return Path(options["cache"])
    name = f"qq_table_m{m}_n{n}.txt"
    env_dir = os.environ.get(CACHE_DIR_ENV)
    return Path(env_dir) / name if env_dir else Path(name)


def _method(options: dict) -> Method:
    if options["method"] not in METHODS:
        raise InvalidArgumentError(f"method must be one of {', '.join(METHODS)}")
    return METHODS[options["method"]]


def _load_or_new_table(path: Path, key: TableKey) -> tuple[CoverageTable, int]:
    if path.exists():
        table = load_table(path)
        if (table.key.m, table.key.n) != (key.m, key.n):
            raise InvalidArgumentError(
                f"cache {path} holds (m={table.key.m}, n={table.key.n}), "
                f"requested (m={key.m}, n={key.n})"
            )
        return table, len(table.entries)
    return CoverageTable(key=key), 0


def _save_if_grown(table: CoverageTable, path: Path, loaded_entries: int) -> None:
    if len(table.entries) != loaded_entries:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_table(table, path)


def _cmd_table(args: argparse.Namespace) -> int:
    options = _resolve(args)
    _require(options, "m", "n", "alpha")
    key = TableKey(options["m"], options["n"])
    path = _cache_path(options, key.m, key.n)
    table, loaded_entries = _load_or_new_table(path, key)
    ranks, coverage = select_ranks(key, options["alpha"], table=table)
    _save_if_grown(table, path, loaded_entries)
    print(f"l*={ranks.local_rank} k*={ranks.server_rank} M={coverage:.15f}")
    print(f"cache={path}")
    return 0


def _dp_config(options: dict) -> DpConfig:
    _require(options, "epsilon", "smax")
    return DpConfig(
        epsilon=options["epsilon"], grid=BinGrid.uniform(options["smax"], options["bins"])
    )


def _cmd_calibrate(args: argparse.Namespace) -> int:
    options = _resolve(args)
    _require(options, "alpha", "method")
    method = _method(options)
    agents = read_score_matrix_csv(args.scores)
    table, path, loaded = None, None, 0
    if method.table and (options.get("cache") or os.environ.get(CACHE_DIR_ENV)):
        key = TableKey(len(agents), agents[0].size)
        path = _cache_path(options, key.m, key.n)
        table, loaded = _load_or_new_table(path, key)
    dp, spawn = None, None
    if method.private:
        dp, spawn = _dp_config(options), np.random.default_rng(options["seed"]).spawn
    result = method.bind(options["alpha"], table=table, dp_config=dp)(agents, spawn)
    if path is not None:
        _save_if_grown(table, path, loaded)
    print(f"method={result.method}")
    print(f"q_hat={result.q_hat:.17g}")
    guarantee = result.guaranteed_coverage
    print(f"guaranteed_coverage={'none' if guarantee is None else format(guarantee, '.15f')}")
    for name in ("local_rank", "server_rank", "gamma", "correction", "quantile", "epsilon"):
        if name in result.params:
            print(f"{name}={result.params[name]}")
    if options.get("out"):
        payload = {
            "q_hat": result.q_hat,
            "method": result.method,
            "guaranteed_coverage": guarantee,
            "params": result.params,
        }
        with open(options["out"], "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=float)
            handle.write("\n")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    options = _resolve(args)
    _require(options, "m", "n", "alpha", "method", "reps")
    method = options["method"]
    private = _method(options).private
    if options["sampler"] not in SAMPLERS:
        raise InvalidArgumentError(
            f"sampler must be one of {', '.join(sorted(SAMPLERS))}"
        )
    spec = FederationSpec(
        m=options["m"], n=options["n"], alpha=options["alpha"], seed=options["seed"]
    )
    dp = _dp_config(options) if private else None
    summary = coverage_experiment(
        spec,
        options["reps"],
        method,
        SAMPLERS[options["sampler"]](),
        options["test_size"],
        dp_config=dp,
    )
    print(
        f"method={method} reps={options['reps']} "
        f"mean_coverage={summary.mean_coverage:.6f} se={summary.coverage_se:.6f} "
        f"mean_length={summary.mean_length:.6f}"
    )
    if options.get("out"):
        write_rows_csv(summary.rows, options["out"])
        print(f"rows={options['out']}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"table": _cmd_table, "calibrate": _cmd_calibrate, "simulate": _cmd_simulate}
    try:
        return commands[args.command](args)
    except (FedcalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
