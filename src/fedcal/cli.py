"""Command-line front end.

Human-readable output goes to stdout; machine-readable artifacts are only
ever written to files named by ``--out`` / ``--cache``. Every random choice
flows from ``--seed``. Options may also come from a ``key=value`` config
file; explicit flags win, unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
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
from .order_stats import as_block
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


def _flag(name: str) -> str:
    """The command-line flag of the option whose dest is ``name``."""
    return "--" + name.replace("_", "-")


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
            p.add_argument(_flag(name), dest=name, default=None)

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
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):  # only whole lines are comments
                    continue
                if "=" not in line:
                    raise InvalidArgumentError(f"{path}:{line_no}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in _OPTION_TYPES:
                    raise InvalidArgumentError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = value
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc.reason})") from None
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
                raise InvalidArgumentError(f"bad value {raw!r} for {_flag(name)}") from None
    if resolved.get("seed", 0) < 0:  # numpy seeds only from non-negative integers
        raise InvalidArgumentError(f"--seed must be >= 0, got {resolved['seed']}")
    return resolved


def _require(options: dict, *names: str) -> None:
    missing = [n for n in names if options.get(n) is None]
    if missing:
        raise InvalidArgumentError(
            "missing required option(s): " + ", ".join(map(_flag, missing))
        )


def _cache_path(options: dict, key: TableKey) -> Path | None:
    """The cache file that ``--cache`` or FEDCAL_CACHE_DIR names, else None."""
    if options.get("cache"):
        return Path(options["cache"])
    env_dir = os.environ.get(CACHE_DIR_ENV)
    return Path(env_dir) / f"qq_table_m{key.m}_n{key.n}.txt" if env_dir else None


def _method(options: dict) -> Method:
    if options["method"] not in METHODS:
        raise InvalidArgumentError(f"method must be one of {', '.join(METHODS)}")
    return METHODS[options["method"]]


@contextlib.contextmanager
def _cached_table(options: dict, key: TableKey):
    """Yield (table, path) for the cache file of ``key``: the table it holds,
    or a new one when it does not exist, and save it there on a clean exit if
    it grew. With no cache file named, yield (None, None) and write nothing."""
    path = _cache_path(options, key)
    if path is None:
        yield None, None
        return
    table = load_table(path) if path.exists() else CoverageTable(key=key)
    if (table.key.m, table.key.n) != (key.m, key.n):
        raise InvalidArgumentError(
            f"cache {path} holds (m={table.key.m}, n={table.key.n}), "
            f"requested (m={key.m}, n={key.n})"
        )
    loaded = len(table.entries)
    yield table, path
    if len(table.entries) != loaded:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_table(table, path)


def _cmd_table(args: argparse.Namespace) -> int:
    options = _resolve(args)
    _require(options, "m", "n", "alpha")
    key = TableKey(options["m"], options["n"])
    with _cached_table(options, key) as (table, path):
        ranks, coverage = select_ranks(key, options["alpha"], table=table)
    print(f"l*={ranks.local_rank} k*={ranks.server_rank} M={coverage:.15f}")
    if path is not None:
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
    cache = contextlib.nullcontext((None, None))
    if method.table:  # a table method needs a balanced block, whose shape keys the cache
        agents = as_block(agents)
        cache = _cached_table(options, TableKey(*agents.shape))
    with cache as (table, _):
        dp, spawn = None, None
        if method.private:
            dp, spawn = _dp_config(options), np.random.default_rng(options["seed"]).spawn
        result = method.bind(options["alpha"], table=table, dp_config=dp)(agents, spawn)
    print(f"method={result.method}")
    print(f"q_hat={result.q_hat:.17g}")
    guarantee = result.guaranteed_coverage
    print(f"guaranteed_coverage={'none' if guarantee is None else format(guarantee, '.15f')}")
    for name in ("local_rank", "server_rank", "gamma", "correction", "quantile", "epsilon"):
        if name in result.params:
            print(f"{name}={result.params[name]}")
    if options.get("out"):
        payload = {
            # JSON has no infinity: an infinite threshold (too few scores) is null
            "q_hat": result.q_hat if math.isfinite(result.q_hat) else None,
            "method": result.method,
            "guaranteed_coverage": guarantee,
            "params": result.params,
        }
        with open(options["out"], "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=float, allow_nan=False)
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
