"""Spans around the package's public functions, recorded from outside it.

Each target ``<module>.<function>`` is wrapped at every name a caller looks
it up by: the scan replaces the function object wherever a ``fedcal``
module's globals hold it (``fedcal.privacy.coverage_probability``,
``fedcal.coverage_table.log_convolve``, ``fedcal.cli.main``, ...), so calls
made inside the package are seen too. Spans stay in memory and are written
as JSON lines when the run ends; self time is derived from them afterwards.
Private names are never wrapped.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

TARGETS = (
    "cli.main",
    "conformal.read_score_matrix_csv",
    "conformal.fedcp_qq_calibrate",
    "conformal.fedcp_avg_calibrate",
    "coverage_table.select_ranks",
    "coverage_table.coverage_probability",
    "coverage_table.save_table",
    "coverage_table.load_table",
    "logspace.log_convolve",
    "logspace.log_binom_pmf",
    "order_stats.order_statistic",
    "privacy.select_gamma",
    "privacy.private_quantile",
    "privacy.fedcp2_qq_calibrate",
    "federation.coverage_experiment",
    "federation.run_one_shot",
    "federation.substream",
    "federation.write_rows_csv",
)

# span fields
NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)


def _convolve_terms(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    return {"terms": len(a) * len(b)}


def _scores_read(args, kwargs, result):
    return {"scores": int(sum(agent.size for agent in result))}


def _saved(args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"entries": len(table.entries), "m": table.key.m, "bytes": os.path.getsize(path)}


def _loaded(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"entries": len(result.entries), "bytes": os.path.getsize(path)}


def _round(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {"uplinks": len(result[1].uplinks), "m": spec.m}


COUNTERS = {
    "logspace.log_convolve": _convolve_terms,
    "conformal.read_score_matrix_csv": _scores_read,
    "coverage_table.save_table": _saved,
    "coverage_table.load_table": _loaded,
    "federation.run_one_shot": _round,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple] = []
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "fedcal" or name.startswith("fedcal."))
        ]
        for target in TARGETS:
            module_name, func_name = target.split(".")
            module = sys.modules.get(f"fedcal.{module_name}")
            original = getattr(module, func_name, None) if module is not None else None
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original, COUNTERS.get(target))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name, original, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, False, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()
            if counter is not None:
                record[EXTRA] = counter(args, kwargs, result)
            return result

        return wrapper

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def begin_op(self, op_id: int, kind: str) -> None:
        """Open the root span of one benchmark operation."""
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([f"op.{kind}", perf_counter(), 0.0, -1, op_id, False, None])

    def end_op(self, failed: bool) -> None:
        record = self.spans[self._stack.pop()]
        record[END] = perf_counter()
        record[ERROR] = failed
        self._op = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its direct children."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "error", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
