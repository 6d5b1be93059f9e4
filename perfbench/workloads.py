"""The three workloads and the closed loop that times their operations.

Every operation is one call of ``fedcal.cli.main(argv)`` in this process,
made by a single caller that waits for each result before sending the next
(a closed loop with one client). Inputs are generated from the workload
seed between operations, outside the timed region; outputs are parsed
between operations and checked after the measuring window. Work that must
leave no state in this process (building cache files, timing imports) runs
in fresh interpreters started one at a time through ``child.py``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from probe import machine_probe

SETUP_ROUNDS = 5
CHILD_TIMEOUT_S = 150

# the private method's budget and grid; scores lie in (0, PRIVATE_SMAX]
PRIVATE_EPSILON, PRIVATE_BINS, PRIVATE_SMAX = 5.0, 100, 1.0
PRIVATE_ARGS = [
    "--epsilon", repr(PRIVATE_EPSILON), "--bins", str(PRIVATE_BINS), "--smax", repr(PRIVATE_SMAX),
]

COLD_ALPHAS = (0.05, 0.1, 0.2)
COLD_STRATA = 16

# Every shape in this band is feasible for the private method at alpha 0.2
# with epsilon 5 and 100 bins, and a cache builds in about 0.17 s.
WARM_M = range(6, 11)
WARM_N = range(44, 81)
WARM_ALPHA = 0.2
# n advances by a step near len(WARM_N) / golden ratio from a seeded start, so
# any prefix of the shape sequence covers the n range evenly
WARM_N_STEP = 23
WARM_METHODS = {
    "qq": ["--method", "fedcp-qq"],
    "private": ["--method", "fedcp2-qq", *PRIVATE_ARGS],
    "avg": ["--method", "fedcp-avg"],
}
WARM_SHAPES_PER_IMPORT = 24
WARM_SHAPES_PER_S = 8  # caches built ahead per measured second; more are built if needed
WARM_REFILL = 20

SIM_M = SIM_N = 30
SIM_ALPHA = 0.1
SIM_REPS = 20
SIM_TEST_SIZE = 1000
SIM_METHODS = {"fedcp-qq": "qq", "fedcp-avg": "avg", "fedcp2-qq": "private"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an operation failing)."""


@dataclass
class Op:
    kind: str
    cycle: int  # operations of one cycle share an input or a seed schedule slot
    seconds: float
    failed: bool
    traced: bool
    mark: int  # the machine probe taken last before this operation
    weight: float = 1.0  # predicted cost of the input relative to a typical one


class Bench:
    """State of one run: timed operations, deferred checks, set-up rounds."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float, tracer=None):
        import fedcal.cli

        self.cli = fedcal.cli
        self.root, self.work, self.seed, self.seconds = root, work, seed, seconds
        self.tracer = tracer
        self.ops: list[Op] = []
        self.checks: list[tuple[int, object]] = []
        self.messages: list[str] = []
        self.marks: list[float] = []  # machine speed, one per probe
        self.setup_rounds: list[float] = []  # reference seconds
        self.import_samples: list[float] = []  # reference seconds
        self.notes: list[str] = []
        self._children = 0
        self._paused = 0.0

    # -- operations ---------------------------------------------------------

    def call(self, kind: str, cycle: int, argv: list[str], traced: bool) -> int:
        """Time one ``fedcal`` invocation; returns the operation's index."""
        index = len(self.ops)
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.enable()
            tracer.begin_op(index, kind)
        failed = False
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:
            failed = True
            self.messages.append(f"op {index} ({kind}) raised:\n{traceback.format_exc()}")
        else:
            if code != 0:
                failed = True
                self.messages.append(f"op {index} ({kind}) exited with {code}")
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_op(failed)
            tracer.disable()
        self.ops.append(Op(kind, cycle, elapsed, failed, traced, len(self.marks) - 1))
        return index

    def mark(self) -> None:
        """Probe the machine; later timings are scaled by the probes around them."""
        self.marks.append(machine_probe())

    def reference(self, seconds: float, mark: int) -> float:
        """``seconds`` of wall time after probe ``mark`` in reference seconds."""
        around = self.marks[mark: mark + 2]
        return seconds * sum(around) / len(around)

    def defer(self, index: int, check) -> None:
        """Queue ``check() -> list[str]`` for after the measuring window."""
        self.checks.append((index, check))

    def run_checks(self) -> None:
        for index, check in self.checks:
            try:
                failures = check()
            except Exception:
                failures = [traceback.format_exc()]
            if failures:
                self.ops[index].failed = True
                kind = self.ops[index].kind
                self.messages.extend(f"op {index} ({kind}): {f}" for f in failures)

    def window(self):
        """Yield operation numbers until ``seconds`` of measuring have passed.

        A machine probe precedes every step and follows the last. At least
        one step always runs. ``pause()`` excludes a stretch
        (such as building more cache files) from the window.
        """
        self._paused = 0.0
        start = perf_counter()
        number = 0
        while number == 0 or perf_counter() - start - self._paused < self.seconds:
            self.mark()
            yield number
            number += 1
        self.mark()

    @contextlib.contextmanager
    def pause(self):
        start = perf_counter()
        try:
            yield
        finally:
            self._paused += perf_counter() - start

    # -- fresh interpreters -------------------------------------------------

    def child(self, tasks: list[list[str]]) -> float:
        """Run ``tasks`` in a fresh interpreter; returns its import and task
        time in reference seconds, scaled by the child's own probes."""
        self._children += 1
        spec = self.work / f"child_{self._children}.json"
        spec.write_text(json.dumps(tasks), encoding="utf-8")
        script = Path(__file__).resolve().parent / "child.py"
        try:
            proc = subprocess.run(
                [sys.executable, str(script), str(spec)],
                capture_output=True, text=True, cwd=self.root, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child did not finish in {CHILD_TIMEOUT_S} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(lines[-1])
        if any(code != 0 for code in report["codes"]):
            raise BenchError(f"a set-up task failed: {report['codes']}")
        self.import_samples.append(report["import_s"] * report["speed"])
        return (report["import_s"] + report["tasks_s"]) * report["speed"]

    def setup(self, rounds: list[list[list[str]]]) -> None:
        """Time each set-up round in its own fresh interpreter."""
        for tasks in rounds:
            self.setup_rounds.append(self.child(tasks))


def write_scores(path: Path, scores: np.ndarray) -> None:
    """One ``agent,score`` CSV; repr keeps every score bit-exact."""
    lines = ["agent,score"]
    for agent, row in enumerate(scores.tolist()):
        lines.extend(f"{agent},{value!r}" for value in row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def positive_scores(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform scores in (0, 1], the private method's admissible range."""
    return 1.0 - rng.random((m, n))


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# cold_shapes
# ---------------------------------------------------------------------------


def cold_cost(m: int, n: int, alpha: float) -> float:
    """Relative cost of a cold rank selection, fitted on the log-convolution
    engine: time grows like m^2.1 * n^1.9 * alpha^0.7 (70 shapes, residual
    0.23 in log, most of it machine noise). It stratifies the sample and
    weights the median; see ``run.end_to_end``."""
    return m**2.1 * n**1.9 * alpha**0.7


def cold_shapes(bench: Bench, trace: bool) -> None:
    """``calibrate --method fedcp-qq`` on a shape this process has not seen,
    with a cache path that does not exist yet.

    Inputs are (m, n, alpha) with 400 <= m*n <= 1000, m, n >= 10 and alpha
    in {0.05, 0.1, 0.2}, ordered by predicted cost and cut into strata of
    equal size. Operations visit the strata in turn and draw without
    replacement inside each, so every seed sees the same spread of costs
    and the medians do not depend on a lucky draw. No shape repeats. Each
    operation carries its input's predicted cost relative to the median
    input of the population.
    """
    population = sorted(
        (
            (m, n, alpha)
            for m in range(10, 101)
            for n in range(10, 101)
            if 400 <= m * n <= 1000
            for alpha in COLD_ALPHAS
        ),
        key=lambda item: cold_cost(*item),
    )
    strata = [
        [population[i] for i in part]
        for part in np.array_split(np.arange(len(population)), COLD_STRATA)
    ]
    typical = cold_cost(*population[len(population) // 2])
    rng = np.random.default_rng([bench.seed, 1])
    draws = [iter(rng.permutation(len(stratum)).tolist()) for stratum in strata]
    seen: set[tuple[int, int]] = set()

    def next_input(stratum: int) -> tuple[int, int, float]:
        for j in draws[stratum]:
            m, n, alpha = strata[stratum][j]
            if (m, n) not in seen:
                seen.add((m, n))
                return m, n, alpha
        raise BenchError("cold_shapes ran out of unseen shapes")

    bench.setup([[] for _ in range(SETUP_ROUNDS)])
    out = bench.work / "out.json"
    for i in bench.window():
        turn = i // COLD_STRATA
        m, n, alpha = next_input(i % COLD_STRATA)
        scores = positive_scores(np.random.default_rng([bench.seed, 2, i]), m, n)
        csv_path = bench.work / f"cold_{i}.csv"
        write_scores(csv_path, scores)
        out.unlink(missing_ok=True)
        argv = [
            "calibrate", str(csv_path), "--alpha", repr(alpha), "--method", "fedcp-qq",
            "--cache", str(bench.work / f"cold_cache_{i}.txt"), "--out", str(out),
        ]
        # alternate within a pass and flip each pass: every stratum is traced half the time
        index = bench.call("qq", i, argv, traced=trace and (i + turn) % 2 == 0)
        bench.ops[index].weight = cold_cost(m, n, alpha) / typical
        if not bench.ops[index].failed:
            payload = read_json(out)
            bench.defer(
                index,
                lambda p=payload, s=scores, a=alpha, m=m, n=n: oracle.qq_failures(
                    p, s, a, oracle.coverage_matrix(m, n)
                ),
            )


# ---------------------------------------------------------------------------
# warm_cache
# ---------------------------------------------------------------------------


def warm_cache(bench: Bench, trace: bool) -> None:
    """``calibrate`` with fedcp-qq, fedcp2-qq and fedcp-avg on one shape
    whose cache file a fresh interpreter built before timing.

    Each shape is used once, so the engine's in-process memo is as cold as
    in a real ``fedcal calibrate`` process. Shapes cycle through m and, for
    each m, walk every n once from a seeded start. After every few shapes
    one fresh interpreter times ``import fedcal.cli``.
    """
    rng = np.random.default_rng([bench.seed, 1])
    offsets = rng.integers(0, len(WARM_N), size=len(WARM_M))
    shapes = [
        (m, WARM_N[(offset + WARM_N_STEP * j) % len(WARM_N)])
        for j in range(len(WARM_N))
        for m, offset in zip(WARM_M, offsets.tolist())
    ]
    inputs = []

    def prepare(count: int) -> list[list[str]]:
        """Write inputs for the next ``count`` shapes; return build tasks."""
        tasks = []
        for m, n in shapes[len(inputs): len(inputs) + count]:
            j = len(inputs)
            scores = positive_scores(np.random.default_rng([bench.seed, 2, j]), m, n)
            csv_path, cache = bench.work / f"warm_{j}.csv", bench.work / f"warm_cache_{j}.txt"
            write_scores(csv_path, scores)
            common = ["calibrate", str(csv_path), "--alpha", repr(WARM_ALPHA), "--cache", str(cache)]
            tasks.append(common + WARM_METHODS["qq"])
            tasks.append(common + WARM_METHODS["private"])
            inputs.append((scores, common))
        return tasks

    tasks = prepare(math.ceil(WARM_SHAPES_PER_S * bench.seconds))
    per_round = -(-len(tasks) // (2 * SETUP_ROUNDS)) * 2
    bench.setup([tasks[r: r + per_round] for r in range(0, len(tasks), per_round)])

    out = bench.work / "out.json"
    kinds = tuple(WARM_METHODS)
    for j in bench.window():
        if j == len(shapes):
            bench.notes.append("warm_cache used every shape of its band; window ended early")
            break
        if j == len(inputs):
            with bench.pause():
                bench.child(prepare(WARM_REFILL))
                bench.notes.append(f"built {WARM_REFILL} more caches at shape {j}")
        scores, common = inputs[j]
        for turn in range(3):
            kind = kinds[(j + turn) % 3]
            argv = common + WARM_METHODS[kind] + ["--seed", str(bench.seed + j), "--out", str(out)]
            out.unlink(missing_ok=True)
            index = bench.call(kind, j, argv, trace and j % 2 == 0)
            if not bench.ops[index].failed:
                bench.defer(index, warm_check(kind, read_json(out), scores))
        if (j + 1) % WARM_SHAPES_PER_IMPORT == 0:
            import_op(bench, j)


def warm_check(kind: str, payload: dict, scores: np.ndarray):
    m, n = scores.shape
    if kind == "qq":
        return lambda: oracle.qq_failures(payload, scores, WARM_ALPHA, oracle.coverage_matrix(m, n))
    if kind == "avg":
        return lambda: oracle.avg_failures(payload, scores, WARM_ALPHA)
    return lambda: oracle.private_failures(
        payload, WARM_ALPHA, oracle.coverage_matrix(m, n), PRIVATE_SMAX, PRIVATE_BINS
    )


def import_op(bench: Bench, cycle: int) -> None:
    """One fresh interpreter timing ``import fedcal.cli``, counted as an op."""
    failed = False
    start = perf_counter()
    try:
        bench.child([])
    except (BenchError, ValueError) as exc:
        failed = True
        bench.messages.append(f"import run failed: {exc}")
    bench.ops.append(Op("import", cycle, perf_counter() - start, failed, False, len(bench.marks) - 1))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def simulate_argv(method: str, seed: int, reps: int, out: Path) -> list[str]:
    argv = [
        "simulate", "--m", str(SIM_M), "--n", str(SIM_N), "--alpha", repr(SIM_ALPHA),
        "--method", method, "--reps", str(reps), "--seed", str(seed),
        "--sampler", "uniform", "--test-size", str(SIM_TEST_SIZE), "--out", str(out),
    ]
    return argv + PRIVATE_ARGS if method == "fedcp2-qq" else argv


def substream(seed: int, *key: int) -> np.random.Generator:
    """The simulator's documented per-(replication, agent) stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def simulate(bench: Bench, trace: bool) -> None:
    """``fedcal simulate`` at (m, n) = (30, 30), alpha 0.1, uniform scores:
    a batch of replications per operation, cycling the three methods, each
    operation with its own seed derived from the workload seed.

    Set-up runs one warm-up batch per method, which fills the engine's
    in-process memo; the coverage engine never runs after it.
    """
    warmup = bench.work / "warmup.csv"
    warm_tasks = [simulate_argv(method, 2**31 - 1, 2, warmup) for method in SIM_METHODS]
    bench.setup([warm_tasks for _ in range(SETUP_ROUNDS)])
    for argv in warm_tasks:
        with contextlib.redirect_stdout(io.StringIO()):
            if bench.cli.main(argv) != 0:
                raise BenchError(f"warm-up failed: {argv}")

    pairs = oracle.minimal_pairs(oracle.coverage_matrix(SIM_M, SIM_N), SIM_ALPHA)
    edges = oracle.grid_edges(PRIVATE_SMAX, PRIVATE_BINS)
    out = bench.work / "rows.csv"
    for i in bench.window():
        method = tuple(SIM_METHODS)[i % len(SIM_METHODS)]
        op_seed = int(np.random.SeedSequence([bench.seed, 3, i]).generate_state(1)[0])
        out.unlink(missing_ok=True)
        kind = SIM_METHODS[method]
        cycle = i // len(SIM_METHODS)
        index = bench.call(
            kind, cycle, simulate_argv(method, op_seed, SIM_REPS, out), trace and cycle % 2 == 0
        )
        if not bench.ops[index].failed:
            with open(out, newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            bench.defer(
                index, lambda r=rows, k=kind, s=op_seed: simulate_failures(r, k, s, pairs, edges)
            )


def simulate_failures(rows, kind: str, seed: int, pairs, edges) -> list[str]:
    """Each row's threshold and coverage against regenerated scores."""
    if [int(row["replication"]) for row in rows] != list(range(SIM_REPS)):
        return [f"expected replications 0..{SIM_REPS - 1}"]
    failures = []
    for row in rows:
        rep, q_hat = int(row["replication"]), float(row["q_hat"])
        if int(row["seed"]) != seed:
            failures.append(f"row {rep}: seed {row['seed']} is not {seed}")
        scores = np.stack([substream(seed, rep, j).uniform(0.0, 1.0, SIM_N) for j in range(SIM_M)])
        if kind == "qq":
            ok = any(q_hat == oracle.qq_threshold(scores, l, k) for l, k in pairs)
        elif kind == "avg":
            expected = oracle.avg_threshold(scores, SIM_ALPHA)
            ok = abs(q_hat - expected) <= 1e-12 * abs(expected)
        else:
            ok = q_hat in edges
        if not ok:
            failures.append(f"row {rep}: q_hat {q_hat!r} does not match the regenerated scores")
        test = substream(seed, rep, SIM_M).uniform(0.0, 1.0, SIM_TEST_SIZE)
        coverage = float(np.mean(test <= q_hat))
        if float(row["coverage"]) != coverage:
            failures.append(f"row {rep}: coverage {row['coverage']} but recomputed {coverage!r}")
    return failures


WORKLOADS = {"cold_shapes": cold_shapes, "warm_cache": warm_cache, "simulate": simulate}
