"""fedcal benchmark: one workload, one run, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold_shapes --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans around the package's public functions. The
last line of standard output is the JSON result; the lines before it are
the human-readable report, including every metric by its workload-specific
name. Names, units and directions of the reported metrics come from
``BENCHMARK.json`` at the checkout root. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def p50(values):
    return statistics.median(values)


def tail(values) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its
    percentile; the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * index / (len(ordered) - 1)


def end_to_end(bench, workload: str, sim_reps: int) -> tuple[dict, list[str]]:
    """End-to-end metrics and the report lines naming them per workload.

    Times are reference times (see ``probe.py``); the report
    also gives the raw wall-clock medians. Medians are taken over time per
    unit of predicted cost (``Op.weight``, 1 except on ``cold_shapes``), so
    on cold_shapes they describe a calibration at the median input of the
    band: plain statistics over inputs whose cost spans 30x move with every
    draw and every stall near them. The plain ones are reported too.
    """
    timed = [op for op in bench.ops if not op.traced and op.kind != "import"]
    per_rep = sim_reps if workload == "simulate" else 1
    ms, weighted, raw, cycles = {}, {}, {}, {}
    for op in timed:
        value = bench.reference(op.seconds, op.mark) * 1000.0 / per_rep
        ms.setdefault(op.kind, []).append(value)
        weighted.setdefault(op.kind, []).append(value / op.weight)
        raw.setdefault(op.kind, []).append(op.seconds * 1000.0 / per_rep)
        cycles.setdefault(op.cycle, []).append(value / op.weight)
    width = len(ms)
    cycle_ms = [sum(v) for v in cycles.values() if len(v) == width]
    count = {kind: len(v) for kind, v in ms.items()}
    setup, imports = bench.setup_rounds, bench.import_samples
    qq_tail, qq_pct = tail(weighted["qq"])
    metrics = {
        "qq_ms.p50": p50(weighted["qq"]),
        "qq_ms.tail": qq_tail,
        "cycle_ms.p50": p50(cycle_ms),
        "peak_rss_mb": bench.peak_rss_mb,
        "setup_s": p50(setup),
    }
    speed = bench.marks
    lines = [
        f"machine speed: {p50(speed):.3f} of reference (min {min(speed):.3f}, max {max(speed):.3f}, "
        f"{len(speed)} probes); times below are reference times",
        f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} fresh-interpreter rounds)",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB",
        f"cli_import_s.p50 = {p50(imports):.4f} s (n={len(imports)})",
    ]
    if workload == "cold_shapes":
        lines += [
            f"cold_calibrate_s.p50 = {p50(ms['qq']) / 1000:.4f} s (n={count['qq']}; "
            f"at the band's median input {metrics['qq_ms.p50'] / 1000:.4f} s)",
            f"cold_calibrate_s.tail = {tail(ms['qq'])[0] / 1000:.4f} s (p{qq_pct:.0f}, "
            f"n={count['qq']}; at the band's median input {qq_tail / 1000:.4f} s)",
        ]
    elif workload == "warm_cache":
        private_tail, private_pct = tail(ms["private"])
        lines += [
            f"warm_qq_ms.p50 = {metrics['qq_ms.p50']:.4f} ms (n={count['qq']})",
            f"warm_qq_ms.tail = {qq_tail:.4f} ms (p{qq_pct:.0f}, n={count['qq']})",
            f"warm_private_ms.p50 = {p50(ms['private']):.4f} ms (n={count['private']})",
            f"warm_private_ms.tail = {private_tail:.4f} ms (p{private_pct:.0f}, n={count['private']})",
            f"warm_avg_ms.p50 = {p50(ms['avg']):.4f} ms (n={count['avg']})",
        ]
    else:
        for kind in ("qq", "private", "avg"):
            seconds = sum(ms[kind]) * per_rep / 1000.0
            lines.append(
                f"sim_{kind}_reps_per_s = {per_rep * count[kind] / seconds:.2f} 1/s "
                f"({per_rep * count[kind]} reps)"
            )
    lines += [
        f"qq_ms.p50 = {metrics['qq_ms.p50']:.4f} ms, qq_ms.tail = {qq_tail:.4f} ms "
        f"(p{qq_pct:.0f}, n={count['qq']}){' per replication' if per_rep > 1 else ''}",
        f"cycle_ms.p50 = {metrics['cycle_ms.p50']:.4f} ms (n={len(cycle_ms)} cycles of {width})",
        "raw wall-clock p50: " + ", ".join(f"{k} {p50(v):.4f} ms" for k, v in raw.items()),
    ]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fedcal" / "__init__.py").is_file():
        print(f"error: no fedcal sources under {src}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    # one process, one caller: numeric libraries get a single thread each
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy
    import scipy

    import fedcal
    import fedcal.cli  # loaded before the tracer scans the package's modules
    import layers
    import oracle
    import workloads
    from tracer import Tracer

    if not Path(fedcal.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported fedcal from {fedcal.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    missed = oracle.self_test()
    if missed:
        print(f"error: the output checks accepted: {', '.join(missed)}", file=sys.stderr)
        return 1

    print(
        f"env: nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
        f"threads={','.join(f'{v}=1' for v in THREAD_VARS)}"
    )
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    store = ROOT / ".perfbench_work"
    store.mkdir(exist_ok=True)
    work = store / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        tracer = Tracer() if args.trace else None
        bench = workloads.Bench(ROOT, work, args.seed, args.seconds, tracer)
        workloads.WORKLOADS[args.workload](bench, bool(args.trace))
        bench.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.run_checks()
        if tracer is not None:
            metrics, lines = layers.per_layer(bench, tracer)
            tracer.write(store / f"trace_{args.workload}.jsonl")
        else:
            metrics, lines = end_to_end(bench, args.workload, workloads.SIM_REPS)
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(bench.ops)
    failed = sum(op.failed for op in bench.ops)
    for line in lines + bench.notes + bench.messages[:20]:
        print(line)
    print(f"failed_ops = {failed / attempted:.4f} ({failed}/{attempted})")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = {entry["name"] for entry in declared} ^ set(metrics)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
