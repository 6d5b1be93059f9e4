"""Per-layer metrics derived from the spans of a traced run.

Every value is per traced operation (a total over the traced operations
divided by their number), so runs that complete different numbers of
operations stay comparable. Ratios carry their base in the report lines.
"""

from __future__ import annotations

import statistics

from tracer import END, ERROR, EXTRA, NAME, OP, PARENT, START, TARGETS

UPLINK_PAYLOAD_BYTES = 8  # one float64 per agent and round


def per_layer(bench, tracer) -> tuple[dict, list[str]]:
    spans = tracer.spans
    own = tracer.self_times()
    traced = [i for i, op in enumerate(bench.ops) if op.traced]
    per_op = 1.0 / max(len(traced), 1)

    def named(target):
        return [(span, own[i]) for i, span in enumerate(spans) if span[NAME] == target]

    def extra_sum(target, key):
        return sum(span[EXTRA][key] for span, _ in named(target) if span[EXTRA])

    metrics = {}
    for target in TARGETS:
        rows = named(target)
        metrics[f"{target}.calls"] = len(rows) * per_op
        metrics[f"{target}.busy_s"] = sum(s[END] - s[START] for s, _ in rows) * per_op
        metrics[f"{target}.self_s"] = sum(own_s for _, own_s in rows) * per_op
        metrics[f"{target}.errors"] = sum(s[ERROR] for s, _ in rows) * per_op

    terms = extra_sum("logspace.log_convolve", "terms")
    convolve_busy = metrics["logspace.log_convolve.busy_s"] / per_op
    metrics["logspace.log_convolve.terms"] = terms * per_op
    metrics["logspace.log_convolve.terms_per_s"] = terms / convolve_busy if convolve_busy else 0.0
    saved = [s[EXTRA] for s, _ in named("coverage_table.save_table") if s[EXTRA]]
    loaded = [s[EXTRA] for s, _ in named("coverage_table.load_table") if s[EXTRA]]
    metrics["coverage_table.columns_computed"] = sum(e["entries"] / e["m"] for e in saved) * per_op
    metrics["coverage_table.cache_bytes"] = sum(e["bytes"] for e in saved + loaded) * per_op
    metrics["coverage_table.entries_loaded"] = sum(e["entries"] for e in loaded) * per_op
    metrics["conformal.scores_read"] = extra_sum("conformal.read_score_matrix_csv", "scores") * per_op

    gamma_spans = {i for i, span in enumerate(spans) if span[NAME] == "privacy.select_gamma"}
    under_gamma = [span[NAME] for span in spans if span[PARENT] in gamma_spans]
    candidates = under_gamma.count("coverage_table.select_ranks")
    useful = under_gamma.count("coverage_table.coverage_probability")
    metrics["privacy.select_gamma.candidates"] = candidates / len(gamma_spans) if gamma_spans else 0.0
    metrics["privacy.select_gamma.useful_ratio"] = useful / candidates if candidates else 0.0

    rounds = [s for s, _ in named("federation.run_one_shot") if s[EXTRA]]
    uplinks = sum(s[EXTRA]["uplinks"] for s in rounds)
    metrics["federation.uplinks_per_round"] = uplinks / len(rounds) if rounds else 0.0
    metrics["federation.uplink_bytes_per_round"] = (
        UPLINK_PAYLOAD_BYTES * metrics["federation.uplinks_per_round"]
    )
    for span in rounds:
        if span[EXTRA]["uplinks"] != span[EXTRA]["m"]:
            bench.ops[span[OP]].failed = True
            bench.messages.append(
                f"op {span[OP]}: {span[EXTRA]['uplinks']} uplinks for m = {span[EXTRA]['m']}"
            )

    overhead, overhead_line = _overhead(bench)
    metrics["trace.overhead_ratio"] = overhead

    lines = [
        f"traced {len(traced)} of {len(bench.ops)} operations (every other cycle); "
        f"per-layer values are per traced operation",
        overhead_line,
        f"privacy.select_gamma: {candidates} candidates over {len(gamma_spans)} calls, "
        f"{useful} coverage_probability calls under them",
    ]
    if tracer.absent:
        lines.append(f"absent targets (reported as 0): {', '.join(tracer.absent)}")
    lines += _by_kind(bench, spans)
    return metrics, lines


def _overhead(bench) -> tuple[float, str]:
    """Traced over untraced time per operation kind, summed over kinds."""
    traced, untraced = {}, {}
    for op in bench.ops:
        if op.kind != "import":
            seconds = bench.reference(op.seconds, op.mark)
            (traced if op.traced else untraced).setdefault(op.kind, []).append(seconds)
    kinds = [k for k in traced if k in untraced]
    if not kinds:
        return 0.0, "trace overhead: no untraced operations to compare"
    on = sum(statistics.median(traced[k]) for k in kinds)
    off = sum(statistics.median(untraced[k]) for k in kinds)
    return on / off - 1.0, (
        f"trace.overhead_ratio = {on / off - 1.0:.4f} (median traced {on * 1000:.3f} ms "
        f"over untraced {off * 1000:.3f} ms per {'+'.join(kinds)} operation, reference time)"
    )


def _by_kind(bench, spans) -> list[str]:
    """Where each traced operation kind spends its time."""
    busy: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    for span in spans:
        if span[OP] is None or span[NAME].startswith("op."):
            continue
        key = (bench.ops[span[OP]].kind, span[NAME])
        busy[key] = busy.get(key, 0.0) + span[END] - span[START]
        calls[key] = calls.get(key, 0) + 1
    lines = []
    for kind in sorted({op.kind for op in bench.ops if op.traced}):
        ops = [op for op in bench.ops if op.traced and op.kind == kind]
        total = sum(op.seconds for op in ops)
        parts = sorted(
            ((b, name) for (k, name), b in busy.items() if k == kind and name != "cli.main"),
            reverse=True,
        )
        shares = ", ".join(f"{name} {b / total:.0%}" for b, name in parts[:4])
        convolve = calls.get((kind, "logspace.log_convolve"), 0)
        lines.append(
            f"kind {kind}: {len(ops)} traced ops, {total / len(ops) * 1000:.3f} ms each; "
            f"log_convolve calls per op {convolve / len(ops):.1f}; busy share of op time: {shares}"
        )
    return lines
