#!/usr/bin/env python3
"""Human-readable SLO + conflict-forensics report from a metrics dump.

Usage:
    slo_report.py <metrics.json> [<metrics.json> ...]

Input: one or more MetricsRegistry::ToJson() snapshots, as written by any
bench's --metrics-json=PATH flag (e.g. an open-loop fig18_skew_forensics
run). For each file the report prints:

  * every "slo.decision_latency_us[.<label>]" histogram as one SLO row —
    coordinated-omission-safe decision latencies (measured from intended
    arrival starts, so backlog and shed load are charged, not forgiven);
  * the open-loop driver's arrival/goodput/shed accounting;
  * the per-cause abort breakdown from the typed provenance counters;
  * per-stage abort decision latencies (where in the pipeline aborts die);
  * the contention heatmap: the top-K sketch's hottest conflicting keys.

Exit code 0 if every file parses (an absent section just prints as absent);
1 on malformed input.
"""

import json
import re
import sys


def fmt_us(v):
    if v >= 1_000_000:
        return f"{v / 1e6:.2f}s"
    if v >= 1_000:
        return f"{v / 1e3:.1f}ms"
    return f"{v:.0f}us"


def section(title):
    print(f"\n== {title} ==")


# A pipeline's per-cause abort counter, bare ("pipeline.abort.<cause>", as a
# lone pipeline provider publishes it) or under a provider prefix
# ("server0.pipeline.abort.<cause>").
PIPELINE_ABORT = re.compile(r"(?:^|\.)pipeline\.abort\.([a-z_]+)$")


def abort_causes(metrics):
    """Aborts by cause. The pipelines' own counters win (they cover every
    decision a server melded, not just locally submitted ones), summed over
    every pipeline in the snapshot; without them, the open-loop driver's
    gauges stand in. Admission rejections ("busy") never reach a pipeline
    and are reported on their own line."""
    causes = {}
    for k, v in metrics.items():
        m = PIPELINE_ABORT.search(k)
        if m and v > 0:
            causes[m.group(1)] = causes.get(m.group(1), 0) + v
    if causes:
        return causes
    for k, v in metrics.items():
        if k.startswith("open_loop.abort.") and v > 0:
            cause = k[len("open_loop.abort."):]
            if cause != "busy":
                causes[cause] = causes.get(cause, 0) + v
    return causes


def report(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    hists = doc.get("histograms")
    if not isinstance(metrics, dict) or not isinstance(hists, dict):
        print(f"slo_report: {path}: not a MetricsRegistry JSON snapshot",
              file=sys.stderr)
        return False

    print(f"# {path}")

    slo = sorted(k for k in hists if k.startswith("slo.decision_latency_us"))
    section("SLO: decision latency (CO-safe, from intended starts)")
    if not slo:
        print("  (no slo.decision_latency_us histograms — not an "
              "open-loop run)")
    else:
        rows = [("run", "count", "mean", "p50", "p90", "p99", "p99.9",
                 "max")]
        for name in slo:
            h = hists[name]
            label = name[len("slo.decision_latency_us"):].lstrip(".") or "-"
            rows.append((label, str(int(h["count"])), fmt_us(h["mean"]),
                         fmt_us(h["p50"]), fmt_us(h["p90"]),
                         fmt_us(h["p99"]), fmt_us(h["p999"]),
                         fmt_us(h["max"])))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        for r in rows:
            print("  " + "  ".join(c.rjust(w) for c, w in zip(r, widths)))

    ol = {k[len("open_loop."):]: v for k, v in metrics.items()
          if k.startswith("open_loop.")}
    section("Open-loop accounting")
    if not ol:
        print("  (no open_loop.* gauges)")
    else:
        for field in ("arrivals", "submitted", "busy_rejected", "read_only",
                      "committed", "aborted", "undecided"):
            if field in ol:
                print(f"  {field:>14}: {int(ol[field])}")

    causes = abort_causes(metrics)
    # Busy rejections never reach the pipeline; fold them in from the
    # open-loop driver when present.
    busy = metrics.get("open_loop.abort.busy", 0)
    section("Abort causes (typed provenance)")
    if not causes and busy <= 0:
        print("  (no aborts recorded)")
    total = sum(causes.values())
    for cause, n in sorted(causes.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {cause:>20}: {int(n):>8}  ({100.0 * n / total:5.1f}%)")
    if busy > 0:
        print(f"  {'busy (admission)':>20}: {int(busy):>8}  "
              f"(shed before the log)")

    stage_hists = sorted(k for k in hists
                         if k.startswith("pipeline.abort_decision_us."))
    section("Abort decision latency by stage (durable -> abort)")
    if not any(hists[k]["count"] > 0 for k in stage_hists):
        print("  (no staged abort latencies recorded)")
    else:
        for name in stage_hists:
            h = hists[name]
            if h["count"] <= 0:
                continue
            stage = name[len("pipeline.abort_decision_us."):]
            print(f"  {stage:>12}: n={int(h['count']):<6} "
                  f"p50={fmt_us(h['p50'])} p99={fmt_us(h['p99'])} "
                  f"max={fmt_us(h['max'])}")

    # Contention heatmap: "<server>.contention.<rank>.{key,count,err}".
    sketches = {}
    for k, v in metrics.items():
        if ".contention." not in k:
            continue
        server, rest = k.split(".contention.", 1)
        if rest == "total_conflict_keys":
            sketches.setdefault(server, {})["total"] = v
            continue
        rank, field = rest.split(".")
        entry = sketches.setdefault(server, {}).setdefault(int(rank), {})
        entry[field] = v
    section("Contention heatmap (top conflicting keys, space-saving sketch)")
    if not sketches:
        print("  (no contention sketch — no conflicts, or no server "
              "provider in the snapshot)")
    else:
        for server, entries in sorted(sketches.items()):
            total = entries.pop("total", 0)
            print(f"  {server}: {int(total)} conflict-key observations")
            for rank in sorted(k for k in entries if isinstance(k, int)):
                e = entries[rank]
                print(f"    #{rank:<2} key={int(e.get('key', 0)):<12} "
                      f"count={int(e.get('count', 0)):<6} "
                      f"(overcount <= {int(e.get('err', 0))})")
    print()
    return True


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    ok = True
    for path in sys.argv[1:]:
        try:
            ok = report(path) and ok
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
            print(f"slo_report: {path}: {e}", file=sys.stderr)
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
