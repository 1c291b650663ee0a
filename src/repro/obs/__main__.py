"""Trace-inspection CLI: ``python -m repro.obs <command> <trace.json>``.

Commands operate on the run-record JSON written by the runtime,
experiments, and bench CLIs (``--trace-dir``)::

    python -m repro.obs summarize runs/trace.json            # p50/p95/p99
    python -m repro.obs summarize runs/trace.json --top 5    # slowest recs
    python -m repro.obs tree runs/trace.json                 # span trees
    python -m repro.obs tree runs/trace.json --recording 3
    python -m repro.obs diff base/trace.json new/trace.json  # regressions
    python -m repro.obs diff a.json b.json --fail-above 5    # CI gate
    python -m repro.obs health soak/health.jsonl             # fleet dashboard
    python -m repro.obs health soak/health.jsonl --fail-on-fired

``tree`` marks the critical path (the longest-child chain) with ``*``;
``diff`` exits 1 when any stage's p50 regressed beyond
``--fail-above`` percent, so it can gate CI.

``health`` renders the fleet dashboard from a health-snapshot JSONL
(written live by ``python -m repro.serve loadgen --health-interval-s``
or replayed from a soak artifact — the file is the replay).  It exits
3 when the final snapshot still has active alerts, and with
``--fail-on-fired`` also when *any* alert fired during the trajectory,
so the same command gates CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .export import load_run_record
from .summary import (
    diff_stages,
    render_diff,
    render_stage_table,
    render_tree,
    slowest_recordings,
    stage_stats,
)

__all__ = ["main"]


def _cmd_summarize(args: argparse.Namespace) -> int:
    record = load_run_record(args.trace)
    if record.manifest is not None:
        m = record.manifest
        print(
            f"run: {m.created_at}  config={m.config_fingerprint[:12] or '-'}  "
            f"seed={m.seed}  git={(m.git_sha or 'unknown')[:12]}  host={m.hostname}"
        )
    print(f"spans: {sum(1 for root in record.spans for _ in root.walk())} "
          f"in {len(record.spans)} traces "
          f"({len(record.recording_roots())} recordings)\n")
    print(render_stage_table(stage_stats(record.spans)))
    slowest = slowest_recordings(record.spans, top=args.top)
    if slowest:
        print(f"\nslowest {len(slowest)} recordings:")
        header = (
            f"{'idx':>5} {'participant':<14}{'day':>6}{'ms':>10}"
            f"  {'outcome':<12}"
        )
        print(header)
        print("-" * len(header))
        for row in slowest:
            print(
                f"{str(row['index']):>5} {row['participant']:<14}"
                f"{str(row['day']):>6}{row['duration_ms']:>10.3f}"
                f"  {row['outcome']:<12}"
            )
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    record = load_run_record(args.trace)
    roots = record.recording_roots() if args.recording is not None else record.spans
    if args.recording is not None:
        roots = [r for r in roots if r.attrs.get("index") == args.recording]
        if not roots:
            print(f"no recording trace with index {args.recording}", file=sys.stderr)
            return 2
    shown = 0
    for root in roots:
        if args.limit is not None and shown >= args.limit:
            remaining = len(roots) - shown
            print(f"... {remaining} more trace(s); raise --limit to see them")
            break
        print(render_tree(root))
        print()
        shown += 1
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    before = stage_stats(load_run_record(args.before).spans)
    after = stage_stats(load_run_record(args.after).spans)
    rows = diff_stages(before, after)
    print(render_diff(rows))
    if args.fail_above is not None:
        worst = [
            row
            for row in rows
            if row["delta_pct"] is not None and row["delta_pct"] > args.fail_above
        ]
        if worst:
            print(
                f"\nFAIL: {len(worst)} stage(s) regressed beyond "
                f"{args.fail_above:g}% (worst: {worst[0]['stage']} "
                f"{worst[0]['delta_pct']:+.1f}%)"
            )
            return 1
    return 0


def _load_snapshots(path: Path) -> list[dict[str, Any]]:
    """Read a health-snapshot JSONL trajectory (one snapshot per line)."""
    snapshots = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if "series" in data and "slos" in data:
                snapshots.append(data)
    return snapshots


def _render_labels(labels: dict[str, str]) -> str:
    return " ".join(f"{k}={v or '-'}" for k, v in labels.items()) or "(all)"


def _render_health(snapshot: dict[str, Any], count: int, path: Path) -> None:
    print(
        f"fleet health — snapshot {snapshot['seq']} @ {snapshot['at_s']:.1f}s  "
        f"({path.name}: {count} snapshot(s))\n"
    )
    for name in sorted(snapshot["series"]):
        rows = snapshot["series"][name]
        print(name)
        for row in rows:
            label = _render_labels(row["labels"])
            cells = f"  {label:<42} n={row['count']:<7} rate={row['rate_per_s']:.3f}/s"
            quantiles = row.get("quantiles")
            if quantiles:
                cells += "  " + "  ".join(
                    f"{q}={v:.2f}" for q, v in quantiles.items()
                )
                cells += f"  max={row['max']:.2f}"
            print(cells)
    print("\nslos")
    for slo in snapshot["slos"]:
        target = f"{slo['target'] * 100:g}%"
        status = "FIRING" if slo["firing"] else "ok"
        print(f"  {slo['objective']:<26} target {target:<8} {status}")
        for rule in slo["rules"]:
            marker = "!" if rule["firing"] else " "
            print(
                f"    {marker} {rule['severity']:<7} {rule['rule']:<14} "
                f"burn {rule['burn_long']:.2f}/{rule['burn_short']:.2f} "
                f"(x{rule['factor']:g}, n={rule['events_long']})"
            )
    alerts = snapshot["alerts_active"]
    if alerts:
        print(f"\nalerts: {len(alerts)} ACTIVE")
        for alert in alerts:
            print(f"  {alert['severity']:<7} {alert['slo']} ({alert['rule']})")
    else:
        print("\nalerts: none")
    transitions = snapshot.get("transitions", [])
    if transitions:
        print("transitions")
        for t in transitions:
            print(
                f"  {t['at_s']:>10.1f}s  {t['state']:<9} {t['severity']:<7} "
                f"{t['slo']} ({t['rule']}) burn {t['burn_long']:.2f}"
            )


def _cmd_health(args: argparse.Namespace) -> int:
    snapshots = _load_snapshots(args.trajectory)
    if not snapshots:
        print(f"no health snapshots in {args.trajectory}", file=sys.stderr)
        return 2
    final = snapshots[-1]
    _render_health(final, len(snapshots), args.trajectory)
    fired = [
        t for t in final.get("transitions", []) if t["state"] == "fired"
    ]
    if final["alerts_active"]:
        print(f"\nFAIL: {len(final['alerts_active'])} alert(s) still active")
        return 3
    if args.fail_on_fired and fired:
        print(
            f"\nFAIL: {len(fired)} alert(s) fired during the run "
            "(all since resolved)"
        )
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect run-record trace files (summaries, trees, diffs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="per-stage percentiles and slowest recordings")
    p_sum.add_argument("trace", type=Path, help="run-record trace.json")
    p_sum.add_argument("--top", type=int, default=10, help="slowest recordings to list")
    p_sum.set_defaults(func=_cmd_summarize)

    p_tree = sub.add_parser("tree", help="render span trees with the critical path marked")
    p_tree.add_argument("trace", type=Path, help="run-record trace.json")
    p_tree.add_argument(
        "--recording", type=int, default=None, help="only the trace of this batch index"
    )
    p_tree.add_argument(
        "--limit", type=int, default=8, help="max trees to print (default 8)"
    )
    p_tree.set_defaults(func=_cmd_tree)

    p_diff = sub.add_parser("diff", help="per-stage p50 regressions between two runs")
    p_diff.add_argument("before", type=Path, help="baseline trace.json")
    p_diff.add_argument("after", type=Path, help="candidate trace.json")
    p_diff.add_argument(
        "--fail-above",
        type=float,
        default=None,
        help="exit 1 if any stage p50 regresses beyond this percent",
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_health = sub.add_parser(
        "health", help="render the fleet-health dashboard from a snapshot JSONL"
    )
    p_health.add_argument(
        "trajectory", type=Path, help="health-snapshot JSONL (serve --health-out)"
    )
    p_health.add_argument(
        "--fail-on-fired",
        action="store_true",
        help="also exit 3 when any alert fired during the run, even if resolved",
    )
    p_health.set_defaults(func=_cmd_health)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
