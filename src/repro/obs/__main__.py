"""Command-line trace analytics: ``python -m repro.obs <command>``.

Commands
--------

``report TRACE [--metrics M] --out DIR``
    Analyze + lint a JSONL trace and write the deterministic Markdown
    report and Gantt SVG into DIR.  ``--strict`` exits non-zero when the
    linter finds anything.
``lint TRACE [--metrics M]``
    Run only the TL invariant linter; exit 1 on findings (the CI gate).
``summary TRACE``
    One-screen text summary (record kinds, cells, decision outcomes).

Runtime-plane commands (wall-clock telemetry; see
docs/OBSERVABILITY.md, "two planes"):

``timeline RUN_DIR [--out PATH]``
    Render the run's span files as a Chrome trace-event fleet timeline
    (one track per worker plus the coordinator track); open it in
    chrome://tracing or ui.perfetto.dev.
``runtime-metrics RUN_DIR [--out PATH]``
    Export the latest runtime metrics snapshot as a Prometheus-style
    textfile (for node_exporter's textfile collector).
``runtime-summary RUN_DIR``
    One-screen summary of the runtime plane: record kinds and per-kind
    wall-time percentiles.
``tail RUN_DIR [--follow]``
    Print the run's live progress line from ``progress.json``;
    ``--follow`` keeps polling until the run reaches a terminal state.

Examples::

    python -m repro.experiments fig7 --seeds 2 --trace fig7.jsonl \\
        --metrics-json fig7-metrics.json
    python -m repro.obs report fig7.jsonl --metrics fig7-metrics.json \\
        --out fig7-report
    python -m repro.obs lint fig7.jsonl --metrics fig7-metrics.json
    python -m repro.experiments fig7 --jobs 4 --runtime-telemetry rt/
    python -m repro.obs timeline rt/ && python -m repro.obs tail rt/
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.analyze import (TRACE_RULES, TraceSet, decision_summary,
                               format_cell, lint)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Consume repro.obs decision traces: analytics, "
                    "invariant lint, run reports.")
    sub = parser.add_subparsers(dest="command")

    report = sub.add_parser("report", help="write Markdown + SVG run report")
    report.add_argument("trace", help="JSONL trace file (--trace output)")
    report.add_argument("--metrics", metavar="PATH", default=None,
                        help="metrics registry JSON (--metrics-json "
                             "output) for TL005 cross-checks")
    report.add_argument("--out", metavar="DIR", default="trace-report",
                        help="output directory (default: trace-report/)")
    report.add_argument("--strict", action="store_true",
                        help="exit 3 when the linter reports findings")

    lint_cmd = sub.add_parser("lint", help="check TL001-TL007 invariants")
    lint_cmd.add_argument("trace")
    lint_cmd.add_argument("--metrics", metavar="PATH", default=None)
    lint_cmd.add_argument("--json", action="store_true",
                          help="machine-readable findings on stdout")

    summary = sub.add_parser("summary", help="one-screen trace summary")
    summary.add_argument("trace")

    rules = sub.add_parser("rules", help="list the TL invariant codes")
    del rules

    timeline = sub.add_parser(
        "timeline", help="export the Chrome fleet timeline of a "
                         "runtime-telemetry run directory")
    timeline.add_argument("run_dir", help="--runtime-telemetry directory")
    timeline.add_argument("--out", metavar="PATH", default=None,
                          help="output file (default: "
                               "RUN_DIR/timeline.trace.json)")

    rt_metrics = sub.add_parser(
        "runtime-metrics", help="export the latest runtime metrics "
                                "snapshot as a Prometheus textfile")
    rt_metrics.add_argument("run_dir")
    rt_metrics.add_argument("--out", metavar="PATH", default=None,
                            help="output file (default: "
                                 "RUN_DIR/metrics.prom)")

    rt_summary = sub.add_parser(
        "runtime-summary", help="summarize a run's wall-clock spans")
    rt_summary.add_argument("run_dir")

    tail = sub.add_parser(
        "tail", help="print (and optionally follow) a run's live progress")
    tail.add_argument("run_dir")
    tail.add_argument("--follow", action="store_true",
                      help="keep polling until the run finishes")
    tail.add_argument("--interval", type=float, default=0.5,
                      help="polling interval in seconds (default: 0.5)")
    return parser


def _runtime_main(args) -> int:
    """Dispatch the runtime-plane subcommands (wall-clock telemetry)."""
    from repro.obs.runtime import (SpanSet, tail_run, wall_summary,
                                   write_fleet_timeline, write_prometheus)

    if args.command == "tail":
        return tail_run(args.run_dir, follow=args.follow,
                        interval=args.interval)
    if args.command == "timeline":
        try:
            out = write_fleet_timeline(args.run_dir, out=args.out)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {out}")
        return 0
    if args.command == "runtime-metrics":
        try:
            out = write_prometheus(args.run_dir, out=args.out)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {out}")
        return 0
    # runtime-summary
    spans = SpanSet.load_dir(args.run_dir)
    if not spans.records:
        print(f"no runtime span files under {args.run_dir}",
              file=sys.stderr)
        return 1
    print(f"{len(spans.records)} records, {len(spans.bad_lines)} "
          f"unparseable lines, {len(spans.tracks())} tracks")
    for kind, count in sorted(spans.kinds().items()):
        print(f"  {kind:>24}: {count}")
    walls = wall_summary(spans)
    if walls:
        print("wall-time percentiles (seconds):")
        for kind in sorted(walls):
            stats = walls[kind]
            print(f"  {kind:>24}: p50 {stats['p50']:.6f}  "
                  f"p95 {stats['p95']:.6f}  max {stats['max']:.6f}")
    return 0


def _load_metrics(path: "str | None"):
    if path is None:
        return None
    from pathlib import Path

    return json.loads(Path(path).read_text())


def _print_findings(findings) -> None:
    for finding in findings:
        print(str(finding), file=sys.stderr)
    print(f"{len(findings)} lint finding(s)", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_usage()
        return 2

    if args.command == "rules":
        for code in sorted(TRACE_RULES):
            print(f"{code}: {TRACE_RULES[code]}")
        return 0

    if args.command in ("timeline", "runtime-metrics", "runtime-summary",
                        "tail"):
        return _runtime_main(args)

    ts = TraceSet.load(args.trace)

    if args.command == "summary":
        print(f"{len(ts)} records, {len(ts.bad_lines)} unparseable lines")
        for kind, count in ts.kinds().items():
            print(f"  {kind:>24}: {count}")
        print(f"cells ({len(ts.cells())}):")
        for cell in ts.cells():
            print(f"  {format_cell(cell)}")
        decisions = decision_summary(ts)
        print(f"decisions: {decisions['epochs']} epochs, "
              f"{decisions['accepted']} accepted, "
              f"{decisions['moves']} moves")
        return 0

    metrics = _load_metrics(args.metrics)
    findings = lint(ts, metrics)

    if args.command == "lint":
        if args.json:
            print(json.dumps(
                [{"code": f.code, "message": f.message,
                  "cell": list(f.cell) if f.cell else None,
                  "series": f.series} for f in findings],
                sort_keys=True))
            return 1 if findings else 0
        if findings:
            _print_findings(findings)
            return 1
        print(f"clean: {len(ts)} records satisfy "
              f"{len(TRACE_RULES)} TL invariants")
        return 0

    # report
    from repro.obs.report import write_report

    md_path, svg_path, findings = write_report(ts, args.out, metrics,
                                               findings=findings)
    print(f"wrote {md_path}")
    print(f"wrote {svg_path}")
    if findings:
        _print_findings(findings)
        if args.strict:
            return 3
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
