"""Command-line front end: ``python -m repro.analysis``.

One analyzer and one runtime sanitizer behind a shared finding schema
(:mod:`repro.analysis.schema`), shared suppression comments, and shared
exit codes (0 clean, 1 findings, 2 usage error)::

    python -m repro.analysis lint PATHS           # SL: per-module stage
    python -m repro.analysis flow                 # SF: interprocedural stage
    python -m repro.analysis flow --effects-report  # the purity contract
    python -m repro.analysis sanitize --seed 3    # SZ: runtime sanitizer
    python -m repro.analysis rules                # every code, all families
    python -m repro.analysis self-check           # the CI gate (SL+SZ+SF)

``flow`` and ``self-check`` parse the package once and run both stages;
``lint`` runs only the per-module stage, on any files.  Trace analytics
and the TL invariants live in ``python -m repro.obs``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.schema import findings_payload, format_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis (SL per-module and SF "
                    "interprocedural rules) and the runtime sanitizer (SZ) "
                    "for the repro package.")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="per-module stage only (SL rules), "
                                       "on any files or directories")
    lint.add_argument("paths", nargs="+")
    lint.add_argument("--format", choices=("text", "json"), default="text")

    flow = sub.add_parser(
        "flow", help="interprocedural effect/determinism/units analysis "
                     "(SF rules)")
    flow.add_argument("root", nargs="?", default=None,
                      help="package directory (default: the installed "
                           "repro package)")
    flow.add_argument("--package", default=None,
                      help="package name for qualnames (default: the "
                           "directory name)")
    flow.add_argument("--format", choices=("text", "json"), default="text")
    flow.add_argument("--baseline", metavar="FILE", default=None,
                      help="previous --format json payload; matching "
                           "findings (code, path, function) are filtered")
    flow.add_argument("--effects-report", action="store_true",
                      help="print the inferred effect-signature table for "
                           "the contract scope instead of findings")

    sanitize = sub.add_parser("sanitize",
                              help="run the demo scenario under the "
                                   "runtime sanitizer (SZ rules)")
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument("--strict", action="store_true")
    sanitize.add_argument("--format", choices=("text", "json"),
                          default="text")

    rules = sub.add_parser("rules",
                           help="list every diagnostic code of every "
                                "family (SL, SF, SZ, TL)")
    rules.add_argument("--format", choices=("text", "json"), default="text")

    check = sub.add_parser("self-check", help="the CI gate: both static "
                                              "stages + sanitizer demo")
    check.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _lint_text(findings, files_scanned: int) -> str:
    noun = "file" if files_scanned == 1 else "files"
    return format_text("simlint", findings, f"in {files_scanned} {noun}")


def _flow_text(findings, functions_analyzed: int) -> str:
    return format_text("simflow", findings,
                       f"across {functions_analyzed} functions")


def _run_lint(paths, fmt: str) -> int:
    from repro.analysis.flow import lint_paths

    try:
        findings, files_scanned = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    if fmt == "json":
        print(json.dumps(findings_payload("simlint", findings,
                                          files_scanned=files_scanned),
                         indent=2))
    else:
        print(_lint_text(findings, files_scanned))
    return 1 if findings else 0


def _run_sanitize(seed: int, strict: bool, fmt: str) -> int:
    from repro.analysis.demo import run_demo

    outcome = run_demo(seed, strict=strict)
    report = outcome.report
    if fmt == "json":
        payload = report.to_dict()
        payload["makespan"] = outcome.makespan
        payload["swap_count"] = outcome.result.swap_count
        print(json.dumps(payload, indent=2))
    else:
        print(report.format())
        print(f"demo scenario: makespan={outcome.makespan:.1f}s, "
              f"swaps={outcome.result.swap_count}, seed={seed}")
    return 1 if report.error_count else 0


def _package_dir() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _run_flow(root: "str | None", package: "str | None", fmt: str,
              baseline: "str | None", effects: bool) -> int:
    from repro.analysis import flow as flowpkg

    if root is None:
        root_path = _package_dir()
        package = package or "repro"
    else:
        root_path = Path(root)

    baseline_keys = None
    if baseline is not None:
        try:
            baseline_keys = flowpkg.load_baseline(baseline)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {baseline}: {exc}")
            return 2

    try:
        result = flowpkg.analyze_package(root_path, package=package)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2

    # A module the interprocedural stage could not see is a finding too.
    if effects:
        for finding in result.parse_errors:
            print(finding.format(), file=sys.stderr)
        report = flowpkg.effects_report(result.analysis)
        print(flowpkg.format_effects_report(report), end="")
        return 1 if result.parse_errors else 0

    findings = result.parse_errors + result.findings
    if baseline_keys is not None:
        findings = flowpkg.apply_baseline(findings, baseline_keys)
    if fmt == "json":
        print(json.dumps(findings_payload(
            "simflow", findings,
            functions_analyzed=result.functions_analyzed), indent=2))
    else:
        print(_flow_text(findings, result.functions_analyzed))
    return 1 if findings else 0


def rule_catalogue() -> "list[tuple[str, str, str]]":
    """(code, name, summary) for every family, sorted by code."""
    from repro.analysis.flow import FLOW_RULES, all_rules
    from repro.analysis.sanitizer import SANITIZER_RULES
    from repro.obs.analyze import TRACE_RULES

    rows = [(r.code, r.name, r.summary) for r in all_rules()]
    rows += [(code, name, summary)
             for code, (name, summary) in FLOW_RULES.items()]
    rows += [(code, name, summary)
             for code, (name, summary) in SANITIZER_RULES.items()]
    rows += [(code, f"trace-{code.lower()}", summary)
             for code, summary in TRACE_RULES.items()]
    return sorted(rows)


def _run_rules(fmt: str) -> int:
    rows = rule_catalogue()
    if fmt == "json":
        print(json.dumps([{"code": c, "name": n, "summary": s}
                          for c, n, s in rows], indent=2))
    else:
        for code, name, summary in rows:
            print(f"{code} {name}: {summary}")
    return 0


def _self_check(fmt: str) -> int:
    from repro.analysis.demo import run_demo
    from repro.analysis.flow import analyze_package

    result = analyze_package(_package_dir(), package="repro")
    outcome = run_demo(0)
    report = outcome.report
    failed = bool(result.lint_findings or report.error_count
                  or result.findings)

    if fmt == "json":
        payload = findings_payload("simlint", result.lint_findings,
                                   files_scanned=result.files_scanned)
        payload["sanitizer"] = report.to_dict()
        payload["flow"] = findings_payload(
            "simflow", result.findings,
            functions_analyzed=result.functions_analyzed)
        print(json.dumps(payload, indent=2))
    else:
        print(_lint_text(result.lint_findings, result.files_scanned))
        print(f"sanitizer demo: {report.error_count} errors, "
              f"{report.warning_count} warnings over "
              f"{report.events_processed} events")
        print(_flow_text(result.findings, result.functions_analyzed))
    return 1 if failed else 0


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors: exit code 2, like the rest
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "lint":
        return _run_lint(args.paths, args.format)
    if args.command == "flow":
        return _run_flow(args.root, args.package, args.format,
                         args.baseline, args.effects_report)
    if args.command == "sanitize":
        return _run_sanitize(args.seed, args.strict, args.format)
    if args.command == "rules":
        return _run_rules(args.format)
    assert args.command == "self-check"
    return _self_check(args.format)
