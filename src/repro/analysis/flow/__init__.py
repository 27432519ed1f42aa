"""The static analyzer: one parse per module, then two stages.

Every run walks its files once and parses each module once
(:mod:`~repro.analysis.flow.source`); a module that does not parse is
an ``SL000`` finding.  The parsed modules then go through

1. the **per-module stage** -- the ``SL`` rules
   (:mod:`~repro.analysis.flow.lint`), one AST walk per module;
2. the **interprocedural stage** -- a call graph
   (:mod:`~repro.analysis.flow.graph`), per-function effect signatures
   inferred by fixed point (:mod:`~repro.analysis.flow.effects`), and the
   ``SF`` rules (:mod:`~repro.analysis.flow.rules`) evaluated against
   the repo's contracts (:mod:`~repro.analysis.flow.contracts`).

Both stages share the import resolver, the suppression comments, and
the :class:`~repro.analysis.schema.Finding` type.  Entry points::

    from repro.analysis.flow import analyze_package, lint_paths
    result = analyze_package("src/repro")   # both stages
    result.lint_findings                    # unsuppressed SL findings
    result.findings                         # unsuppressed SF findings
    result.analysis.signature("repro.simkernel.engine.Simulator.step")
    lint_paths(["examples/"])               # per-module stage only

CLI: ``python -m repro.analysis`` (see :mod:`repro.analysis.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.flow.contracts import FlowContracts, default_contracts
from repro.analysis.flow.effects import EffectAnalysis, analyze_effects
from repro.analysis.flow.graph import PackageIndex
from repro.analysis.flow.lint import Rule, all_rules, lint_module
from repro.analysis.flow.report import (apply_baseline, effects_report,
                                        format_effects_report, load_baseline)
from repro.analysis.flow.rules import FLOW_RULES, run_flow_rules
from repro.analysis.flow.source import (ModuleInfo, filter_suppressed,
                                        iter_python_files, load_module,
                                        module_name, relativize)
from repro.analysis.schema import Finding

__all__ = [
    "FlowContracts", "default_contracts", "EffectAnalysis", "PackageIndex",
    "FLOW_RULES", "FlowResult", "Rule", "all_rules", "analyze_package",
    "lint_paths", "lint_source", "effects_report", "format_effects_report",
    "apply_baseline", "load_baseline",
]


@dataclass
class FlowResult:
    """Everything one run of both stages produced."""

    index: PackageIndex
    analysis: EffectAnalysis
    #: SL findings (``SL000`` for unparseable modules included) surviving
    #: suppression comments, sorted.
    lint_findings: "list[Finding]" = field(default_factory=list)
    #: SF findings surviving suppression comments, sorted.
    findings: "list[Finding]" = field(default_factory=list)
    suppressed_count: int = 0
    files_scanned: int = 0

    @property
    def functions_analyzed(self) -> int:
        return len(self.index.functions)

    @property
    def parse_errors(self) -> "list[Finding]":
        return [f for f in self.lint_findings if f.code == "SL000"]


def _lint(loaded: "Iterable[ModuleInfo | Finding]") -> "list[Finding]":
    """The per-module stage over loaded modules: SL findings plus the
    parse errors, suppressions applied, sorted."""
    modules: "dict[str, ModuleInfo]" = {}
    findings: "list[Finding]" = []
    for item in loaded:
        if isinstance(item, ModuleInfo):
            modules[item.path] = item
            findings.extend(lint_module(item))
        else:
            findings.append(item)
    kept, _suppressed = filter_suppressed(findings, modules)
    kept.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return kept


def lint_source(source: str, path: str = "<string>") -> "list[Finding]":
    """Lint one module's source text; returns unsuppressed findings."""
    return _lint([load_module(path, Path(path).stem, source)])


def lint_paths(paths: "Iterable[str | Path]") -> "tuple[list[Finding], int]":
    """Lint files/directory trees; returns (findings, files_scanned)."""
    files = iter_python_files(paths)
    return _lint([load_module(f, module_name(f)) for f in files]), len(files)


def analyze_package(root: "str | Path", package: "str | None" = None,
                    contracts: "FlowContracts | None" = None) -> FlowResult:
    """Run both stages on a package directory (``package`` defaults to
    the directory name).  Finding paths are relative to the directory
    containing the package, so output is stable across checkouts."""
    root = Path(root).resolve()
    if not root.is_dir():
        raise FileNotFoundError(f"package directory not found: {root}")
    package = package or root.name
    files = iter_python_files([root])
    loaded = [load_module(f, module_name(f, root, package)) for f in files]
    modules = [m for m in loaded if isinstance(m, ModuleInfo)]

    lint_findings = _lint(loaded)
    index = PackageIndex.build(package, modules)
    analysis = analyze_effects(index, contracts or default_contracts())
    findings, suppressed = filter_suppressed(
        run_flow_rules(analysis), {m.path: m for m in modules})
    return FlowResult(index=index, analysis=analysis,
                      lint_findings=relativize(lint_findings, root.parent),
                      findings=relativize(findings, root.parent),
                      suppressed_count=suppressed,
                      files_scanned=len(files))
