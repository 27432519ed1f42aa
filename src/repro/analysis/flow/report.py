"""Flow-analysis outputs beyond findings: baselines and the effects report.

The **effects report** is the purity contract other PRs consume (see
ROADMAP items 1 and 2): a byte-stable JSON table of the inferred effect
signature of every function under :data:`~repro.analysis.flow.contracts.
REPORT_SCOPE`.  It is committed at ``docs/effects-report.json`` and CI
fails when the committed copy drifts from a fresh run, so purity
regressions (a helper quietly acquiring IO, a strategy starting to read
shared state) surface in review rather than as flaky sweeps.

A **baseline** is a previous findings payload (``--format json``
output); findings matching a baseline entry by ``(code, path,
function)`` are filtered out, which lets a tree adopt the analyzer
before paying down every pre-existing finding.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.analysis.flow import dims as dims_mod
from repro.analysis.flow import effects as fx
from repro.analysis.flow.effects import EffectAnalysis
from repro.analysis.schema import Finding


# -- baselines -------------------------------------------------------------------

def load_baseline(path: "str | Path") -> "set[tuple[str, str, str]]":
    """Baseline keys from a previous ``--format json`` payload."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    keys: "set[tuple[str, str, str]]" = set()
    for finding in payload.get("findings", ()):
        keys.add((finding.get("code", ""), finding.get("path", ""),
                  finding.get("function", "")))
    return keys


def apply_baseline(findings: "Sequence[Finding]",
                   baseline: "set[tuple[str, str, str]]",
                   ) -> "list[Finding]":
    return [f for f in findings
            if (f.code, f.path, f.function or "") not in baseline]


# -- the effects report ------------------------------------------------------------

def effects_report(analysis: EffectAnalysis) -> dict:
    """The committed purity-contract table (byte-stable)."""
    functions: "dict[str, dict]" = {}
    for qualname in sorted(analysis.index.functions):
        if not qualname.startswith(analysis.contracts.report_scope):
            continue
        signature = analysis.signature(qualname)
        entry: dict = {
            "effects": signature,
            "pure": not signature,
        }
        dim = analysis.return_dims.get(qualname)
        if dim is not None and dim != dims_mod.SCALAR:
            entry["returns"] = dims_mod.describe(dim)
        functions[qualname] = entry
    pure_count = sum(1 for e in functions.values() if e["pure"])
    return {
        "version": 1,
        "tool": "simflow-effects",
        "package": analysis.index.package,
        "scope": list(analysis.contracts.report_scope),
        "effect_lattice": list(fx.EFFECT_ORDER),
        "function_count": len(functions),
        "pure_count": pure_count,
        "functions": functions,
    }


def format_effects_report(report: dict) -> str:
    """Canonical serialization -- CI compares this byte-for-byte."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
