"""Correctness tooling for the reproduction: static analyzer + sanitizer.

Two layers keep the determinism discipline of :mod:`repro.simkernel`
enforceable as the codebase grows (see ``docs/STATIC_ANALYSIS.md``):

* :mod:`repro.analysis.flow` -- the static analyzer: one parse per
  module, then a per-module stage (rules ``SL001``-``SL006``: wall-clock
  calls, coroutine misuse, heap encapsulation, float-time equality, raw
  unit literals, shared mutable state) and an interprocedural stage
  (rules ``SF001``-``SF006`` over inferred effect signatures);
* :mod:`repro.analysis.sanitizer` -- a runtime supervisor
  (:class:`SanitizedSimulator`) that watches a live run for event-order
  ties, corrupt delays, post-run scheduling, leaked resource slots, and
  RNG draws that bypass the registry.

Run both from the command line: ``python -m repro.analysis self-check``.
"""

from repro.analysis.flow import Rule, all_rules, lint_paths, lint_source
from repro.analysis.sanitizer import (SanitizedSimulator, SanitizerError,
                                      SanitizerFinding, SanitizerReport)
from repro.analysis.schema import Finding, findings_payload, format_text

__all__ = [
    "Finding",
    "Rule",
    "SanitizedSimulator",
    "SanitizerError",
    "SanitizerFinding",
    "SanitizerReport",
    "all_rules",
    "findings_payload",
    "format_text",
    "lint_paths",
    "lint_source",
]
