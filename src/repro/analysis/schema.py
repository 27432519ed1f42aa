"""The shared finding schema of every ``repro.analysis`` family.

All four analyzer families -- the per-module lint stage (``SL``), the
runtime sanitizer (``SZ``), the trace invariant linter (``TL``), and the
interprocedural flow stage (``SF``) -- report through one JSON shape so
CI gates and baselines can treat them interchangeably:

* a *finding* is ``{"code", "message", "path", "line", "column"}`` plus
  ``"function"`` when the finding belongs to one (every SF finding);
* a *payload* is ``{"version", "tool", ..., "finding_count",
  "counts_by_code", "findings"}``.

Exit-code convention, shared by every subcommand of
``python -m repro.analysis``: ``0`` clean, ``1`` findings, ``2`` usage
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

#: Schema version of the payload produced by :func:`findings_payload`.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Finding:
    """One static-analysis diagnostic, pinned to a source location."""

    code: str
    message: str
    path: str
    line: int
    column: int
    #: Qualified name of the enclosing function (interprocedural SF
    #: findings); None for per-module findings.
    function: "str | None" = None

    def format(self) -> str:
        where = f" [in {self.function}]" if self.function else ""
        return (f"{self.path}:{self.line}:{self.column}: {self.code} "
                f"{self.message}{where}")

    def to_dict(self) -> dict:
        out = {"code": self.code, "message": self.message, "path": self.path,
               "line": self.line, "column": self.column}
        if self.function is not None:
            out["function"] = self.function
        return out


def findings_payload(tool: str, findings: Sequence[Any],
                     **extra: Any) -> dict:
    """The stable JSON payload of one analyzer run.

    ``findings`` is a sequence of objects with ``code`` attributes and a
    ``to_dict()`` method.  ``extra`` keys (e.g. ``files_scanned``) are
    inserted after ``tool``.
    """
    counts: "dict[str, int]" = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    payload: dict = {"version": SCHEMA_VERSION, "tool": tool}
    payload.update(extra)
    payload["finding_count"] = len(findings)
    payload["counts_by_code"] = dict(sorted(counts.items()))
    payload["findings"] = [f.to_dict() for f in findings]
    return payload


def format_text(tool: str, findings: "Sequence[Finding]", scope: str) -> str:
    """One line per finding, then ``tool: N findings <scope>``."""
    lines = [f.format() for f in findings]
    lines.append(f"{tool}: {len(findings)} finding"
                 f"{'' if len(findings) == 1 else 's'} {scope}")
    return "\n".join(lines)
