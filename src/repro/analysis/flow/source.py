"""Source loading shared by every stage: walk, parse once, resolve.

Each run walks its paths with :func:`iter_python_files`, parses each
module exactly once with :func:`load_module`, and hands the resulting
:class:`ModuleInfo` to both stages of the pipeline -- the per-module
``SL`` lint stage and the interprocedural ``SF`` stage.  A module that
does not parse becomes an ``SL000`` finding instead; no stage silently
skips it.

A :class:`ModuleInfo` carries the module's import maps (the one import
resolver every rule uses, :meth:`ModuleInfo.resolve`) and its
suppression comments.  Suppression syntax (checked against the
*reported* line; one directive may mix families --
``disable=SL003,SF001``):

* ``# simlint: disable=SL003`` -- suppress the listed codes on this line;
* ``# simflow: disable=SF005`` / ``# repro-analysis: disable=...`` --
  the same, under the other two accepted prefixes;
* ``# simlint: disable=all`` -- everything on this line;
* ``# simlint: disable-file=SL003`` -- suppress for the whole file
  (conventionally placed near the top, with a justification comment).

A suppression on any decorator line of a decorated ``def`` / ``class``
also covers findings reported on the ``def`` line itself (definition-
anchored findings like SL006 and SF004 are otherwise unreachable when a
decorator owns the natural comment spot).

Suppressions exist so that a *justified* exception can be recorded in
place -- e.g. :mod:`repro.load.hyperexp` keeps a private ``heapq`` of
process departure times that has nothing to do with the simulator's
event heap.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.schema import Finding

_SUPPRESS_RE = re.compile(
    r"#\s*(?:simlint|simflow|repro-analysis):\s*disable(?P<file>-file)?\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

#: Directory names never descended into when walking paths.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", "node_modules", "build", "dist"}


def iter_python_files(paths: "Iterable[str | Path]") -> "list[Path]":
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: "set[Path]" = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = set(candidate.parts)
                if parts & _SKIP_DIRS:
                    continue
                if any(p.endswith(".egg-info") for p in candidate.parts):
                    continue
                files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def module_name(path: Path, root: "Path | None" = None,
                package: "str | None" = None) -> str:
    """Dotted module name of ``path``.

    Relative to a package directory ``root`` named ``package`` when
    given; otherwise relative to the directory above the outermost
    ``__init__.py`` chain containing the file (climbed on the resolved
    path, so a relative ``.`` inside a package still terminates).
    """
    if root is not None:
        parts = [package or root.name] + list(
            path.relative_to(root).with_suffix("").parts)
    else:
        path = path.resolve()
        top = path.parent
        while (top / "__init__.py").is_file() and top.parent != top:
            top = top.parent
        parts = list(path.relative_to(top).with_suffix("").parts)
    if len(parts) > 1 and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` as a string, or None for non-name expressions."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class SuppressionIndex:
    """Per-module suppression lookup, built from the module source and
    its AST (so decorator-line suppressions extend to the decorated
    definition's ``def`` line)."""

    def __init__(self, source: str, tree: ast.Module) -> None:
        self._per_line: "dict[int, set[str]]" = {}
        self._per_file: "set[str]" = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            for match in _SUPPRESS_RE.finditer(line):
                codes = {c.strip().upper() for c in
                         match.group("codes").split(",")}
                if match.group("file"):
                    self._per_file |= codes
                else:
                    self._per_line.setdefault(lineno, set()).update(codes)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not node.decorator_list:
                continue
            first = min(d.lineno for d in node.decorator_list)
            codes: "set[str]" = set()
            for line in range(first, node.lineno):
                codes |= self._per_line.get(line, set())
            if codes:
                self._per_line.setdefault(node.lineno, set()).update(codes)

    def suppressed(self, code: str, line: int) -> bool:
        if "ALL" in self._per_file or code in self._per_file:
            return True
        codes = self._per_line.get(line, ())
        return "ALL" in codes or code in codes


@dataclass
class ModuleInfo:
    """One parsed module: source, AST, import maps, suppressions."""

    name: str
    path: str
    source: str
    tree: ast.Module
    #: alias -> module dotted name (``import numpy as np``).
    imports_mod: "dict[str, str]" = field(default_factory=dict)
    #: local name -> full dotted origin (``from x import y [as z]``);
    #: relative imports are anchored at this module's package.
    imports_from: "dict[str, str]" = field(default_factory=dict)
    #: module-level names bound to a mutable container (graph stage).
    mutable_globals: "set[str]" = field(default_factory=set)
    #: module-level name -> class qualname (``X = ClassName()``).
    global_types: "dict[str, str]" = field(default_factory=dict)
    #: True for a package's ``__init__.py``: its name *is* the package,
    #: so relative imports anchor one level higher than for a submodule.
    is_package: bool = False

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    key = alias.asname or alias.name.split(".")[0]
                    self.imports_mod[key] = (alias.name if alias.asname
                                             else alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative import -> anchor in the package
                    parts = self.name.split(".")
                    anchor = parts[:len(parts) - node.level
                                   + self.is_package]
                    base = ".".join(anchor + ([node.module]
                                              if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.imports_from[alias.asname or alias.name] = target

    @cached_property
    def suppressions(self) -> SuppressionIndex:
        return SuppressionIndex(self.source, self.tree)

    def resolve(self, dotted: str) -> "str | None":
        """Resolve a dotted name through this module's imports.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``numpy.random.default_rng``; ``wall`` after ``from time import
        time as wall`` to ``time.time``.  None when the head is not an
        imported name.
        """
        head, _, rest = dotted.partition(".")
        origin = self.imports_from.get(head) or self.imports_mod.get(head)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin

    def qualified_name(self, node: ast.AST) -> "str | None":
        """A name/attribute expression as a dotted path, resolved through
        the imports when its head is imported (``None`` for anything
        that is not a plain dotted name)."""
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        return self.resolve(dotted) or dotted


def load_module(path: "str | Path", name: str,
                source: "str | None" = None) -> "ModuleInfo | Finding":
    """Parse one module -- the only ``ast.parse`` of it in a run.

    Returns the :class:`ModuleInfo`, or an ``SL000`` finding when the
    source does not parse.
    """
    path = str(path).replace("\\", "/")
    if source is None:
        source = Path(path).read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(code="SL000", message=f"syntax error: {exc.msg}",
                       path=path, line=exc.lineno or 1,
                       column=(exc.offset or 0) + 1 if exc.offset else 1)
    return ModuleInfo(name=name, path=path, source=source, tree=tree,
                      is_package=Path(path).name == "__init__.py")


def filter_suppressed(findings: "Iterable[Finding]",
                      modules: "dict[str, ModuleInfo]",
                      ) -> "tuple[list[Finding], int]":
    """Drop findings a suppression comment covers; ``modules`` maps a
    path to its module.  Returns ``(kept, suppressed_count)``."""
    kept: "list[Finding]" = []
    suppressed = 0
    for finding in findings:
        mod = modules.get(finding.path)
        if mod is not None and mod.suppressions.suppressed(finding.code,
                                                           finding.line):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def relativize(findings: "Sequence[Finding]",
               base: Path) -> "list[Finding]":
    """Report paths relative to ``base`` so output is stable across
    checkouts; paths outside ``base`` are kept as they are."""
    base = base.resolve()
    out: "list[Finding]" = []
    for f in findings:
        try:
            rel = str(Path(f.path).resolve().relative_to(base))
        except ValueError:
            rel = f.path
        out.append(Finding(code=f.code, message=f.message,
                           path=rel.replace("\\", "/"), line=f.line,
                           column=f.column, function=f.function))
    return out
