"""The per-module lint stage: the ``SL`` rules and their registry.

Every rule targets a *real* reproducibility hazard of this codebase: the
paper's methodology only holds if back-to-back strategy comparisons see
identical stochastic environments (see the docstring of
:mod:`repro.simkernel.rng`), which in turn requires that no code path
draws entropy outside the :class:`~repro.simkernel.rng.RngRegistry`, that
the event heap's ``(time, priority, sequence)`` ordering stays
encapsulated in :mod:`repro.simkernel.engine`, and that simulated time is
never compared with ``==``.

A rule is a subclass of :class:`Rule` registered with :func:`register`.
Rules declare the AST node types they want to inspect;
:func:`lint_module` performs a single walk per parsed module and
dispatches nodes to interested rules, which resolve names through the
module's imports (:meth:`~repro.analysis.flow.source.ModuleInfo.
qualified_name`).  The stage runs before the interprocedural SF rules
in :func:`repro.analysis.flow.analyze_package`, on the same parse.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.flow.effects import RNG_PREFIXES, SEEDED_OK
from repro.analysis.flow.graph import MUTABLE_FACTORIES, MUTABLE_LITERALS
from repro.analysis.flow.source import ModuleInfo
from repro.analysis.schema import Finding


def _is_engine_module(mod: ModuleInfo) -> bool:
    """Whether this file is the one place allowed to touch the heap."""
    return mod.path.endswith("simkernel/engine.py")


def _is_units_module(mod: ModuleInfo) -> bool:
    return mod.path.endswith("repro/units.py")


def _imports_simkernel(mod: ModuleInfo) -> bool:
    """Whether the module imports any simulation-kernel layer."""
    modules = list(mod.imports_mod.values()) + list(
        mod.imports_from.values())
    return any(m.startswith(("repro.simkernel", "repro.smpi", "repro.swap"))
               for m in modules)


class Rule:
    """Base class: one diagnostic code, one hazard."""

    code: str = "SL000"
    name: str = "abstract-rule"
    summary: str = ""
    #: AST node classes this rule wants to see (dispatch filter).
    node_types: "tuple[type, ...]" = ()

    def check(self, node: ast.AST, mod: ModuleInfo) -> Iterable[Finding]:
        """Yield findings for one node of an interesting type."""
        return ()

    def finding(self, mod: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(code=self.code, message=message, path=mod.path,
                       line=getattr(node, "lineno", 1),
                       column=getattr(node, "col_offset", 0) + 1)


#: code -> rule instance, in registration order.
REGISTRY: "dict[str, Rule]" = {}


def register(cls: "type[Rule]") -> "type[Rule]":
    """Class decorator: instantiate and index a rule by its code."""
    rule = cls()
    if rule.code in REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    REGISTRY[rule.code] = rule
    return cls


def all_rules() -> "list[Rule]":
    return list(REGISTRY.values())


def lint_module(mod: ModuleInfo) -> "list[Finding]":
    """Every SL finding of one module (before suppressions), from one
    walk of its AST."""
    dispatch: "dict[type, list[Rule]]" = {}
    for rule in REGISTRY.values():
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    findings: "list[Finding]" = []
    for node in ast.walk(mod.tree):
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.check(node, mod))
    return findings


def _function_local_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# SL001 -- wall-clock / ambient-entropy calls
# ---------------------------------------------------------------------------

#: Calls that read the host clock or ambient entropy; any of these inside
#: simulation code silently breaks run-to-run reproducibility.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getrandom",
})


@register
class WallClockRule(Rule):
    """Nondeterministic time / RNG source used outside the RngRegistry."""

    code = "SL001"
    name = "wall-clock-or-ambient-entropy"
    summary = ("calls that read the host clock or draw entropy outside "
               "RngRegistry (time.time, datetime.now, random.*, unseeded "
               "numpy.random.default_rng, ...)")
    node_types = (ast.Call,)

    def check(self, node: ast.Call, mod: ModuleInfo) -> Iterable[Finding]:
        qual = mod.qualified_name(node.func)
        if qual is None:
            return
        if qual in _WALL_CLOCK_CALLS:
            yield self.finding(mod, node, (
                f"call to {qual}() is nondeterministic across runs; "
                f"simulated time lives on Simulator.now and entropy on "
                f"RngRegistry"))
            return
        if qual in SEEDED_OK:
            if not node.args and not node.keywords:
                yield self.finding(mod, node, (
                    f"{qual}() without a seed draws OS entropy; derive the "
                    f"stream from RngRegistry instead"))
            return
        if qual.startswith(RNG_PREFIXES):
            yield self.finding(mod, node, (
                f"call to {qual}() bypasses RngRegistry; competing "
                f"strategies would no longer see identical environments"))


# ---------------------------------------------------------------------------
# SL002 -- simkernel coroutine discipline
# ---------------------------------------------------------------------------

@register
class CoroutineDisciplineRule(Rule):
    """Simulation coroutines must yield Events and never return from a
    ``try`` whose ``finally`` re-yields."""

    code = "SL002"
    name = "sim-coroutine-discipline"
    summary = ("sim coroutines yielding plain constants (never Events), or "
               "returning inside a try whose finally yields again")
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def check(self, node: ast.AST, mod: ModuleInfo) -> Iterable[Finding]:
        if not _imports_simkernel(mod):
            return
        local = list(_function_local_nodes(node))
        yields = [n for n in local if isinstance(n, (ast.Yield, ast.YieldFrom))]
        if not yields:
            return
        for y in yields:
            if isinstance(y, ast.Yield) and isinstance(y.value, ast.Constant):
                yield self.finding(mod, y, (
                    f"yield of constant {y.value.value!r} in a simulation "
                    f"coroutine; processes may only yield Events"))
        for t in local:
            if not isinstance(t, ast.Try) or not t.finalbody:
                continue
            finally_yields = any(
                isinstance(n, (ast.Yield, ast.YieldFrom))
                for stmt in t.finalbody for n in [stmt, *ast.walk(stmt)]
                if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)))
            if not finally_yields:
                continue
            for stmt in t.body + [h for hd in t.handlers for h in hd.body]:
                for n in [stmt, *ast.walk(stmt)]:
                    if isinstance(n, ast.Return):
                        yield self.finding(mod, n, (
                            "return inside try whose finally yields: the "
                            "kernel cannot resume a returning coroutine, so "
                            "the finally-yield deadlocks the process"))
                        break


# ---------------------------------------------------------------------------
# SL003 -- event-heap encapsulation
# ---------------------------------------------------------------------------

@register
class HeapEncapsulationRule(Rule):
    """Only ``simkernel.engine`` may touch heapq / the event heap."""

    code = "SL003"
    name = "heap-encapsulation"
    summary = ("direct heapq use or Simulator._heap access outside "
               "simkernel.engine, which can break (time, priority, seq) "
               "total ordering")
    node_types = (ast.Attribute, ast.Call)

    def check(self, node: ast.AST, mod: ModuleInfo) -> Iterable[Finding]:
        if _is_engine_module(mod):
            return
        if isinstance(node, ast.Attribute) and node.attr == "_heap":
            yield self.finding(mod, node, (
                "direct access to the simulator's _heap; event ordering is "
                "an engine invariant -- go through Simulator methods"))
        elif isinstance(node, ast.Call):
            qual = mod.qualified_name(node.func)
            if qual is not None and qual.startswith("heapq."):
                yield self.finding(mod, node, (
                    f"{qual}() outside simkernel.engine; keep heap ordering "
                    f"logic in the engine (or suppress with a justification "
                    f"if this heap is unrelated to the event loop)"))


# ---------------------------------------------------------------------------
# SL004 -- floating-point simulated-time equality
# ---------------------------------------------------------------------------

def _is_sim_time_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr in ("now", "_now"):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "peek":
            return True
    return False


@register
class FloatTimeEqualityRule(Rule):
    """``==`` / ``!=`` on simulated time is a float-comparison trap."""

    code = "SL004"
    name = "float-time-equality"
    summary = ("== / != comparisons against simulated time (.now / peek()); "
               "accumulated float error makes exact equality fragile")
    node_types = (ast.Compare,)

    def check(self, node: ast.Compare, mod: ModuleInfo) -> Iterable[Finding]:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left, *node.comparators]
        if any(_is_sim_time_expr(o) for o in operands):
            yield self.finding(mod, node, (
                "exact == / != comparison on simulated time; compare with "
                "an ordering (<, >=) or an explicit tolerance"))


# ---------------------------------------------------------------------------
# SL005 -- raw unit literals
# ---------------------------------------------------------------------------

#: literal value -> the repro.units spelling that should replace it.
#: Float and int keys that compare equal hash together, so ``300e6`` in
#: source hits the ``300 * 10**6`` entry.
_UNIT_LITERALS = {
    10 ** 6: "units.MB (bytes), units.MFLOPS (flop/s), or units.MB_S "
             "(bytes/s)",
    10 ** 9: "units.GB (bytes), units.GFLOPS (flop/s), or units.GB_S "
             "(bytes/s)",
    1 << 20: "units.MIB",
    1 << 30: "units.GIB",
    3600: "units.HOUR",          # simlint: disable=SL005 (rule table)
    86400: "24 * units.HOUR",    # simlint: disable=SL005 (rule table)
    # Rates that appear in platform/app specs (100e6, 300e6, ...).
    100 * 10 ** 6: "100 * units.MFLOPS (flop/s) or 100 * units.MB_S "
                   "(bytes/s)",
    250 * 10 ** 6: "250 * units.MFLOPS (flop/s)",
    300 * 10 ** 6: "300 * units.MFLOPS (flop/s)",
    350 * 10 ** 6: "350 * units.MFLOPS (flop/s)",
}


@register
class RawUnitLiteralRule(Rule):
    """Magic numbers that already have a name in :mod:`repro.units`."""

    code = "SL005"
    name = "raw-unit-literal"
    summary = ("raw numeric literals (1e6, 1e9, 3600, ...) where a "
               "repro.units constant exists")
    node_types = (ast.Constant,)

    def check(self, node: ast.Constant, mod: ModuleInfo) -> Iterable[Finding]:
        if _is_units_module(mod):
            return
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        suggestion = _UNIT_LITERALS.get(value)
        if suggestion is not None:
            yield self.finding(mod, node, (
                f"raw unit literal {value!r}; use {suggestion} so call "
                f"sites read like the paper"))


# ---------------------------------------------------------------------------
# SL006 -- shared mutable state
# ---------------------------------------------------------------------------

def _is_mutable_value(node: "ast.AST | None", mod: ModuleInfo) -> bool:
    if node is None:
        return False
    if isinstance(node, MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        qual = mod.qualified_name(node.func)
        return qual in MUTABLE_FACTORIES
    return False


@register
class MutableSharedStateRule(Rule):
    """Mutable defaults / class attributes leak state across runs."""

    code = "SL006"
    name = "mutable-shared-state"
    summary = ("mutable default arguments and class-level mutable literals; "
               "state shared across strategy runs destroys back-to-back "
               "comparability")
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def check(self, node: ast.AST, mod: ModuleInfo) -> Iterable[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_value(default, mod):
                    yield self.finding(mod, default, (
                        f"mutable default argument in {node.name}(); the "
                        f"same object is shared by every call -- default to "
                        f"None and create inside"))
        else:
            assert isinstance(node, ast.ClassDef)
            decorators = {mod.qualified_name(d) or "" for d in node.decorator_list
                          } | {mod.qualified_name(d.func) or ""
                               for d in node.decorator_list
                               if isinstance(d, ast.Call)}
            if any(d.endswith("dataclass") for d in decorators):
                # Field defaults are validated by dataclasses itself
                # (mutable defaults raise at class-creation time).
                return
            for stmt in node.body:
                targets: "list[ast.AST]" = []
                value: "ast.AST | None" = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                if value is not None and _is_mutable_value(value, mod):
                    names = ", ".join(t.id for t in targets
                                      if isinstance(t, ast.Name))
                    yield self.finding(mod, value, (
                        f"class-level mutable attribute "
                        f"{names or '<attribute>'} on {node.name}; every "
                        f"instance shares it -- initialize in __init__"))
