"""Which public functions of each layer the traced run wraps.

:class:`Layers` patches three groups of layers to record spans and
exact counters into a :class:`~spans.Tracer`.  Span names double as
metric prefixes (``decision`` -> ``decision.s``, ``decision.calls``).

* compute layers (run wherever cells are computed): ``platform.build``
  around the scenario builder, ``load.build`` around every
  ``LoadModel.build``, ``kernels`` around every kernel query entry point,
  ``plan.lower``, ``decision`` around ``decide_swaps`` in every module
  that imported it, ``strategies.<kind>`` around each ``Strategy.run``,
  and ``cell`` around ``compute_cell``;
* coordinator layers (the process that plans, caches and merges):
  ``executor.plan``, ``executor.merge``, ``cache.load`` and
  ``cache.store``;
* the mechanism-level runtime: ``swap.run`` around
  ``SwapRuntime.run_iterative``.

The fabric's workers are forked from the coordinator, so the fabric
workload installs only the coordinator layers: its compute runs in the
workers and is attributed on the serial workloads instead.
"""

from __future__ import annotations

import dataclasses

from spans import Patcher, Tracer

from repro.contracts.strategy import ContractSwapStrategy
from repro.core import decision as _decision
from repro.experiments import executor as _executor
from repro.load import base as _load_base
from repro.load import kernels as _kernels
from repro.simkernel import engine as _engine
from repro.simkernel import plan as _plan
from repro.strategies.cr import CrStrategy
from repro.strategies.dlb import DlbStrategy
from repro.strategies.nothing import NothingStrategy
from repro.strategies.spawnswap import SpawnSwapStrategy
from repro.strategies.swapstrat import SwapStrategy
from repro.swap.runtime import SwapRuntime

#: Strategy classes whose ``run`` is wrapped, and the metric they feed.
STRATEGY_KINDS = {NothingStrategy: "nothing", SwapStrategy: "swap",
                  SpawnSwapStrategy: "swap", ContractSwapStrategy: "swap",
                  DlbStrategy: "dlb", CrStrategy: "cr"}

#: Per-layer counters that must repeat exactly for the same code and seed.
EXACT = ("load.segments", "kernels.queries", "kernels.calls",
         "decision.calls", "strategies.iterations", "strategies.swaps",
         "strategies.restarts", "cache.hits", "cache.misses",
         "cache.bytes_written", "engine.events", "smpi.messages",
         "swap.swaps")

#: Every entry point that credits analytic kernel queries
#: (``count_kernel_events``).  Wrapping all of them is what lets
#: ``kernels.queries`` equal the executor's ``engine_events`` exactly.
KERNEL_FUNCTIONS = (_kernels.integrate_availability_many,
                    _kernels.advance_work_many,
                    _kernels.effective_rates_many)
KERNEL_METHODS = ((_kernels.HostBatch, "rates_map"),
                  (_kernels.HostBatch, "compute_end"),
                  (_plan.SimPlan, "_iteration_constant"),
                  (_plan.SimPlan, "_rates_constant"))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Layers:
    """One installation of the wrappers; ``with Layers(...)`` scopes it."""

    def __init__(self, tracer: Tracer, *, compute: bool = True) -> None:
        self.tracer = tracer
        self.patcher = Patcher()
        #: ``module.name`` spellings patched per wrapped function.
        self.bindings: "dict[str, list[str]]" = {}
        #: Platforms built in the current cell (``load.segments``).
        self._platforms: list = []
        self._compute = compute

    def __enter__(self) -> "Layers":
        try:
            if self._compute:
                self._install_compute()
            self._install_coordinator()
            self._install_mechanism()
        except BaseException:
            self.patcher.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.patcher.restore()

    def spec(self, spec):
        """``spec`` with its builder wrapped in ``platform.build``.

        The builder is a dataclass field, not a module binding, so the
        traced run hands the executor a copy instead of patching."""
        platforms = self._platforms

        def observe(result, _args, _kwargs):
            platforms.append(result[0])

        return dataclasses.replace(
            spec, build=self.tracer.timed("platform.build", spec.build,
                                          observe))

    def exact_counts(self) -> "dict[str, int]":
        return {name: self.tracer.counts[name] for name in EXACT}

    def values(self, measured: dict) -> dict:
        """Per-layer metric values of the repetition just traced, plus
        the ``measured`` values the workload took itself."""
        summary = self.tracer.summary()
        counts = self.tracer.counts

        def total(name):
            return summary.get(name, {}).get("total", 0.0)

        def own(name):
            return summary.get(name, {}).get("self", 0.0)

        kinds = sorted(set(STRATEGY_KINDS.values()))
        cell_s = total("cell")
        strategy_self = sum(own(f"strategies.{kind}") for kind in kinds)
        calls = counts["decision.calls"]
        run_s = total("swap.run")
        values = {
            "cell.s": cell_s,
            "platform.build_s": total("platform.build"),
            "platform.self_s": own("platform.build"),
            "load.build_s": total("load.build"),
            "kernels.s": total("kernels"),
            "plan.lower_s": total("plan.lower"),
            "decision.s": total("decision"),
            "decision.swap_frac": (counts["decision.swapping_calls"] / calls
                                   if calls else 0.0),
            "strategies.self_s": strategy_self,
            "executor.plan_s": total("executor.plan"),
            "executor.merge_s": total("executor.merge"),
            "cache.load_s": total("cache.load"),
            "cache.store_s": total("cache.store"),
            "swap.run_s": run_s,
            "engine.events_per_s": (counts["engine.events"] / run_s
                                    if run_s else 0.0),
            "fabric.coordinator_cpu_s": 0.0, "fabric.worker_cpu_s": 0.0,
            "fabric.busy_frac": 0.0, "fabric.leases": 0,
            "fabric.heartbeats": 0, "fabric.work_requests": 0,
            "fabric.requeued_cells": 0,
        }
        values.update(self.exact_counts())
        for kind in kinds:
            values[f"strategies.{kind}_s"] = total(f"strategies.{kind}")
        # Self times for platform and strategies keep the shares disjoint.
        for share, part in (("platform.share", own("platform.build")),
                            ("load.share", total("load.build")),
                            ("kernels.share", total("kernels")),
                            ("plan.share", total("plan.lower")),
                            ("decision.share", total("decision")),
                            ("strategies.share", strategy_self)):
            values[share] = part / cell_s if cell_s else 0.0
        values.update(measured)
        return values

    # -- groups -----------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        self.bindings[original.__qualname__] = self.patcher.rebind(
            original, wrapper)

    def _install_compute(self) -> None:
        tracer, counts = self.tracer, self.tracer.counts
        platforms = self._platforms

        def cell_observe(_result, _args, _kwargs):
            counts["load.segments"] += sum(host.trace.n_segments
                                           for platform in platforms
                                           for host in platform.hosts)
            platforms.clear()

        self._rebind(_executor.compute_cell, tracer.timed(
            "cell", _executor.compute_cell, cell_observe))

        for cls in sorted(_subclasses(_load_base.LoadModel),
                          key=lambda c: c.__qualname__):
            if "build" in cls.__dict__:
                self.patcher.set(cls, "build", tracer.timed(
                    "load.build", cls.__dict__["build"]))

        meter = _engine.events_processed_total
        for fn in KERNEL_FUNCTIONS:
            self._rebind(fn, tracer.timed("kernels", fn, meter=meter))
        for cls, attr in KERNEL_METHODS:
            self.patcher.set(cls, attr, tracer.timed(
                "kernels", cls.__dict__[attr], meter=meter))

        self._rebind(_plan.lower, tracer.timed("plan.lower", _plan.lower))

        def decision_observe(result, _args, _kwargs):
            counts["decision.calls"] += 1
            if result.should_swap:
                counts["decision.swapping_calls"] += 1

        self._rebind(_decision.decide_swaps,
                     tracer.timed("decision", _decision.decide_swaps,
                                  decision_observe))

        def strategy_observe(result, _args, _kwargs):
            counts["strategies.iterations"] += result.iteration_count
            counts["strategies.swaps"] += result.swap_count
            counts["strategies.restarts"] += result.restart_count

        for cls, kind in STRATEGY_KINDS.items():
            self.patcher.set(cls, "run", tracer.timed(
                f"strategies.{kind}", cls.__dict__["run"], strategy_observe))

    def _install_coordinator(self) -> None:
        tracer, counts = self.tracer, self.tracer.counts
        self._rebind(_executor.plan_cells,
                     tracer.timed("executor.plan", _executor.plan_cells))
        self._rebind(_executor.merge_cells,
                     tracer.timed("executor.merge", _executor.merge_cells))

        def load_observe(result, _args, _kwargs):
            counts["cache.hits" if result is not None else "cache.misses"] += 1

        def store_observe(_result, args, _kwargs):
            cache, digest = args[0], args[1]
            counts["cache.bytes_written"] += cache.path_for(digest).stat().st_size

        cache_cls = _executor.CellCache
        self.patcher.set(cache_cls, "load", tracer.timed(
            "cache.load", cache_cls.__dict__["load"], load_observe))
        self.patcher.set(cache_cls, "store", tracer.timed(
            "cache.store", cache_cls.__dict__["store"], store_observe))

    def _install_mechanism(self) -> None:
        counts = self.tracer.counts

        def run_observe(result, args, _kwargs):
            runtime = args[0]
            counts["engine.events"] += runtime.sim.processed_events
            counts["smpi.messages"] += runtime.mpi.messages_delivered
            counts["swap.swaps"] += result.swap_count

        self.patcher.set(SwapRuntime, "run_iterative", self.tracer.timed(
            "swap.run", SwapRuntime.__dict__["run_iterative"], run_observe))
