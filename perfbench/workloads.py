"""The benchmark's four workloads.

Every workload turns a seed offset into a fixed set of inputs and runs
that set once per *repetition*.  ``reference()`` computes the set once,
untimed, and remembers the digest every later repetition must match.
``repeat(layers, pause)`` runs the set once, timed, and returns a
:class:`Rep`; ``layers`` is a :class:`layers.Layers` in the traced run
and ``None`` otherwise.  ``pause``, if given, is called between the
units a workload times itself (DES jobs), outside their walls, so that
the run can sample the host's speed there (:mod:`hostspeed`).

The program only receives generated inputs: sweep seeds
``offset * n .. offset * n + n - 1``, or the same range of DES job seeds.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import Patcher

from repro.core.policy import greedy_policy
from repro.experiments import executor as _executor
from repro.experiments.executor import execute_sweep
from repro.experiments.fabric import Coordinator, execute_sweep_fabric
from repro.experiments.scenarios import get_scenario
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.swap.runtime import SwapRuntime
from repro.units import MB


@dataclass
class Rep:
    """One timed repetition of a workload's input set."""

    wall: float
    cells: int
    """Cells delivered (cache hits included), or DES jobs run."""
    iterations: int
    """Simulated application iterations computed."""
    cell_walls: dict
    """Wall seconds of every computed cell (cache hits excluded), keyed
    by the cell: ``(x, seed)`` for sweeps, the job seed for DES."""
    digest: str
    exact: "dict[str, int]" = field(default_factory=dict)
    """Deterministic counters visible without tracing."""
    layer: "dict[str, float]" = field(default_factory=dict)
    """Per-layer values only the workload itself can measure."""


def result_digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True)
                          .encode("utf-8")).hexdigest()


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


@contextmanager
def _probe(owner, attr: str, record):
    """Call ``record(result, args)`` after every call of ``owner.attr``.

    Collects values the program already computes (per-cell walls it
    measured itself), so it reads no clock and adds one call per use.
    """
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        record(result, args)
        return result

    patcher = Patcher()
    patcher.set(owner, attr, wrapper)
    try:
        yield
    finally:
        patcher.restore()


class SerialSweep:
    """One registered sweep through ``execute_sweep(jobs=1)``, no cache."""

    #: The traced run wraps the compute layers in this process.
    traces_compute = True
    #: (wrapper counter, program counter in ``Rep.exact``) pairs that
    #: must agree on every traced repetition.
    cross_checks = (("kernels.queries", "engine_events"),
                    ("strategies.iterations", "iterations"))

    def __init__(self, scenario: str, offset: int, n_seeds: int = 30) -> None:
        self.spec = get_scenario(scenario)
        self.seeds = list(range(offset * n_seeds, (offset + 1) * n_seeds))
        self.ref = ""

    def reference(self) -> None:
        result, _timing = execute_sweep(self.spec, self.seeds)
        self.ref = result_digest(result)

    def repeat(self, layers=None, pause=None) -> Rep:
        spec = self.spec if layers is None else layers.spec(self.spec)
        walls: dict = {}

        def record(result, args):
            walls[args[1], args[2]] = result[1]  # (spec, x, seed)

        with _probe(_executor, "compute_cell_timed", record):
            started = perf_counter()
            result, timing = execute_sweep(spec, self.seeds, jobs=1)
            wall = perf_counter() - started
        return Rep(wall=wall, cells=timing.cells_total,
                   iterations=timing.iterations, cell_walls=walls,
                   digest=result_digest(result),
                   exact={"iterations": timing.iterations,
                          "engine_events": timing.engine_events})


class FabricResume:
    """fig4 on the socket fabric, half its seeds already in the cache.

    The first half of the seeds is computed once into a template cache;
    each repetition copies the template (untimed) and then times the
    sweep, which loads the cached half and computes and stores the rest.
    The reference is the serial, cache-free result at the same seeds.
    """

    workers = 2
    traces_compute = False  # cells are computed in forked workers
    cross_checks = (("cache.hits", "cache_hits"),
                    ("cache.misses", "cells_computed"))

    def __init__(self, offset: int, workdir: Path, n_seeds: int = 40) -> None:
        self.spec = get_scenario("fig4")
        self.seeds = list(range(offset * n_seeds, (offset + 1) * n_seeds))
        self.workdir = workdir
        self.template = workdir / "template"
        self.ref = ""
        self._reps = 0

    def reference(self) -> None:
        result, _timing = execute_sweep(self.spec, self.seeds)
        self.ref = result_digest(result)
        execute_sweep(self.spec, self.seeds[:len(self.seeds) // 2],
                      cache_dir=self.template)
        # The first fabric sweep in a process pays one-off costs; keep
        # them out of the timed repetitions.
        if self.repeat().digest != self.ref:
            raise RuntimeError("warm-up fabric sweep differs from serial")

    def repeat(self, layers=None, pause=None) -> Rep:
        self._reps += 1
        cache_dir = self.workdir / f"cache-{self._reps}"
        shutil.copytree(self.template, cache_dir)
        coordinators, keys = [], []
        try:
            with _probe(Coordinator, "run", lambda _result, args:
                        coordinators.append(args[0])):
                cpu_self = _cpu(resource.RUSAGE_SELF)
                cpu_children = _cpu(resource.RUSAGE_CHILDREN)
                started = perf_counter()
                result, timing, stats = execute_sweep_fabric(
                    self.spec, self.seeds, workers=self.workers,
                    transport="socket", cache_dir=cache_dir,
                    on_cell=lambda xi, si: keys.append((xi, si)))
                wall = perf_counter() - started
                cpu_self = _cpu(resource.RUSAGE_SELF) - cpu_self
                cpu_children = _cpu(resource.RUSAGE_CHILDREN) - cpu_children
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        # ``on_cell`` fires once per new cell, in the order the
        # coordinator appends that cell's wall.
        in_order = coordinators[0].cell_walls
        if len(in_order) != len(keys):
            raise RuntimeError(f"{len(in_order)} cell walls for "
                               f"{len(keys)} computed cells")
        walls = dict(zip(keys, in_order))
        layer = {"fabric.coordinator_cpu_s": cpu_self,
                 "fabric.worker_cpu_s": cpu_children,
                 "fabric.busy_frac": sum(in_order) / (wall * self.workers),
                 "fabric.leases": stats.leases,
                 "fabric.heartbeats": stats.heartbeats,
                 "fabric.work_requests": stats.work_requests,
                 "fabric.requeued_cells": stats.requeued_cells}
        return Rep(wall=wall, cells=timing.cells_total,
                   iterations=timing.iterations, cell_walls=walls,
                   digest=result_digest(result),
                   exact={"iterations": timing.iterations,
                          "engine_events": timing.engine_events,
                          "cache_hits": timing.cache_hits,
                          "cells_computed": timing.cells_computed},
                   layer=layer)


class DesSwap:
    """Mechanism-level swap jobs on the discrete-event MPI runtime.

    Each job: 32 hosts plus a manager rank, 4 active, greedy policy,
    ON/OFF p=0.02 q=0.03, 20 iterations, 1 MB state (the full-size job
    of ``benchmarks/test_mechanism_scale.py``), one seed per job.
    """

    iterations = 20
    traces_compute = True
    cross_checks = (("engine.events", "engine_events"),
                    ("smpi.messages", "smpi_messages"),
                    ("swap.swaps", "swaps"))

    def __init__(self, offset: int, n_jobs: int = 20) -> None:
        self.seeds = list(range(offset * n_jobs, (offset + 1) * n_jobs))
        self.ref = ""

    def _job(self, seed: int):
        platform = make_platform(32, OnOffLoadModel(p=0.02, q=0.03),
                                 seed=seed, speed_range=(250e6, 350e6))
        runtime = SwapRuntime(platform, n_active=4, policy=greedy_policy(),
                              chunk_flops=1.8e10)
        result = runtime.run_iterative(iterations=self.iterations,
                                       exchange_bytes=1e5,
                                       state_bytes=1 * MB)
        return runtime, result

    def _run_all(self, tracer=None, pause=None):
        outcomes, walls = [], []
        for seed in self.seeds:
            if pause is not None and walls:
                pause()
            index = tracer.open("cell") if tracer is not None else -1
            started = perf_counter()
            try:
                runtime, result = self._job(seed)
                if tracer is not None:
                    tracer.counts["load.segments"] += sum(
                        host.trace.n_segments for host in runtime.platform.hosts)
            finally:
                walls.append(perf_counter() - started)
                if tracer is not None:
                    tracer.close(index)
            outcomes.append((repr(result.makespan), result.swap_count,
                             runtime.sim.processed_events,
                             runtime.mpi.messages_delivered))
        return outcomes, walls

    @staticmethod
    def _digest(outcomes) -> str:
        # The per-job makespan, swap count and event count.
        return hashlib.sha256(json.dumps([o[:3] for o in outcomes])
                              .encode("utf-8")).hexdigest()

    def reference(self) -> None:
        self.ref = self._digest(self._run_all()[0])

    def repeat(self, layers=None, pause=None) -> Rep:
        outcomes, walls = self._run_all(
            layers.tracer if layers is not None else None, pause)
        # The jobs' own walls: the pauses between them are not the
        # workload's time.
        return Rep(wall=sum(walls), cells=len(outcomes),
                   iterations=self.iterations * len(outcomes),
                   cell_walls=dict(zip(self.seeds, walls)),
                   digest=self._digest(outcomes),
                   exact={"engine_events": sum(o[2] for o in outcomes),
                          "smpi_messages": sum(o[3] for o in outcomes),
                          "swaps": sum(o[1] for o in outcomes)})


#: Workload name -> factory(offset, workdir).  Why each workload was
#: chosen is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "fig7-serial": lambda offset, workdir: SerialSweep("fig7", offset),
    "fig9-serial": lambda offset, workdir: SerialSweep("fig9", offset),
    "fig4-fabric-resume": FabricResume,
    "des-swap": lambda offset, workdir: DesSwap(offset),
}


def resolve(name: str, offset: int, workdir: Path):
    return WORKLOADS[name](offset, workdir)
