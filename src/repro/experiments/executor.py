"""Sweep execution with a content-addressed cell cache.

A sweep is a grid of independent *cells*: one ``(x value, seed)`` pair,
inside which every variant runs back-to-back on one shared platform (the
paper's identical-environments methodology lives entirely *inside* a
cell).  Cells never communicate, so the executor can

* run them on the coordinator/worker fabric (``jobs > 1``, see
  :mod:`repro.experiments.fabric`) while keeping the merged
  :class:`~repro.experiments.runner.SweepResult` **bit-identical** to
  the serial reference: results are keyed by grid coordinates and
  merged in ``(x, seed)`` order, so completion order is irrelevant, and
  floats cross process boundaries via pickle (exact) or JSON ``repr``
  round-trips (also exact);
* skip cells whose results are already on disk: the cache key is a
  SHA-256 over the scenario name, the spec fingerprint (declarative
  fields plus builder source), the cell coordinates, and the package
  version, so edited scenarios or upgraded code never reuse stale
  entries.  Entries that fail to parse or whose recorded digest does not
  match are treated as misses and recomputed, never trusted.

``jobs=1`` executes the same ``compute_cell`` function in-process, in
grid order -- that path is the reference implementation the equivalence
tests compare against.

Every execution also produces a :class:`SweepTiming` -- wall time, cells
computed vs. cache hits, simulated iterations, and kernel events per
second (via :func:`repro.simkernel.engine.events_processed_total`) --
which :func:`append_bench_record` folds into a ``BENCH_sweeps.json``
perf-trajectory file.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro._version import __version__
from repro.errors import ExperimentError
from repro.experiments.runner import SeriesStats, SweepResult
from repro.experiments.scenarios import ExperimentSpec
from repro.simkernel import engine as _engine
from repro.strategies.base import ExecutionResult

#: Cell payload schema version; bump to invalidate every cached entry.
#: (2: cells carry observability payloads -- trace records + metrics.
#:  3: cells computed by the vectorized trace kernels / lowered plans --
#:  makespans are float-identical but the perf counters changed meaning.)
CACHE_FORMAT = 3


# -- one cell ---------------------------------------------------------------


@dataclass
class CellResult:
    """Everything the deterministic merge needs from one ``(x, seed)`` cell."""

    labels: "list[str]"
    """Variant labels in builder order (the merge preserves this order)."""
    makespans: "dict[str, float]"
    events: "dict[str, float]"
    """Swaps + restarts per variant, as floats (matches the serial runner)."""
    iterations: int
    """Simulated iterations executed across all variants of the cell."""
    engine_events: int
    """Kernel events processed while computing the cell (0 for the purely
    analytic iteration-level simulators)."""
    trace_events: "list[dict]" = field(default_factory=list)
    """Structured :mod:`repro.obs` records, in execution order (empty
    unless the cell was computed with ``instrument=True``)."""
    metrics: dict = field(default_factory=dict)
    """The cell's :meth:`~repro.obs.MetricsRegistry.to_dict` payload
    (empty unless instrumented)."""

    def to_payload(self) -> dict:
        return {"labels": list(self.labels),
                "makespans": dict(self.makespans),
                "events": dict(self.events),
                "iterations": int(self.iterations),
                "engine_events": int(self.engine_events),
                "trace_events": list(self.trace_events),
                "metrics": dict(self.metrics)}

    @classmethod
    def from_payload(cls, payload: dict) -> "CellResult":
        labels = [str(label) for label in payload["labels"]]
        makespans = {str(k): float(v) for k, v in payload["makespans"].items()}
        events = {str(k): float(v) for k, v in payload["events"].items()}
        if set(labels) != set(makespans) or set(labels) != set(events):
            raise ValueError("cell payload labels disagree with its series")
        return cls(labels=labels, makespans=makespans, events=events,
                   iterations=int(payload["iterations"]),
                   engine_events=int(payload["engine_events"]),
                   trace_events=list(payload.get("trace_events", [])),
                   metrics=dict(payload.get("metrics", {})))


def compute_cell(spec: ExperimentSpec, x: float, seed: int, *,
                 instrument: bool = False) -> CellResult:
    """Run every variant of one cell (the serial reference, and the
    function worker processes execute).

    With ``instrument=True`` the cell runs under its own
    :class:`~repro.obs.ObsSession`: every record is stamped with the
    cell's coordinates and variant label, and the session's records and
    metrics ride back in the :class:`CellResult` (picklable, cacheable),
    so the executor can merge them deterministically in grid order.
    """
    events_before = _engine.events_processed_total()
    platform, variants = spec.build(x, seed)
    labels = [label for label, _app, _strategy in variants]
    if len(set(labels)) != len(labels):
        raise ExperimentError(
            f"{spec.name}: duplicate variant labels {labels}")
    makespans: "dict[str, float]" = {}
    events: "dict[str, float]" = {}
    iterations = 0
    session = obs.ObsSession() if instrument else None
    for label, app, strategy in variants:
        if session is not None:
            session.trace.set_context(scenario=spec.name, x=float(x),
                                      seed=int(seed), series=label)
            with obs.observing(session):
                result: ExecutionResult = strategy.run(platform, app)
        else:
            result = strategy.run(platform, app)
        makespans[label] = result.makespan
        events[label] = float(result.swap_count + result.restart_count)
        iterations += result.iteration_count
    return CellResult(labels=labels, makespans=makespans, events=events,
                      iterations=iterations,
                      engine_events=(_engine.events_processed_total()
                                     - events_before),
                      trace_events=(session.trace.records
                                    if session is not None else []),
                      metrics=(session.metrics.to_dict()
                               if session is not None else {}))


def compute_cell_timed(spec: ExperimentSpec, x: float, seed: int, *,
                       instrument: bool = False,
                       ) -> "tuple[CellResult, float]":
    """:func:`compute_cell` plus its wall-clock compute time in seconds.

    The wall time is measured *inside* the computing process, feeds
    the per-cell percentile columns of :class:`SweepTiming` and the
    runtime telemetry plane (:mod:`repro.obs.runtime`), and never
    touches the deterministic :class:`CellResult` itself.
    """
    started = time.perf_counter()  # simlint: disable=SL001 (runtime-plane wall time, never simulated)
    cell = compute_cell(spec, x, seed, instrument=instrument)
    return cell, time.perf_counter() - started  # simlint: disable=SL001 (runtime-plane wall time, never simulated)


# -- content addressing -----------------------------------------------------


def cell_digest(scenario: str, fingerprint: str, x: float, seed: int, *,
                instrumented: bool = False) -> str:
    """The cache key of one cell.

    ``repr(float(x))`` is the shortest round-tripping spelling, so the key
    is stable across processes and handles non-finite grids (``inf`` in
    the payback ablation).  Instrumented cells carry trace/metrics
    payloads that plain cells lack, so the flag participates in the key --
    a traced run never "hits" an untraced entry (which would silently
    drop its records) and vice versa.
    """
    hasher = sha256()
    for part in (scenario, fingerprint, repr(float(x)), str(int(seed)),
                 __version__, str(CACHE_FORMAT),
                 "obs" if instrumented else ""):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class CellCache:
    """Content-addressed on-disk store of computed sweep cells.

    Layout: ``<root>/<first two hex digits>/<digest>.json``.  Entries
    embed their own digest and schema version; :meth:`load` re-validates
    both plus the payload structure, so a corrupted or truncated file is
    a cache miss, not a wrong answer.
    """

    def __init__(self, root: "str | os.PathLike", *,
                 telemetry=None) -> None:
        self.root = Path(root)
        #: Optional :class:`repro.obs.runtime.RunTelemetry`; when set,
        #: every load/store is logged as a wall-clock ``cache.*`` span.
        #: Telemetry never changes what the cache returns.
        self.telemetry = telemetry

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def load(self, digest: str) -> "CellResult | None":
        if self.telemetry is None:
            return self._load(digest)
        started = self.telemetry.now()
        cell = self._load(digest)
        self.telemetry.event("cache.load", t=started,
                             dur=self.telemetry.now() - started,
                             digest=digest[:12], hit=cell is not None)
        return cell

    def _load(self, digest: str) -> "CellResult | None":
        try:
            payload = json.loads(self.path_for(digest).read_text())
        except (OSError, ValueError):
            return None
        try:
            if (payload["digest"] != digest
                    or payload["format"] != CACHE_FORMAT):
                return None
            return CellResult.from_payload(payload["cell"])
        except (KeyError, TypeError, ValueError, AttributeError):
            return None

    def store(self, digest: str, cell: CellResult, *, scenario: str,
              x: float, seed: int) -> None:
        """Persist one cell atomically (temp file + rename)."""
        if self.telemetry is None:
            self._store(digest, cell, scenario=scenario, x=x, seed=seed)
            return
        with self.telemetry.span("cache.store", digest=digest[:12],
                                 x=x, seed=seed):
            self._store(digest, cell, scenario=scenario, x=x, seed=seed)

    def _store(self, digest: str, cell: CellResult, *, scenario: str,
               x: float, seed: int) -> None:
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"format": CACHE_FORMAT, "digest": digest,
                   "scenario": scenario, "x": x, "seed": seed,
                   "version": __version__, "cell": cell.to_payload()}
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)


# -- timing record ----------------------------------------------------------


@dataclass(frozen=True)
class SweepTiming:
    """Machine-readable performance record of one sweep execution.

    ``iterations`` and ``engine_events`` count only the cells *computed*
    in this run -- cache hits did no simulation work.
    """

    scenario: str
    jobs: int
    wall_time: float
    cells_total: int
    cells_computed: int
    cache_hits: int
    iterations: int
    engine_events: int
    x_points: int
    seeds: int
    cell_wall_p50: float = 0.0
    """Median wall seconds per *computed* cell (0.0 when every cell was
    a cache hit).  Measured inside the computing process."""
    cell_wall_p95: float = 0.0
    cell_wall_max: float = 0.0

    @property
    def cells_per_sec(self) -> float:
        return self.cells_computed / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def events_per_sec(self) -> float:
        """Kernel event throughput (``Simulator.processed_events`` deltas)."""
        return self.engine_events / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def iterations_per_sec(self) -> float:
        return self.iterations / self.wall_time if self.wall_time > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "jobs": self.jobs,
            "wall_time_s": self.wall_time,
            "cells_total": self.cells_total,
            "cells_computed": self.cells_computed,
            "cache_hits": self.cache_hits,
            "iterations": self.iterations,
            "engine_events": self.engine_events,
            "x_points": self.x_points,
            "seeds": self.seeds,
            "cells_per_sec": self.cells_per_sec,
            "events_per_sec": self.events_per_sec,
            "iterations_per_sec": self.iterations_per_sec,
            "cell_wall_p50_s": self.cell_wall_p50,
            "cell_wall_p95_s": self.cell_wall_p95,
            "cell_wall_max_s": self.cell_wall_max,
        }


#: Distinguishes concurrent same-process writers of one bench file.
_BENCH_TMP_SEQ = iter(range(1, 1 << 62))


def append_bench_record(path: "str | os.PathLike",
                        timing: SweepTiming) -> dict:
    """Fold one timing record into a ``BENCH_sweeps.json`` file.

    Records are keyed by ``(scenario, jobs)``; the latest run wins, and
    the file stays sorted so diffs across commits read as a trajectory.
    Document version 5 dropped the ``mode`` key (``jobs > 1`` has one
    backend); legacy records still parse, with any ``mode`` ignored and
    the later record winning when two legacy records share a key.  The
    write is atomic (temp file + ``os.replace``, the cell cache's
    pattern), so a reader -- or a concurrent sweep invocation -- never
    observes a half-written file; an existing file that fails to parse
    is preserved next to the new one (``.corrupt`` suffix) rather than
    silently destroyed.  Returns the document written.
    """
    path = Path(path)
    records: "dict[tuple[str, int], dict]" = {}
    try:
        text = path.read_text()
    except OSError:
        text = None
    if text is not None:
        try:
            for record in json.loads(text)["records"]:
                record.pop("mode", None)
                records[(str(record["scenario"]),
                         int(record["jobs"]))] = record
        except (ValueError, TypeError, KeyError, AttributeError):
            # Unparseable perf file: keep the evidence, start fresh.
            path.with_name(f"{path.name}.corrupt").write_text(text)
            records = {}
    record = timing.to_dict()
    records[(record["scenario"], record["jobs"])] = record
    doc = {"version": 5, "tool": "sweep-bench",
           "records": [records[key] for key in sorted(records)]}
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique per process *and* per call: concurrent appenders (processes
    # or threads) each replace a complete document, never share a temp.
    tmp = path.with_name(
        f"{path.name}.tmp{os.getpid()}-{next(_BENCH_TMP_SEQ)}")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return doc


# -- the executor -----------------------------------------------------------


def _normalize_seeds(spec: ExperimentSpec,
                     seeds: "Sequence[int] | int | None") -> "list[int]":
    if seeds is None:
        seeds = range(spec.default_seeds)
    elif isinstance(seeds, int):
        seeds = range(seeds)
    seed_list = list(seeds)
    if not seed_list:
        raise ExperimentError("need at least one seed")
    return seed_list


#: One not-yet-computed cell: grid coordinates, values, and cache digest
#: (``""`` when caching is off).
PendingCell = "tuple[int, int, float, int, str]"


def plan_cells(spec: ExperimentSpec, seed_list: "list[int]",
               cache: "CellCache | None", *, instrument: bool = False,
               on_point: "Callable[[float, int], None] | None" = None,
               ) -> "tuple[dict[tuple[int, int], CellResult], list[PendingCell]]":
    """Grid-order cache scan shared by the serial executor and the fabric.

    Returns ``(cells, pending)``: the cache hits keyed by ``(xi, si)``
    and the grid-ordered list of cells still to compute (with the digest
    each result should be stored under).  ``on_point`` fires once per
    cell -- hit or miss -- in grid order.
    """
    fingerprint = spec.fingerprint() if cache is not None else ""
    cells: "dict[tuple[int, int], CellResult]" = {}
    pending: "list[PendingCell]" = []
    for xi, x in enumerate(spec.x_values):
        for si, seed in enumerate(seed_list):
            if on_point is not None:
                on_point(x, seed)
            digest = ""
            if cache is not None:
                digest = cell_digest(spec.name, fingerprint, x, seed,
                                     instrumented=instrument)
                cached = cache.load(digest)
                if cached is not None:
                    cells[(xi, si)] = cached
                    continue
            pending.append((xi, si, x, seed, digest))
    return cells, pending


def fold_obs(obs_session: "obs.ObsSession", spec: ExperimentSpec,
             seed_list: "list[int]",
             cells: "dict[tuple[int, int], CellResult]") -> None:
    """Fold per-cell trace records and metrics into ``obs_session``.

    Strictly grid order, exactly like :func:`merge_cells`: completion
    order, worker count, and cache state cannot reorder the merged trace.
    """
    for xi, _x in enumerate(spec.x_values):
        for si, _seed in enumerate(seed_list):
            cell = cells[(xi, si)]
            obs_session.trace.extend(cell.trace_events)
            obs_session.metrics.merge_dict(cell.metrics)


def cell_failure(spec: ExperimentSpec, x: float, seed: int,
                 error: str) -> ExperimentError:
    """The error raised when one cell's computation fails.

    ``error`` is the ``"Type: message"`` summary of the original
    exception.  The result always carries the cell's full coordinates --
    ``(scenario, x, seed)`` -- so a failure deep inside a worker process
    (or a fabric worker on another machine) is attributable without
    re-running the sweep.
    """
    return ExperimentError(
        f"{spec.name}: cell (x={x!r}, seed={seed}) failed: {error}")


def merge_cells(spec: ExperimentSpec, seed_list: "list[int]",
                cells: "dict[tuple[int, int], CellResult]") -> SweepResult:
    """Aggregate cells into a :class:`SweepResult`, in grid order.

    This is the serial runner's aggregation loop verbatim, reading cell
    results instead of running strategies: per x, makespans accumulate in
    seed order and series appear in first-encounter (builder) order, so
    the output is byte-identical no matter how the cells were produced.
    """
    series: "dict[str, SeriesStats]" = {}
    for xi, _x in enumerate(spec.x_values):
        per_series_makespans: "dict[str, list[float]]" = {}
        per_series_events: "dict[str, list[float]]" = {}
        for si, _seed in enumerate(seed_list):
            cell = cells[(xi, si)]
            for label in cell.labels:
                per_series_makespans.setdefault(label, []).append(
                    cell.makespans[label])
                per_series_events.setdefault(label, []).append(
                    cell.events[label])
        for label, makespans in per_series_makespans.items():
            stats = series.setdefault(label, SeriesStats())
            stats.mean.append(float(np.mean(makespans)))
            stats.std.append(float(np.std(makespans)))
            stats.raw.append(makespans)
            stats.swap_counts.append(float(np.mean(per_series_events[label])))

    lengths = {label: len(s.mean) for label, s in series.items()}
    if len(set(lengths.values())) != 1:
        raise ExperimentError(
            f"{spec.name}: ragged series lengths {lengths} -- a variant "
            f"was not produced at every x value")

    return SweepResult(name=spec.name, title=spec.title, xlabel=spec.xlabel,
                       x_values=list(spec.x_values), series=series,
                       seeds=seed_list, paper_claim=spec.paper_claim)


def execute_sweep(spec: ExperimentSpec,
                  seeds: "Sequence[int] | int | None" = None,
                  *,
                  jobs: int = 1,
                  cache_dir: "str | os.PathLike | None" = None,
                  on_point: "Callable[[float, int], None] | None" = None,
                  obs_session: "obs.ObsSession | None" = None,
                  runtime_dir: "str | os.PathLike | None" = None,
                  progress: bool = False,
                  ) -> "tuple[SweepResult, SweepTiming]":
    """Run a sweep over its ``(x, seed)`` cells and merge deterministically.

    Parameters
    ----------
    spec:
        The scenario to run.
    seeds:
        An iterable of seeds, an int (``range(seeds)``), or None
        (``range(spec.default_seeds)``).
    jobs:
        Worker processes.  ``1`` (the default) runs every cell in-process
        in grid order -- the reference implementation.  ``jobs > 1`` runs
        the sweep on ``jobs`` socket workers of the fabric
        (:func:`~repro.experiments.fabric.execute_sweep_fabric`), which
        also recovers from a lost worker.
    cache_dir:
        Root of the content-addressed cell cache, or None to disable
        caching.  Only cells missing from the cache are computed.
    on_point:
        Progress callback invoked as ``on_point(x, seed)`` once per cell
        (including cache hits), in grid order, before any cell executes.
    obs_session:
        Observation sink (:class:`repro.obs.ObsSession`), or None (the
        default: zero instrumentation).  When given, every cell runs
        instrumented and its trace records / metrics are folded into the
        session **in grid order**, so the merged trace and registry are
        byte-identical for any ``jobs`` / cache configuration.
    runtime_dir:
        Run directory for the *runtime* telemetry plane
        (:mod:`repro.obs.runtime`): wall-clock span log, metrics
        snapshots, progress file, and the derived Chrome timeline /
        Prometheus exports.  None (the default) records nothing.  The
        deterministic outputs above are byte-identical either way.
    progress:
        Print a live progress ticker (cells done/total, cache hits,
        ETA) to stderr while the sweep runs.

    Returns
    -------
    (result, timing):
        The merged sweep result -- bit-identical to the serial run for
        any ``jobs`` / cache state -- and its performance record.
    """
    from repro.obs.runtime import RunTelemetry, wall_stats

    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        from repro.experiments.fabric import execute_sweep_fabric

        result, timing, _stats = execute_sweep_fabric(
            spec, seeds, workers=jobs, transport="socket",
            cache_dir=cache_dir, on_point=on_point, obs_session=obs_session,
            runtime_dir=runtime_dir, progress=progress)
        return result, timing
    seed_list = _normalize_seeds(spec, seeds)
    instrument = obs_session is not None
    cells_total = len(spec.x_values) * len(seed_list)
    telemetry = RunTelemetry.create(runtime_dir, progress=progress,
                                    role="executor",
                                    total_cells=cells_total)
    started = time.perf_counter()  # simlint: disable=SL001 (perf record of the host run, not simulated time)

    try:
        cache = (CellCache(cache_dir, telemetry=telemetry)
                 if cache_dir is not None else None)
        cells, pending = plan_cells(spec, seed_list, cache,
                                    instrument=instrument, on_point=on_point)
        walls: "list[float]" = []
        if telemetry is not None:
            telemetry.progress.cache_hits = cells_total - len(pending)
            telemetry.event("run.start", scenario=spec.name, jobs=jobs,
                            cells_total=cells_total, pending=len(pending),
                            cache_hits=cells_total - len(pending))
            telemetry.tick(len(cells), force=True)

        for xi, si, x, seed, digest in pending:
            try:
                cell, wall = compute_cell_timed(spec, x, seed,
                                                instrument=instrument)
            except Exception as exc:
                raise cell_failure(spec, x, seed,
                                   f"{type(exc).__name__}: {exc}") from exc
            walls.append(wall)
            cells[(xi, si)] = cell
            if telemetry is not None:
                telemetry.event("cell.compute", t=telemetry.now() - wall,
                                dur=wall, xi=xi, si=si, x=x, seed=seed)
            if cache is not None:
                cache.store(digest, cell, scenario=spec.name, x=x, seed=seed)
            if telemetry is not None:
                telemetry.tick(len(cells), active_workers=1)

        result = merge_cells(spec, seed_list, cells)
        if obs_session is not None:
            fold_obs(obs_session, spec, seed_list, cells)
    except BaseException:
        if telemetry is not None:
            telemetry.finalize(state="failed")
        raise
    wall = time.perf_counter() - started  # simlint: disable=SL001 (perf record of the host run, not simulated time)
    computed = [cells[(xi, si)] for xi, si, _x, _seed, _d in pending]
    stats = wall_stats(walls)
    timing = SweepTiming(
        scenario=spec.name, jobs=jobs, wall_time=wall,
        cells_total=cells_total, cells_computed=len(pending),
        cache_hits=cells_total - len(pending),
        iterations=sum(cell.iterations for cell in computed),
        engine_events=sum(cell.engine_events for cell in computed),
        x_points=len(spec.x_values), seeds=len(seed_list),
        cell_wall_p50=stats["p50"], cell_wall_p95=stats["p95"],
        cell_wall_max=stats["max"])
    if telemetry is not None:
        telemetry.metrics.counter("runtime.cells_computed_total").inc(
            len(pending))
        telemetry.metrics.counter("runtime.cache_hits_total").inc(
            cells_total - len(pending))
        telemetry.finalize(done=len(cells))
    return result, timing
