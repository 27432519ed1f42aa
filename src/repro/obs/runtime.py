"""The runtime telemetry plane: wall-clock spans, fleet timelines, progress.

:mod:`repro.obs` has **two planes** (docs/OBSERVABILITY.md, "Two
planes"):

* the *sim-time plane* (:mod:`repro.obs.trace`, :mod:`repro.obs.metrics`)
  -- every timestamp is simulated seconds, exports are byte-stable, and
  CI compares them byte-for-byte across reruns, worker counts, and cache
  states;
* the *runtime plane* (this module) -- explicitly **nondeterministic**
  wall-clock telemetry of the sweep machinery itself: where host time
  goes, which fabric worker is straggling, why a lease expired.  Nothing
  here may ever feed back into a simulation result; the sim-time plane
  stays digest-identical whether runtime telemetry is on or off (the
  ``telemetry-isolation`` CI job enforces exactly that).

The plane has four parts:

* :class:`RuntimeRecorder` -- a structured wall-clock event log.  Each
  process of a run (coordinator, every fabric worker, the serial executor)
  appends JSONL records to its own ``spans-<role>.jsonl`` file in a
  shared *run directory*, flushed per line so a follower sees them live.
* :func:`fleet_timeline` / :func:`wall_summary` -- render a run
  directory's span files as a Chrome trace-event document (one track per
  worker, a coordinator track for leases and heartbeats) and nearest-rank
  wall-time percentiles per span kind.
* :class:`MetricsSnapshotter` / :func:`prometheus_text` -- periodic
  :class:`~repro.obs.metrics.MetricsRegistry` snapshots to a JSONL
  series, exportable as a Prometheus-style textfile
  (``python -m repro.obs runtime-metrics RUN_DIR``).
* :class:`ProgressTicker` -- live progress: a coordinator-side ticker
  (cells done/total, cache hits, active workers, stragglers, ETA) that
  also maintains an atomically-replaced ``progress.json`` so
  ``python -m repro.obs tail RUN_DIR`` can follow out-of-band.

Record schema (one JSON object per line, key-sorted)::

    {"kind": "<dotted.kind>",      # e.g. "lease.assign", "cell.compute"
     "seq": 3,                     # per-file monotone sequence number
     "t": 12345.678,               # time.monotonic() seconds
     "dur": 0.012,                 # span duration (spans only)
     "pid": 4242, "role": "coordinator", "worker": "w0" | null,
     ...}                          # kind-specific fields

The first record of every file is ``runtime.meta`` and additionally
carries ``unix`` (``time.time()``), ``schema``, and ``host`` (the
machine that wrote the file -- TCP fabric workers record on their own
host); the timeline exporter uses the (``t``, ``unix``) anchor pair to
align files recorded by processes with different monotonic epochs.
"""

# This module *is* the wall-clock plane: every clock read below is
# deliberate and never observable by simulation code.
# simlint: disable-file=SL001

from __future__ import annotations

import json
import math
import os
import socket
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import jsonable

#: Schema version stamped into every ``runtime.meta`` record.
RUNTIME_SCHEMA = 1

#: Span-file glob inside a run directory.
SPAN_GLOB = "spans-*.jsonl"

#: Heartbeat-latency histogram bounds (seconds of host wall time).
HEARTBEAT_BUCKETS = (0.005, 0.02, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: Per-cell wall-time histogram bounds (seconds of host wall time).
CELL_WALL_BUCKETS = (0.001, 0.005, 0.02, 0.05, 0.1, 0.5, 1.0, 5.0)


# -- the recorder -----------------------------------------------------------


class RuntimeRecorder:
    """Append wall-clock telemetry records to one JSONL span file.

    One recorder per process-and-role: the fabric coordinator owns
    ``spans-coordinator.jsonl``, worker ``w3`` owns
    ``spans-worker-w3.jsonl``, the serial executor owns
    ``spans-executor.jsonl``.  Records are flushed per line so crashes
    lose at most the record being written (the loader tolerates a torn
    final line) and a live follower sees events as they happen.
    """

    def __init__(self, path: "str | os.PathLike", *, role: str,
                 worker: "str | None" = None,
                 clock: "Callable[[], float]" = time.monotonic,
                 unix_clock: "Callable[[], float]" = time.time) -> None:
        self.path = Path(path)
        self.role = role
        self.worker = worker
        self._clock = clock
        self._unix_clock = unix_clock
        self._seq = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: "TextIO | None" = open(self.path, "a", buffering=1,
                                         encoding="utf-8")
        # ``host`` tells a cross-host fleet timeline which machine wrote
        # each track: TCP fabric workers append spans on their own host
        # (same meta schema, so readers of schema 1 are unaffected).
        self.event("runtime.meta", schema=RUNTIME_SCHEMA,
                   unix=self._unix_clock(), host=socket.gethostname())

    @classmethod
    def for_worker(cls, run_dir: "str | os.PathLike",
                   worker_id: str) -> "RuntimeRecorder":
        """The span file a fabric worker owns inside ``run_dir``."""
        return cls(Path(run_dir) / f"spans-worker-{worker_id}.jsonl",
                   role="worker", worker=worker_id)

    def now(self) -> float:
        return self._clock()

    def event(self, kind: str, *, t: "float | None" = None,
              dur: "float | None" = None, **fields: Any) -> None:
        """Append one record (an instant, or a span when ``dur`` given)."""
        if self._fh is None:
            return
        record = {key: jsonable(value) for key, value in fields.items()}
        # Structural keys win over same-named payload fields: a record's
        # (role, worker) identity is *who emitted it*, never who it is
        # about -- events concerning another worker name it in
        # ``worker_id`` instead.
        record.update(kind=str(kind), seq=self._seq,
                      t=float(t) if t is not None else self._clock(),
                      pid=os.getpid(), role=self.role, worker=self.worker)
        if dur is not None:
            record["dur"] = float(dur)
        self._seq += 1
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")

    def span(self, kind: str, **fields: Any) -> "_Span":
        """Context manager measuring a wall-clock span::

            with recorder.span("cell.compute", x=2.0, seed=7):
                compute()
        """
        return _Span(self, kind, fields)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class _Span:
    __slots__ = ("_recorder", "_kind", "_fields", "_start")

    def __init__(self, recorder: RuntimeRecorder, kind: str,
                 fields: dict) -> None:
        self._recorder = recorder
        self._kind = kind
        self._fields = fields

    def __enter__(self) -> "_Span":
        self._start = self._recorder.now()
        return self

    def __exit__(self, *exc_info) -> None:
        end = self._recorder.now()
        self._recorder.event(self._kind, t=self._start,
                             dur=end - self._start, **self._fields)


# -- loading span files back ------------------------------------------------


class SpanSet:
    """All runtime records of one run directory, queryable.

    The runtime-plane sibling of :class:`repro.obs.analyze.TraceSet`:
    records are plain dicts, unparseable lines are collected (a worker
    killed mid-write tears its last line) rather than raised, and files
    are visited in sorted-name order so exports are stable for a given
    set of input bytes.
    """

    def __init__(self, records: "Iterable[dict]",
                 bad_lines: "list[tuple[str, int, str]] | None" = None,
                 ) -> None:
        self.records = list(records)
        self.bad_lines = list(bad_lines or [])

    @classmethod
    def load_dir(cls, run_dir: "str | os.PathLike") -> "SpanSet":
        run_dir = Path(run_dir)
        records: "list[dict]" = []
        bad: "list[tuple[str, int, str]]" = []
        for path in sorted(run_dir.glob(SPAN_GLOB)):
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError("record is not an object")
                except ValueError:
                    bad.append((path.name, lineno, line))
                    continue
                records.append(record)
        return cls(records, bad)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> "Iterator[dict]":
        return iter(self.records)

    def filter(self, kind: "str | None" = None, *,
               role: "str | None" = None,
               worker: "str | None" = None) -> "SpanSet":
        out = self.records
        if kind is not None:
            out = [r for r in out if r.get("kind") == kind]
        if role is not None:
            out = [r for r in out if r.get("role") == role]
        if worker is not None:
            out = [r for r in out if r.get("worker") == worker]
        return SpanSet(out, self.bad_lines)

    def kinds(self) -> "dict[str, int]":
        counts: "dict[str, int]" = {}
        for record in self.records:
            kind = str(record.get("kind", "?"))
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def tracks(self) -> "list[tuple[str, str | None]]":
        """Distinct ``(role, worker)`` sources, coordinator first, then
        workers in id order, then anything else."""
        seen = {(str(r.get("role", "?")), r.get("worker"))
                for r in self.records}

        def key(track):
            role, worker = track
            order = {"coordinator": 0, "executor": 1, "worker": 2}
            return (order.get(role, 3), role, str(worker or ""))

        return sorted(seen, key=key)


# -- fleet timeline (Chrome trace-event export) -----------------------------


def _file_offsets(spans: SpanSet) -> "dict[tuple[str, str | None], float]":
    """Per-track offset aligning monotonic clocks via the meta anchors.

    Each ``runtime.meta`` record pairs a monotonic ``t`` with a wall
    ``unix`` stamp; ``unix - t`` converts that file's monotonic times
    onto the shared wall clock.  Tracks without a meta record (torn
    file) fall back to offset 0 of the earliest anchored track.
    """
    offsets: "dict[tuple[str, str | None], float]" = {}
    for record in spans.records:
        if record.get("kind") != "runtime.meta":
            continue
        try:
            offset = float(record["unix"]) - float(record["t"])
        except (KeyError, TypeError, ValueError):
            continue
        offsets[(str(record.get("role", "?")), record.get("worker"))] = offset
    return offsets


def fleet_timeline(spans: SpanSet) -> dict:
    """Render runtime spans as a Chrome trace-event document.

    One ``pid`` (track) per span source -- the coordinator first, then
    workers in id order -- so chrome://tracing / ui.perfetto.dev shows
    the fleet as parallel swimlanes: leases and heartbeats on the
    coordinator lane, per-cell compute spans on each worker lane.
    Records with ``dur`` become complete ("X") slices; the rest become
    instant events.
    """
    tracks = spans.tracks()
    pids = {track: pid for pid, track in enumerate(tracks)}
    offsets = _file_offsets(spans)
    default_offset = min(offsets.values(), default=0.0)
    anchored = []
    for record in spans.records:
        track = (str(record.get("role", "?")), record.get("worker"))
        offset = offsets.get(track, default_offset)
        try:
            t = float(record["t"]) + offset
        except (KeyError, TypeError, ValueError):
            continue
        anchored.append((t, track, record))
    base = min((t for t, _track, _r in anchored), default=0.0)

    events: "list[dict]" = []
    for track in tracks:
        role, worker = track
        name = role if worker is None else f"{role} {worker}"
        events.append({"ph": "M", "name": "process_name",
                       "pid": pids[track], "tid": 0, "ts": 0,
                       "args": {"name": name}})
    for t, track, record in anchored:
        if record.get("kind") == "runtime.meta":
            continue
        args = {k: v for k, v in record.items()
                if k not in ("kind", "t", "dur", "pid", "role", "worker",
                             "seq")}
        ts = (t - base) * 1e6  # simlint: disable=SL005 (seconds -> trace microseconds)
        common = {"name": str(record["kind"]), "cat": "runtime",
                  "pid": pids[track], "tid": 0, "ts": ts, "args": args}
        dur = record.get("dur")
        if isinstance(dur, (int, float)):
            events.append({"ph": "X",
                           "dur": float(dur) * 1e6,  # simlint: disable=SL005 (seconds -> trace microseconds)
                           **common})
        else:
            events.append({"ph": "i", "s": "t", **common})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"tool": "repro.obs.runtime",
                          "clock": "host-wall-seconds",
                          "schema": RUNTIME_SCHEMA}}


def write_fleet_timeline(run_dir: "str | os.PathLike",
                         out: "str | os.PathLike | None" = None) -> Path:
    """Export ``run_dir``'s span files as a Chrome trace; returns the path."""
    run_dir = Path(run_dir)
    out = Path(out) if out is not None else run_dir / "timeline.trace.json"
    doc = fleet_timeline(SpanSet.load_dir(run_dir))
    out.write_text(json.dumps(doc, sort_keys=True,
                              separators=(",", ":")) + "\n")
    return out


# -- wall-time percentiles --------------------------------------------------


def percentile(values: "Iterable[float]", q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for an empty input."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0 <= q <= 100:
        raise ObservabilityError(f"percentile q must be in [0, 100]: {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def wall_stats(walls: "Iterable[float]") -> "dict[str, float]":
    """p50/p95/max summary of a wall-time sample (zeros when empty)."""
    ordered = sorted(walls)
    if not ordered:
        return {"p50": 0.0, "p95": 0.0, "max": 0.0}
    return {"p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "max": ordered[-1]}


def wall_summary(spans: SpanSet) -> dict:
    """Per-kind wall-time percentiles over every span carrying ``dur``."""
    durations: "dict[str, list[float]]" = {}
    for record in spans.records:
        dur = record.get("dur")
        if isinstance(dur, (int, float)):
            durations.setdefault(str(record["kind"]), []).append(float(dur))
    return {kind: {"count": len(values), **wall_stats(values)}
            for kind, values in sorted(durations.items())}


# -- Prometheus-style textfile exposition -----------------------------------


def _prom_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _prom_value(value) -> str:
    if isinstance(value, str):  # the "inf"/"-inf"/"nan" JSON spellings
        value = float(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(value)


def prometheus_text(payload: dict, *, prefix: str = "repro_") -> str:
    """Render a :meth:`MetricsRegistry.to_dict` payload as Prometheus
    text exposition format (counters, gauges, and histograms with
    cumulative ``_bucket{le=...}`` series)."""
    lines: "list[str]" = []
    for name in sorted(payload.get("counters", {})):
        metric = prefix + _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(payload['counters'][name])}")
    for name in sorted(payload.get("gauges", {})):
        value = payload["gauges"][name]
        if value is None:
            continue
        metric = prefix + _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name in sorted(payload.get("histograms", {})):
        data = payload["histograms"][name]
        metric = prefix + _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(data["bounds"], data["buckets"]):
            cumulative += int(count)
            lines.append(
                f'{metric}_bucket{{le="{_prom_value(float(bound))}"}} '
                f"{cumulative}")
        lines.append(f'{metric}_bucket{{le="+Inf"}} {int(data["count"])}')
        lines.append(f"{metric}_sum {_prom_value(data['sum'])}")
        lines.append(f"{metric}_count {int(data['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")


class MetricsSnapshotter:
    """Append periodic registry snapshots to a ``metrics.jsonl`` series."""

    def __init__(self, registry: MetricsRegistry,
                 path: "str | os.PathLike", *, interval: float = 1.0,
                 clock: "Callable[[], float]" = time.monotonic,
                 unix_clock: "Callable[[], float]" = time.time) -> None:
        self.registry = registry
        self.path = Path(path)
        self.interval = float(interval)
        self._clock = clock
        self._unix_clock = unix_clock
        self._seq = 0
        self._last: "float | None" = None

    def maybe_snapshot(self) -> bool:
        """Snapshot if ``interval`` elapsed since the last one."""
        now = self._clock()
        if self._last is not None and now - self._last < self.interval:
            return False
        self.snapshot(now=now)
        return True

    def snapshot(self, *, now: "float | None" = None) -> None:
        now = self._clock() if now is None else now
        self._last = now
        line = json.dumps({"seq": self._seq, "t": now,
                           "unix": self._unix_clock(),
                           "metrics": self.registry.to_dict()},
                          sort_keys=True, separators=(",", ":"))
        self._seq += 1
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def load_metrics_series(run_dir: "str | os.PathLike") -> "list[dict]":
    """The snapshot series of a run directory (empty if none written)."""
    path = Path(run_dir) / "metrics.jsonl"
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    series = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            series.append(json.loads(line))
        except ValueError:
            continue  # torn final line of a crashed run
    return series


def write_prometheus(run_dir: "str | os.PathLike",
                     out: "str | os.PathLike | None" = None) -> Path:
    """Export the *latest* metrics snapshot as a Prometheus textfile."""
    run_dir = Path(run_dir)
    out = Path(out) if out is not None else run_dir / "metrics.prom"
    series = load_metrics_series(run_dir)
    payload = series[-1]["metrics"] if series else {}
    out.write_text(prometheus_text(payload))
    return out


# -- live progress ----------------------------------------------------------


class ProgressTicker:
    """Coordinator-side live progress: a stderr ticker plus an
    atomically-replaced ``progress.json`` for out-of-band followers.

    ETA is the naive rate estimate -- cells remaining over cells
    completed per elapsed second -- which is exactly what an operator
    watching a million-cell campaign wants first.
    """

    def __init__(self, total: int, *, cache_hits: int = 0,
                 path: "str | os.PathLike | None" = None,
                 stream: "TextIO | None" = None,
                 interval: float = 0.5,
                 clock: "Callable[[], float]" = time.monotonic,
                 unix_clock: "Callable[[], float]" = time.time) -> None:
        self.total = int(total)
        self.cache_hits = int(cache_hits)
        self.path = Path(path) if path is not None else None
        self.stream = stream
        self.interval = float(interval)
        self._clock = clock
        self._unix_clock = unix_clock
        self._started = clock()
        self._baseline_done = 0
        self._last_emit: "float | None" = None
        self.done = 0
        self.active_workers = 0
        self.stragglers = 0
        self.state = "running"

    def eta_seconds(self, now: float) -> "float | None":
        computed = self.done - self._baseline_done
        elapsed = now - self._started
        if computed <= 0 or elapsed <= 0:
            return None
        rate = computed / elapsed
        return (self.total - self.done) / rate

    def update(self, done: int, *, active_workers: int = 0,
               stragglers: int = 0, force: bool = False) -> bool:
        """Record progress; emit a tick if the interval elapsed (or
        ``force``).  Returns whether a tick was emitted."""
        self.done = int(done)
        self.active_workers = int(active_workers)
        self.stragglers = int(stragglers)
        now = self._clock()
        if (not force and self._last_emit is not None
                and now - self._last_emit < self.interval):
            return False
        self._emit(now)
        return True

    def finish(self, done: "int | None" = None, *,
               state: str = "done") -> None:
        if done is not None:
            self.done = int(done)
        self.state = state
        self._emit(self._clock())

    def _emit(self, now: float) -> None:
        self._last_emit = now
        eta = self.eta_seconds(now)
        if self.path is not None:
            payload = self.snapshot(now, eta)
            tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=2)
                           + "\n")
            os.replace(tmp, self.path)
        if self.stream is not None:
            self.stream.write(format_progress(
                self.snapshot(now, eta)) + "\n")
            self.stream.flush()

    def snapshot(self, now: "float | None" = None,
                 eta: "float | None" = None) -> dict:
        now = self._clock() if now is None else now
        if eta is None:
            eta = self.eta_seconds(now)
        return {"state": self.state, "done": self.done, "total": self.total,
                "cache_hits": self.cache_hits,
                "active_workers": self.active_workers,
                "stragglers": self.stragglers,
                "elapsed_s": now - self._started,
                "eta_s": eta, "unix": self._unix_clock()}


def format_progress(snapshot: dict) -> str:
    """One human-readable progress line from a ``progress.json`` payload."""
    total = snapshot.get("total", 0) or 0
    done = snapshot.get("done", 0) or 0
    pct = 100.0 * done / total if total else 0.0
    eta = snapshot.get("eta_s")
    eta_text = "eta --" if eta is None else f"eta {eta:.1f}s"
    if snapshot.get("state") == "done":
        eta_text = "done"
    elif snapshot.get("state") not in (None, "running"):
        eta_text = str(snapshot["state"])
    return (f"[progress] {done}/{total} cells ({pct:.0f}%), "
            f"{snapshot.get('cache_hits', 0)} cache hits, "
            f"{snapshot.get('active_workers', 0)} workers, "
            f"{snapshot.get('stragglers', 0)} stragglers, "
            f"{snapshot.get('elapsed_s', 0.0):.1f}s elapsed, {eta_text}")


def tail_run(run_dir: "str | os.PathLike", *, follow: bool = False,
             interval: float = 0.5, max_polls: "int | None" = None,
             stream: "TextIO | None" = None,
             sleep: "Callable[[float], None]" = time.sleep) -> int:
    """Follow a run directory's progress out-of-band.

    Prints the current progress line (and, with ``follow=True``, keeps
    polling until the run reports a terminal state or ``max_polls`` is
    exhausted).  Returns 0 if progress was found, 1 otherwise.
    """
    run_dir = Path(run_dir)
    stream = stream if stream is not None else sys.stdout
    path = run_dir / "progress.json"
    last_line: "str | None" = None
    polls = 0
    while True:
        polls += 1
        snapshot: "dict | None" = None
        try:
            snapshot = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            snapshot = None  # not written yet, or mid-replace
        if snapshot is not None:
            line = format_progress(snapshot)
            if line != last_line:
                stream.write(line + "\n")
                stream.flush()
                last_line = line
            if snapshot.get("state") != "running":
                return 0
        if not follow or (max_polls is not None and polls >= max_polls):
            return 0 if last_line is not None else 1
        sleep(interval)


# -- the run-level bundle ---------------------------------------------------


class RunTelemetry:
    """Everything one sweep run needs from the runtime plane.

    Bundles the coordinator-side :class:`RuntimeRecorder`, a runtime
    :class:`MetricsRegistry` (snapshotted periodically), and the
    :class:`ProgressTicker`.  Created by
    :func:`~repro.experiments.executor.execute_sweep` /
    :func:`~repro.experiments.fabric.execute_sweep_fabric` when the run
    asks for ``runtime_dir`` and/or ``progress``; everything degrades to
    cheap no-ops for the parts not enabled.
    """

    def __init__(self, run_dir: "str | os.PathLike | None", *,
                 role: str = "coordinator", total_cells: int = 0,
                 cache_hits: int = 0, progress: bool = False,
                 progress_stream: "TextIO | None" = None,
                 progress_interval: float = 0.5,
                 snapshot_interval: float = 1.0,
                 clock: "Callable[[], float]" = time.monotonic) -> None:
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.metrics = MetricsRegistry()
        self.recorder: "RuntimeRecorder | None" = None
        self.snapshots: "MetricsSnapshotter | None" = None
        progress_path = None
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self.recorder = RuntimeRecorder(
                self.run_dir / f"spans-{role}.jsonl", role=role, clock=clock)
            self.snapshots = MetricsSnapshotter(
                self.metrics, self.run_dir / "metrics.jsonl",
                interval=snapshot_interval, clock=clock)
            progress_path = self.run_dir / "progress.json"
        stream = None
        if progress:
            stream = (progress_stream if progress_stream is not None
                      else sys.stderr)
        self.progress = ProgressTicker(
            total_cells, cache_hits=cache_hits, path=progress_path,
            stream=stream, interval=progress_interval, clock=clock)
        self._clock = clock

    @classmethod
    def create(cls, run_dir, *, progress: bool = False,
               **kwargs) -> "RunTelemetry | None":
        """A telemetry bundle, or None when nothing was asked for."""
        if run_dir is None and not progress:
            return None
        return cls(run_dir, progress=progress, **kwargs)

    # -- emission helpers (all safe when parts are disabled) ------------

    def now(self) -> float:
        return self._clock()

    def event(self, kind: str, **fields: Any) -> None:
        if self.recorder is not None:
            self.recorder.event(kind, **fields)

    def span(self, kind: str, **fields: Any):
        if self.recorder is not None:
            return self.recorder.span(kind, **fields)
        return _NullSpan()

    def tick(self, done: int, *, active_workers: int = 0,
             stragglers: int = 0, force: bool = False) -> None:
        self.progress.update(done, active_workers=active_workers,
                             stragglers=stragglers, force=force)
        if self.snapshots is not None:
            self.metrics.gauge("runtime.cells_done").set(done)
            self.metrics.gauge("runtime.active_workers").set(active_workers)
            self.metrics.gauge("runtime.stragglers").set(stragglers)
            self.snapshots.maybe_snapshot()

    def finalize(self, *, done: "int | None" = None,
                 state: str = "done") -> None:
        """Close out the run: final progress, final snapshot, and the
        derived exports (Chrome fleet timeline, Prometheus textfile,
        wall-time summary) inside the run directory."""
        self.progress.finish(done, state=state)
        self.event("run.done", state=state)
        if self.recorder is not None:
            self.recorder.close()
        if self.run_dir is None:
            return
        if self.snapshots is not None:
            if done is not None:
                self.metrics.gauge("runtime.cells_done").set(done)
            self.snapshots.snapshot()
        write_prometheus(self.run_dir)
        spans = SpanSet.load_dir(self.run_dir)
        write_fleet_timeline(self.run_dir)
        summary = {"schema": RUNTIME_SCHEMA, "state": state,
                   "kinds": spans.kinds(), "wall": wall_summary(spans),
                   "bad_lines": len(spans.bad_lines)}
        (self.run_dir / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass
