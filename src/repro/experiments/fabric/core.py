"""Distributed sweep fabric: one coordinator, N workers, typed messages.

This is the only parallel path of the sweep executor:
``execute_sweep(jobs=N)`` with ``N > 1`` (and the CLI's ``--jobs N``)
runs here, in the style of panda-yoda's Yoda/Droid split: a
**coordinator** streams ``(x, seed)`` cells through a work queue with
batched *leases*, **workers** pull cells and push results, and every
conversation is a typed, versioned :class:`Envelope` carried by a
pluggable transport:

* ``socket``   -- the default: one ``multiprocessing.Process`` per
  worker, connected back to the coordinator over a Unix-domain socket
  carrying length-prefixed pickled envelopes.
* ``tcp``      -- the cross-host story: the coordinator binds a TCP
  listener (``FabricConfig.listen``), launches its local fleet over
  loopback, and *additionally* accepts remote workers bootstrapped with
  ``python -m repro.experiments.fabric worker HOST:PORT --token T`` at
  any point of the run -- late joiners pass the HELLO/WELCOME handshake
  (token, protocol version, spec fingerprint; see
  :mod:`repro.experiments.fabric.wire`) and are leased work mid-run.
* ``thread``   -- the tests' in-process fake: workers are daemon threads
  over in-process queues.  Cell computation is serialized by a lock
  (the simulation uses per-process ambient state -- the obs session,
  the kernel event tally -- that threads would trample), so this
  transport exercises the full message protocol deterministically, not
  for speedup.

Protocol (see docs/FABRIC.md for the full schema):

* worker -> coordinator: ``REQUEST_WORK``, ``CELL_RESULT``, ``HEARTBEAT``
  (and, for TCP peers, the ``HELLO`` that opens the handshake)
* coordinator -> worker: ``ASSIGN_CELLS`` (a lease), ``DRAIN`` (idle,
  ask again), ``SHUTDOWN`` (exit now), ``WELCOME`` (handshake verdict)

Every message from a worker refreshes its liveness; a worker whose
process died, or that has been silent longer than
:attr:`FabricConfig.lease_timeout`, has its leased cells *requeued* and
(budget permitting) a replacement worker launched.  Results are keyed by
grid coordinates and merged by the executor's
:func:`~repro.experiments.executor.merge_cells`, so a fabric run is
**byte-identical** to the ``jobs=1`` serial reference no matter how
cells were distributed, re-leased, or recomputed (duplicate results of a
deterministic cell are equal; the first one wins).  Computed cells are
written to the content-addressed cell cache *as they arrive*, so a run
that loses its coordinator resumes from the cache.

Worker-loss testing reuses the :mod:`repro.faults` vocabulary at the
fabric layer: a :class:`WorkerChaos` revokes one worker after it has
computed a configured number of cells -- by crashing it, hard-killing
the process (``SIGKILL``), or hanging it (alive but silent, the
heartbeat-expiry path).
"""

from __future__ import annotations

import os
import queue
import secrets
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro import obs
from repro.errors import ExperimentError, FabricError
from repro.experiments.executor import (CellCache, CellResult, SweepTiming,
                                        cell_failure, compute_cell, fold_obs,
                                        merge_cells, plan_cells)
from repro.experiments.fabric.wire import (COORDINATOR, WELCOME,
                                           ChannelClosed, Envelope,
                                           HandshakeInfo, _QueuePair,
                                           _SocketChannel,
                                           check_hello, client_handshake,
                                           welcome_payload)
from repro.experiments.fabric.wire import (ASSIGN_CELLS, CELL_RESULT, DRAIN,  # noqa: F401  (re-exported protocol surface)
                                           HEARTBEAT, HELLO, MAX_FRAME_BYTES,
                                           MESSAGE_KINDS, PROTOCOL_VERSION,
                                           REQUEST_WORK, SHUTDOWN)
from repro.experiments.runner import SweepResult
from repro.experiments.scenarios import ExperimentSpec
from repro.obs.runtime import (HEARTBEAT_BUCKETS, RunTelemetry,
                               RuntimeRecorder, wall_stats)

# -- fault injection --------------------------------------------------------

#: Chaos modes: how the targeted worker is lost.
CHAOS_MODES = ("crash", "kill", "hang")


@dataclass(frozen=True)
class WorkerChaos:
    """Deterministically revoke one worker after ``after_cells`` cells.

    The fabric-layer analogue of a :mod:`repro.faults` host revocation:
    ``crash`` exits the worker loop abruptly (no message, channel
    closed), ``kill`` delivers ``SIGKILL`` to the worker process (process
    transports only -- a genuinely hard death), and ``hang`` leaves the
    worker alive but silent, which only the coordinator's lease-expiry
    clock can detect.
    """

    mode: str
    worker: str
    """Worker id, e.g. ``"w0"`` (replacements get fresh ids, so an
    injected fault fires at most once)."""
    after_cells: int

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise FabricError(
                f"unknown chaos mode {self.mode!r}; pick from {CHAOS_MODES}")
        if self.after_cells < 0:
            raise FabricError("after_cells must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "WorkerChaos":
        """Parse the CLI spelling ``mode:worker_index:after_cells``."""
        parts = text.split(":")
        if len(parts) != 3:
            raise FabricError(
                f"chaos spec {text!r} is not mode:worker:after_cells")
        mode, worker, after = parts
        try:
            return cls(mode=mode, worker=f"w{int(worker)}",
                       after_cells=int(after))
        except ValueError as exc:
            raise FabricError(f"bad chaos spec {text!r}: {exc}") from exc

    def to_wire(self) -> dict:
        """Plain-data spelling (rides in the TCP WELCOME payload)."""
        return {"mode": self.mode, "worker": self.worker,
                "after_cells": self.after_cells}

    @classmethod
    def from_wire(cls, data: dict) -> "WorkerChaos":
        try:
            return cls(mode=str(data["mode"]), worker=str(data["worker"]),
                       after_cells=int(data["after_cells"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FabricError(f"malformed chaos spec {data!r}: {exc}") from exc


@dataclass(frozen=True)
class FabricConfig:
    """Everything that shapes one fabric run (but never its result)."""

    workers: int = 2
    transport: str = "socket"
    lease_size: int = 4
    """Cells per ``ASSIGN_CELLS`` batch."""
    lease_timeout: float = 30.0
    """Seconds of worker silence before its lease is revoked.  Must
    exceed the worst single-cell compute time (workers heartbeat between
    cells, not during one)."""
    poll_interval: float = 0.005
    """Coordinator sleep when no messages are waiting (seconds)."""
    drain_pause: float = 0.02
    """Worker pause after a ``DRAIN`` before re-requesting work."""
    max_worker_restarts: int = 4
    """Replacement workers the coordinator may launch before it starts
    shrinking the fleet instead."""
    chaos: "WorkerChaos | None" = None
    listen: str = "127.0.0.1:0"
    """TCP transport only: ``HOST:PORT`` the coordinator binds (port 0
    picks an ephemeral port; the bound address is announced on stderr
    and in the ``run.listen`` telemetry event)."""
    token: "str | None" = None
    """TCP transport only: the shared secret remote workers must present
    in their HELLO.  None (the default) generates a fresh random token
    per run -- fine for loopback fleets launched by the coordinator,
    useless for remote workers, which need the operator to pass an
    explicit ``--fabric-token``."""
    handshake_timeout: float = 5.0
    """Seconds a connected-but-silent TCP peer may take to produce its
    HELLO before the coordinator drops the connection."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise FabricError(f"workers must be >= 1, got {self.workers}")
        if self.lease_size < 1:
            raise FabricError(f"lease_size must be >= 1, got {self.lease_size}")
        if self.transport not in ("thread", "socket", "tcp"):
            raise FabricError(
                f"unknown transport {self.transport!r}; pick from "
                f"('thread', 'socket', 'tcp')")
        if self.handshake_timeout <= 0:
            raise FabricError(
                f"handshake_timeout must be > 0, got {self.handshake_timeout}")
        if (self.chaos is not None and self.chaos.mode == "kill"
                and self.transport == "thread"):
            raise FabricError(
                "chaos mode 'kill' needs a process transport (SIGKILL "
                "from a thread worker would take down the coordinator)")


@dataclass
class FabricStats:
    """Operational counters of one fabric run (wall-clock flavored --
    *not* part of the deterministic result)."""

    transport: str = ""
    workers: int = 0
    leases: int = 0
    requeued_cells: int = 0
    revoked_leases: int = 0
    heartbeats: int = 0
    work_requests: int = 0
    workers_started: int = 0
    workers_lost: int = 0
    duplicate_results: int = 0
    remote_workers_joined: int = 0
    """TCP peers admitted through the accept loop mid-run (a subset of
    ``workers_started``)."""
    handshakes_rejected: int = 0
    """TCP connections dropped at the gate: bad token, fingerprint or
    version mismatch, undecodable bytes, or HELLO never arriving."""
    worker_lifetimes: "dict[str, float]" = field(default_factory=dict)
    """Seconds between launch and loss/shutdown, per worker id."""

    def to_dict(self) -> dict:
        return {
            "transport": self.transport,
            "workers": self.workers,
            "leases": self.leases,
            "requeued_cells": self.requeued_cells,
            "revoked_leases": self.revoked_leases,
            "heartbeats": self.heartbeats,
            "work_requests": self.work_requests,
            "workers_started": self.workers_started,
            "workers_lost": self.workers_lost,
            "duplicate_results": self.duplicate_results,
            "remote_workers_joined": self.remote_workers_joined,
            "handshakes_rejected": self.handshakes_rejected,
            "worker_lifetimes": {wid: self.worker_lifetimes[wid]
                                 for wid in sorted(self.worker_lifetimes)},
        }


# -- the worker -------------------------------------------------------------


@dataclass(frozen=True)
class WorkerConfig:
    """Per-worker knobs shipped to the worker side of the channel."""

    worker_id: str
    drain_pause: float = 0.02
    serialize_compute: bool = False
    """Thread transport only: hold the module compute lock around
    :func:`compute_cell` (ambient obs/session state is per-process)."""
    chaos: "WorkerChaos | None" = None
    runtime_dir: "str | None" = None
    """Run directory of the runtime telemetry plane
    (:mod:`repro.obs.runtime`), or None for no telemetry.  The worker
    appends wall-clock spans to its own ``spans-worker-<id>.jsonl``."""


#: Guards compute_cell for thread-transport workers (see module doc).
_COMPUTE_LOCK = threading.Lock()


class _ChaosTriggered(Exception):
    """Internal: the injected fault fired; unwind the worker loop."""


def _apply_chaos(config: WorkerConfig, cells_done: int,
                 recorder: "RuntimeRecorder | None" = None) -> None:
    chaos = config.chaos
    if chaos is None or chaos.worker != config.worker_id:
        return
    if cells_done < chaos.after_cells:
        return
    if recorder is not None:
        # The last thing a chaos-stricken worker says -- to the telemetry
        # plane, never to the coordinator (that's the point of chaos).
        recorder.event("chaos.injected", mode=chaos.mode,
                       after_cells=chaos.after_cells)
        recorder.close()
    if chaos.mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)  # never returns
    if chaos.mode == "hang":
        while True:  # alive but silent: only lease expiry catches this
            time.sleep(0.2)  # pragma: no cover - killed by coordinator
    raise _ChaosTriggered  # "crash": vanish without a goodbye message


def worker_main(channel, spec: ExperimentSpec, instrument: bool,
                config: WorkerConfig) -> None:
    """The worker loop every transport runs (thread, socket, or remote).

    Pull-based: request work, compute each leased cell, push a
    ``CELL_RESULT`` per cell (success or failure -- a failing cell is
    reported with its coordinates and traceback, not swallowed),
    heartbeat between cells, and repeat until ``SHUTDOWN``.

    Every result carries ``wall_s`` -- the wall-clock seconds the cell
    took *in this worker* -- feeding the coordinator's per-cell wall
    percentiles.  With :attr:`WorkerConfig.runtime_dir` set the worker
    additionally appends ``cell.compute`` / ``cell.serialize`` spans and
    lifecycle events to its own runtime span file; none of this is ever
    visible to the deterministic sim-time plane.
    """
    me = config.worker_id
    recorder: "RuntimeRecorder | None" = None
    if config.runtime_dir is not None:
        try:
            recorder = RuntimeRecorder.for_worker(config.runtime_dir, me)
        except OSError:  # telemetry must never take a worker down
            recorder = None

    def send(kind: str, **payload) -> None:
        channel.send(Envelope(kind=kind, sender=me, payload=payload))

    def log(kind: str, **fields) -> None:
        if recorder is not None:
            recorder.event(kind, **fields)

    cells_done = 0
    try:
        log("worker.start")
        send(REQUEST_WORK)
        while True:
            env = channel.recv(timeout=1.0)
            if env is None:
                send(HEARTBEAT, cells_done=cells_done)
                continue
            if env.kind == SHUTDOWN:
                log("worker.shutdown", cells_done=cells_done)
                return
            if env.kind == DRAIN:
                time.sleep(config.drain_pause)
                send(REQUEST_WORK)
                continue
            if env.kind != ASSIGN_CELLS:
                raise FabricError(
                    f"worker {me} got unexpected {env.kind}")
            lease_id = env.payload["lease"]
            log("lease.recv", lease=lease_id,
                cells=len(env.payload["cells"]))
            for cell in env.payload["cells"]:
                _apply_chaos(config, cells_done, recorder)
                x, seed = cell["x"], cell["seed"]
                compute_started = time.monotonic()  # simlint: disable=SL001 (runtime-plane wall time, never simulated)
                try:
                    if config.serialize_compute:
                        with _COMPUTE_LOCK:
                            result = compute_cell(spec, x, seed,
                                                  instrument=instrument)
                    else:
                        result = compute_cell(spec, x, seed,
                                              instrument=instrument)
                except Exception as exc:
                    send(CELL_RESULT, lease=lease_id, xi=cell["xi"],
                         si=cell["si"], x=x, seed=seed, ok=False,
                         error=f"{type(exc).__name__}: {exc}",
                         traceback=traceback.format_exc())
                    log("cell.failed", lease=lease_id, xi=cell["xi"],
                        si=cell["si"], error=type(exc).__name__)
                    continue
                wall = time.monotonic() - compute_started  # simlint: disable=SL001 (runtime-plane wall time, never simulated)
                cells_done += 1
                log("cell.compute", t=compute_started, dur=wall,
                    xi=cell["xi"], si=cell["si"], x=x, seed=seed)
                serialize_started = time.monotonic()  # simlint: disable=SL001 (runtime-plane wall time, never simulated)
                send(CELL_RESULT, lease=lease_id, xi=cell["xi"],
                     si=cell["si"], x=x, seed=seed, ok=True,
                     cell=result.to_payload(), wall_s=wall)
                log("cell.serialize", t=serialize_started,
                    dur=time.monotonic() - serialize_started,  # simlint: disable=SL001 (runtime-plane wall time, never simulated)
                    xi=cell["xi"], si=cell["si"])
                send(HEARTBEAT, cells_done=cells_done)
            send(REQUEST_WORK)
    except (ChannelClosed, _ChaosTriggered):
        log("worker.channel_closed", cells_done=cells_done)
        return  # coordinator died or chaos fired: just vanish
    finally:
        if recorder is not None:
            recorder.close()
        channel.close()


def _socket_worker_entry(address, spec, instrument, config):  # pragma: no cover - child process
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(address)
    worker_main(_SocketChannel(sock), spec, instrument, config)


def _tcp_worker_entry(address, token, spec, instrument, config,
                      nonce=None):  # pragma: no cover - child process
    """Locally-launched TCP worker: same host, same checkout, so the
    spec travels by fork/spawn and only the handshake crosses the
    wire.  The nonce -- minted by ``launch()``, never on the wire
    before this HELLO -- proves this peer is the spawned child."""
    host, port = _parse_listen(address)
    sock = socket.create_connection((host, port))
    channel = _SocketChannel(sock)
    client_handshake(channel, token, fingerprint=spec.fingerprint(),
                     worker_id=config.worker_id, nonce=nonce)
    worker_main(channel, spec, instrument, config)


def run_remote_worker(address: str, token: str, *,
                      spec: "ExperimentSpec | None" = None,
                      worker_id: "str | None" = None,
                      handshake_timeout: float = 10.0) -> str:
    """Bootstrap one worker against a (possibly remote) coordinator.

    The cross-host entry point behind ``python -m
    repro.experiments.fabric worker HOST:PORT --token T``.  Connects,
    runs the HELLO/WELCOME handshake, and -- once admitted -- serves
    cells with the ordinary :func:`worker_main` loop until the
    coordinator says ``SHUTDOWN`` or hangs up.  Returns the worker id
    the coordinator assigned.

    When ``spec`` is None (the CLI path) the scenario named in the
    WELCOME is resolved from this checkout's registry and its
    fingerprint is verified against the coordinator's, so two diverged
    checkouts refuse to mix cells instead of silently breaking
    byte-identical determinism.  Tests pass an unregistered ``spec``
    directly; its fingerprint then rides in the HELLO and the
    *coordinator* performs the same refusal.
    """
    host, port = _parse_listen(address)
    try:
        sock = socket.create_connection((host, port),
                                        timeout=handshake_timeout)
    except OSError as exc:
        raise FabricError(
            f"cannot reach coordinator at {address}: {exc}") from exc
    sock.settimeout(None)
    channel = _SocketChannel(sock)
    fingerprint = spec.fingerprint() if spec is not None else None
    try:
        welcome = client_handshake(channel, token, fingerprint=fingerprint,
                                   worker_id=worker_id,
                                   timeout=handshake_timeout)
    except FabricError:
        channel.close()
        raise
    assigned = str(welcome.get("worker_id") or worker_id or "?")
    if spec is None:
        from repro.experiments.scenarios import get_scenario

        scenario = str(welcome.get("scenario", ""))
        try:
            spec = get_scenario(scenario)
        except ExperimentError as exc:
            channel.close()
            raise FabricError(
                f"coordinator sweeps scenario {scenario!r}, which this "
                f"checkout does not know: {exc}") from exc
        local = spec.fingerprint()
        if local != welcome.get("fingerprint"):
            channel.close()
            raise FabricError(
                f"spec fingerprint mismatch for scenario {scenario!r}: "
                f"this checkout computes {local[:12]}, the coordinator "
                f"sweeps {str(welcome.get('fingerprint'))[:12]} -- "
                f"refusing to contribute cells")
    chaos = welcome.get("chaos")
    config = WorkerConfig(
        worker_id=assigned,
        drain_pause=float(welcome.get("drain_pause", 0.02)),
        chaos=WorkerChaos.from_wire(chaos) if chaos else None,
        runtime_dir=welcome.get("runtime_dir"))
    worker_main(channel, spec, bool(welcome.get("instrument", False)),
                config)
    return assigned


# -- transports -------------------------------------------------------------


@dataclass
class WorkerHandle:
    """Coordinator-side view of one launched worker."""

    worker_id: str
    channel: object
    is_alive: "Callable[[], bool]"
    kill: "Callable[[], None]"
    join: "Callable[[float], None]"
    started: float = 0.0
    """``time.monotonic()`` at launch (worker-lifetime accounting)."""
    remote: bool = False
    """True for TCP peers that joined through the accept loop.  The
    coordinator never spawned their process, so ``is_alive`` cannot
    consult it -- a remote worker's death is observed through its
    channel (:class:`ChannelClosed`) or its lease expiring, never
    through process state."""


class ThreadTransport:
    """Daemon threads + in-process queues (protocol tests)."""

    name = "thread"

    def launch(self, spec, instrument, config: WorkerConfig) -> WorkerHandle:
        to_worker: "queue.SimpleQueue" = queue.SimpleQueue()
        to_coord: "queue.SimpleQueue" = queue.SimpleQueue()
        worker_channel = _QueuePair(inbox=to_worker, outbox=to_coord)
        coord_channel = _QueuePair(inbox=to_coord, outbox=to_worker)
        config = replace(config, serialize_compute=True)
        thread = threading.Thread(
            target=worker_main, args=(worker_channel, spec, instrument, config),
            name=f"fabric-{config.worker_id}", daemon=True)
        thread.start()
        return WorkerHandle(
            worker_id=config.worker_id, channel=coord_channel,
            is_alive=thread.is_alive, kill=lambda: None,
            join=lambda timeout: thread.join(timeout),
            started=time.monotonic())  # simlint: disable=SL001 (worker-lifetime accounting, host time)

    def poll_peers(self) -> "list[tuple[object, Envelope]]":
        return []  # in-process transport: nobody can walk up and join

    def close(self) -> None:
        pass


class SocketTransport:
    """One local process per worker, connected back over a Unix-domain
    socket: the same-host transport behind ``jobs > 1``."""

    name = "socket"

    def __init__(self) -> None:
        self._dir = tempfile.mkdtemp(prefix="repro-fabric-")
        self.address = os.path.join(self._dir, "fabric.sock")
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.address)
        self._listener.listen()

    def launch(self, spec, instrument, config: WorkerConfig) -> WorkerHandle:
        import multiprocessing

        process = multiprocessing.Process(
            target=_socket_worker_entry,
            args=(self.address, spec, instrument, config),
            name=f"fabric-{config.worker_id}", daemon=True)
        process.start()
        self._listener.settimeout(10.0)
        try:
            conn, _ = self._listener.accept()
        except TimeoutError as exc:
            process.kill()
            raise FabricError(
                f"worker {config.worker_id} never connected") from exc

        def kill() -> None:
            if process.is_alive():
                process.kill()

        return WorkerHandle(
            worker_id=config.worker_id, channel=_SocketChannel(conn),
            is_alive=process.is_alive, kill=kill,
            join=lambda timeout: process.join(timeout),
            started=time.monotonic())  # simlint: disable=SL001 (worker-lifetime accounting, host time)

    def poll_peers(self) -> "list[tuple[object, Envelope]]":
        return []  # the UNIX listener accepts only workers it launched

    def close(self) -> None:
        try:
            self._listener.close()
            os.unlink(self.address)
            os.rmdir(self._dir)
        except OSError:
            pass


def _parse_listen(text: str) -> "tuple[str, int]":
    """Split ``HOST:PORT`` (IPv6 hosts may be bracketed or bare)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise FabricError(
            f"listen address {text!r} is not of the form HOST:PORT")
    host = host.strip("[]")
    try:
        return host, int(port)
    except ValueError:
        raise FabricError(
            f"listen address {text!r} has a non-numeric port") from None


class TcpTransport:
    """The cross-host transport: a TCP listener plus the admission gate.

    Two populations share the listener.  ``launch()`` spawns *local*
    loopback workers -- the coordinator's own fleet, the same
    process-per-worker story as :class:`SocketTransport` -- and
    :meth:`poll_peers` admits *remote* workers bootstrapped out-of-band
    with ``python -m repro.experiments.fabric worker HOST:PORT --token
    T``.  Both arrive as anonymous TCP connections and both pass the
    same HELLO gate (token, protocol version, spec fingerprint -- see
    :func:`~repro.experiments.fabric.wire.check_hello`); the only
    difference is who picked the worker id.

    The gate is fail-closed and non-blocking: a connection that has not
    produced a valid HELLO within ``handshake_timeout`` seconds -- or
    that produces garbage, an oversize frame, a forbidden pickle, a bad
    token, or a foreign fingerprint -- is counted in :attr:`rejected`
    and dropped (with a WELCOME refusal when the channel still works)
    without ever touching coordinator state.
    """

    name = "tcp"

    def __init__(self, handshake: HandshakeInfo, *,
                 listen: str = "127.0.0.1:0",
                 handshake_timeout: float = 5.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.handshake = handshake
        self.handshake_timeout = handshake_timeout
        self.max_frame_bytes = max_frame_bytes
        host, port = _parse_listen(listen)
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise FabricError(
                f"cannot bind fabric listener on {listen!r}: {exc}") from exc
        self._listener.setblocking(False)
        bound = self._listener.getsockname()
        self.address = f"{bound[0]}:{bound[1]}"
        #: Accepted-but-unproven connections, with their gate deadline.
        self._pending: "list[tuple[_SocketChannel, float]]" = []
        #: Peers that passed the gate while ``launch()`` was waiting for
        #: a *different* worker id; the next ``poll_peers`` returns them.
        self._backlog: "list[tuple[_SocketChannel, Envelope]]" = []
        #: Connections dropped at the gate (any reason).
        self.rejected = 0

    def launch(self, spec, instrument, config: WorkerConfig) -> WorkerHandle:
        import multiprocessing

        # The child proves it is *this* launch by echoing a per-launch
        # nonce that travels only through the process args -- a remote
        # token-holder claiming the same worker id cannot steal the
        # slot (and with it the process handle) during the wait below.
        nonce = secrets.token_hex(16)  # simlint: disable=SL001,SF002 (launch-proof secret, not a simulation draw)
        process = multiprocessing.Process(
            target=_tcp_worker_entry,
            args=(self.address, self.handshake.token, spec, instrument,
                  config, nonce),
            name=f"fabric-{config.worker_id}", daemon=True)
        process.start()
        deadline = time.monotonic() + 10.0  # simlint: disable=SL001 (transport timeout, host time)
        channel: "_SocketChannel | None" = None
        while channel is None and time.monotonic() < deadline:  # simlint: disable=SL001 (transport timeout, host time)
            for peer, hello in self.poll_peers():
                if (channel is None
                        and hello.payload.get("nonce") == nonce):
                    channel = peer
                else:  # a stranger mid-launch: keep it for the poll cycle
                    self._backlog.append((peer, hello))
            if channel is None:
                time.sleep(0.01)
        if channel is None:
            process.kill()
            raise FabricError(
                f"worker {config.worker_id} never completed the handshake")
        channel.send(Envelope(
            kind=WELCOME, sender=COORDINATOR,
            payload=welcome_payload(self.handshake, config.worker_id)))

        def kill() -> None:
            if process.is_alive():
                process.kill()

        return WorkerHandle(
            worker_id=config.worker_id, channel=channel,
            is_alive=process.is_alive, kill=kill,
            join=lambda timeout: process.join(timeout),
            started=time.monotonic())  # simlint: disable=SL001 (worker-lifetime accounting, host time)

    def poll_peers(self) -> "list[tuple[_SocketChannel, Envelope]]":
        """Non-blocking admission pump: accept, gate, return the worthy.

        Returns ``(channel, hello)`` pairs that presented a valid,
        token-bearing, fingerprint-compatible HELLO.  The WELCOME is
        *not* sent here -- the caller owns worker-id assignment
        (``launch`` for its own spawn, the coordinator's
        ``_adopt_remote`` for late joiners).
        """
        now = time.monotonic()  # simlint: disable=SL001 (handshake deadline, host time)
        while True:
            try:
                conn, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                break  # listener closed under us: nothing to accept
            conn.setblocking(True)
            self._pending.append((
                _SocketChannel(conn, max_frame_bytes=self.max_frame_bytes),
                now + self.handshake_timeout))
        admitted = list(self._backlog)
        self._backlog.clear()
        still_pending: "list[tuple[_SocketChannel, float]]" = []
        for channel, gate_deadline in self._pending:
            try:
                if not channel.poll():
                    if now > gate_deadline:
                        self._reject(channel, "handshake timed out")
                    else:
                        still_pending.append((channel, gate_deadline))
                    continue
                hello = channel.recv(timeout=0.0)
            except ChannelClosed as exc:
                # Hung up, oversize frame, forbidden pickle: the channel
                # is already poisoned, don't try to answer on it.
                self._reject(channel, str(exc), respond=False)
                continue
            except FabricError as exc:  # decoded but unspeakable (version)
                self._reject(channel, str(exc))
                continue
            if hello is None:
                still_pending.append((channel, gate_deadline))
                continue
            try:
                reason = check_hello(hello, self.handshake)
            except Exception as exc:
                # Fail closed: whatever a hostile HELLO manages to
                # trip, it costs the peer its connection, not the
                # coordinator its sweep.
                reason = f"malformed HELLO: {exc}"
            if reason is not None:
                self._reject(channel, reason)
                continue
            admitted.append((channel, hello))
        self._pending = still_pending
        return admitted

    def _reject(self, channel: "_SocketChannel", reason: str, *,
                respond: bool = True) -> None:
        self.rejected += 1
        if respond:
            try:
                channel.send(Envelope(kind=WELCOME, sender=COORDINATOR,
                                      payload={"ok": False,
                                               "error": reason}))
            except FabricError:
                pass
        channel.close()

    def close(self) -> None:
        for channel, _ in self._pending:
            channel.close()
        for channel, _ in self._backlog:
            channel.close()
        self._pending = []
        self._backlog = []
        try:
            self._listener.close()
        except OSError:
            pass


def make_transport(name: str, *,
                   handshake: "HandshakeInfo | None" = None,
                   listen: str = "127.0.0.1:0",
                   handshake_timeout: float = 5.0):
    if name == "thread":
        return ThreadTransport()
    if name == "socket":
        return SocketTransport()
    if name == "tcp":
        if handshake is None:
            raise FabricError(
                "tcp transport needs a HandshakeInfo (token + fingerprint)")
        return TcpTransport(handshake, listen=listen,
                            handshake_timeout=handshake_timeout)
    raise FabricError(f"unknown transport {name!r}")


# -- the coordinator --------------------------------------------------------


@dataclass
class _Lease:
    lease_id: int
    worker_id: str
    outstanding: "set[tuple[int, int]]"


@dataclass
class _Worker:
    handle: WorkerHandle
    last_seen: float
    lease: "_Lease | None" = None


class Coordinator:
    """Owns the work queue, the leases, and the liveness clock."""

    def __init__(self, spec: ExperimentSpec, seed_list: "list[int]", *,
                 config: FabricConfig, cache: "CellCache | None",
                 instrument: bool,
                 on_cell: "Callable[[int, int], None] | None" = None,
                 telemetry: "RunTelemetry | None" = None,
                 clock: "Callable[[], float]" = time.monotonic) -> None:
        self.spec = spec
        self.seed_list = seed_list
        self.config = config
        self.cache = cache
        self.instrument = instrument
        self.on_cell = on_cell
        self.telemetry = telemetry
        #: The liveness/lease clock.  ``time.monotonic`` in production;
        #: boundary-timing tests inject a fake monotonic clock here.
        self._clock = clock
        self.stats = FabricStats(transport=config.transport,
                                 workers=config.workers)
        self.cells: "dict[tuple[int, int], CellResult]" = {}
        #: Wall seconds per computed cell, as reported by the worker
        #: that computed it (first result wins, like the cell itself).
        self.cell_walls: "list[float]" = []
        #: Grid-order queue of cells still to assign.
        self.queue: "deque[dict]" = deque()
        #: Cell coordinates -> full cell record (for requeuing).
        self._cell_specs: "dict[tuple[int, int], dict]" = {}
        self._workers: "dict[str, _Worker]" = {}
        self._next_lease = 0
        self._next_worker = 0
        self._restarts = 0
        self._transport = None
        self._failure: "ExperimentError | None" = None

    # -- worker lifecycle ---------------------------------------------------

    def _make_transport(self):
        if self.config.transport != "tcp":
            return make_transport(self.config.transport)
        runtime_dir = None
        if self.telemetry is not None and self.telemetry.run_dir is not None:
            runtime_dir = str(self.telemetry.run_dir)
        handshake = HandshakeInfo(
            token=self.config.token
            or secrets.token_hex(16),  # simlint: disable=SL001,SF002 (handshake shared secret, not a simulation draw)
            scenario=self.spec.name,
            fingerprint=self.spec.fingerprint(),
            instrument=self.instrument,
            drain_pause=self.config.drain_pause,
            runtime_dir=runtime_dir,
            chaos=(self.config.chaos.to_wire()
                   if self.config.chaos is not None else None))
        transport = make_transport(
            "tcp", handshake=handshake, listen=self.config.listen,
            handshake_timeout=self.config.handshake_timeout)
        # stderr, deliberately: stdout carries the CLI's deterministic
        # sweep summary, which CI byte-compares across transports.
        print(f"[fabric] coordinator listening on {transport.address}",
              file=sys.stderr, flush=True)
        if self.config.token is None:
            # Auto-generated: the operator has no other way to learn it.
            print(f"[fabric] run token: {handshake.token}",
                  file=sys.stderr, flush=True)
        return transport

    def _adopt_remote(self, channel, hello: Envelope, now: float) -> None:
        """Admit one handshake-validated TCP peer as a fleet member.

        The peer may request an id (``--worker-id``); a collision with
        a live worker mints a fresh one instead.  Determinism does not
        care either way -- results are keyed by cell coordinates, and
        the chaos matcher targets whichever worker ends up owning the
        configured id.
        """
        requested = hello.payload.get("worker_id")
        if not isinstance(requested, str) or not requested \
                or requested in self._workers:
            requested = None
        worker_id = requested if requested is not None \
            else self._mint_worker_id()
        try:
            channel.send(Envelope(
                kind=WELCOME, sender=COORDINATOR,
                payload=welcome_payload(self._transport.handshake,
                                        worker_id)))
        except FabricError:
            # Vanished between HELLO and WELCOME: never joined.
            channel.close()
            self._transport.rejected += 1
            return
        handle = WorkerHandle(
            worker_id=worker_id, channel=channel,
            is_alive=lambda: True,  # only the channel/lease can tell
            kill=lambda: None, join=lambda timeout: None,
            started=now, remote=True)
        self._workers[worker_id] = _Worker(handle=handle, last_seen=now)
        self.stats.workers_started += 1
        self.stats.remote_workers_joined += 1
        self._tel_event("worker.joined", worker_id=worker_id, remote=True)

    def _mint_worker_id(self) -> str:
        """A counter id no *live* worker holds.

        Remote peers may claim arbitrary ids (``--worker-id w5``), so
        the counter skips over taken ids rather than silently
        overwriting the registry entry -- an overwrite would orphan the
        incumbent's lease and hang the sweep.
        """
        while f"w{self._next_worker}" in self._workers:
            self._next_worker += 1
        worker_id = f"w{self._next_worker}"
        self._next_worker += 1
        return worker_id

    def _launch_worker(self) -> None:
        worker_id = self._mint_worker_id()
        runtime_dir = None
        if self.telemetry is not None and self.telemetry.run_dir is not None:
            runtime_dir = str(self.telemetry.run_dir)
        config = WorkerConfig(worker_id=worker_id,
                              drain_pause=self.config.drain_pause,
                              chaos=self.config.chaos,
                              runtime_dir=runtime_dir)
        with self._tel_span("worker.launch", worker_id=worker_id):
            handle = self._transport.launch(self.spec, self.instrument,
                                            config)
        self._workers[worker_id] = _Worker(handle=handle,
                                           last_seen=handle.started)
        self.stats.workers_started += 1

    def _record_lifetime(self, worker_id: str, handle: WorkerHandle,
                         now: float) -> None:
        """Record the worker's *final* lifetime, exactly once.

        A plain assignment, deliberately: the old ``setdefault`` on the
        shutdown path could freeze a stale lifetime recorded when the
        same worker id was revoked earlier, so whichever of loss or
        shutdown happens last for an id is the one that counts.  Loss
        pops the worker from the registry, so each path runs at most
        once per id and the recorded value is always the final one.
        """
        self.stats.worker_lifetimes[worker_id] = now - handle.started

    def _lose_worker(self, worker_id: str, now: float,
                     reason: str = "lost") -> None:
        """Revoke the worker's lease, requeue its cells, drop the worker."""
        worker = self._workers.pop(worker_id)
        self.stats.workers_lost += 1
        self._record_lifetime(worker_id, worker.handle, now)
        self._tel_event("worker.exit", worker_id=worker_id, reason=reason,
                        lifetime_s=now - worker.handle.started)
        if worker.lease is not None:
            self.stats.revoked_leases += 1
            requeued = 0
            for key in sorted(worker.lease.outstanding):
                if key not in self.cells:
                    self.queue.append(self._cell_specs[key])
                    self.stats.requeued_cells += 1
                    requeued += 1
            self._tel_event("lease.revoked", worker_id=worker_id,
                            lease=worker.lease.lease_id, requeued=requeued)
        worker.handle.kill()
        worker.handle.channel.close()
        incomplete = len(self.cells) < len(self._cell_specs)
        if incomplete and self._failure is None:
            if self._restarts < self.config.max_worker_restarts:
                self._restarts += 1
                self._launch_worker()
            elif not self._workers:
                raise FabricError(
                    f"{self.spec.name}: every fabric worker died and the "
                    f"restart budget ({self.config.max_worker_restarts}) "
                    f"is spent with "
                    f"{len(self._cell_specs) - len(self.cells)} cells "
                    f"incomplete")

    # -- runtime telemetry (no-ops when the plane is off) -------------------

    def _tel_event(self, kind: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.event(kind, **fields)

    def _tel_span(self, kind: str, **fields):
        if self.telemetry is not None:
            return self.telemetry.span(kind, **fields)
        from repro.obs.runtime import _NullSpan
        return _NullSpan()

    # -- message handling ---------------------------------------------------

    def _assign(self, worker: _Worker) -> None:
        batch = []
        while self.queue and len(batch) < self.config.lease_size:
            cell = self.queue.popleft()
            if (cell["xi"], cell["si"]) in self.cells:
                continue  # completed by a revoked-but-live worker meanwhile
            batch.append(cell)
        if not batch:
            worker.handle.channel.send(
                Envelope(kind=DRAIN, sender=COORDINATOR))
            return
        lease = _Lease(lease_id=self._next_lease,
                       worker_id=worker.handle.worker_id,
                       outstanding={(c["xi"], c["si"]) for c in batch})
        self._next_lease += 1
        worker.lease = lease
        self.stats.leases += 1
        self._tel_event("lease.assign", lease=lease.lease_id,
                        worker_id=worker.handle.worker_id,
                        cells=len(batch))
        worker.handle.channel.send(Envelope(
            kind=ASSIGN_CELLS, sender=COORDINATOR,
            payload={"lease": lease.lease_id, "cells": batch}))

    def _on_result(self, worker: _Worker, env: Envelope) -> None:
        payload = env.payload
        key = (int(payload["xi"]), int(payload["si"]))
        if not payload.get("ok", False):
            # A failing cell is a sweep failure, with full coordinates --
            # record it, then drain the fleet before raising.  Exception
            # objects cannot cross the restricted unpickler, so the
            # worker's formatted traceback stands in as the cause.
            error = str(payload.get("error", "unknown error"))
            self._failure = cell_failure(self.spec, payload["x"],
                                         payload["seed"], error)
            self._failure.__cause__ = FabricError(
                str(payload.get("traceback") or error))
            return
        if worker.lease is not None:
            worker.lease.outstanding.discard(key)
            if not worker.lease.outstanding:
                worker.lease = None
        if key in self.cells:
            self.stats.duplicate_results += 1
            self._tel_event("cell.duplicate", xi=key[0], si=key[1],
                            worker_id=env.sender)
            return  # deterministic recompute of a re-leased cell
        cell = CellResult.from_payload(payload["cell"])
        self.cells[key] = cell
        wall = payload.get("wall_s")
        if isinstance(wall, (int, float)):
            self.cell_walls.append(float(wall))
        self._tel_event("cell.result", xi=key[0], si=key[1],
                        worker_id=env.sender, wall_s=wall)
        if self.cache is not None:
            digest = self._cell_specs[key]["digest"]
            self.cache.store(digest, cell, scenario=self.spec.name,
                             x=payload["x"], seed=payload["seed"])
        if self.on_cell is not None:
            self.on_cell(*key)

    def _handle(self, worker: _Worker, env: Envelope, now: float) -> None:
        silent_for = now - worker.last_seen
        worker.last_seen = now
        if env.kind == REQUEST_WORK:
            self.stats.work_requests += 1
            if self._failure is None:
                self._assign(worker)
            else:
                worker.handle.channel.send(
                    Envelope(kind=DRAIN, sender=COORDINATOR))
        elif env.kind == HEARTBEAT:
            self.stats.heartbeats += 1
            # Heartbeat latency: how long this worker had been silent
            # when the beat landed -- the lease-expiry clock's margin.
            self._tel_event("heartbeat", worker_id=env.sender,
                            latency_s=silent_for,
                            cells_done=env.payload.get("cells_done"))
            if self.telemetry is not None:
                self.telemetry.metrics.histogram(
                    "runtime.heartbeat_latency_seconds",
                    HEARTBEAT_BUCKETS).observe(silent_for)
        elif env.kind == CELL_RESULT:
            self._on_result(worker, env)
        else:
            raise FabricError(
                f"coordinator got unexpected {env.kind} from "
                f"{env.sender}")

    # -- main loop ----------------------------------------------------------

    def run(self) -> "dict[tuple[int, int], CellResult]":
        cells, pending = plan_cells(self.spec, self.seed_list, self.cache,
                                    instrument=self.instrument)
        self.cells.update(cells)
        for xi, si, x, seed, digest in pending:
            record = {"xi": xi, "si": si, "x": x, "seed": seed,
                      "digest": digest}
            self.queue.append(record)
            self._cell_specs[(xi, si)] = record
        total = len(self.spec.x_values) * len(self.seed_list)
        if self.telemetry is not None:
            self.telemetry.progress.cache_hits = len(self.cells)
            self._tel_event("run.start", total=total,
                            pending=len(pending), cache_hits=len(self.cells))
            self.telemetry.tick(len(self.cells), active_workers=0,
                                stragglers=0, force=True)
        if len(self.cells) >= total:
            return self.cells  # fully warm cache: no fleet needed

        self._transport = self._make_transport()
        try:
            for _ in range(min(self.config.workers, len(pending))):
                self._launch_worker()
            while len(self.cells) < total and self._failure is None:
                if not self._drive():
                    time.sleep(self.config.poll_interval)
            if self._failure is not None:
                raise self._failure
            return self.cells
        finally:
            self._shutdown_fleet()
            self.stats.handshakes_rejected = getattr(
                self._transport, "rejected", 0)
            self._transport.close()

    def _stragglers(self, now: float) -> int:
        """Workers silent for more than a quarter of the lease timeout --
        not yet revocable, but visibly behind the fleet's cadence."""
        cutoff = self.config.lease_timeout / 4.0
        return sum(1 for worker in self._workers.values()
                   if now - worker.last_seen > cutoff)

    def _drive(self) -> bool:
        """One poll round: pump messages, expire leases.  True if any
        message was handled (the caller sleeps otherwise)."""
        progressed = False
        now = self._clock()
        if self._transport is not None:  # boundary tests drive bare
            for channel, hello in self._transport.poll_peers():
                self._adopt_remote(channel, hello, now)
                progressed = True
        for worker_id in list(self._workers):
            worker = self._workers.get(worker_id)
            if worker is None:
                continue
            try:
                while worker.handle.channel.poll():
                    env = worker.handle.channel.recv(timeout=0.0)
                    if env is None:
                        break
                    self._handle(worker, env, now)
                    progressed = True
            except ChannelClosed:
                self._lose_worker(worker_id, now, reason="channel-closed")
                continue
            except FabricError:
                # A live channel speaking nonsense (unexpected kind,
                # malformed envelope): treat it exactly like a death --
                # revoke, requeue, replace -- instead of taking the
                # coordinator down with it.
                self._lose_worker(worker_id, now, reason="protocol-error")
                continue
            if not worker.handle.is_alive():
                self._lose_worker(worker_id, now, reason="dead")
            elif now - worker.last_seen > self.config.lease_timeout:
                self._tel_event("lease.expired", worker_id=worker_id,
                                silent_for=now - worker.last_seen,
                                timeout=self.config.lease_timeout)
                self._lose_worker(worker_id, now, reason="lease-expired")
        if self.telemetry is not None:
            self.telemetry.tick(len(self.cells),
                                active_workers=len(self._workers),
                                stragglers=self._stragglers(now))
        return progressed

    def _shutdown_fleet(self) -> None:
        now = self._clock()
        for worker_id, worker in sorted(self._workers.items()):
            try:
                worker.handle.channel.send(
                    Envelope(kind=SHUTDOWN, sender=COORDINATOR))
            except (ChannelClosed, OSError):
                pass
            self._record_lifetime(worker_id, worker.handle, now)
            self._tel_event("worker.exit", worker_id=worker_id,
                            reason="shutdown",
                            lifetime_s=now - worker.handle.started)
        for _worker_id, worker in sorted(self._workers.items()):
            worker.handle.join(2.0)
            worker.handle.kill()
            worker.handle.channel.close()
        self._workers.clear()


# -- public entry point -----------------------------------------------------


def execute_sweep_fabric(spec: ExperimentSpec,
                         seeds: "Sequence[int] | int | None" = None,
                         *,
                         workers: "int | None" = None,
                         transport: "str | None" = None,
                         config: "FabricConfig | None" = None,
                         cache_dir: "str | os.PathLike | None" = None,
                         on_point: "Callable[[float, int], None] | None" = None,
                         on_cell: "Callable[[int, int], None] | None" = None,
                         obs_session: "obs.ObsSession | None" = None,
                         runtime_dir: "str | os.PathLike | None" = None,
                         progress: bool = False,
                         progress_stream=None,
                         ) -> "tuple[SweepResult, SweepTiming, FabricStats]":
    """Run a sweep on the coordinator/worker fabric.

    The parallel path of :func:`~repro.experiments.executor.execute_sweep`,
    which calls it for ``jobs > 1`` and drops ``stats``.  The merged
    :class:`SweepResult` is **byte-identical** to the serial reference
    for any worker count, transport, injected worker loss, or cache
    state.  Returns ``(result, timing, stats)``; ``stats`` carries
    the fabric's operational counters (leases, requeues, heartbeats,
    worker lifetimes), which -- unlike the result -- legitimately vary
    run to run.

    ``on_cell(xi, si)`` fires after each newly computed cell has been
    stored (the resumability hook: everything already fired is on disk).

    ``runtime_dir`` switches on the wall-clock telemetry plane
    (:mod:`repro.obs.runtime`): coordinator and worker span files, the
    Chrome fleet timeline, periodic metric snapshots, and a Prometheus
    textfile land there.  ``progress`` prints a live ticker.  Neither
    affects the deterministic result, traces, or metrics in any way.
    """
    from repro.experiments.executor import _normalize_seeds

    if config is None:
        config = FabricConfig()
    if workers is not None:
        config = replace(config, workers=workers)
    if transport is not None:
        config = replace(config, transport=transport)
    seed_list = _normalize_seeds(spec, seeds)
    instrument = obs_session is not None
    total = len(spec.x_values) * len(seed_list)
    telemetry = RunTelemetry.create(runtime_dir, progress=progress,
                                    total_cells=total,
                                    progress_stream=progress_stream)
    cache = (CellCache(cache_dir, telemetry=telemetry)
             if cache_dir is not None else None)
    started = time.perf_counter()  # simlint: disable=SL001 (perf record of the host run, not simulated time)

    if on_point is not None:
        for x in spec.x_values:
            for seed in seed_list:
                on_point(x, seed)

    coordinator = Coordinator(spec, seed_list, config=config, cache=cache,
                              instrument=instrument, on_cell=on_cell,
                              telemetry=telemetry)
    try:
        cells = coordinator.run()
    except BaseException:
        if telemetry is not None:
            _record_fabric_metrics(telemetry.metrics, coordinator.stats)
            telemetry.finalize(state="failed")
        raise
    result = merge_cells(spec, seed_list, cells)
    if obs_session is not None:
        fold_obs(obs_session, spec, seed_list, cells)

    wall = time.perf_counter() - started  # simlint: disable=SL001 (perf record of the host run, not simulated time)
    computed_keys = sorted(coordinator._cell_specs)
    computed = [cells[key] for key in computed_keys]
    walls = wall_stats(coordinator.cell_walls)
    timing = SweepTiming(
        scenario=spec.name, jobs=config.workers, wall_time=wall,
        cells_total=total, cells_computed=len(computed_keys),
        cache_hits=total - len(computed_keys),
        iterations=sum(cell.iterations for cell in computed),
        engine_events=sum(cell.engine_events for cell in computed),
        x_points=len(spec.x_values), seeds=len(seed_list),
        cell_wall_p50=walls["p50"], cell_wall_p95=walls["p95"],
        cell_wall_max=walls["max"])
    if telemetry is not None:
        metrics = telemetry.metrics
        metrics.counter("runtime.cells_computed_total").inc(
            len(computed_keys))
        metrics.counter("runtime.cache_hits_total").inc(
            total - len(computed_keys))
        _record_fabric_metrics(metrics, coordinator.stats)
        telemetry.finalize(done=len(cells))
    return result, timing, coordinator.stats


#: Worker-lifetime histogram buckets (seconds of host wall time).
LIFETIME_BUCKETS = (0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)


def _record_fabric_metrics(metrics, stats: FabricStats) -> None:
    """Record the fabric's operational counters (``fabric.*``) into the
    runtime telemetry registry, once, at the end of the run.

    They are host-side and vary run to run, so they belong to the
    runtime plane -- never to the sim-time registry that byte-identity
    gates compare.
    """
    metrics.counter("fabric.leases_total").inc(stats.leases)
    metrics.counter("fabric.cells_requeued_total").inc(stats.requeued_cells)
    metrics.counter("fabric.leases_revoked_total").inc(stats.revoked_leases)
    metrics.counter("fabric.heartbeats_total").inc(stats.heartbeats)
    metrics.counter("fabric.work_requests_total").inc(stats.work_requests)
    metrics.counter("fabric.workers_started_total").inc(stats.workers_started)
    metrics.counter("fabric.workers_lost_total").inc(stats.workers_lost)
    metrics.counter("fabric.duplicate_results_total").inc(
        stats.duplicate_results)
    for worker_id in sorted(stats.worker_lifetimes):
        metrics.histogram("fabric.worker_lifetime_seconds",
                          LIFETIME_BUCKETS).observe(
            stats.worker_lifetimes[worker_id])
