"""Tests for the distributed sweep fabric.

The load-bearing guarantees:

* a fabric run -- any transport, any worker count -- produces a
  ``SweepResult`` **byte-identical** to the ``jobs=1`` serial reference;
* worker loss mid-lease (crash, hard ``SIGKILL``, or silent hang) causes
  the leased cells to be re-queued and the run to finish, still
  byte-identical;
* computed cells hit the content-addressed cache as they arrive, so a
  run that loses its coordinator resumes from cache -- and a rerun after
  a completed-then-crashed coordinator computes **zero** cells;
* a cell failing inside a worker surfaces as an ``ExperimentError``
  carrying ``(scenario, x, seed)``, not a hang or a bare traceback.
"""

import dataclasses
import json

import pytest

from repro.app.iterative import ApplicationSpec
from repro.errors import ExperimentError, FabricError
from repro.experiments.executor import execute_sweep
from repro.experiments.fabric import (
    ASSIGN_CELLS,
    MESSAGE_KINDS,
    PROTOCOL_VERSION,
    REQUEST_WORK,
    Envelope,
    FabricConfig,
    WorkerChaos,
    execute_sweep_fabric,
)
from repro.experiments.scenarios import ExperimentSpec
from repro.load.base import ConstantLoadModel
from repro.platform.cluster import make_platform
from repro.strategies.nothing import NothingStrategy
from repro.strategies.swapstrat import SwapStrategy


def _tiny_build(x, seed):
    # Module-level so the spec pickles into socket/tcp workers.
    platform = make_platform(3, ConstantLoadModel(int(x)), seed=seed,
                             speed_range=(100e6, 200e6))
    app = ApplicationSpec(n_processes=2, iterations=3,
                          flops_per_iteration=2e8)
    return platform, [("nothing", app, NothingStrategy()),
                      ("swap-greedy", app, SwapStrategy())]


TINY = ExperimentSpec(name="tiny-fabric", title="tiny fabric sweep",
                      xlabel="n", x_values=(0.0, 1.0, 2.0),
                      build=_tiny_build, paper_claim="toy", default_seeds=2)


def _failing_build(x, seed):
    if x == 1.0:
        raise ValueError("deliberately poisoned cell")
    return _tiny_build(x, seed)


POISONED = ExperimentSpec(name="poisoned-fabric", title="poisoned sweep",
                          xlabel="n", x_values=(0.0, 1.0, 2.0),
                          build=_failing_build, paper_claim="toy",
                          default_seeds=1)


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


SERIAL = _canon(execute_sweep(TINY, seeds=2)[0])


# -- message protocol --------------------------------------------------------


def test_envelope_wire_round_trip():
    env = Envelope(kind=ASSIGN_CELLS, sender="coordinator",
                   payload={"lease": 3, "cells": []})
    again = Envelope.from_wire(env.to_wire())
    assert again == env
    assert again.version == PROTOCOL_VERSION


def test_envelope_rejects_unknown_kind():
    with pytest.raises(FabricError):
        Envelope(kind="GOSSIP", sender="w0")


def test_envelope_rejects_version_mismatch():
    wire = Envelope(kind=REQUEST_WORK, sender="w0").to_wire()
    wire["version"] = PROTOCOL_VERSION + 1
    with pytest.raises(FabricError, match="version"):
        Envelope.from_wire(wire)


def test_envelope_rejects_malformed_wire():
    with pytest.raises(FabricError, match="malformed"):
        Envelope.from_wire({"kind": REQUEST_WORK})


def test_message_kinds_cover_the_protocol():
    assert MESSAGE_KINDS == {"REQUEST_WORK", "ASSIGN_CELLS", "CELL_RESULT",
                             "HEARTBEAT", "DRAIN", "SHUTDOWN",
                             "HELLO", "WELCOME"}


def test_chaos_parse():
    chaos = WorkerChaos.parse("crash:0:2")
    assert chaos == WorkerChaos(mode="crash", worker="w0", after_cells=2)
    with pytest.raises(FabricError):
        WorkerChaos.parse("crash:0")
    with pytest.raises(FabricError):
        WorkerChaos.parse("crash:zero:2")
    with pytest.raises(FabricError):
        WorkerChaos.parse("explode:0:2")


def test_config_validation():
    with pytest.raises(FabricError):
        FabricConfig(workers=0)
    with pytest.raises(FabricError):
        FabricConfig(lease_size=0)
    with pytest.raises(FabricError):
        FabricConfig(transport="carrier-pigeon")
    with pytest.raises(FabricError, match="kill"):
        FabricConfig(transport="thread",
                     chaos=WorkerChaos(mode="kill", worker="w0",
                                       after_cells=0))
    with pytest.raises(FabricError):
        FabricConfig(transport="tcp", handshake_timeout=0.0)
    assert FabricConfig(transport="tcp").listen == "127.0.0.1:0"


# -- byte-identity across transports ----------------------------------------


@pytest.mark.parametrize("transport", ["thread", "socket", "tcp"])
def test_fabric_matches_serial_byte_identical(transport):
    result, timing, stats = execute_sweep_fabric(
        TINY, seeds=2, workers=3, transport=transport)
    assert _canon(result) == SERIAL
    assert timing.jobs == 3
    assert timing.cells_computed == 6
    assert stats.leases >= 1
    assert stats.workers_started == 3


def test_single_worker_fabric_matches_serial():
    result, _timing, _stats = execute_sweep_fabric(
        TINY, seeds=2, workers=1, transport="thread",
        config=FabricConfig(workers=1, transport="thread", lease_size=2))
    assert _canon(result) == SERIAL


# -- cache integration -------------------------------------------------------


def test_fabric_populates_and_reuses_cache(tmp_path):
    cold, cold_timing, _ = execute_sweep_fabric(
        TINY, seeds=2, workers=2, transport="thread", cache_dir=tmp_path)
    assert cold_timing.cells_computed == 6
    assert cold_timing.cache_hits == 0

    warm, warm_timing, warm_stats = execute_sweep_fabric(
        TINY, seeds=2, workers=2, transport="thread", cache_dir=tmp_path)
    assert warm_timing.cells_computed == 0
    assert warm_timing.cache_hits == 6
    assert warm_stats.workers_started == 0  # fully warm: no fleet launched
    assert _canon(cold) == _canon(warm) == SERIAL


def test_fabric_and_pool_share_one_cache(tmp_path):
    # jobs > 1 (socket workers), the thread fake and the serial path all
    # address the same cache entries.
    execute_sweep(TINY, seeds=2, jobs=2, cache_dir=tmp_path)
    _result, timing, _ = execute_sweep_fabric(
        TINY, seeds=2, workers=2, transport="thread", cache_dir=tmp_path)
    assert timing.cells_computed == 0  # same content addresses

    _result, serial_timing = execute_sweep(TINY, seeds=2, cache_dir=tmp_path)
    assert serial_timing.cells_computed == 0


def test_fleet_never_outnumbers_pending_cells():
    pair = dataclasses.replace(TINY, name="tiny-pair", x_values=(0.0,))
    _result, timing, stats = execute_sweep_fabric(
        pair, seeds=2, workers=4, transport="thread")
    assert timing.cells_computed == 2
    assert stats.workers_started == 2


# -- recovery semantics ------------------------------------------------------


def test_worker_crash_mid_lease_requeues_and_stays_identical():
    config = FabricConfig(
        workers=2, transport="thread", lease_size=2,
        chaos=WorkerChaos(mode="crash", worker="w0", after_cells=1))
    result, _timing, stats = execute_sweep_fabric(TINY, seeds=2,
                                                  config=config)
    assert _canon(result) == SERIAL
    assert stats.workers_lost == 1
    assert stats.requeued_cells >= 1
    assert stats.revoked_leases >= 1


def test_hard_process_kill_requeues_and_stays_identical():
    config = FabricConfig(
        workers=2, transport="socket", lease_size=2,
        chaos=WorkerChaos(mode="kill", worker="w0", after_cells=1))
    result, _timing, stats = execute_sweep_fabric(TINY, seeds=2,
                                                  config=config)
    assert _canon(result) == SERIAL
    assert stats.workers_lost == 1
    assert stats.requeued_cells >= 1


def test_hung_worker_caught_by_lease_expiry():
    config = FabricConfig(
        workers=2, transport="thread", lease_size=2, lease_timeout=0.5,
        chaos=WorkerChaos(mode="hang", worker="w0", after_cells=1))
    result, _timing, stats = execute_sweep_fabric(TINY, seeds=2,
                                                  config=config)
    assert _canon(result) == SERIAL
    assert stats.revoked_leases >= 1
    assert stats.requeued_cells >= 1


def test_losing_every_worker_raises_not_hangs():
    config = FabricConfig(
        workers=1, transport="thread", lease_size=1, max_worker_restarts=0,
        chaos=WorkerChaos(mode="crash", worker="w0", after_cells=0))
    with pytest.raises(FabricError, match="every fabric worker died"):
        execute_sweep_fabric(TINY, seeds=2, config=config)


def test_replacement_worker_finishes_after_fleet_attrition():
    # One worker, one restart: the replacement (w1, untargeted by the
    # chaos) must finish the whole grid alone.
    config = FabricConfig(
        workers=1, transport="thread", lease_size=1, max_worker_restarts=1,
        chaos=WorkerChaos(mode="crash", worker="w0", after_cells=2))
    result, _timing, stats = execute_sweep_fabric(TINY, seeds=2,
                                                  config=config)
    assert _canon(result) == SERIAL
    assert stats.workers_started == 2
    assert stats.workers_lost == 1


# -- coordinator death / resume-from-cache -----------------------------------


class _CoordinatorDied(Exception):
    pass


def test_coordinator_crash_mid_run_resumes_from_cache(tmp_path):
    seen = []

    def die_after_two(xi, si):
        seen.append((xi, si))
        if len(seen) == 2:
            raise _CoordinatorDied

    with pytest.raises(_CoordinatorDied):
        execute_sweep_fabric(TINY, seeds=2, workers=2, transport="thread",
                             cache_dir=tmp_path, on_cell=die_after_two)

    # Everything that fired on_cell was already on disk.
    result, timing, _ = execute_sweep_fabric(
        TINY, seeds=2, workers=2, transport="thread", cache_dir=tmp_path)
    assert timing.cache_hits >= 2
    assert timing.cells_computed <= 4
    assert _canon(result) == SERIAL


def test_rerun_after_coordinator_death_computes_zero_cells(tmp_path):
    # Coordinator dies after the last cell was stored but before the
    # merge: the result was "lost", yet the rerun is pure cache.
    def die_at_the_finish_line(xi, si):
        if len(list(tmp_path.rglob("*.json"))) >= 6:
            raise _CoordinatorDied

    with pytest.raises(_CoordinatorDied):
        execute_sweep_fabric(TINY, seeds=2, workers=2, transport="thread",
                             cache_dir=tmp_path,
                             on_cell=die_at_the_finish_line)

    result, timing, stats = execute_sweep_fabric(
        TINY, seeds=2, workers=2, transport="thread", cache_dir=tmp_path)
    assert timing.cells_computed == 0
    assert timing.cache_hits == 6
    assert stats.workers_started == 0
    assert _canon(result) == SERIAL


# -- failing cells -----------------------------------------------------------


def test_failing_cell_surfaces_with_coordinates():
    with pytest.raises(ExperimentError) as excinfo:
        execute_sweep_fabric(POISONED, seeds=1, workers=2,
                             transport="thread")
    message = str(excinfo.value)
    assert "poisoned-fabric" in message
    assert "x=1.0" in message
    assert "seed=0" in message
    assert "deliberately poisoned cell" in message


def test_failing_cell_on_process_transport():
    with pytest.raises(ExperimentError, match="poisoned-fabric"):
        execute_sweep_fabric(POISONED, seeds=1, workers=2,
                             transport="socket")


# -- observability -----------------------------------------------------------


def test_fabric_trace_matches_pool_trace_and_counts_fabric_metrics(tmp_path):
    from repro import obs

    serial_session = obs.ObsSession()
    execute_sweep(TINY, seeds=2, obs_session=serial_session)

    fabric_session = obs.ObsSession()
    run_dir = tmp_path / "rt"
    _result, _timing, stats = execute_sweep_fabric(
        TINY, seeds=2, workers=2, transport="thread",
        obs_session=fabric_session, runtime_dir=run_dir)

    # The simulation plane is merged in grid order: byte-identical, and
    # free of the fabric's host-side counters.
    assert fabric_session.trace.records == serial_session.trace.records
    assert fabric_session.metrics.to_json() == serial_session.metrics.to_json()

    # Those counters live in FabricStats and the runtime registry.
    assert stats.leases >= 1
    assert stats.workers_started == 2
    assert stats.heartbeats >= 1
    prom = (run_dir / "metrics.prom").read_text()
    assert f"repro_fabric_leases_total {float(stats.leases)}" in prom
    assert "repro_fabric_workers_started_total 2.0" in prom
    assert (f"repro_fabric_heartbeats_total {float(stats.heartbeats)}"
            in prom)
    assert "repro_fabric_worker_lifetime_seconds_count 2" in prom


def test_on_point_fires_in_grid_order():
    calls = []
    execute_sweep_fabric(TINY, seeds=2, workers=2, transport="thread",
                         on_point=lambda x, s: calls.append((x, s)))
    assert calls == [(x, s) for x in (0.0, 1.0, 2.0) for s in (0, 1)]
