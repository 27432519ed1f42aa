"""Wrapper coverage: the traced run sees every call and changes nothing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import json
import sys

import pytest

import run
import workloads
from layers import KERNEL_FUNCTIONS, Layers
from spans import Tracer

from repro import obs
from repro.core.decision import decide_swaps
from repro.experiments.executor import (compute_cell, execute_sweep,
                                        merge_cells, plan_cells)
from repro.experiments.scenarios import get_scenario
from repro.simkernel.plan import lower

# Every module that binds a wrapped function by name must be patched.
IMPORTERS = {
    decide_swaps: {"repro.strategies.swapstrat", "repro.strategies.spawnswap",
                   "repro.contracts.strategy", "repro.swap.manager"},
    lower: {"repro.strategies.cr", "repro.strategies.dlb",
            "repro.strategies.nothing", "repro.strategies.swapstrat"},
    compute_cell: {"repro.experiments.fabric.core"},
    plan_cells: {"repro.experiments.fabric.core"},
    merge_cells: {"repro.experiments.fabric.core"},
}


def _bindings_of(fn):
    return {name for name, module in sys.modules.items()
            if module is not None and name.startswith("repro")
            and any(value is fn for value in vars(module).values())}


def test_named_importers_are_patched_and_restored():
    originals = list(IMPORTERS) + list(KERNEL_FUNCTIONS)
    with Layers(Tracer()) as layers:
        for fn, importers in IMPORTERS.items():
            patched = {b.rsplit(".", 1)[0]
                       for b in layers.bindings[fn.__qualname__]}
            assert importers <= patched, fn.__qualname__
        for fn in originals:
            assert _bindings_of(fn) == set(), fn.__qualname__
    for fn in originals:
        assert _bindings_of(fn), fn.__qualname__


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.spans[0][1:3] = [0.0, 1.0]
    tracer.spans[1][1:3] = [0.25, 0.5]
    summary = tracer.summary()
    assert summary["outer"] == {"total": 1.0, "self": 0.75, "calls": 1}
    assert summary["inner"] == {"total": 0.25, "self": 0.25, "calls": 1}


@pytest.fixture(scope="module")
def fig7_traced():
    sweep = workloads.SerialSweep("fig7", offset=0, n_seeds=2)
    sweep.reference()
    tracer = Tracer()
    with Layers(tracer) as layers:
        rep = sweep.repeat(layers)
    return sweep, tracer, rep


def test_kernel_queries_match_engine_events(fig7_traced):
    _sweep, tracer, rep = fig7_traced
    assert tracer.counts["kernels.queries"] == rep.exact["engine_events"] > 0
    assert tracer.counts["strategies.iterations"] == rep.exact["iterations"]


def test_decision_calls_match_sim_plane_counters(fig7_traced):
    _sweep, tracer, _rep = fig7_traced
    session = obs.ObsSession()
    execute_sweep(get_scenario("fig7"), seeds=range(2), obs_session=session)
    epochs = session.metrics.to_dict()["counters"]["decision.epochs_total"]
    assert tracer.counts["decision.calls"] == epochs > 0


def test_traced_sweep_digest_matches_untraced(fig7_traced):
    sweep, tracer, rep = fig7_traced
    assert rep.digest == sweep.ref
    assert sweep.repeat().digest == sweep.ref
    summary = tracer.summary()
    for name in ("cell", "platform.build", "load.build", "kernels",
                 "plan.lower", "decision", "strategies.swap"):
        assert summary[name]["calls"] > 0, name


def test_traced_des_job_matches_untraced():
    des = workloads.DesSwap(offset=0, n_jobs=1)
    des.reference()
    tracer = Tracer()
    with Layers(tracer) as layers:
        rep = des.repeat(layers)
    assert rep.digest == des.ref
    for mine, theirs in des.cross_checks:
        assert tracer.counts[mine] == rep.exact[theirs] > 0


def test_traced_fabric_resume_matches_serial(tmp_path):
    fabric = workloads.FabricResume(offset=0, workdir=tmp_path, n_seeds=4)
    fabric.reference()
    tracer = Tracer()
    with Layers(tracer, compute=False) as layers:
        rep = fabric.repeat(layers)
    assert rep.digest == fabric.ref
    for mine, theirs in fabric.cross_checks:
        assert tracer.counts[mine] == rep.exact[theirs] > 0
    assert 0 < rep.layer["fabric.busy_frac"] <= 1


def test_workload_names_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {entry["name"] for entry in declared["workloads"]}
    assert names == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_des_pauses_fall_outside_the_job_walls():
    des = workloads.DesSwap(offset=0, n_jobs=3)
    des.reference()
    pauses = []
    rep = des.repeat(pause=lambda: pauses.append(1))
    assert len(pauses) == 2  # between jobs only
    assert rep.wall == sum(rep.cell_walls.values())
    assert rep.digest == des.ref


def test_host_speed_kernel_is_independent_of_the_program():
    import hostspeed

    assert not any(name.startswith("repro")
                   for name in hostspeed.kernel.__code__.co_names)
    host = hostspeed.HostSpeed()
    host.pause()  # within PAUSE_GAP_S of the first sample: no new one
    assert len(host.samples) == 1
    host.sample()
    assert len(host.samples) == 2 and host.scale() > 0
