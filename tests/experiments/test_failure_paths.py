"""Regression tests for the executor's failure paths.

Three bugfixes are locked in here:

* a cell raising inside a fabric worker (``jobs > 1``) surfaces as an
  :class:`ExperimentError` carrying ``(scenario, x, seed)`` -- not a bare
  exception with no context -- whose cause holds the worker's formatted
  traceback (exception objects cannot cross the restricted unpickler);
* ``append_bench_record`` writes atomically (tmp + ``os.replace``) so
  concurrent sweep invocations can never leave a half-written perf file,
  and an unparseable existing file is preserved (``.corrupt``) rather
  than silently clobbered or crashed on;
* every flavor of cache-entry corruption -- empty file, truncated JSON,
  binary garbage, digest mismatch, wrong ``CACHE_FORMAT``, mismatched
  payload structure -- is a silent recompute, never an exception.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.app.iterative import ApplicationSpec
from repro.errors import ExperimentError
from repro.experiments.executor import (
    CACHE_FORMAT,
    CellCache,
    append_bench_record,
    cell_digest,
    compute_cell,
    execute_sweep,
)
from repro.experiments.scenarios import ExperimentSpec
from repro.load.base import ConstantLoadModel
from repro.platform.cluster import make_platform
from repro.strategies.nothing import NothingStrategy


def _ok_build(x, seed):
    platform = make_platform(2, ConstantLoadModel(int(x)), seed=seed,
                             speed_range=(100e6, 200e6))
    app = ApplicationSpec(n_processes=2, iterations=2,
                          flops_per_iteration=1e8)
    return platform, [("nothing", app, NothingStrategy())]


def _failing_build(x, seed):
    # Module-level so it pickles into fabric workers; poisons exactly one x.
    if x == 1.0:
        raise ValueError("spec builder exploded")
    return _ok_build(x, seed)


OK = ExperimentSpec(name="ok-exec", title="ok", xlabel="n",
                    x_values=(0.0, 1.0, 2.0), build=_ok_build,
                    paper_claim="toy", default_seeds=1)

POISONED = ExperimentSpec(name="poisoned-exec", title="poisoned", xlabel="n",
                          x_values=(0.0, 1.0, 2.0), build=_failing_build,
                          paper_claim="toy", default_seeds=1)


# -- worker failures carry cell context --------------------------------------


def test_pool_worker_failure_carries_cell_context():
    with pytest.raises(ExperimentError) as excinfo:
        execute_sweep(POISONED, seeds=2, jobs=3)
    message = str(excinfo.value)
    assert "poisoned-exec" in message
    assert "x=1.0" in message
    assert "seed=" in message
    assert "spec builder exploded" in message
    # The worker's traceback stays reachable for debugging: the type,
    # the message, and the raising frame.
    cause = str(excinfo.value.__cause__)
    assert "ValueError" in cause
    assert "spec builder exploded" in cause
    assert "_failing_build" in cause


def test_serial_failure_carries_cell_context():
    with pytest.raises(ExperimentError) as excinfo:
        execute_sweep(POISONED, seeds=1, jobs=1)
    assert "poisoned-exec" in str(excinfo.value)
    assert "x=1.0" in str(excinfo.value)
    assert "seed=0" in str(excinfo.value)
    # In-process, the original exception object itself is the cause.
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_pool_failure_does_not_poison_cache_with_partial_grid(tmp_path):
    with pytest.raises(ExperimentError):
        execute_sweep(POISONED, seeds=1, jobs=2, cache_dir=tmp_path)
    # Whatever healthy cells landed in the cache before the failure are
    # legitimate: a fixed spec (different fingerprint) ignores them, and
    # re-running the broken spec fails again rather than trusting them.
    with pytest.raises(ExperimentError) as excinfo:
        execute_sweep(POISONED, seeds=1, jobs=2, cache_dir=tmp_path)
    cause = str(excinfo.value.__cause__)
    assert "ValueError" in cause
    assert "spec builder exploded" in cause
    assert "_failing_build" in cause


# -- bench record atomicity ---------------------------------------------------


def _timing(scenario="bench-test", jobs=1):
    _result, timing = execute_sweep(OK, seeds=1, jobs=jobs)
    return timing


def test_bench_write_is_atomic_no_tmp_left_behind(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    append_bench_record(path, _timing())
    leftovers = [p for p in tmp_path.iterdir() if p.name != path.name]
    assert leftovers == []
    assert json.loads(path.read_text())["version"] == 5


def test_corrupt_bench_file_preserved_not_clobbered(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    path.write_text("{ definitely not json")
    doc = append_bench_record(path, _timing())
    assert len(doc["records"]) == 1
    corrupt = tmp_path / "BENCH_sweeps.json.corrupt"
    assert corrupt.read_text() == "{ definitely not json"
    assert json.loads(path.read_text()) == doc


def test_bench_reader_ignores_legacy_mode_later_record_wins(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    legacy = {"version": 4, "tool": "sweep-bench",
              "records": [{"scenario": "fig7", "mode": "fabric", "jobs": 4,
                           "wall_time_s": 1.0},
                          {"scenario": "fig7", "mode": "pool", "jobs": 4,
                           "wall_time_s": 2.0},
                          {"scenario": "fig7", "mode": "pool", "jobs": 1,
                           "wall_time_s": 3.0}]}
    path.write_text(json.dumps(legacy))
    doc = append_bench_record(path, _timing())
    assert doc["version"] == 5
    assert all("mode" not in record for record in doc["records"])
    keys = [(r["scenario"], r["jobs"]) for r in doc["records"]]
    assert keys == [("fig7", 1), ("fig7", 4), ("ok-exec", 1)]
    # (fig7, 4) collided: the later legacy record won.
    assert doc["records"][1]["wall_time_s"] == 2.0


def test_committed_bench_file_has_the_current_shape(tmp_path):
    committed = Path(__file__).resolve().parents[2] / "BENCH_sweeps.json"
    doc = json.loads(committed.read_text())
    assert doc["version"] == 5
    assert doc["tool"] == "sweep-bench"
    keys = [(r["scenario"], r["jobs"]) for r in doc["records"]]
    assert keys == sorted(set(keys))  # one record per key, sorted
    for record in doc["records"]:
        assert "mode" not in record
        assert record["cells_total"] == (record["cells_computed"]
                                         + record["cache_hits"])
        assert record["wall_time_s"] > 0
    # Folding a fresh record into it keeps every committed key.
    path = tmp_path / "BENCH_sweeps.json"
    path.write_text(committed.read_text())
    folded = append_bench_record(path, _timing())
    assert set(keys) < {(r["scenario"], r["jobs"]) for r in folded["records"]}


def test_concurrent_bench_appends_never_corrupt_the_file(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    timing = _timing()
    import dataclasses

    def hammer(worker):
        for i in range(10):
            record = dataclasses.replace(
                timing, scenario=f"hammer-{worker}", jobs=i % 3 + 1)
            append_bench_record(path, record)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Interleaved read-modify-write cycles may drop records, but the
    # file itself must always parse: every observable state is some
    # complete, valid document (tmp + os.replace).
    doc = json.loads(path.read_text())
    assert doc["version"] == 5
    assert len(doc["records"]) >= 1
    assert not list(tmp_path.glob("*.tmp*"))


# -- cache corruption corpus --------------------------------------------------


def _store_one(tmp_path):
    cell = compute_cell(OK, 0.0, seed=0)
    cache = CellCache(tmp_path)
    digest = cell_digest(OK.name, OK.fingerprint(), 0.0, 0)
    cache.store(digest, cell, scenario=OK.name, x=0.0, seed=0)
    return cache, digest, cache.path_for(digest)


def _valid_payload(path):
    return json.loads(path.read_text())


CORRUPTIONS = {
    "empty-file": lambda path: "",
    "truncated-json": lambda path: path.read_text()[: len(path.read_text()) // 2],
    "binary-garbage": lambda path: "\x00\xff\x01 not even text",
    "json-scalar": lambda path: "42",
    "json-array": lambda path: "[1, 2, 3]",
    "digest-mismatch": lambda path: json.dumps(
        {**_valid_payload(path), "digest": "0" * 64}),
    "wrong-format": lambda path: json.dumps(
        {**_valid_payload(path), "format": CACHE_FORMAT + 1}),
    "missing-cell-key": lambda path: json.dumps(
        {k: v for k, v in _valid_payload(path).items() if k != "cell"}),
    "label-series-mismatch": lambda path: json.dumps(
        {**_valid_payload(path),
         "cell": {**_valid_payload(path)["cell"],
                  "labels": ["somebody-else"]}}),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_cache_entry_is_a_silent_miss(tmp_path, corruption):
    cache, digest, path = _store_one(tmp_path)
    path.write_text(CORRUPTIONS[corruption](path))
    assert cache.load(digest) is None  # never an exception


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_cache_entry_is_recomputed_in_a_sweep(tmp_path, corruption):
    _result, cold = execute_sweep(OK, seeds=1, cache_dir=tmp_path)
    assert cold.cells_computed == 3
    victim = sorted(tmp_path.rglob("*.json"))[0]
    victim.write_text(CORRUPTIONS[corruption](victim))

    result, timing = execute_sweep(OK, seeds=1, cache_dir=tmp_path)
    assert timing.cells_computed == 1
    assert timing.cache_hits == 2
    reference = execute_sweep(OK, seeds=1)[0]
    assert (json.dumps(result.to_dict(), sort_keys=True)
            == json.dumps(reference.to_dict(), sort_keys=True))
