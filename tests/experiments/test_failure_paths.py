"""Regression tests for the executor's failure paths.

Two bugfixes are locked in here:

* a cell raising inside a fabric worker (``jobs > 1``) surfaces as an
  :class:`ExperimentError` carrying ``(scenario, x, seed)`` -- not a bare
  exception with no context -- whose cause holds the worker's formatted
  traceback (exception objects cannot cross the restricted unpickler);
* every flavor of cache-entry corruption -- empty file, truncated JSON,
  binary garbage, digest mismatch, wrong ``CACHE_FORMAT``, mismatched
  payload structure -- is a silent recompute, never an exception.
"""

import json

import pytest

from repro.app.iterative import ApplicationSpec
from repro.errors import ExperimentError
from repro.experiments.executor import (
    CACHE_FORMAT,
    CellCache,
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
