"""Test oracles for the load package: slow, obviously-correct references.

Two references live here, outside production code:

* the **scalar kernel reference** -- pure-Python implementations of the
  availability-integral algebra of :mod:`repro.load.kernels`,
  recomputing the prefix sum with a plain left-to-right loop on every
  call.  ``test_kernels.py`` requires the compiled kernels to match them
  bit for bit.  They share the trace's extension helpers, so both paths
  materialize identical trace states;
* the **per-event hyperexponential extender** -- the original
  one-``append_segment``-per-event form of
  :meth:`repro.load.hyperexp.HyperexponentialLoadModel.build`.
  ``test_hyperexp.py`` requires the production bulk-append extender to
  produce bit-identical segments and leave the generator in the same
  state after every extension (same draws, same order).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

from repro.errors import LoadModelError
from repro.load.base import LoadTrace

# -- scalar kernel reference --------------------------------------------------


def _reference_cum(trace: LoadTrace) -> "list[float]":
    """The prefix sum, accumulated exactly like ``numpy.cumsum``."""
    times = trace._times
    values = trace._values
    cum = [0.0]
    acc = 0.0
    for i in range(len(values)):
        acc += (times[i + 1] - times[i]) / (1.0 + values[i])
        cum.append(acc)
    return cum


def _reference_integral_to(trace: LoadTrace, cum: "list[float]",
                           t: float) -> float:
    idx = bisect_right(trace._times, t) - 1
    if idx < 0 or idx >= len(trace._values):
        raise LoadModelError(
            f"time {t} is outside the materialized trace "
            f"[0, {trace._times[-1]}) -- extension failed")
    return cum[idx] + (t - trace._times[idx]) / (1.0 + trace._values[idx])


def integrate_availability_scalar(trace: LoadTrace, t0: float,
                                  t1: float) -> float:
    """Scalar reference for :meth:`LoadTrace.integrate_availability`."""
    if t0 < 0:
        raise LoadModelError(f"negative start time {t0}")
    if t1 < t0:
        raise LoadModelError(f"empty window [{t0}, {t1}]")
    if t1 == t0:
        return 0.0
    trace._ensure(t1)
    cum = _reference_cum(trace)
    return (_reference_integral_to(trace, cum, t1)
            - _reference_integral_to(trace, cum, t0))


def advance_work_scalar(trace: LoadTrace, t0: float,
                        demand: float) -> float:
    """Scalar reference for :meth:`LoadTrace.advance_work`."""
    if demand < 0:
        raise LoadModelError(f"negative compute demand {demand}")
    if demand == 0:
        return t0
    if t0 < 0:
        raise LoadModelError(f"negative start time {t0}")
    trace._ensure(t0)
    cum = _reference_cum(trace)
    target = _reference_integral_to(trace, cum, t0) + demand
    while cum[-1] < target:
        trace._extend_for_integral(target - cum[-1])
        cum = _reference_cum(trace)
    idx = bisect_left(cum, target) - 1
    if idx < 0:
        idx = 0
    finish = trace._times[idx] + (target - cum[idx]) * (1.0 + trace._values[idx])
    return finish if finish > t0 else t0


def value_at_scalar(trace: LoadTrace, t: float) -> int:
    """Scalar reference for :meth:`LoadTrace.value_at`."""
    if t < 0:
        raise LoadModelError(f"negative time {t}")
    trace._ensure(t)
    idx = bisect_right(trace._times, t) - 1
    if idx < 0 or idx >= len(trace._values):
        raise LoadModelError(
            f"time {t} is outside the materialized trace "
            f"[0, {trace._times[-1]}) -- extension failed")
    return trace._values[idx]


# -- per-event hyperexponential extender --------------------------------------


def reference_lifetime(model, rng) -> float:
    """One degenerate-hyperexponential lifetime draw: ``random()``, then
    ``exponential(mean_lifetime / branch_prob)`` on the live branch."""
    if rng.random() >= model.branch_prob:
        return 0.0
    return float(rng.exponential(model.mean_lifetime / model.branch_prob))


def reference_hyperexp_build(model, rng, horizon: float) -> LoadTrace:
    """``model.build(rng, horizon)`` with one ``append_segment`` per event
    (requires ``model.utilization > 0``)."""
    state = {
        "departures": [],            # min-heap of departure times
        "next_arrival": float(rng.exponential(1.0 / model.arrival_rate)),
    }

    def extend(trace: LoadTrace, new_horizon: float) -> None:
        departures = state["departures"]
        while trace.horizon < new_horizon:
            now = trace.horizon
            n_live = len(departures)
            next_departure = departures[0] if departures else float("inf")
            next_event = min(state["next_arrival"], next_departure)
            if next_event > new_horizon:
                trace.append_segment(new_horizon, n_live)
                return
            if next_event > now:
                trace.append_segment(next_event, n_live)
            if next_departure <= state["next_arrival"]:
                heapq.heappop(departures)
            else:
                arrival = state["next_arrival"]
                life = reference_lifetime(model, rng)
                if life > 0.0:
                    heapq.heappush(departures, arrival + life)
                state["next_arrival"] = arrival + float(
                    rng.exponential(1.0 / model.arrival_rate))

    trace = LoadTrace([0.0, 1e-12], [0], extender=extend)
    extend(trace, max(horizon, 1.0))
    return trace
