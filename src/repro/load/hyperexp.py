"""Degenerate hyperexponential CPU load (paper Section 6, Fig. 3).

Competing processes arrive at each host as a Poisson stream (the paper's
"process arrival adheres to a uniform random distribution") and live for a
time drawn from a *degenerate hyperexponential* distribution, following
Eager, Lazowska and Zahorjan [14]: with probability ``branch_prob = a``
the lifetime is exponential with mean ``mean_lifetime / a``, otherwise it
is zero (a process too short to matter).  This keeps the overall mean at
``mean_lifetime`` while making the squared coefficient of variation
``CV^2 = 2/a - 1 > 1`` -- the heavy-tailed process-lifetime behaviour the
paper wants ("this model should better predict the heavy-tailed nature of
the process lifetime distribution").

Unlike the ON/OFF model, several competing processes may overlap, so
``n(t)`` can exceed 1 (paper: "we allow multiple simultaneous competing
processes per processor").
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.errors import LoadModelError
from repro.load.base import LoadModel, LoadTrace


def _close_segment(ends: "list[float]", counts: "list[int]", end: float,
                   n_live: int) -> None:
    """End the open segment at ``end`` with ``n_live`` processes, merging
    into the previous pending segment when its count is the same (a pop
    and a push at one instant leave the count unchanged)."""
    if counts and counts[-1] == n_live:
        ends[-1] = end
    else:
        ends.append(end)
        counts.append(n_live)


class HyperexponentialLoadModel(LoadModel):
    """Poisson arrivals + degenerate hyperexponential lifetimes.

    Parameters
    ----------
    mean_lifetime:
        Mean competing-process lifetime in seconds (the x-axis of the
        paper's Fig. 9: "environment dynamism [mean process lifetime]").
    utilization:
        Offered load ``rho = arrival_rate * mean_lifetime``; the arrival
        rate is derived so that the long-run expected number of competing
        processes is ``rho`` regardless of the swept lifetime.
    branch_prob:
        The ``a`` of the degenerate hyperexponential (0 < a <= 1);
        ``a = 1`` degenerates to a plain exponential.
    """

    def __init__(self, mean_lifetime: float, utilization: float = 0.4,
                 branch_prob: float = 0.1) -> None:
        if mean_lifetime <= 0:
            raise LoadModelError(f"mean_lifetime must be > 0, got {mean_lifetime}")
        if utilization < 0:
            raise LoadModelError(f"utilization must be >= 0, got {utilization}")
        if not 0.0 < branch_prob <= 1.0:
            raise LoadModelError(f"branch_prob must be in (0, 1], got {branch_prob}")
        self.mean_lifetime = float(mean_lifetime)
        self.utilization = float(utilization)
        self.branch_prob = float(branch_prob)

    @property
    def arrival_rate(self) -> float:
        """Arrivals per second: ``utilization / mean_lifetime``."""
        return self.utilization / self.mean_lifetime

    @property
    def cv_squared(self) -> float:
        """Squared coefficient of variation of the lifetime: ``2/a - 1``."""
        return 2.0 / self.branch_prob - 1.0

    def build(self, rng, horizon: float) -> LoadTrace:
        if self.utilization == 0.0:
            def extend_idle(trace: LoadTrace, new_horizon: float) -> None:
                trace.append_segment(new_horizon, 0)
            return LoadTrace([0.0, max(horizon, 1.0)], [0], extender=extend_idle)

        # Loop constants, equal to the per-arrival expressions
        # ``mean_lifetime / branch_prob`` and ``1.0 / arrival_rate``.
        branch_prob = self.branch_prob
        life_scale = self.mean_lifetime / self.branch_prob
        gap_scale = 1.0 / self.arrival_rate
        random = rng.random
        exponential = rng.exponential
        # State shared by successive extend() calls: the departure-time
        # min-heap of live processes and the next arrival instant.
        departures: "list[float]" = []
        next_arrival = exponential(gap_scale)

        def extend(trace: LoadTrace, new_horizon: float) -> None:
            # Events are consumed in time order (a departure first on a
            # tie) up to and including the first one at ``new_horizon``;
            # an arrival draws ``random()`` for the lifetime branch,
            # ``exponential`` for a live lifetime, then ``exponential``
            # for the next gap.  A segment ends only where the count
            # changes (a push or a pop) and at ``new_horizon``; the run
            # commits in one mutation.
            nonlocal next_arrival
            new_horizon = float(new_horizon)
            arrival = next_arrival
            now = last = trace.horizon
            ends: "list[float]" = []
            counts: "list[int]" = []
            # The departures heap orders *lifetime departures* local to
            # one load source; it never touches the event loop.
            while last < new_horizon:
                if departures and departures[0] <= arrival:
                    event = departures[0]
                    if event > new_horizon:
                        break
                    if event > now:
                        _close_segment(ends, counts, event, len(departures))
                        now = event
                    heappop(departures)  # simlint: disable=SL003
                    last = event
                else:
                    if arrival > new_horizon:
                        break
                    if random() < branch_prob:
                        life = exponential(life_scale)
                        if life > 0.0:
                            if arrival > now:
                                _close_segment(ends, counts, arrival,
                                               len(departures))
                                now = arrival
                            heappush(departures, arrival + life)  # simlint: disable=SL003
                    last = arrival
                    arrival = arrival + exponential(gap_scale)
            if new_horizon > now:
                _close_segment(ends, counts, new_horizon, len(departures))
            next_arrival = arrival
            trace._append_run(ends, counts)

        trace = LoadTrace([0.0, 1e-12], [0], extender=extend)
        extend(trace, max(horizon, 1.0))
        return trace

    def describe(self) -> str:
        return (f"hyperexp(mean_lifetime={self.mean_lifetime:g}s, "
                f"rho={self.utilization:g}, a={self.branch_prob:g})")
