"""Shared helpers for the figure-regenerating benchmarks.

Every benchmark (a) re-runs the full sweep behind one of the paper's
figures, (b) prints the regenerated series next to the paper's claim, and
(c) asserts the claim's *shape* (who wins, by roughly what factor, where
the crossovers fall).  Timings come from pytest-benchmark; since one
sweep is already a replicated experiment, each bench runs a single round.
Repeatable end-to-end performance numbers come from ``perfbench/``.
"""

from __future__ import annotations

import pytest

from repro.experiments.executor import execute_sweep
from repro.experiments.report import ascii_chart, format_table, shape_summary
from repro.experiments.runner import SweepResult
from repro.experiments.scenarios import get_scenario


@pytest.fixture
def run_figure(benchmark, capsys):
    """Run one scenario under the benchmark timer and print its report."""

    def runner(name: str, seeds: int | None = None, chart: bool = False,
               jobs: int = 1, cache_dir=None) -> SweepResult:
        spec = get_scenario(name)

        def once() -> SweepResult:
            result, _timing = execute_sweep(spec, seeds=seeds, jobs=jobs,
                                            cache_dir=cache_dir)
            return result

        result = benchmark.pedantic(once, rounds=1, iterations=1)
        with capsys.disabled():
            print()
            print("=" * 78)
            print(format_table(result, baseline="nothing"
                               if "nothing" in result.series else None))
            if "nothing" in result.series:
                print()
                print(shape_summary(result, baseline="nothing"))
            if chart:
                print()
                print(ascii_chart(result))
            print("=" * 78)
        return result

    return runner


def middle_band(result: SweepResult, lo: float = 0.25,
                hi: float = 0.8) -> "list[int]":
    """Indices of x values inside the moderately-dynamic band."""
    return [i for i, x in enumerate(result.x_values) if lo <= x <= hi]
