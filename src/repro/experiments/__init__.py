"""Experiment harness: regenerates every figure of the paper.

* :mod:`repro.experiments.scenarios` -- parameter sets for Figs. 1-9 and
  the ablation sweeps, including the documented mapping from the paper's
  "environment dynamism" axis to ON/OFF chain parameters.
* :mod:`repro.experiments.runner` -- replicated, seeded sweep execution.
* :mod:`repro.experiments.executor` -- parallel cell execution and the
  content-addressed cell cache (``run_sweep(..., jobs=N, cache_dir=...)``).
* :mod:`repro.experiments.fabric` -- the coordinator/worker sweep fabric
  (typed messages, leases, heartbeats; ``execute_sweep_fabric``).
* :mod:`repro.experiments.report` -- tables and ASCII charts.
* :mod:`repro.experiments.cli` -- ``python -m repro.experiments fig4``.
"""

from repro.experiments.executor import (
    CellCache,
    SweepTiming,
    execute_sweep,
)
from repro.experiments.fabric import (
    FabricConfig,
    FabricStats,
    WorkerChaos,
    execute_sweep_fabric,
)
from repro.experiments.runner import SweepResult, run_sweep
from repro.experiments.scenarios import (
    ALL_SCENARIOS,
    OnOffDynamism,
    get_scenario,
)
from repro.experiments.report import ascii_chart, format_table

__all__ = [
    "ALL_SCENARIOS",
    "CellCache",
    "FabricConfig",
    "FabricStats",
    "OnOffDynamism",
    "SweepResult",
    "SweepTiming",
    "WorkerChaos",
    "ascii_chart",
    "execute_sweep",
    "execute_sweep_fabric",
    "format_table",
    "get_scenario",
    "run_sweep",
]
