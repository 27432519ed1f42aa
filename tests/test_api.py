"""Tests for the package's top-level surface."""

import repro


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quick_comparison_shape():
    table = repro.quick_comparison(load_probability=0.1, seed=2,
                                   n_hosts=8, n_processes=2, iterations=5)
    assert set(table) == {"nothing", "swap-greedy", "dlb", "cr"}
    assert all(v > 0 for v in table.values())


def test_quick_comparison_deterministic():
    a = repro.quick_comparison(seed=5, n_hosts=8, n_processes=2, iterations=5)
    b = repro.quick_comparison(seed=5, n_hosts=8, n_processes=2, iterations=5)
    assert a == b


def test_error_hierarchy():
    from repro import errors

    subclasses = [errors.SimulationError, errors.PlatformError,
                  errors.LoadModelError, errors.MpiError, errors.SwapError,
                  errors.PolicyError, errors.StrategyError,
                  errors.ExperimentError]
    for exc in subclasses:
        assert issubclass(exc, errors.ReproError)
    assert issubclass(errors.CommunicatorError, errors.MpiError)
    assert issubclass(errors.SchedulingError, errors.SimulationError)


def test_import_path_skips_network_stdlib():
    """Importing the package and the executor loads none of
    ``urllib.request``, ``http.client`` and ``email`` (``xml.sax`` pulls
    in all three), which would only lengthen every worker's start-up."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, repro, repro.experiments.executor; "
             "print(sorted(m for m in ('urllib.request', 'http.client', "
             "'email') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
