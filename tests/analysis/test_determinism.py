"""Determinism guarantees, enforced as regression tests.

* The committed tree stays ``simlint``-clean (the static half).
* The same root seed reproduces a swap-stack run byte-for-byte under the
  sanitizer (the runtime half) -- the paper's identical-environments
  property, observed on the real event stream rather than assumed.
"""

from pathlib import Path

import repro
from repro.analysis.demo import run_demo
from repro.analysis import lint_paths

PACKAGE_DIR = Path(repro.__file__).resolve().parent


def test_repo_is_simlint_clean():
    """Every hazard in src/repro is fixed or explicitly suppressed."""
    findings, files_scanned = lint_paths([PACKAGE_DIR])
    assert files_scanned > 50  # the walk really saw the package
    assert findings == [], "\n".join(f.format() for f in findings)


def test_same_seed_reproduces_event_log_byte_for_byte():
    first = run_demo(seed=11)
    second = run_demo(seed=11)

    log_a = "\n".join(first.event_log).encode()
    log_b = "\n".join(second.event_log).encode()
    assert log_a == log_b
    assert len(first.event_log) > 100  # a run of real size, not a stub

    assert first.makespan == second.makespan
    assert first.result.swap_count == second.result.swap_count
    assert first.result.startup_time == second.result.startup_time
    assert ([f.to_dict() for f in first.report.findings]
            == [f.to_dict() for f in second.report.findings])


def test_different_seeds_diverge():
    """The comparison above is meaningful: seeds do change the run."""
    a = run_demo(seed=11)
    b = run_demo(seed=12)
    assert "\n".join(a.event_log) != "\n".join(b.event_log)


def test_demo_run_is_sanitizer_error_free():
    outcome = run_demo(seed=0)
    assert outcome.report.error_count == 0
    assert outcome.report.events_processed > 100
    assert outcome.makespan > 0
