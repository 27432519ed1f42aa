"""Tests for the experiments command-line interface."""

import json

import pytest

from repro.experiments.cli import build_parser, main

#: Keep CLI invocations from writing .sweep-cache/ or BENCH_sweeps.json
#: into the repository while tests run.
QUIET = ["--no-cache", "--no-bench"]


def test_list_scenarios(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig4", "fig9", "ablation-payback"):
        assert name in out


def test_no_scenario_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower() or True


def test_unknown_scenario_raises():
    from repro.errors import ExperimentError
    with pytest.raises(ExperimentError):
        main(["fig99"])


def test_run_small_scenario(capsys):
    assert main(["fig4", "--seeds", "1", *QUIET]) == 0
    out = capsys.readouterr().out
    assert "nothing" in out and "swap-greedy" in out
    assert "seeds" in out
    assert "cells computed" in out


def test_chart_and_events_flags(capsys):
    assert main(["fig4", "--seeds", "1", "--chart", "--events", *QUIET]) == 0
    out = capsys.readouterr().out
    assert "o nothing" in out          # chart legend
    assert "[" in out                  # event-count cells


def test_custom_baseline(capsys):
    assert main(["fig4", "--seeds", "1", "--baseline", "dlb", *QUIET]) == 0
    out = capsys.readouterr().out
    assert "of dlb" in out


def test_missing_baseline_degrades_gracefully(capsys):
    assert main(["fig4", "--seeds", "1", "--baseline", "ghost", *QUIET]) == 0


def test_parser_defaults():
    args = build_parser().parse_args(["fig7"])
    assert args.scenario == "fig7"
    assert args.seeds is None
    assert args.baseline == "nothing"
    assert args.jobs == 1
    assert args.cache_dir == ".sweep-cache"
    assert not args.no_cache
    assert args.bench_json == "BENCH_sweeps.json"
    assert not args.no_bench


def test_jobs_flag_runs_parallel(capsys):
    assert main(["fig4", "--seeds", "1", "--jobs", "2", *QUIET]) == 0
    out = capsys.readouterr().out
    assert "2 job(s)" in out
    assert "[fabric: 2 socket worker(s)" in out  # --jobs N is the fabric


def test_parser_has_no_backend_switches():
    args = build_parser().parse_args(["fig7"])
    assert args.fabric_transport is None
    for gone in ("--fabric", "--workers"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", gone])


@pytest.mark.parametrize("flag", [["--fabric-chaos", "kill:0:1"],
                                  ["--fabric-token", "s3cret"],
                                  ["--listen", "127.0.0.1:0"]])
def test_fabric_flags_on_a_serial_run_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fig4", "--seeds", "1", *flag, *QUIET])
    assert excinfo.value.code == 2
    assert f"{flag[0]} needs a fabric run" in capsys.readouterr().err


def test_fabric_transport_with_one_job_runs_on_the_fabric(capsys):
    assert main(["fig4", "--seeds", "1", "--fabric-transport", "socket",
                 *QUIET]) == 0
    out = capsys.readouterr().out
    assert "[fabric: 1 socket worker(s)" in out


def test_cache_and_bench_threading(tmp_path, capsys):
    cache = tmp_path / "cache"
    bench = tmp_path / "bench.json"
    argv = ["fig4", "--seeds", "1", "--cache-dir", str(cache),
            "--bench-json", str(bench)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "10/10 cells computed" in cold
    record = json.loads(bench.read_text())["records"][0]
    assert record["scenario"] == "fig4"
    assert record["cells_computed"] == 10
    for key in ("wall_time_s", "cache_hits", "events_per_sec"):
        assert key in record

    assert main(argv) == 0  # warm rerun: every cell from the cache
    warm = capsys.readouterr().out
    assert "0/10 cells computed" in warm
    assert "10 cache hits" in warm
    assert json.loads(bench.read_text())["records"][0]["cache_hits"] == 10


def test_regenerate_all_writes_artifacts(tmp_path, capsys):
    outdir = tmp_path / "figs"
    assert main(["all", "--seeds", "1", "--outdir", str(outdir),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "ext-contracts" in out
    for suffix in (".txt", ".svg", ".csv", ".json"):
        assert (outdir / f"fig4{suffix}").exists()
    # The payback ablation has an infinite x value: no SVG, other files yes.
    assert (outdir / "ablation-payback.txt").exists()
    assert not (outdir / "ablation-payback.svg").exists()
    # One perf record per scenario, inside the output directory.
    records = json.loads((outdir / "BENCH_sweeps.json").read_text())["records"]
    assert any(r["scenario"] == "fig4" for r in records)
