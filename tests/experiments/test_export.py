"""Tests for sweep-result export (JSON / CSV) and the CLI flags."""

import csv
import json

from repro.experiments.cli import main
from repro.experiments.runner import SweepResult, run_sweep
from tests.experiments.test_runner import tiny_spec


def test_to_dict_roundtrip():
    result = run_sweep(tiny_spec(), seeds=2)
    clone = SweepResult.from_dict(result.to_dict())
    assert clone.name == result.name
    assert clone.x_values == result.x_values
    assert clone.mean_of("nothing") == result.mean_of("nothing")
    assert clone.series["swap-greedy"].raw == result.series["swap-greedy"].raw


def test_to_json_file(tmp_path):
    result = run_sweep(tiny_spec(), seeds=1)
    path = tmp_path / "sweep.json"
    result.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["name"] == "tiny"
    assert set(payload["series"]) == {"nothing", "swap-greedy"}
    assert len(payload["x_values"]) == 3


def test_to_csv_file(tmp_path):
    result = run_sweep(tiny_spec(), seeds=1)
    path = tmp_path / "sweep.csv"
    result.to_csv(path)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "x"
    assert "nothing_mean" in rows[0]
    assert len(rows) == 1 + 3  # header + one row per x value
    assert float(rows[1][0]) == 0.0


def test_cli_export_flags(tmp_path, capsys):
    json_path = tmp_path / "fig4.json"
    csv_path = tmp_path / "fig4.csv"
    assert main(["fig4", "--seeds", "1", "--no-cache",
                 "--json", str(json_path), "--csv", str(csv_path)]) == 0
    assert json_path.exists() and csv_path.exists()
    payload = json.loads(json_path.read_text())
    assert payload["name"] == "fig4"
    out = capsys.readouterr().out
    assert "wrote" in out
