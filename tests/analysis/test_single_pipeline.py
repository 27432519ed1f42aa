"""The analyzer is one pipeline: one parse per module, one catalogue.

* ``self-check`` parses every module of the package exactly once; the
  per-module SL stage and the interprocedural SF stage share that parse;
* a module that does not parse is an ``SL000`` finding, and ``flow`` and
  ``self-check`` fail on it instead of analyzing the rest of the
  package as if it were complete;
* every SL and SF code the ``rules`` catalogue lists is triggered by at
  least one committed fixture, so a rule cannot be registered without a
  detection -- or lose its detection -- unnoticed;
* ``lint PATHS`` names modules from the resolved path, so linting ``.``
  from inside a package terminates, and the shared import resolver
  anchors a package ``__init__``'s relative imports at the package itself.
"""

import ast
import json
import textwrap
from pathlib import Path

from repro.analysis import cli, lint_source
from repro.analysis.cli import main
from repro.analysis.flow import analyze_package, lint_paths
from repro.analysis.flow.source import load_module

HERE = Path(__file__).resolve().parent


def test_self_check_parses_each_module_once(monkeypatch, capsys):
    real_parse = ast.parse
    module_parses = []

    def counting_parse(source, filename="<unknown>", mode="exec", **kw):
        if mode == "exec":
            module_parses.append(filename)
        return real_parse(source, filename, mode, **kw)

    monkeypatch.setattr(ast, "parse", counting_parse)
    assert main(["self-check", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_scanned"] > 50
    assert len(module_parses) == payload["files_scanned"]
    assert len(set(module_parses)) == len(module_parses)


def _broken_package(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "good.py").write_text("def double(x):\n    return 2 * x\n")
    (pkg / "bad.py").write_text("def f(:\n")
    return pkg


def test_unparseable_module_is_a_finding_not_a_skip(tmp_path):
    result = analyze_package(_broken_package(tmp_path))
    assert [(f.code, f.path) for f in result.parse_errors] == [
        ("SL000", "pkg/bad.py")]
    assert "pkg.good.double" in result.index.functions
    assert result.files_scanned == 3


def test_flow_fails_on_an_unparseable_module(tmp_path, capsys):
    pkg = str(_broken_package(tmp_path))
    assert main(["flow", pkg]) == 1
    out = capsys.readouterr().out
    assert "pkg/bad.py:1" in out and "SL000" in out
    assert "simflow: 1 finding " in out
    assert main(["flow", pkg, "--effects-report"]) == 1
    captured = capsys.readouterr()
    assert "SL000" in captured.err
    json.loads(captured.out)  # the report itself stays well-formed


def test_self_check_fails_on_an_unparseable_module(tmp_path, monkeypatch,
                                                   capsys):
    pkg = _broken_package(tmp_path)
    monkeypatch.setattr(cli, "_package_dir", lambda: pkg)
    assert main(["self-check"]) == 1
    assert "SL000" in capsys.readouterr().out


def _sl_fixture_snippets():
    """Every source snippet ``test_simlint_rules.py`` lints."""
    tree = ast.parse((HERE / "test_simlint_rules.py").read_text(),
                     mode="exec")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("codes", "lint", "lint_source")
                and node.args and isinstance(node.args[0], ast.Constant)):
            yield textwrap.dedent(node.args[0].value)


def test_every_catalogued_rule_has_a_triggering_fixture(fixture_flow,
                                                        capsys):
    assert main(["rules", "--format", "json"]) == 0
    listed = {row["code"] for row in json.loads(capsys.readouterr().out)}
    sl_listed = {c for c in listed if c.startswith("SL")}
    sf_listed = {c for c in listed if c.startswith("SF")}
    assert sl_listed and sf_listed

    sl_fired = {f.code for snippet in _sl_fixture_snippets()
                for f in lint_source(snippet, path="src/repro/fake/mod.py")}
    sf_fired = {f.code for f in fixture_flow.findings}
    assert sl_listed <= sl_fired, sorted(sl_listed - sl_fired)
    assert sf_listed <= sf_fired, sorted(sf_listed - sf_fired)


def _package_with_relative_imports(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .random import draw\nfrom .time import time\n\n"
        "draw()\ntime()\n")
    (pkg / "sub.py").write_text(
        "from .random import draw\nfrom . import time\n\n"
        "draw()\ntime.time()\n")
    (pkg / "random.py").write_text("def draw():\n    return 4\n")
    (pkg / "time.py").write_text("def time():\n    return 0\n")
    return pkg


def test_lint_dot_inside_a_package_terminates(tmp_path, monkeypatch,
                                              capsys):
    pkg = _package_with_relative_imports(tmp_path)
    monkeypatch.chdir(pkg)
    findings, scanned = lint_paths(["."])
    assert (findings, scanned) == ([], 4)
    assert main(["lint", "."]) == 0
    capsys.readouterr()


def test_package_init_relative_imports_anchor_at_the_package(tmp_path):
    pkg = _package_with_relative_imports(tmp_path)
    init = load_module(pkg / "__init__.py", "pkg")
    sub = load_module(pkg / "sub.py", "pkg.sub")
    assert init.imports_from == {"draw": "pkg.random.draw",
                                 "time": "pkg.time.time"}
    assert sub.imports_from == {"draw": "pkg.random.draw",
                                "time": "pkg.time"}
    findings, _ = lint_paths([pkg])
    assert findings == []
    assert analyze_package(pkg).lint_findings == []
