"""Every span the traced benchmark expects still fires.

The benchmark lists, per workload, the library functions a traced run must
see (`EXPECTED_SPANS` in bench/run.py); a run that misses one is not
correct. A memo or a lazy value that answers without calling such a function
would only show there. These tests read the list from the benchmark's
source, without importing or running the benchmark, wrap each listed
function with a call counter the way the tracer does (class attribute plus
every module-level alias inside shapeinv), and run one closed_form request
per preset, or the fd_crosscheck CLI requests that reach the numerics and
checks layers.
"""

import ast
import functools
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

from conftest import DATA
from shapeinv import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _expected_spans(workload: str) -> tuple:
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "EXPECTED_SPANS"):
            return tuple(ast.literal_eval(node.value)[workload])
    raise AssertionError("bench/run.py defines no EXPECTED_SPANS")


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def _count_calls(monkeypatch, spans) -> Counter:
    counts = Counter()
    for span in spans:
        mod_name, _, qualname = span.partition(".")
        module = importlib.import_module(f"shapeinv.{mod_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)

        def counted(*args, _fn=original, _span=span, **kwargs):
            counts[_span] += 1
            return _fn(*args, **kwargs)

        counted = functools.wraps(original)(counted)
        # aliases such as ZSolution.__call__ = evaluate, and names imported
        # into other shapeinv modules, are the same object
        homes = [owner] + [mod for name, mod in list(sys.modules.items())
                           if name.startswith("shapeinv") and mod is not None]
        for home in homes:
            for key, val in list(vars(home).items()):
                if val is original:
                    monkeypatch.setattr(home, key, counted)
    return counts


def test_every_expected_closed_form_span_fires(monkeypatch):
    spans = _expected_spans("closed_form")
    assert "families.Family.natural_domain" in spans
    workloads = _load_workloads(monkeypatch)
    counts = _count_calls(monkeypatch, spans)
    names = set()
    for i in range(len(workloads.CF_PRESETS)):
        req = workloads.cf_request(1, i)
        names.add(req["name"])
        outcome = workloads.check_cf(req, workloads.run_cf(req))
        assert outcome.ok, outcome.detail
    assert names == set(workloads.CF_PRESETS)
    unfired = [span for span in spans if counts[span] == 0]
    assert unfired == []


def test_every_expected_fd_crosscheck_numerics_and_checks_span_fires(
        monkeypatch, capsys):
    # verify reads FD eigenvectors (state-overlap); spectrum prints energies
    # only and must not build them
    spans = [span for span in _expected_spans("fd_crosscheck")
             if span.startswith(("numerics.", "checks."))]
    assert "numerics.TridiagonalSym.eigenvector" in spans
    assert "checks.run_suite" in spans
    counts = _count_calls(monkeypatch, spans)
    assert cli.main(["spectrum", "--config", str(DATA / "trig.json"),
                     "--mode", "both", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["comparison"]["within_tol"]
    assert counts["numerics.TridiagonalSym.eigenvector"] == 0
    assert cli.main(["verify", "--suite", "all", "--grid=-8,8,1001",
                     "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    unfired = [span for span in spans if counts[span] == 0]
    assert unfired == []
