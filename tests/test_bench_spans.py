"""Every span the traced closed_form benchmark expects still fires.

The benchmark lists, per workload, the library functions a traced run must
see (`EXPECTED_SPANS` in bench/run.py); a run that misses one is not
correct. A memo that answers without calling such a function would only
show there. This test reads the list from the benchmark's source, without
importing or running the benchmark, wraps each listed function with a call
counter the way the tracer does (class attribute plus every module-level
alias inside shapeinv), and runs one closed_form request per preset.
"""

import ast
import functools
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

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
