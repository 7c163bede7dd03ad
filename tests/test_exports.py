"""Every exported name resolves, and so does every function the benchmark
traces (a lost trace target would silently drop that layer's spans)."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import shapeinv

MODULES = sorted(m.name for m in pkgutil.iter_modules(shapeinv.__path__))
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"shapeinv.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_bench_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, qualname in tracing.TARGETS:
        obj = importlib.import_module(f"shapeinv.{mod_name}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), f"{mod_name}.{qualname}"


def test_cli_import_leaves_the_check_suites_unloaded():
    # only `verify` needs shapeinv.checks; the package serves its names on
    # first use
    code = ("import sys, shapeinv.cli; "
            "assert 'shapeinv.checks' not in sys.modules; "
            "import shapeinv; "
            "assert callable(shapeinv.run_suite); "
            "assert 'shapeinv.checks' in sys.modules; "
            "from shapeinv import CheckResult, SUITE_NAMES, run_suites")
    env = dict(os.environ)
    src = str(Path(shapeinv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        shapeinv.no_such_name
