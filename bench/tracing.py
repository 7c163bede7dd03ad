"""Outside-in span tracing of the shapeinv layers.

`install` replaces public functions and methods of the package with thin
wrappers that record one span per call: name, start, end, parent span and
request id. The wrappers are put on the classes and in every module namespace
that holds the original object, so calls made through re-exports
(`spectra.integrate`) and bound methods created later (`family.k` captured by
`Superpotential.from_family`) are traced too. Objects built before `install`
keep untraced bound methods, so a traced phase must build its own.

Spans stay in memory; `Recorder.layer_totals` turns them into per-layer call
counts and self times (span duration minus the time covered by its direct
children), and `Recorder.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, qualified name) of every traced public function or method
TARGETS = (
    ("cli", "main"),
    ("checks", "run_suite"),
    ("numerics", "TridiagonalSym.eigenvalues_lowest"),
    ("numerics", "TridiagonalSym.eigenvector"),
    ("numerics", "spectrum_numeric"),
    ("numerics", "hamiltonian_matrix"),
    ("numerics", "integrate"),
    ("numerics", "derivative"),
    ("spectra", "spectrum_analytic"),
    ("spectra", "resolve_direction"),
    ("spectra", "check_normalizable"),
    ("spectra", "excited_state"),
    ("families", "Family.k"),
    ("families", "Family.k_prime"),
    ("families", "Family.singularities"),
    ("families", "Family.natural_domain"),
    ("partners", "PotentialPair.V"),
    ("partners", "PotentialPair.Vtilde"),
    ("partners", "closed_form_potentials"),
    ("riccati", "ZSolution.evaluate"),
    ("riccati", "ZSolution.derivative"),
    ("riccati", "RiccatiSolution.singularities"),
)

# closed-form evaluators: the x argument's size is summed as `.points`
POINT_SPANS = frozenset({
    "families.Family.k", "families.Family.k_prime",
    "partners.PotentialPair.V", "partners.PotentialPair.Vtilde",
    "riccati.ZSolution.evaluate", "riccati.ZSolution.derivative",
})

REQUEST_SPAN = "bench.request"


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Recorder:
    """In-memory span store for one traced phase."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, request)
        self._stack = []
        self.request = -1
        self.counts = defaultdict(float)   # extra work counters by metric name
        self.missing = []        # targets that could not be wrapped

    def open(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.request))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        name, start, _, parent, req = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, req)
        self._stack.pop()

    def layer_totals(self) -> dict:
        """{name: (calls, self_seconds, total_seconds)} over closed spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            calls, self_s, total = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, self_s + dur - child[i], total + dur)
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "request"],
            "names": names,
            "spans": [[ids[n], round(s - t0, 9), round(e - t0, 9), p, r]
                      for n, s, e, p, r in self.spans if e is not None],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _wrap(fn, name: str, rec: Recorder, has_self: bool):
    x_pos = 1 if has_self else 0
    counts = rec.counts

    if name in POINT_SPANS:
        def extra(args, kwargs, result):
            x = args[x_pos] if len(args) > x_pos else kwargs.get("x")
            counts[name + ".points"] += _size(x)
    elif name == "numerics.TridiagonalSym.eigenvalues_lowest":
        def extra(args, kwargs, result):
            k = args[1] if len(args) > 1 else kwargs["k"]
            counts[name + ".rows_x_levels"] += args[0].n * int(k)
    elif name == "spectra.spectrum_analytic":
        def extra(args, kwargs, result):
            counts["spectra.levels_requested"] += result.requested + 1
            counts["spectra.levels_kept"] += len(result.levels)
    else:
        extra = None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if extra is not None:
            extra(args, kwargs, result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every TARGET at class and module level; record what is missing."""
    modules = {}
    for mod_name, _ in TARGETS:
        try:
            modules[mod_name] = importlib.import_module(f"shapeinv.{mod_name}")
        except ImportError:
            modules[mod_name] = None
    for mod_name, qualname in TARGETS:
        name = span_name(mod_name, qualname)
        mod = modules[mod_name]
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            rec.missing.append(name)
            continue
        wrapper = _wrap(original, name, rec, has_self=bool(owner_name))
        if owner_name:
            # aliases such as ZSolution.__call__ = evaluate are the same object
            for key, val in list(vars(owner).items()):
                if val is original:
                    setattr(owner, key, wrapper)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("shapeinv"):
                continue
            for key, val in list(vars(loaded).items()):
                if val is original:
                    setattr(loaded, key, wrapper)
