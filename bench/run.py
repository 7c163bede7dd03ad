"""The shapeinv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fd_crosscheck --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it needs `src/shapeinv`). One
client sends requests in a closed loop for --seconds. With --trace 0 it
reports the end-to-end metrics, with every time scaled to a fixed host speed
by a reference unit timed next to each request; with --trace 1 it replays the same requests
in-process, once untraced and once with every layer wrapped, and reports the
per-layer metrics. The last stdout line is the result
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
report (provenance, tail percentile, failures), also written to bench/out/.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT, SRC = wl.ROOT, wl.SRC
OUT = BENCH / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2    # keep unused while writing a change; re-check claims on it
IMPORT_REPEATS = 3
BULK_POINTS = 1 << 20

CYCLE = {"fd_crosscheck": len(wl.FD_CYCLE), "closed_form": len(wl.CF_PRESETS),
         "bulk_eval": 12 * len(wl.BULK_EVALUATORS)}
# whole cycles each phase of a traced run replays (one below 10 --seconds,
# for quick checks); about 10 to 15 s a phase on a 2-core Xeon
TRACE_CYCLES = {"fd_crosscheck": 2, "closed_form": 100, "bulk_eval": 4}
# An untraced run replays a fixed set of whole cycles in passes until
# --seconds is up, at least once, and reports each request's median
# host-scaled latency (see "host-speed reference" below and the README).
TIMED_CYCLES = {"fd_crosscheck": 2, "closed_form": 28, "bulk_eval": 1}
# reference units run after every request: under a tenth of a CLI request,
# about a fifth of a closed_form request
REF_UNITS = {"fd_crosscheck": 100, "closed_form": 3, "bulk_eval": 10}
SETUP_PROBES = 8    # fresh-interpreter set-ups spread over an untraced run
PROBE_UNITS = 40    # reference units before and after each set-up probe

# the workload each span is meant to exercise; a traced run on that workload
# that never sees the span is not correct
EXPECTED_SPANS = {
    "fd_crosscheck": (
        "cli.main", "checks.run_suite",
        "numerics.TridiagonalSym.eigenvalues_lowest",
        "numerics.TridiagonalSym.eigenvector", "numerics.spectrum_numeric",
        "numerics.hamiltonian_matrix", "spectra.spectrum_analytic",
        "spectra.resolve_direction", "spectra.check_normalizable",
        "families.Family.k", "families.Family.k_prime",
        "families.Family.singularities", "families.Family.natural_domain",
        "partners.PotentialPair.V", "riccati.RiccatiSolution.singularities"),
    "closed_form": (
        "numerics.integrate", "numerics.derivative",
        "spectra.spectrum_analytic", "spectra.resolve_direction",
        "spectra.excited_state",
        "families.Family.k", "families.Family.k_prime",
        "families.Family.singularities", "families.Family.natural_domain",
        "partners.PotentialPair.V", "partners.PotentialPair.Vtilde",
        "partners.closed_form_potentials", "riccati.ZSolution.evaluate",
        "riccati.ZSolution.derivative", "riccati.RiccatiSolution.singularities"),
    "bulk_eval": (
        "families.Family.k", "families.Family.k_prime",
        "partners.PotentialPair.V", "partners.PotentialPair.Vtilde",
        "riccati.ZSolution.evaluate", "riccati.ZSolution.derivative"),
}

E2E_UNITS = {"setup_s": "s", "req_per_s": "1/s", "req_p50_ms": "ms",
             "req_tail_ms": "ms", "peak_rss_mb": "MB", "mpoints_per_s": "Mpoint/s"}


def per_layer_units() -> dict:
    units = {"cli.import_ms": "ms"}
    for mod, qual in tracing.TARGETS:
        name = tracing.span_name(mod, qual)
        units[name + ".calls"] = "count"
        units[name + ".self_ms"] = "ms"
        if name in tracing.POINT_SPANS:
            units[name + ".points"] = "count"
    eig = "numerics.TridiagonalSym.eigenvalues_lowest"
    units[eig + ".rows_x_levels"] = "count"
    units[eig + ".self_share"] = "ratio"
    units["numerics.richardson_ratio_max"] = "ratio"
    units["numerics.fd_abs_err_max"] = "energy"
    units["spectra.levels_kept_ratio"] = "ratio"
    units["trace.requests"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# inputs and request runners

def setup_inputs(workload: str, seed: int, tmpdir: Path, n_points: int = BULK_POINTS):
    """Import the program and build the workload's seeded inputs."""
    if workload == "fd_crosscheck":
        import shapeinv.cli  # noqa: F401  (every CLI request pays this import)
        for i in range(CYCLE[workload]):
            wl.fd_argv(wl.fd_request(seed, i), tmpdir, i)
        return None
    import shapeinv  # noqa: F401
    if workload == "bulk_eval":
        return wl.bulk_points(seed, n_points)
    return None   # closed_form draws each request as it is sent


@contextlib.contextmanager
def request_span(rec, i: int):
    if rec is None:
        yield
        return
    rec.request = i
    idx = rec.open(tracing.REQUEST_SPAN)
    try:
        yield
    finally:
        rec.close(idx)


def fd_runner(seed, tmpdir: Path, inprocess: bool, rec=None):
    env = wl.cli_env()

    def run_one(i):
        req = wl.fd_request(seed, i)
        argv = wl.fd_argv(req, tmpdir, i)
        t0 = time.perf_counter()
        try:
            with request_span(rec, i):
                if inprocess:
                    rc, out, err = wl.run_cli_inprocess(argv)
                else:
                    rc, out, err = wl.run_cli_subprocess(argv, env)
        except subprocess.TimeoutExpired:
            rc, out, err = None, "", "timed out"
        dt = time.perf_counter() - t0
        if req["config"] is not None:
            (tmpdir / f"req{i}.json").unlink()
        outcome = wl.check_fd(req, rc, out, err)
        outcome.label = req["label"]
        return dt, outcome
    return run_one


def cf_runner(seed, rec=None):
    def run_one(i):
        req = wl.cf_request(seed, i)
        t0 = time.perf_counter()
        try:
            with request_span(rec, i):
                result = wl.run_cf(req)
        except Exception as exc:  # a failing request is counted; the run goes on
            return (time.perf_counter() - t0,
                    wl.Outcome(False, f"{req['name']}: {type(exc).__name__}: {exc}"))
        dt = time.perf_counter() - t0
        outcome = wl.check_cf(req, result)
        outcome.label = req["name"]
        return dt, outcome
    return run_one


def bulk_runner(seed, arrays, kept: dict, rec=None):
    """kept collects the first output of each (configuration, evaluator) on
    the subsample; a later call whose output differs from it fails."""
    fns = wl.bulk_callables(seed)   # built here so a traced phase wraps them
    sub = wl.bulk_subsample(arrays[0].size)

    def run_one(i):
        j, ev = wl.bulk_request(i)
        x = arrays[j]
        outcome = wl.Outcome(True, points=int(x.size), info={"key": (j, ev)},
                             label=f"{j}:{ev}")
        t0 = time.perf_counter()
        try:
            with request_span(rec, i):
                out = fns[j][ev](x)
        except Exception as exc:  # a failing request is counted; the run goes on
            outcome.ok, outcome.detail = False, f"{j}:{ev}: {type(exc).__name__}: {exc}"
            return time.perf_counter() - t0, outcome
        dt = time.perf_counter() - t0
        got = np.asarray(out, dtype=float)[sub]
        first = kept.setdefault((j, ev), got)
        if not np.array_equal(got, first):
            outcome.ok, outcome.detail = False, f"{j}:{ev}: output changed between calls"
        return dt, outcome
    return run_one


def closed_loop(run_one, count: int, refs=None, units: int = 0):
    """One client: the next request starts when the previous one returns.
    With a Reference, `units` reference units follow every request and the
    latencies are scaled to the reference speed."""
    spans, outcomes = [], []
    for i in range(count):
        t0 = time.perf_counter()
        dt, outcome = run_one(i)
        spans.append((t0, t0 + dt))
        if refs is not None:
            refs.sample(units)
        outcomes.append(outcome)
    if refs is None:
        return [t1 - t0 for t0, t1 in spans], outcomes
    return [refs.scaled(t0, t1) for t0, t1 in spans], outcomes


def timed_passes(run_one, seconds: float, count: int, units: int, probe):
    """Replay requests 0..count-1 in passes, at least one, until `seconds`
    are up, with `units` reference units after every request and probe()
    called at the start, every seconds/SETUP_PROBES and at the end. Returns
    each request's host-scaled and raw latencies, the Reference and the
    outcomes of every execution in order."""
    refs = Reference()
    spans, outcomes = [], []
    start = time.perf_counter()
    next_probe, done = 0.0, 0
    while done < count or time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= next_probe:
            probe(refs)
            next_probe += seconds / SETUP_PROBES
        i = done % count
        t0 = time.perf_counter()
        dt, outcome = run_one(i)
        spans.append((i, t0, t0 + dt))
        refs.sample(units)
        outcomes.append(outcome)
        done += 1
    probe(refs)
    lat = [[] for _ in range(count)]
    raw = [[] for _ in range(count)]
    for i, t0, t1 in spans:
        lat[i].append(refs.scaled(t0, t1))
        raw[i].append(t1 - t0)
    return lat, raw, refs, outcomes


def apply_bulk_checks(seed, arrays, kept, outcomes) -> None:
    bad = wl.check_bulk(seed, arrays, kept)
    for o in outcomes:
        msg = bad.get(o.info.get("key"))
        if msg:
            o.ok, o.detail = False, msg


def make_runner(workload, seed, inputs, tmpdir, kept, inprocess, rec=None):
    if workload == "fd_crosscheck":
        return fd_runner(seed, tmpdir, inprocess, rec)
    if workload == "closed_form":
        return cf_runner(seed, rec)
    return bulk_runner(seed, inputs, kept, rec)


# ---------------------------------------------------------------------------
# measurements around the loop

def _child_seconds(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the program and builds
    the workload's inputs, as the run itself does before its first request."""
    env = wl.cli_env()
    code = (f"import sys, tempfile, pathlib; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]\n"
            f"import run\n"
            f"with tempfile.TemporaryDirectory(dir={str(OUT)!r}) as d:\n"
            f"    run.setup_inputs({workload!r}, {seed!r}, pathlib.Path(d))\n")
    return _child_seconds(code, env)


def measure_import_ms() -> float:
    """Median time of `import shapeinv.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import shapeinv.cli; "
            "print(time.perf_counter() - t)")
    env = wl.cli_env()
    vals = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True,
                             timeout=120).stdout
        vals.append(float(out.strip()) * 1e3)
    return statistics.median(vals)


# ---------------------------------------------------------------------------
# host-speed reference
#
# A shared host can run up to twice as slow for seconds to minutes at a time
# (seen on 2 vCPUs of a shared 2.1 GHz Xeon; README: "Timing").
# A fixed reference unit, a mix of the interpreter loops, small-array numpy
# calls and whole-array numpy passes the program spends its time in, is timed
# next to every request, and each latency is scaled by REF_UNIT_MS over the
# unit's time around it: the metrics read as on a host where one unit takes
# REF_UNIT_MS, about its time on an idle 2.1 GHz Xeon core.

REF_UNIT_MS = 0.85
REF_WINDOW_S = 2.0
_REF_DIAG = np.linspace(-1.0, 2.0, 100)
_REF_OFF2 = np.full(100, 0.3)
_REF_SHIFTS = np.array([0.1, 0.7, 1.3])
_REF_ARRAY = np.linspace(0.1, 3.0, 8192)


def reference_unit():
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    table = {}
    for i in range(300):
        table[i % 37] = table.get(i % 37, 0.0) + float(i)
    q = _REF_DIAG[0] - _REF_SHIFTS
    count = (q < 0.0).astype(np.int64)
    for i in range(1, _REF_DIAG.size):
        q = (_REF_DIAG[i] - _REF_SHIFTS) - _REF_OFF2[i - 1] / q
        q = np.where(np.abs(q) < 1e-300, -1e-300, q)
        count += q < 0.0
    y = np.sin(_REF_ARRAY) * np.cosh(0.3 * _REF_ARRAY)
    for _ in range(4):
        y = np.sqrt(y * y + 1.0) - 0.5 * y
    return acc, count, y


def host_unit_ms(units: int) -> float:
    """Mean time of one reference unit over `units` in a row, in ms."""
    t0 = time.perf_counter()
    for _ in range(units):
        reference_unit()
    return (time.perf_counter() - t0) * 1e3 / units


class Reference:
    """Reference unit times along a run. A time is scaled by the mean unit
    time of the samples within REF_WINDOW_S of it: the host's speed drifts
    over seconds and minutes, while the unit time of any one sample also
    jitters from one few-millisecond stretch to the next."""

    def __init__(self):
        self.times, self.ms = [], []   # sample midpoints, ms per unit

    def sample(self, units: int) -> None:
        t0 = time.perf_counter()
        ms = host_unit_ms(units)
        self.times.append(0.5 * (t0 + time.perf_counter()))
        self.ms.append(ms)

    def scaled(self, t0: float, t1: float) -> float:
        """The time from t0 to t1 at the reference speed."""
        near = self.ms[bisect.bisect_left(self.times, t0 - REF_WINDOW_S):
                       bisect.bisect_right(self.times, t1 + REF_WINDOW_S)]
        return (t1 - t0) * REF_UNIT_MS * len(near) / sum(near)


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def tail(lat: list):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, by rank. With 20 samples or fewer that
    rank would not pass the median, and the maximum is reported instead."""
    s = sorted(lat)
    n = len(s)
    if n <= 20:
        return s[-1], 100.0, 0
    rank = n - 10
    return s[rank - 1], 100.0 * rank / n, 10


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "shapeinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": git_commit(), "src_sha256": digest.hexdigest()[:16]}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# the two kinds of run

def e2e_metrics(workload: str, lat: list, outcomes: list):
    """Timing metrics over the distinct requests' median latencies."""
    busy = sum(lat)
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "req_per_s": len(lat) / busy,
        "req_p50_ms": statistics.median(lat) * 1e3,
        "req_tail_ms": tail_s * 1e3,
        "mpoints_per_s": sum(o.points for o in outcomes) / busy / 1e6,
    }
    by_class = {}
    for dt, o in zip(lat, outcomes):
        by_class.setdefault(o.label, []).append(dt)
    extra = {"timed_requests": len(lat), "busy_s": busy,
             "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
             "class_p50_ms": {k: statistics.median(v) * 1e3
                              for k, v in sorted(by_class.items())}}
    if workload == "bulk_eval":
        # one float64 read and one written per point; computed, not measured
        extra["computed_bytes_moved"] = sum(o.points for o in outcomes) * 16
    return metrics, extra


def run_untraced(workload, seed, seconds, tmpdir):
    setup_spans = []

    def probe(refs):
        refs.sample(PROBE_UNITS)
        t0 = time.perf_counter()
        setup_spans.append((t0, t0 + measure_setup(workload, seed)))
        refs.sample(PROBE_UNITS)

    inprocess = workload != "fd_crosscheck"
    kept = {}
    inputs = setup_inputs(workload, seed, tmpdir)
    run_one = make_runner(workload, seed, inputs, tmpdir, kept, inprocess)
    if inprocess:
        run_one(0)   # warm-up: lazy imports and first-touch allocations
        kept.clear()
    count = CYCLE[workload] * TIMED_CYCLES[workload]
    lat, raw, refs, outcomes = timed_passes(
        run_one, seconds, count, REF_UNITS[workload], probe)
    setup = [refs.scaled(t0, t1) for t0, t1 in setup_spans]
    setup_raw = [t1 - t0 for t0, t1 in setup_spans]
    rss = peak_rss_mb()
    if workload == "bulk_eval":
        apply_bulk_checks(seed, inputs, kept, outcomes)
    timing, extra = e2e_metrics(
        workload, [statistics.median(v) for v in lat], outcomes[:count])
    raw_timing, _ = e2e_metrics(
        workload, [statistics.median(v) for v in raw], outcomes[:count])
    metrics = {"setup_s": statistics.median(setup), **timing,
               "peak_rss_mb": rss}
    q1, q2, q3 = statistics.quantiles(refs.ms, n=4)
    extra.update(executions=len(outcomes), setup_runs_s=setup,
                 raw={"setup_s": statistics.median(setup_raw), **raw_timing},
                 host_unit_ms={"reference": REF_UNIT_MS, "q1": q1,
                               "median": q2, "q3": q3})
    if workload == "fd_crosscheck":
        extra.update(fd_accuracy(outcomes))
    return {k: metrics[k] for k in E2E_UNITS}, E2E_UNITS, outcomes, extra


def fd_accuracy(outcomes) -> dict:
    return {key: max((o.info.get(key, 0.0) for o in outcomes), default=0.0)
            for key in ("fd_abs_err_max", "richardson_ratio_max")}


def run_traced(workload, seed, seconds, tmpdir, out_stem):
    """Replay a fixed number of whole cycles in-process, first untraced and
    then traced, so that counts repeat exactly for a seed and the overhead
    compares the same requests, both timed at the reference speed."""
    import_ms = measure_import_ms()
    host = [host_unit_ms(PROBE_UNITS)]
    inputs = setup_inputs(workload, seed, tmpdir)
    count = CYCLE[workload] * (TRACE_CYCLES[workload] if seconds >= 10 else 1)
    kept_a, kept_b = {}, {}
    refs, units = Reference(), REF_UNITS[workload]
    refs.sample(units)
    lat_a, out_a = closed_loop(
        make_runner(workload, seed, inputs, tmpdir, kept_a, True), count,
        refs, units)
    rec = tracing.Recorder()
    tracing.install(rec)
    lat_b, out_b = closed_loop(
        make_runner(workload, seed, inputs, tmpdir, kept_b, True, rec), count,
        refs, units)
    host.append(host_unit_ms(PROBE_UNITS))
    rec.dump(OUT / f"{out_stem}-spans.json.gz")
    if workload == "bulk_eval":
        apply_bulk_checks(seed, inputs, kept_a, out_a)
        apply_bulk_checks(seed, inputs, kept_b, out_b)
    overhead = sum(lat_b) / sum(lat_a) - 1.0

    totals = rec.layer_totals()
    metrics = {"cli.import_ms": import_ms}
    for mod, qual in tracing.TARGETS:
        name = tracing.span_name(mod, qual)
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        metrics[name + ".calls"] = calls
        metrics[name + ".self_ms"] = self_s * 1e3
        if name in tracing.POINT_SPANS:
            metrics[name + ".points"] = int(rec.counts[name + ".points"])
    eig = "numerics.TridiagonalSym.eigenvalues_lowest"
    request_s = totals.get(tracing.REQUEST_SPAN, (0, 0.0, 0.0))[2]
    metrics[eig + ".rows_x_levels"] = int(rec.counts[eig + ".rows_x_levels"])
    metrics[eig + ".self_share"] = metrics[eig + ".self_ms"] / 1e3 / request_s
    acc = fd_accuracy(out_b)
    metrics["numerics.richardson_ratio_max"] = acc["richardson_ratio_max"]
    metrics["numerics.fd_abs_err_max"] = acc["fd_abs_err_max"]
    requested = rec.counts["spectra.levels_requested"]
    metrics["spectra.levels_kept_ratio"] = (
        rec.counts["spectra.levels_kept"] / requested if requested else 0.0)
    metrics["trace.requests"] = len(lat_b)
    metrics["trace.overhead_ratio"] = overhead

    fired = {name for name, (calls, _, _) in totals.items() if calls}
    unfired = [s for s in EXPECTED_SPANS[workload] if s not in fired]
    extra = {"requests_per_phase": count, "untraced_busy_s": sum(lat_a),
             "traced_busy_s": sum(lat_b), "missing_targets": rec.missing,
             "unfired_spans": unfired, "spans": len(rec.spans),
             "host_unit_ms": host}
    return metrics, per_layer_units(), out_a + out_b, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shapeinv" / "cli.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'shapeinv'} is missing; "
                         "run from the root of a shapeinv source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    load_start = os.getloadavg()[0]
    tmpdir = Path(tempfile.mkdtemp(dir=OUT))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, units, outcomes, extra = run_traced(
                args.workload, args.seed, args.seconds, tmpdir, stem)
        else:
            metrics, units, outcomes, extra = run_untraced(
                args.workload, args.seed, args.seconds, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    failures = [o.detail for o in outcomes if not o.ok]
    correct = not failures and not extra.get("unfired_spans") \
        and not extra.get("missing_targets") \
        and all(math.isfinite(v) for v in metrics.values())
    result = {"correct": correct, "attempted": len(outcomes),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": dict(provenance(), load_1min_start=load_start,
                                 load_1min_end=os.getloadavg()[0]),
              "fail_ratio": len(failures) / len(outcomes),
              "failures": failures[:10], **extra, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n",
                                      encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
