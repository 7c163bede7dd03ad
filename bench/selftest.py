"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Runs every workload briefly, untraced and traced, and checks that the
   result line has exactly the contract keys, that the run is correct, and
   that every metric BENCHMARK.json names is present with its unit.
2. Injects a wrong answer into each workload's oracle path (a perturbed
   reference energy, a miscounted node, a corrupted timed output) and checks
   that it is counted as a failed request rather than passing.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def short_run(workload: str, trace: int, seconds: float = 1.0) -> list:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=wl.ROOT, timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: {proc.stdout.splitlines()[-2][:800]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"metrics missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, want {unit!r}")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
    return problems


def _failed(outcomes) -> int:
    return sum(not o.ok for o in outcomes)


def injected_faults() -> list:
    """A wrong answer in each workload must raise its fail count."""
    sys.path.insert(0, str(wl.SRC))
    problems = []
    seed = run.DEFAULT_SEED

    original = wl.textbook_energy

    def perturbed(config, m, k):
        e = original(config, m, k)
        return None if e is None else e + 0.05
    wl.textbook_energy = perturbed
    try:
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            one = run.fd_runner(seed, Path(tmp), inprocess=True)
            _, outcomes = run.closed_loop(one, 1)
    finally:
        wl.textbook_energy = original
    if _failed(outcomes) != 1:
        problems.append("fd_crosscheck: a perturbed textbook energy passed")

    original_count = wl.count_sign_changes
    wl.count_sign_changes = lambda values: original_count(values) + 1
    try:
        _, outcomes = run.closed_loop(run.cf_runner(seed), 1)
    finally:
        wl.count_sign_changes = original_count
    if _failed(outcomes) != 1:
        problems.append("closed_form: a miscounted node passed")

    arrays = wl.bulk_points(seed, 4096)
    kept = {}
    _, outcomes = run.closed_loop(run.bulk_runner(seed, arrays, kept),
                                  run.CYCLE["bulk_eval"])
    run.apply_bulk_checks(seed, arrays, kept, outcomes)
    if _failed(outcomes):
        problems.append("bulk_eval: clean outputs were counted as failures")
    kept[(3, "V")][7] *= 1.0 + 1e-9
    run.apply_bulk_checks(seed, arrays, kept, outcomes)
    if _failed(outcomes) != 1:
        problems.append("bulk_eval: a corrupted timed output passed")
    return problems


def main() -> int:
    problems = []
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            found = short_run(workload, trace)
            problems += [f"{workload} trace {trace}: {p}" for p in found]
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
    found = injected_faults()
    problems += found
    print(f"injected wrong answers: {'counted' if not found else 'FAILED'}")
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
