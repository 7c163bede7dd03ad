"""No output byte depends on the BLAS thread count.

Above about 10,000 elements OpenBLAS splits a dot product across its
threads, and the partial sums then add up in another order: `p @ v` on
vectors of 10,001 and more elements can change its last bits between one
thread and two. `TridiagonalSym.eigenvector` orthogonalizes and normalizes
with `p @ v` and `np.linalg.norm`. Each command runs in a fresh interpreter
through the console form `main()`, which keeps a thread count the user set,
once with OPENBLAS_NUM_THREADS=1 and once with =2; the two stdouts must be
the same bytes, and a golden command's must be its golden file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN
from test_dispatch_levels import GOLDEN_COMMANDS

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    **GOLDEN_COMMANDS,
    "verify-all-n2001": ["verify", "--suite", "all"],
    # eigenvectors of 20,001 rows, past OpenBLAS's split
    "verify-ladder-n20001": ["verify", "--suite", "ladder", "--grid=-8,8,20001"],
}

_CHILD = "import sys; from shapeinv.cli import main; sys.exit(main())"


def _stdout(argv: list, threads: str) -> str:
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_bytes_at_one_and_two_blas_threads(name):
    one = _stdout(COMMANDS[name], "1")
    assert _stdout(COMMANDS[name], "2") == one
    if name in GOLDEN_COMMANDS:
        assert one == (GOLDEN / name).read_text()
