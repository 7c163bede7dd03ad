"""The golden commands print the same bytes at every numpy dispatch level the
host offers.

numpy picks its transcendental kernels (tanh, cosh, exp, ...) by CPU feature
at run time, and those kernels need not round like libm or like each other.
Each golden command runs in a fresh interpreter once per level, with the
level's dispatch paths switched off through NPY_DISABLE_CPU_FEATURES, and its
stdout is compared byte for byte with the golden file. A level whose paths
the host lacks compares the baseline with itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA, GOLDEN

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:   # numpy < 2
    from numpy.core import _multiarray_umath as _umath

SRC = Path(__file__).resolve().parents[1] / "src"

# the dispatch paths each level switches off, by numpy 2.4's names: every
# path on; AVX-512 off; only the X86_V2 baseline
LEVELS = {
    "all-paths": (),
    "no-avx512": ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
    "x86-v2-baseline": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
}

GOLDEN_COMMANDS = {
    f"spectrum_both_{name}.json": ["spectrum", "--config",
                                   str(DATA / f"{name}.json"), "--mode", "both"]
    for name in ("oscillator", "trig", "hyperbolic")
}
GOLDEN_COMMANDS["eval_typed.csv"] = ["eval", "--family", "TypeD:b=1",
                                     "--grid=-5,5,11"]

# main(argv) after checking that every disabled path reads as off
_CHILD = """\
import os, sys
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
on = [n for n in os.environ["NPY_DISABLE_CPU_FEATURES"].split()
      if umath.__cpu_features__.get(n)]
if on:
    sys.exit(f"dispatch paths still on: {on}")
from shapeinv.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _disabled(level: str) -> str:
    """The level's paths that this numpy can dispatch to and this CPU has;
    naming any other feature would make numpy refuse to import."""
    dispatch = set(_umath.__cpu_dispatch__)
    return " ".join(n for n in LEVELS[level]
                    if n in dispatch and _umath.__cpu_features__.get(n))


@pytest.mark.parametrize("golden", sorted(GOLDEN_COMMANDS))
@pytest.mark.parametrize("level", list(LEVELS))
def test_golden_bytes_at_every_dispatch_level(level, golden):
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = _disabled(level)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CHILD,
                           *GOLDEN_COMMANDS[golden]],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()
