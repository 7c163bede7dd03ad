"""Command-line front end.

Subcommands: families (preset catalogue), eval (sample W, V, Vtilde on a
grid), spectrum (analytic ladder sums, finite-difference oracle, or both),
verify (residual suites), wavefunction (one chain-built state plus sidecar
metadata). Every failure path prints a one-line JSON diagnostic to stderr and
exits with a stable code, 1 to 6 (the README's "Exit codes"); `_FAILURES`
maps every exception that reaches `main` to its diagnostic and code.

Data outputs carry no timestamps so reruns are byte-identical; the only
version stamp is the `generated_by` field in wavefunction metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import families, partners, riccati, spectra
from ._grid import Grid
from ._record import Record
from .errors import (BoundaryConditionError, GridTooCoarseError,
                     NormalizationError, OrbitError, PoleError, ShapeInvError,
                     VerificationError)

__version__ = "0.1.0"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_POLE = 2
EXIT_TOLERANCE = 3
EXIT_NORMALIZABILITY = 4
EXIT_VERIFY = 5
EXIT_TRUNCATION = 6

_DEFAULT_N = 2001
# the most grid nodes a run may ask for: a few 8 MB sample arrays, refused
# before any of them is allocated
_MAX_N = 1_000_001
# the highest level index a run may ask for: spectrum keeps one level per k,
# and the default oscillator's tower never truncates. On a 2-vCPU Xeon host
# the analytic spectrum takes about 0.14 s and 17 MB above a kmax = 4 run at
# this bound; kmax = 400,000 took 740 MB
_MAX_KMAX = 10_000

# the variables OpenBLAS takes its thread count from, any one of which a
# user may set; see main
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")


def _diag(slug: str, message: str, **extra) -> None:
    sys.stderr.write(json.dumps({"error": slug, "message": message, **extra})
                     + "\n")


def _f(v) -> str:
    # shortest representation that round-trips a double, '.' decimal point
    return repr(float(v))


def _quiet():
    # numpy's error state for a handler's array work, after the refusals that
    # need none: overflow and the like are classified by the finite checks of
    # each path (samples, matrix, ladder), never reported as numpy warnings
    import numpy as np
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


# ---------------------------------------------------------------------------
# run configuration

def _count(label: str, value) -> int:
    """A JSON number that is an integer, kept exact."""
    families.json_number(label, value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return int(value)


def _level(label: str, value) -> int:
    """A level index: 0 <= value <= _MAX_KMAX."""
    k = _count(label, value)
    if not 0 <= k <= _MAX_KMAX:
        raise ValueError(f"{label} = {k} is out of range: "
                         f"need 0 <= {label} <= {_MAX_KMAX}")
    return k


def _tolerance(label: str, value) -> float:
    v = families.json_number(label, value)
    if v < 0.0:
        raise ValueError(f"{label} = {v!r} is out of range: need {label} >= 0")
    return v


def _margin(label: str, value) -> float:
    v = families.json_number(label, value)
    if v <= 0.0:
        raise ValueError(f"{label} = {v!r} is out of range: need {label} > 0")
    return v


def _family(label: str, value) -> dict:
    families.family_from_json(value)  # validates schema and values
    return dict(value)


def _grid(label: str, value):
    if value == "auto":
        return value
    if not isinstance(value, dict) or set(value) != {"xmin", "xmax", "n"}:
        raise ValueError(f'{label} must be "auto" or {{xmin, xmax, n}}')
    grid = {key: families.json_number(f"{label} {key}", value[key])
            for key in ("xmin", "xmax")}
    grid["n"] = n = _count(f"{label} n", value["n"])
    if n > _MAX_N:
        raise ValueError(f"{label} n = {n} is too large: need n <= {_MAX_N}")
    return grid


def _path(label: str, value):
    # open() would take a bool or an integer as a file descriptor
    if not isinstance(value, (str, type(None))):
        raise ValueError(f"output {label} must be a string or null, "
                         f"got {value!r}")
    return value


# Every run-config field, once: (field, config-file key, flag, converter,
# default, help). A dotted key sits in a section of the file. A converter
# takes (label, value) to the checked value or raises ValueError naming the
# label, or is the tuple of allowed strings; RunConfig runs every value
# through it, whether from a default, a config file or a flag. The rows
# follow the record's fields, which its repr, its copies and the
# --dump-config keys keep.
_CONFIG = (
    ("family", "family", "--family", _family,
     families.family_to_json(families.preset_params("TypeD", b=1.0)),
     "preset name, 'Preset:key=val,...', or a JSON family descriptor"),
    ("m", "m", "--m", families.json_number, 1.0, "chain parameter m"),
    ("direction", "direction", "--direction",
     ("auto", "decreasing", "increasing"), "auto", "chain direction"),
    ("grid", "grid", "--grid", _grid, "auto", '"auto" or "xmin,xmax,n"'),
    ("kmax", "kmax", "--kmax", _level, 4, "highest level index"),
    ("d", "d", "--d", families.json_number, 0.0,
     "factorization energy shift"),
    ("tol", "tol", "--tol", _tolerance, 1e-2,
     "comparison tolerance, in units of c^2"),
    ("output_path", "output.path", "--out", _path, None,
     "output file (default: standard output)"),
    ("output_format", "output.format", "--format", ("csv", "json"), "csv",
     "output format"),
    ("pole_margin", "pole_margin", "--pole-margin", _margin, 1e-3,
     "distance kept from potential poles, in units of 1/c"),
)


class RunConfig(Record):
    _fields = tuple(row[0] for row in _CONFIG)

    def __init__(self, *args, **kwargs):
        # fields by position (copies and pickles pass them so) or by name,
        # a name overriding a position; a field not given takes its default
        given = dict(zip(self._fields, args), **kwargs)
        for name, key, _, convert, default, _ in _CONFIG:
            label = key.rpartition(".")[2]
            value = given.pop(name, default)
            if not isinstance(convert, tuple):
                value = convert(label, value)
            elif value not in convert:
                raise ValueError(f"{label} must be {', '.join(convert[:-1])} "
                                 f"or {convert[-1]}")
            self.__dict__[name] = value
        if given:
            raise TypeError(f"unknown RunConfig fields: {sorted(given)}")

    def to_json(self) -> dict:
        doc = {}
        for name, key, *_ in _CONFIG:
            section, _, sub = key.rpartition(".")
            value = getattr(self, name)
            into = doc.setdefault(section, {}) if section else doc
            into[sub] = dict(value) if isinstance(value, dict) else value
        return doc

    @classmethod
    def from_json(cls, obj) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        keys = [row[1].rpartition(".") for row in _CONFIG]
        unknown = set(obj) - {section or sub for section, _, sub in keys}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        given = {}
        for (name, *_), (section, _, sub) in zip(_CONFIG, keys):
            doc = obj
            if section:
                doc = obj.get(section, {})
                subs = [s for sec, _, s in keys if sec == section]
                if not isinstance(doc, dict) or set(doc) - set(subs):
                    raise ValueError(f"config {section} must be "
                                     f"{{{', '.join(subs)}}}")
            if sub in doc:
                given[name] = doc[sub]
        return cls(**given)

    def build_family(self) -> families.Family:
        return families.family_from_json(self.family)


def _parse_family_flag(text: str):
    """Either a raw JSON descriptor or 'Preset[:key=value,...]'."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    name, _, tail = text.partition(":")
    constants = {}
    if tail:
        for piece in tail.split(","):
            key, _, val = piece.partition("=")
            if not _ or not key:
                raise ValueError(f"bad family constant {piece!r}; use key=value")
            key = key.strip()
            # here, before the range checks of preset_params hide the cause
            constants[key] = families.json_number(repr(key), float(val))
    try:
        fam = families.preset_params(name, **constants)
    except TypeError as exc:
        raise ValueError(f"unknown family constant: {exc}") from exc
    return families.family_to_json(fam)


def _parse_grid_flag(text: str):
    text = text.strip()
    if text == "auto":
        return "auto"
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError('grid flag must be "auto" or "xmin,xmax,n"')
    return {"xmin": float(parts[0]), "xmax": float(parts[1]),
            "n": int(parts[2])}


# how argparse reads a flag: as a number, or as text that these parse after
# it, so that a bad one is a config error; a tuple converter gives choices
_FLAG_TYPES = {families.json_number: float, _tolerance: float,
               _margin: float, _level: int}
_FLAG_TEXT = {_family: _parse_family_flag, _grid: _parse_grid_flag}


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_json(json.load(fh))
    flags = {}   # each flag given overrides its field
    for name, _, flag, convert, _, _ in _CONFIG:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            flags[name] = (_FLAG_TEXT[convert](value) if convert in _FLAG_TEXT
                           else value)
    return RunConfig(*cfg._values(), **flags)


# ---------------------------------------------------------------------------
# grid resolution

def _rate(fam: families.Family) -> float:
    """The family's rate constant c, or 1 when a = 0 (c = 0 there): lengths
    are read in units of 1/c and energies in units of c^2."""
    return fam.params.sign.c or 1.0


def _auto_window(cfg: RunConfig, fam: families.Family):
    """The auto grid's part that samples nothing: (anchor, lo, hi), the
    default anchor and the poles within 1e15 that bound its cell (None on an
    open side), refusing a pole_margin that rounds away at such a pole."""
    anchor = spectra._default_anchor(fam)
    big = 1e15
    lo, hi = fam.natural_domain(cfg.m, anchor, (anchor - big, anchor + big))
    lo = lo if lo > anchor - big + 1.0 else None
    hi = hi if hi < anchor + big - 1.0 else None
    margin = cfg.pole_margin / _rate(fam)
    for pole, inward in ((lo, margin), (hi, -margin)):
        if pole is not None and pole + inward == pole:
            raise ValueError(f"pole_margin = {cfg.pole_margin!r} puts the "
                             f"auto grid's end on the pole x = {pole!r}: the "
                             "margin is below the spacing of doubles there")
    return anchor, lo, hi


def _auto_grid(cfg: RunConfig, fam: families.Family, window=None) -> Grid:
    """The grid on `_auto_window` (computed when not given), pole_margin
    inside each pole; an open side reaches past the well, sized from V's
    curvature. Lengths are in units of 1/c."""
    anchor, lo, hi = window or _auto_window(cfg, fam)
    c = _rate(fam)
    margin = cfg.pole_margin / c
    if lo is not None and hi is not None:
        return Grid(lo + margin, hi - margin, _DEFAULT_N)
    pp = partners.pair_from_family(fam, cfg.d)
    center = fam.params.A if lo is None and hi is None else anchor
    step = 1.0 / c
    if lo is not None:
        step = min(step, 0.5 * (anchor - lo))
    if hi is not None:
        step = min(step, 0.5 * (hi - anchor))
    with _quiet():
        v0 = float(pp.V(center, cfg.m))
        curv = abs(float(pp.V(center + step, cfg.m))
                   + float(pp.V(center - step, cfg.m)) - 2.0 * v0) / (step * step)
    extent = 8.0 / c
    if curv > 1e-8 * c ** 4:
        extent = max(extent, 6.0 / math.sqrt(curv))
    x0 = lo + margin if lo is not None else center - extent
    x1 = hi - margin if hi is not None else center + extent
    return Grid(x0, x1, _DEFAULT_N)


def _resolve_grid(cfg: RunConfig, fam: families.Family, window=None) -> Grid:
    """The requested grid, or the auto grid on the window; one holding a pole
    is refused."""
    grid = (_auto_grid(cfg, fam, window) if cfg.grid == "auto" else
            Grid(cfg.grid["xmin"], cfg.grid["xmax"], cfg.grid["n"]))
    _require_pole_free(fam, cfg.m, (grid.x0, grid.x1))
    return grid


def _grid_meta(grid: Grid) -> dict:
    return {"xmin": grid.x0, "xmax": grid.x1, "n": grid.n}


def _require_pole_free(fam: families.Family, m: float, window) -> None:
    """Refuse a window holding poles, naming its first 8 distinct ones like
    the closed forms' own check: a wide window can hold millions, so only
    the periods that can hold those 8 are scanned."""
    cap = riccati._MAX_LOCATIONS
    poles = fam.singularities_near(m, window, float(window[0]), cap + 1)
    if poles:
        locations = sorted({float(p) for p in poles})[:cap]
        raise PoleError("potential has poles inside the requested grid",
                        locations=locations)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_families(args, cfg: RunConfig) -> int:
    catalogue = families.preset_catalogue()
    if args.name is not None:
        rows = [row for row in catalogue if row["name"] == args.name]
        if not rows:
            _diag("unknown-preset", f"unknown preset {args.name!r}",
                  valid=list(families.PRESET_NAMES))
            return EXIT_USAGE
        catalogue = rows
    if cfg.output_format == "json":
        records = [{"name": row["name"], "kind": row["kind"],
                    "sign": row["sign"], "free_slots": list(row["free"])}
                   for row in catalogue]
        _emit(json.dumps(records, indent=2) + "\n", cfg)
        return EXIT_OK
    width = max(len(row["name"]) for row in catalogue)
    lines = [f"{row['name']:<{width}}  {row['kind']:<8} {row['sign']:<5} "
             f"free: {', '.join(row['free'])}" for row in catalogue]
    _emit("\n".join(lines) + "\n", cfg)
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    fam = cfg.build_family()
    # eval samples closed forms only, so it is free of the minimum node
    # count the finite-difference grid type enforces
    grid = _grid_meta(_auto_grid(cfg, fam)) if cfg.grid == "auto" else cfg.grid
    if grid["n"] < 2:
        raise ValueError("eval grid needs at least 2 nodes")
    if not math.isfinite(grid["xmax"] - grid["xmin"]):
        raise ValueError("eval grid span xmax - xmin is not finite")
    # the samples' first and last x are the ends, so the scan reads none
    _require_pole_free(fam, cfg.m, (grid["xmin"], grid["xmax"]))
    import numpy as np
    with _quiet():
        xs = np.linspace(grid["xmin"], grid["xmax"], grid["n"])
        pp = partners.pair_from_family(fam, cfg.d)
        W = np.asarray(fam.k(xs, cfg.m), dtype=float)
        V = np.asarray(pp.V(xs, cfg.m), dtype=float)
        Vt = np.asarray(pp.Vtilde(xs, cfg.m), dtype=float)
    bad = ~(np.isfinite(W) & np.isfinite(V) & np.isfinite(Vt))
    if np.any(bad):
        raise PoleError("potential is not finite on the requested grid",
                        locations=[float(x) for x in xs[bad][:8]])
    if cfg.output_format == "json":
        doc = {"columns": ["x", "W", "V", "Vtilde"],
               "rows": [[float(a), float(b), float(c), float(e)]
                        for a, b, c, e in zip(xs, W, V, Vt)]}
        _emit(json.dumps(doc, indent=2) + "\n", cfg)
    else:
        lines = ["x,W,V,Vtilde"]
        lines += [f"{_f(a)},{_f(b)},{_f(c)},{_f(e)}"
                  for a, b, c, e in zip(xs, W, V, Vt)]
        _emit("\n".join(lines) + "\n", cfg)
    return EXIT_OK


def _resolve_direction_or_exit(cfg: RunConfig, fam: families.Family):
    """The chain direction, or None after its diagnostic when none resolves."""
    requested = None if cfg.direction == "auto" else cfg.direction
    try:
        return spectra.resolve_direction(fam, cfg.m, requested)
    except OrbitError as exc:
        _diag("non-normalizable", str(exc))


def cmd_spectrum(args, cfg: RunConfig) -> int:
    fam = cfg.build_family()
    direction = _resolve_direction_or_exit(cfg, fam)
    if direction is None:
        return EXIT_NORMALIZABILITY
    mode = args.mode
    report = {"mode": mode, "m": cfg.m, "direction": direction.value,
              "d": cfg.d}
    if mode in ("analytic", "both"):
        analytic = spectra.spectrum_analytic(fam, cfg.m, cfg.kmax, direction,
                                             cfg.d)
        if not analytic.levels:
            _diag("non-normalizable",
                  analytic.truncation_reason or "no normalizable ground state",
                  direction=direction.value)
            return EXIT_NORMALIZABILITY
        block = analytic.to_json()
        del block["m"], block["direction"]   # the report's own keys
        report["analytic"] = block
    if mode in ("numeric", "both"):
        seed = spectra.check_normalizable(fam, cfg.m, direction)
        if not seed:
            _diag("non-normalizable",
                  "ground state is not square integrable",
                  divergent_end=seed.divergent_end,
                  direction=direction.value)
            return EXIT_NORMALIZABILITY
        grid = _resolve_grid(cfg, fam)
        pp = partners.pair_from_family(fam, cfg.d)
        from .numerics import spectrum_numeric
        with _quiet():
            numeric = spectrum_numeric(lambda x: pp.V(x, cfg.m), grid,
                                       cfg.kmax + 1)
        err = numeric.error_estimate
        levels = [{"k": k, "E": float(e),
                   "richardson": (float(err[k]) if err is not None
                                  and math.isfinite(err[k]) else None)}
                  for k, e in enumerate(numeric.energies)]
        report["numeric"] = {"levels": levels, "grid": _grid_meta(grid)}
    if mode == "both":
        tol = cfg.tol * _rate(fam) ** 2   # in units of c^2
        rows = []
        worst = 0.0
        # both lists count levels from k = 0 up
        for (k, e_an), level in zip(analytic.levels, levels):
            diff = abs(e_an - level["E"])
            worst = max(worst, diff)
            rows.append({"k": k, "E_analytic": e_an, "E_numeric": level["E"],
                         "abs_diff": diff, "richardson": level["richardson"]})
        report["comparison"] = {"tol": tol, "levels": rows,
                                "max_abs_diff": worst,
                                "within_tol": worst <= tol}
    _emit(json.dumps(report, indent=2) + "\n", cfg)
    if mode == "both" and not report["comparison"]["within_tol"]:
        _diag("tolerance", "analytic and numeric levels disagree beyond tol",
              max_abs_diff=worst, tol=tol)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_verify(args, cfg: RunConfig) -> int:
    from . import checks  # only verify needs the suites; see __init__
    names = list(checks.SUITE_NAMES) if args.suite == "all" else [args.suite]
    n = cfg.grid["n"] if isinstance(cfg.grid, dict) else _DEFAULT_N
    with _quiet():
        results = checks.run_suites(names, n=n)
    passed = all(r.passed for r in results)
    report = {"suites": names,
              "checks": [r.to_json() for r in results],
              "passed": passed}
    _emit(json.dumps(report, indent=2) + "\n", cfg)
    if not passed:
        failed = [r.name for r in results if not r.passed]
        _diag("verify-failed", "verification checks failed", checks=failed)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_wavefunction(args, cfg: RunConfig) -> int:
    k = _level("k", args.k)
    if cfg.output_format == "csv" and not cfg.output_path:
        _diag("usage", "wavefunction in csv format needs --out for the "
              "sidecar; use --format json for standard output")
        return EXIT_USAGE
    fam = cfg.build_family()
    direction = _resolve_direction_or_exit(cfg, fam)
    if direction is None:
        return EXIT_NORMALIZABILITY
    window = _auto_window(cfg, fam) if cfg.grid == "auto" else None
    grid = _resolve_grid(cfg, fam) if window is None else None
    try:
        # the level walk and the seed's verdict refuse before any array
        # work, and before the auto grid samples V: that grid's middle lies
        # in its anchor's pole-free cell, so the verdict is the grid's
        anchor = grid.mid if window is None else window[0]
        spectra._state_step(fam, cfg.m, k, direction, anchor, cfg.d)
        if window is not None:
            grid = _resolve_grid(cfg, fam, window)
        with _quiet():
            wf = spectra.excited_state(fam, cfg.m, k, direction, grid, cfg.d)
    except (OrbitError, NormalizationError) as exc:
        bound = spectra.max_level(fam, cfg.m, direction)
        _diag("truncated-chain", str(exc), requested_level=k,
              max_level=bound)
        return EXIT_TRUNCATION
    with _quiet():
        meta = {
            "k": wf.k,
            "energy": wf.energy,
            "nodes": wf.node_count(),
            "norm": wf.norm(),
            "m": cfg.m,
            "direction": direction.value,
            "grid": _grid_meta(grid),
            "generated_by": f"shapeinv {__version__}",
        }
    if cfg.output_format == "json":
        doc = {"x": [float(v) for v in wf.x],
               "psi": [float(v) for v in wf.values]}
        doc.update(meta)
        _emit(json.dumps(doc, indent=2) + "\n", cfg)
    else:
        lines = ["x,psi"]
        lines += [f"{_f(a)},{_f(b)}" for a, b in zip(wf.x, wf.values)]
        _emit("\n".join(lines) + "\n", cfg)
        sidecar = cfg.output_path + ".json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _diag("usage", message)
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _parse_optional(self, arg_string):
        # a number is a flag's value in every form float() reads, such as
        # -1e-3 and -inf, not only in the -1 and -.5 forms argparse knows
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_flag(sub: argparse.ArgumentParser, row) -> None:
    _, _, flag, convert, _, help_text = row
    if isinstance(convert, tuple):
        sub.add_argument(flag, choices=convert, help=help_text)
    else:
        sub.add_argument(flag, type=_FLAG_TYPES.get(convert), help=help_text)


def _add_shared(sub: argparse.ArgumentParser) -> None:
    # the usage lists --config, the output flags and --tol, --dump-config,
    # then the other fields in their order
    rows = {row[2]: row for row in _CONFIG}
    sub.add_argument("--config", help="JSON run configuration file")
    for flag in ("--out", "--format", "--tol"):
        _add_flag(sub, rows.pop(flag))
    sub.add_argument("--dump-config", action="store_true",
                     help="print the resolved configuration and exit")
    for row in rows.values():
        _add_flag(sub, row)


# subcommand: (help, handler, its own arguments before the shared ones)
_COMMANDS = {
    "families": ("list the built-in presets", cmd_families,
                 ((("name",), dict(nargs="?", help="show a single preset")),)),
    "eval": ("sample W, V and Vtilde on a grid", cmd_eval, ()),
    "spectrum": ("bound-state energies", cmd_spectrum,
                 ((("--mode",), dict(choices=("analytic", "numeric", "both"),
                                     default="analytic")),)),
    "verify": ("run the residual check suites", cmd_verify,
               ((("--suite",), dict(choices=("riccati", "shape", "adjoint",
                                             "ladder", "all"),
                                    default="all")),)),
    "wavefunction": ("one normalized bound state", cmd_wavefunction,
                     ((("--k",), dict(type=int, default=0,
                                      help="level index")),)),
}


def build_parser(argv=None) -> _Parser:
    """The CLI's parser. Every subcommand is listed, but only the one argv
    invokes, its first non-option word, gets its options: argparse reads no
    other subparser. With argv None or no subcommand named, all are built."""
    parser = _Parser(prog="shapeinv",
                     description="Exactly solvable quantum ladders from "
                                 "first-order Riccati data.")
    sub = parser.add_subparsers(dest="command", required=True)
    words = [a for a in argv or () if not a.startswith("-")]
    invoked = words[0] if words else None
    for name, (help_text, handler, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if invoked not in _COMMANDS or name == invoked:
            for args, kwargs in own:
                p.add_argument(*args, **kwargs)
            _add_shared(p)
            p.set_defaults(handler=handler)
    return parser


# every failure main reports, the first match winning: (exception types,
# diagnostic slug, exit code, the exception's attributes the diagnostic
# carries)
_FAILURES = (
    (PoleError, "pole", EXIT_POLE, ("locations",)),
    (NormalizationError, "non-normalizable", EXIT_NORMALIZABILITY,
     ("divergent_end",)),
    (OrbitError, "orbit", EXIT_NORMALIZABILITY, ()),
    (GridTooCoarseError, "grid-too-coarse", EXIT_USAGE, ("h", "w_max")),
    (VerificationError, "verification", EXIT_VERIFY, ()),
    (BoundaryConditionError, "boundary", EXIT_VERIFY, ()),
    ((ShapeInvError, ValueError, OSError), "config", EXIT_USAGE, ()),
)


def main(argv=None) -> int:
    # run as the process's own command line: numpy is not loaded yet (the
    # handlers import it), and its OpenBLAS would start a worker per CPU
    # that spins through numpy's import and then idles, for single-vector
    # BLAS calls that gain nothing from threads. A thread count the user
    # set is kept; an in-process caller's environment is left alone
    console = argv is None
    if console:
        argv = sys.argv[1:]
        if not any(name in os.environ for name in _BLAS_THREAD_VARS):
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # the cyclic collector is off for the run, whose objects mostly live
    # until exit (numpy's import alone set off about 25 passes), and back
    # in the state it was found however main ends
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser(argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            cfg = _resolve_config(args)
            if args.dump_config:
                sys.stdout.write(json.dumps(cfg.to_json(), indent=2) + "\n")
                return EXIT_OK
            return args.handler(args, cfg)
        except Exception as exc:
            for types, slug, code, attrs in _FAILURES:
                if isinstance(exc, types):
                    _diag(slug, str(exc), **{a: getattr(exc, a) for a in attrs})
                    return code
            raise
    finally:
        # a console run's heap is frozen first: the next allocation would
        # otherwise start a young pass over numpy's ~21k objects, and the
        # interpreter's last collections would walk them; they are left to
        # the OS. No output waits on them: every --out file is closed by
        # its `with` block, and stdout and stderr are flushed at exit
        if console:
            gc.freeze()
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
