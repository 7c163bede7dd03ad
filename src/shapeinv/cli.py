"""Command-line front end.

Subcommands: families (preset catalogue), eval (sample W, V, Vtilde on a
grid), spectrum (analytic ladder sums, finite-difference oracle, or both),
verify (residual suites), wavefunction (one chain-built state plus sidecar
metadata). Every failure path prints a one-line JSON diagnostic to stderr and
exits with a stable code:

    0 success   1 usage/config   2 pole on grid   3 tolerance breach
    4 non-normalizable state     5 verification failure   6 truncated chain

Data outputs carry no timestamps so reruns are byte-identical; the only
version stamp is the `generated_by` field in wavefunction metadata.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import checks, families, numerics, partners, spectra
from .errors import (BoundaryConditionError, FamilyError, GridTooCoarseError,
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


def _diag(slug: str, message: str, **extra) -> None:
    payload = {"error": slug, "message": message}
    payload.update(extra)
    sys.stderr.write(json.dumps(payload) + "\n")


def _f(v) -> str:
    # shortest representation that round-trips a double, '.' decimal point
    return repr(float(v))


# ---------------------------------------------------------------------------
# run configuration

def _default_family() -> dict:
    return families.family_to_json(families.preset_params("TypeD", b=1.0))


@dataclass(frozen=True)
class RunConfig:
    family: dict = field(default_factory=_default_family)
    m: float = 1.0
    direction: str = "auto"
    grid: object = "auto"  # "auto" or {"xmin", "xmax", "n"}
    kmax: int = 4
    d: float = 0.0
    tol: float = 1e-2
    output_path: Optional[str] = None
    output_format: str = "csv"
    pole_margin: float = 1e-3

    def __post_init__(self):
        # defaults, config files and flags all end up here; family constants
        # are checked by the descriptor parser
        for name in ("m", "d", "tol", "pole_margin"):
            _require_finite(name, getattr(self, name))
        if self.grid != "auto":
            for key in ("xmin", "xmax"):
                _require_finite(f"grid {key}", self.grid[key])

    def to_json(self) -> dict:
        return {
            "family": dict(self.family),
            "m": self.m,
            "direction": self.direction,
            "grid": self.grid if self.grid == "auto" else dict(self.grid),
            "kmax": self.kmax,
            "d": self.d,
            "tol": self.tol,
            "output": {"path": self.output_path, "format": self.output_format},
            "pole_margin": self.pole_margin,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        known = {"family", "m", "direction", "grid", "kmax", "d", "tol",
                 "output", "pole_margin"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        if "family" in obj:
            kwargs["family"] = _check_family_descriptor(obj["family"])
        if "m" in obj:
            kwargs["m"] = float(obj["m"])
        if "direction" in obj:
            kwargs["direction"] = _check_direction(obj["direction"])
        if "grid" in obj:
            kwargs["grid"] = _check_grid(obj["grid"])
        if "kmax" in obj:
            kwargs["kmax"] = _as_int("kmax", obj["kmax"])
        if "d" in obj:
            kwargs["d"] = float(obj["d"])
        if "tol" in obj:
            kwargs["tol"] = float(obj["tol"])
        if "output" in obj:
            out = obj["output"]
            if not isinstance(out, dict) or set(out) - {"path", "format"}:
                raise ValueError("config output must be {path, format}")
            if "path" in out:
                kwargs["output_path"] = out["path"]
            if "format" in out:
                kwargs["output_format"] = _check_format(out["format"])
        if "pole_margin" in obj:
            kwargs["pole_margin"] = float(obj["pole_margin"])
        return cls(**kwargs)

    def build_family(self) -> families.Family:
        return families.family_from_json(self.family)


def _require_finite(name: str, value) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _as_int(name: str, value) -> int:
    if isinstance(value, float):
        _require_finite(name, value)
    return int(value)


def _check_family_descriptor(obj) -> dict:
    families.family_from_json(obj)  # validates schema and values
    return dict(obj)


def _check_direction(value: str) -> str:
    if value not in ("auto", "decreasing", "increasing"):
        raise ValueError("direction must be auto, decreasing or increasing")
    return value


def _check_format(value: str) -> str:
    if value not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    return value


def _check_grid(value):
    if value == "auto":
        return "auto"
    if not isinstance(value, dict) or set(value) != {"xmin", "xmax", "n"}:
        raise ValueError('grid must be "auto" or {xmin, xmax, n}')
    return {"xmin": float(value["xmin"]), "xmax": float(value["xmax"]),
            "n": _as_int("grid n", value["n"])}


def _parse_family_flag(text: str) -> dict:
    """Either a raw JSON descriptor or 'Preset[:key=value,...]'."""
    text = text.strip()
    if text.startswith("{"):
        return _check_family_descriptor(json.loads(text))
    name, _, tail = text.partition(":")
    constants = {}
    if tail:
        for piece in tail.split(","):
            key, _, val = piece.partition("=")
            if not _ or not key:
                raise ValueError(f"bad family constant {piece!r}; use key=value")
            constants[key.strip()] = float(val)
    try:
        fam = families.preset_params(name, **constants)
    except TypeError as exc:
        raise ValueError(f"unknown family constant: {exc}") from exc
    return _check_family_descriptor(families.family_to_json(fam))


def _parse_grid_flag(text: str):
    text = text.strip()
    if text == "auto":
        return "auto"
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError('grid flag must be "auto" or "xmin,xmax,n"')
    return {"xmin": float(parts[0]), "xmax": float(parts[1]),
            "n": int(parts[2])}


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_json(json.load(fh))
    updates = {}
    if getattr(args, "family", None) is not None:
        updates["family"] = _parse_family_flag(args.family)
    if getattr(args, "m", None) is not None:
        updates["m"] = args.m
    if getattr(args, "direction", None) is not None:
        updates["direction"] = args.direction
    if getattr(args, "grid", None) is not None:
        updates["grid"] = _parse_grid_flag(args.grid)
    if getattr(args, "kmax", None) is not None:
        updates["kmax"] = args.kmax
    if getattr(args, "d", None) is not None:
        updates["d"] = args.d
    if getattr(args, "tol", None) is not None:
        updates["tol"] = args.tol
    if getattr(args, "out", None) is not None:
        updates["output_path"] = args.out
    if getattr(args, "format", None) is not None:
        updates["output_format"] = args.format
    if getattr(args, "pole_margin", None) is not None:
        updates["pole_margin"] = args.pole_margin
    return replace(cfg, **updates) if updates else cfg


# ---------------------------------------------------------------------------
# grid resolution

def _auto_grid(cfg: RunConfig, fam: families.Family) -> numerics.Grid:
    anchor = spectra._default_anchor(fam)
    big = 1e15
    lo, hi = fam.natural_domain(cfg.m, anchor, (anchor - big, anchor + big))
    left_pole = lo > anchor - big + 1.0
    right_pole = hi < anchor + big - 1.0
    if left_pole and right_pole:
        return numerics.Grid(lo + cfg.pole_margin, hi - cfg.pole_margin,
                             _DEFAULT_N)
    pp = partners.pair_from_family(fam, cfg.d)
    center = anchor if (left_pole or right_pole) else fam.params.A
    step = 1.0
    if left_pole:
        step = min(step, 0.5 * (anchor - lo))
    if right_pole:
        step = min(step, 0.5 * (hi - anchor))
    v0 = float(pp.V(center, cfg.m))
    curv = abs(float(pp.V(center + step, cfg.m))
               + float(pp.V(center - step, cfg.m)) - 2.0 * v0) / (step * step)
    extent = max(8.0, 6.0 / math.sqrt(curv)) if curv > 1e-8 else 8.0
    x0 = lo + cfg.pole_margin if left_pole else center - extent
    x1 = hi - cfg.pole_margin if right_pole else center + extent
    return numerics.Grid(x0, x1, _DEFAULT_N)


def _resolve_grid(cfg: RunConfig, fam: families.Family) -> numerics.Grid:
    if cfg.grid == "auto":
        return _auto_grid(cfg, fam)
    return numerics.Grid(cfg.grid["xmin"], cfg.grid["xmax"], cfg.grid["n"])


def _grid_meta(grid: numerics.Grid) -> dict:
    return {"xmin": grid.x0, "xmax": grid.x1, "n": grid.n}


def _require_pole_free(fam: families.Family, m: float,
                       grid: numerics.Grid) -> None:
    poles = fam.singularities(m, (grid.x0, grid.x1))
    if poles:
        raise PoleError("potential has poles inside the requested grid",
                        locations=[float(p) for p in poles])


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_config_requested(args, cfg: RunConfig) -> bool:
    if getattr(args, "dump_config", False):
        sys.stdout.write(json.dumps(cfg.to_json(), indent=2) + "\n")
        return True
    return False


# ---------------------------------------------------------------------------
# subcommands

def cmd_families(args) -> int:
    cfg = _resolve_config(args)
    if _dump_config_requested(args, cfg):
        return EXIT_OK
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


def _eval_points(cfg: RunConfig, fam: families.Family) -> np.ndarray:
    # eval samples closed forms only, so it is free of the minimum node
    # count the finite-difference grid type enforces
    if cfg.grid == "auto":
        grid = _auto_grid(cfg, fam)
        return grid.x
    n = cfg.grid["n"]
    if n < 2:
        raise ValueError("eval grid needs at least 2 nodes")
    return np.linspace(cfg.grid["xmin"], cfg.grid["xmax"], n)


def _eval_samples(cfg: RunConfig, fam: families.Family, xs: np.ndarray):
    pp = partners.pair_from_family(fam, cfg.d)
    W = np.asarray(fam.k(xs, cfg.m), dtype=float)
    V = np.asarray(pp.V(xs, cfg.m), dtype=float)
    Vt = np.asarray(pp.Vtilde(xs, cfg.m), dtype=float)
    bad = ~(np.isfinite(W) & np.isfinite(V) & np.isfinite(Vt))
    if np.any(bad):
        raise PoleError("potential is not finite on the requested grid",
                        locations=[float(x) for x in xs[bad][:8]])
    return xs, W, V, Vt


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    if _dump_config_requested(args, cfg):
        return EXIT_OK
    fam = cfg.build_family()
    xs = _eval_points(cfg, fam)
    poles = fam.singularities(cfg.m, (float(xs[0]), float(xs[-1])))
    if poles:
        raise PoleError("potential has poles inside the requested grid",
                        locations=[float(p) for p in poles])
    xs, W, V, Vt = _eval_samples(cfg, fam, xs)
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
    requested = None if cfg.direction == "auto" else cfg.direction
    return spectra.resolve_direction(fam, cfg.m, requested)


def cmd_spectrum(args) -> int:
    cfg = _resolve_config(args)
    if _dump_config_requested(args, cfg):
        return EXIT_OK
    fam = cfg.build_family()
    try:
        direction = _resolve_direction_or_exit(cfg, fam)
    except OrbitError as exc:
        _diag("non-normalizable", str(exc))
        return EXIT_NORMALIZABILITY
    mode = args.mode
    report = {"mode": mode, "m": cfg.m, "direction": direction.value,
              "d": cfg.d}
    analytic = None
    if mode in ("analytic", "both"):
        spec = spectra.spectrum_analytic(fam, cfg.m, cfg.kmax, direction,
                                         cfg.d)
        if not spec.levels:
            _diag("non-normalizable",
                  spec.truncation_reason or "no normalizable ground state",
                  direction=direction.value)
            return EXIT_NORMALIZABILITY
        analytic = spec
        block = {"levels": [{"k": k, "E": e} for k, e in spec.levels],
                 "partner_levels": [{"k": k, "E": e}
                                    for k, e in spec.partner_levels],
                 "truncated": spec.truncated}
        if spec.truncated:
            block["truncation_reason"] = spec.truncation_reason
        report["analytic"] = block
    numeric = None
    if mode in ("numeric", "both"):
        probe = spectra.check_normalizable(fam, cfg.m, direction)
        if not probe:
            _diag("non-normalizable",
                  "ground state is not square integrable",
                  divergent_end=probe.divergent_end,
                  direction=direction.value)
            return EXIT_NORMALIZABILITY
        grid = _resolve_grid(cfg, fam)
        _require_pole_free(fam, cfg.m, grid)
        pp = partners.pair_from_family(fam, cfg.d)
        numeric = numerics.spectrum_numeric(lambda x: pp.V(x, cfg.m), grid,
                                            cfg.kmax + 1)
        err = numeric.error_estimate
        levels = []
        for k in range(len(numeric)):
            rich = None
            if err is not None and np.isfinite(err[k]):
                rich = float(err[k])
            levels.append({"k": k, "E": float(numeric.energies[k]),
                           "richardson": rich})
        report["numeric"] = {"levels": levels, "grid": _grid_meta(grid)}
    exit_code = EXIT_OK
    if mode == "both":
        rows = []
        worst = 0.0
        for k, e_an in analytic.levels:
            if k >= len(numeric):
                break
            e_num = float(numeric.energies[k])
            diff = abs(e_an - e_num)
            worst = max(worst, diff)
            rich = report["numeric"]["levels"][k]["richardson"]
            rows.append({"k": k, "E_analytic": e_an, "E_numeric": e_num,
                         "abs_diff": diff, "richardson": rich})
        within = worst <= cfg.tol
        report["comparison"] = {"tol": cfg.tol, "levels": rows,
                                "max_abs_diff": worst, "within_tol": within}
        if not within:
            exit_code = EXIT_TOLERANCE
    _emit(json.dumps(report, indent=2) + "\n", cfg)
    if exit_code == EXIT_TOLERANCE:
        _diag("tolerance", "analytic and numeric levels disagree beyond tol",
              max_abs_diff=report["comparison"]["max_abs_diff"], tol=cfg.tol)
    return exit_code


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    if _dump_config_requested(args, cfg):
        return EXIT_OK
    names = list(checks.SUITE_NAMES) if args.suite == "all" else [args.suite]
    n = cfg.grid["n"] if isinstance(cfg.grid, dict) else _DEFAULT_N
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


def cmd_wavefunction(args) -> int:
    cfg = _resolve_config(args)
    if _dump_config_requested(args, cfg):
        return EXIT_OK
    if cfg.output_format == "csv" and not cfg.output_path:
        _diag("usage", "wavefunction in csv format needs --out for the "
              "sidecar; use --format json for standard output")
        return EXIT_USAGE
    fam = cfg.build_family()
    try:
        direction = _resolve_direction_or_exit(cfg, fam)
    except OrbitError as exc:
        _diag("non-normalizable", str(exc))
        return EXIT_NORMALIZABILITY
    grid = _resolve_grid(cfg, fam)
    _require_pole_free(fam, cfg.m, grid)
    try:
        wf = spectra.excited_state(fam, cfg.m, args.k, direction, grid, cfg.d)
    except (OrbitError, NormalizationError) as exc:
        bound = spectra.max_level(fam, cfg.m, direction)
        _diag("truncated-chain", str(exc), requested_level=args.k,
              max_level=bound)
        return EXIT_TRUNCATION
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


def _add_shared(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run configuration file")
    sub.add_argument("--out", help="output file (default: standard output)")
    sub.add_argument("--format", choices=("csv", "json"),
                     help="output format")
    sub.add_argument("--tol", type=float, help="comparison tolerance")
    sub.add_argument("--dump-config", action="store_true",
                     help="print the resolved configuration and exit")
    sub.add_argument("--family",
                     help="preset name, 'Preset:key=val,...', or a JSON "
                          "family descriptor")
    sub.add_argument("--m", type=float, help="chain parameter m")
    sub.add_argument("--direction",
                     choices=("auto", "decreasing", "increasing"),
                     help="chain direction")
    sub.add_argument("--grid", help='"auto" or "xmin,xmax,n"')
    sub.add_argument("--kmax", type=int, help="highest level index")
    sub.add_argument("--d", type=float, help="factorization energy shift")
    sub.add_argument("--pole-margin", type=float, dest="pole_margin",
                     help="distance kept from potential poles")


def build_parser() -> _Parser:
    parser = _Parser(prog="shapeinv",
                     description="Exactly solvable quantum ladders from "
                                 "first-order Riccati data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="list the built-in presets")
    p.add_argument("name", nargs="?", help="show a single preset")
    _add_shared(p)
    p.set_defaults(handler=cmd_families)

    p = sub.add_parser("eval", help="sample W, V and Vtilde on a grid")
    _add_shared(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("spectrum", help="bound-state energies")
    p.add_argument("--mode", choices=("analytic", "numeric", "both"),
                   default="analytic")
    _add_shared(p)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("verify", help="run the residual check suites")
    p.add_argument("--suite",
                   choices=("riccati", "shape", "adjoint", "ladder", "all"),
                   default="all")
    _add_shared(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("wavefunction", help="one normalized bound state")
    p.add_argument("--k", type=int, default=0, help="level index")
    _add_shared(p)
    p.set_defaults(handler=cmd_wavefunction)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except PoleError as exc:
        _diag("pole", str(exc),
              locations=getattr(exc, "locations", None))
        return EXIT_POLE
    except NormalizationError as exc:
        _diag("non-normalizable", str(exc),
              divergent_end=getattr(exc, "divergent_end", None))
        return EXIT_NORMALIZABILITY
    except OrbitError as exc:
        _diag("orbit", str(exc))
        return EXIT_NORMALIZABILITY
    except GridTooCoarseError as exc:
        _diag("grid-too-coarse", str(exc), h=exc.h, w_max=exc.w_max)
        return EXIT_USAGE
    except VerificationError as exc:
        _diag("verification", str(exc))
        return EXIT_VERIFY
    except BoundaryConditionError as exc:
        _diag("boundary", str(exc))
        return EXIT_VERIFY
    except (FamilyError, ShapeInvError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        _diag("config", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
