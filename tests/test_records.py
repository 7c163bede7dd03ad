"""Record types: what the frozen dataclasses they replaced gave, pinned.

Every class in CASES was a @dataclass(frozen=True). Built on the shared
`shapeinv._record.Record` base, each must keep the dataclass behaviour:
==, hash and repr over the same fields (the repr strings below are the
dataclass version's), FrozenInstanceError on assigning or deleting any
attribute, copies and pickles that round-trip, and the refusals of the old
__post_init__ with their exception types and messages. No class of the
package is a dataclass any more; Family and RunConfig, the last two, are
Records too.
"""

import copy
import dataclasses
import hashlib
import importlib
import math
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shapeinv
from shapeinv import (checks, cli, families, numerics, partners, riccati,
                      spectra)
from shapeinv.errors import FamilyError

_GRID = (-1.0, 2.0, 17)


def _typed():
    return families.preset_params("TypeD", b=1.0)


def _typea():
    return families.preset_params("TypeA")


def _solution():
    return riccati.RiccatiSolution(-1.0, 0.25, riccati.ExtendedReal(0.5))


# label: (builder of a fresh instance, the dataclass's fields, its repr)
CASES = {
    "ExtendedReal": (
        lambda: riccati.ExtendedReal(1.5), ("value",), "ExtendedReal(1.5)"),
    "ExtendedReal-inf": (
        lambda: riccati.ExtendedReal(math.inf), ("value",), "ExtendedReal(inf)"),
    "ConstRiccati": (
        lambda: riccati.ConstRiccati(1.0, -2.0, 0.5), ("a2", "a1", "a0"),
        "ConstRiccati(a2=1.0, a1=-2.0, a0=0.5)"),
    "RiccatiSolution": (
        _solution, ("a", "A", "B"),
        "RiccatiSolution(a=-1.0, A=0.25, B=ExtendedReal(0.5))"),
    "ZSolution": (
        lambda: riccati.ZSolution(0.5, -1.0, _solution()), ("b", "D", "y"),
        "ZSolution(b=0.5, D=-1.0, y=RiccatiSolution(a=-1.0, A=0.25, "
        "B=ExtendedReal(0.5)))"),
    "LinearFirstOrder": (
        lambda: riccati.LinearFirstOrder(2.0, -1.0), ("a", "b"),
        "LinearFirstOrder(a=2.0, b=-1.0)"),
    "SignClass": (
        lambda: families.SignClass("neg", 1.5), ("kind", "c"),
        "SignClass(kind='neg', c=1.5)"),
    "SignClass-zero": (
        lambda: families.SignClass("zero", 3.0), ("kind", "c"),
        "SignClass(kind='zero', c=0.0)"),
    "FamilyParams": (
        lambda: families.FamilyParams(
            families.SignClass("pos", 1.2), A=0.1, B=riccati.ExtendedReal(-1.0),
            b=0.5, D=-0.3, q=2.0, t=0.1, d=0.2),
        ("sign", "A", "B", "b", "D", "q", "t", "d"),
        "FamilyParams(sign=SignClass(kind='pos', c=1.2), A=0.1, "
        "B=ExtendedReal(-1.0), b=0.5, D=-0.3, q=2.0, t=0.1, d=0.2)"),
    "FamilyParams-default": (
        lambda: families.FamilyParams(families.SignClass("zero")),
        ("sign", "A", "B", "b", "D", "q", "t", "d"),
        "FamilyParams(sign=SignClass(kind='zero', c=0.0), A=0.0, "
        "B=ExtendedReal(0.0), b=0.0, D=0.0, q=1.0, t=0.0, d=0.0)"),
    "Family": (
        lambda: families.preset_params("TypeF", q=-2.0, A=0.5),
        ("params", "kind"),
        "Family(params=FamilyParams(sign=SignClass(kind='zero', c=0.0), "
        "A=0.5, B=ExtendedReal(inf), b=0.0, D=0.0, q=-2.0, t=0.0, d=0.0), "
        "kind=<FamilyKind.INVERSE_POWER: 'inverse'>)"),
    "_PresetDef": (
        lambda: families._PresetDef(families.FamilyKind.AFFINE, "neg",
                                    riccati.ExtendedReal(0.0), True,
                                    ("c", "A", "b", "D", "t", "d")),
        ("kind", "sign_kind", "B", "needs_c", "free"),
        "_PresetDef(kind=<FamilyKind.AFFINE: 'affine'>, sign_kind='neg', "
        "B=ExtendedReal(0.0), needs_c=True, free=('c', 'A', 'b', 'D', 't', 'd'))"),
    "Grid": (
        lambda: numerics.Grid(*_GRID), ("x0", "x1", "n"),
        "Grid(x0=-1.0, x1=2.0, n=17)"),
    "GridFunction": (
        lambda: numerics.GridFunction(numerics.Grid(*_GRID), np.arange(17.0) / 4.0),
        ("grid", "values"),
        "GridFunction(grid=Grid(x0=-1.0, x1=2.0, n=17), values=array([0.  , "
        "0.25, 0.5 , 0.75, 1.  , 1.25, 1.5 , 1.75, 2.  , 2.25, 2.5 ,\n       "
        "2.75, 3.  , 3.25, 3.5 , 3.75, 4.  ]))"),
    "TridiagonalSym": (
        lambda: numerics.TridiagonalSym(np.array([2.0, 3.0]), np.array([-1.0])),
        ("diag", "offdiag"),
        "TridiagonalSym(diag=array([2., 3.]), offdiag=array([-1.]))"),
    # 886 characters of arrays, pinned by digest. The twisted-factorization
    # eigenvectors moved the odd level's node sample (row 8) from
    # -1.23503385e-16, under inverse iteration, to -7.48719083e-18.
    "NumericSpectrum": (
        lambda: numerics.spectrum_numeric(lambda x: x * x,
                                          numerics.Grid(-4.0, 4.0, 17), 2),
        ("grid", "energies", "wavefunctions", "error_estimate"),
        "sha256:a35993f21372daf0ce505e7da39818bed34b5588e4499cb3539a7143e7ddd543"),
    "PotentialPair": (
        lambda: partners.PotentialPair(_typed(), 0.5), ("W", "d"),
        "PotentialPair(W=Family(params=FamilyParams(sign=SignClass(kind='zero', "
        "c=0.0), A=0.0, B=ExtendedReal(0.0), b=1.0, D=0.0, q=1.0, t=0.0, "
        "d=0.0), kind=<FamilyKind.AFFINE: 'affine'>), d=0.5)"),
    "PotentialRecord": (
        lambda: partners.closed_form_potentials(_typed(), 2.0),
        ("basis", "V", "Vtilde", "R_at_m", "m", "family"),
        "PotentialRecord(basis='generic', V={'f2': 0.0, 'fh': 0.0, 'h2': 1.0, "
        "'f': 0.0, 'const': -1.0}, Vtilde={'f2': 0.0, 'fh': 0.0, 'h2': 1.0, "
        "'f': 0.0, 'const': 1.0}, R_at_m=2.0, m=2.0, family=Family("
        "params=FamilyParams(sign=SignClass(kind='zero', c=0.0), A=0.0, "
        "B=ExtendedReal(0.0), b=1.0, D=0.0, q=1.0, t=0.0, d=0.0), "
        "kind=<FamilyKind.AFFINE: 'affine'>))"),
    "LSequenceClass": (
        lambda: partners.classify_L_sequence(_typed(), 2.0), ("kind", "values"),
        "LSequenceClass(kind='increasing', values=(-4.0, -2.0, 0.0))"),
    "WaveFunction": (
        lambda: spectra.WaveFunction(
            numerics.GridFunction(numerics.Grid(*_GRID), np.ones(17)), 1, 2.5, True),
        ("data", "k", "energy", "normalized"),
        "WaveFunction(data=GridFunction(grid=Grid(x0=-1.0, x1=2.0, n=17), "
        "values=array([1., 1., 1., 1., 1., 1., 1., 1., 1., 1., 1., 1., 1., 1., "
        "1., 1., 1.])), k=1, energy=2.5, normalized=True)"),
    "NormalizabilityReport": (
        lambda: spectra.NormalizabilityReport(False, "left"),
        ("normalizable", "divergent_end"),
        "NormalizabilityReport(normalizable=False, divergent_end='left')"),
    "ChainStep": (
        lambda: spectra.ChainStep(2, -3.5, 4.0, 1, (3.0, 2.0), False),
        ("k", "energy", "seed_parameter", "seed_sign", "operator_parameters",
         "adjoint"),
        "ChainStep(k=2, energy=-3.5, seed_parameter=4.0, seed_sign=1, "
        "operator_parameters=(3.0, 2.0), adjoint=False)"),
    "SpectralChain": (
        lambda: spectra.build_chain(_typea(), 2.0, 2, "decreasing"),
        ("family", "m", "d", "direction", "steps"),
        "SpectralChain(family=Family(params=FamilyParams(sign=SignClass("
        "kind='neg', c=1.0), A=0.0, B=ExtendedReal(0.0), b=0.0, D=0.0, q=1.0, "
        "t=0.0, d=0.0), kind=<FamilyKind.AFFINE: 'affine'>), m=2.0, d=0.0, "
        "direction=<ChainDirection.DecreasingL: 'decreasing'>, steps=("
        "ChainStep(k=0, energy=5.0, seed_parameter=3.0, seed_sign=1, "
        "operator_parameters=(), adjoint=False), ChainStep(k=1, energy=12.0, "
        "seed_parameter=4.0, seed_sign=1, operator_parameters=(3.0,), "
        "adjoint=False)))"),
    "SpectrumResult": (
        lambda: spectra.spectrum_analytic(_typea(), 2.0, 2),
        ("family", "m", "d", "direction", "requested", "levels",
         "partner_levels", "truncated", "truncation_reason"),
        "SpectrumResult(family=Family(params=FamilyParams(sign=SignClass("
        "kind='neg', c=1.0), A=0.0, B=ExtendedReal(0.0), b=0.0, D=0.0, q=1.0, "
        "t=0.0, d=0.0), kind=<FamilyKind.AFFINE: 'affine'>), m=2.0, d=0.0, "
        "direction=<ChainDirection.DecreasingL: 'decreasing'>, requested=2, "
        "levels=((0, 5.0), (1, 12.0), (2, 21.0)), partner_levels=((0, 0.0), "
        "(1, 5.0), (2, 12.0), (3, 21.0)), truncated=False, "
        "truncation_reason=None)"),
    "RunConfig": (
        lambda: cli.RunConfig(m=2.5, grid={"xmin": -8.0, "xmax": 8.0,
                                           "n": 101}, kmax=3),
        ("family", "m", "direction", "grid", "kmax", "d", "tol",
         "output_path", "output_format", "pole_margin"),
        "RunConfig(family={'kind': 'affine', 'sign': 'zero', 'c': 0.0, "
        "'A': 0.0, 'B': 0.0, 'b': 1.0, 'D': 0.0, 'q': 1.0, 't': 0.0, "
        "'d': 0.0}, m=2.5, direction='auto', grid={'xmin': -8.0, "
        "'xmax': 8.0, 'n': 101}, kmax=3, d=0.0, tol=0.01, output_path=None, "
        "output_format='csv', pole_margin=0.001)"),
    "CheckResult": (
        lambda: checks.CheckResult("x", True, 0.5, 1.0, "d", {"n": 3}),
        ("name", "passed", "max_residual", "tolerance", "detail", "grid"),
        "CheckResult(name='x', passed=True, max_residual=0.5, tolerance=1.0, "
        "detail='d', grid={'n': 3})"),
}

# fields holding an array or a dict make the dataclass unhashable, and ==
# between distinct arrays ambiguous
UNHASHABLE = {"GridFunction", "TridiagonalSym", "NumericSpectrum",
              "PotentialRecord", "WaveFunction", "RunConfig", "CheckResult"}


def _field_values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


def _same(a, b) -> bool:
    """Field-by-field equality that reads arrays by value."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    fields = getattr(type(a), "_fields", None)
    if fields is not None:
        return _same(_field_values(a, fields), _field_values(b, fields))
    return a == b


@pytest.mark.parametrize("label", CASES)
def test_repr_is_the_dataclass_repr(label):
    build, _, want = CASES[label]
    got = repr(build())
    if want.startswith("sha256:"):
        got = "sha256:" + hashlib.sha256(got.encode()).hexdigest()
    assert got == want


@pytest.mark.parametrize("label", CASES)
def test_eq_and_hash_read_the_dataclass_fields(label):
    build, fields, _ = CASES[label]
    obj = build()
    assert obj == obj and not obj != obj
    assert obj != object() and (obj == object()) is False
    if label in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
        return
    other = build()
    assert other is not obj and other == obj
    assert hash(obj) == hash(_field_values(obj, fields)) == hash(other)


def test_eq_tells_records_apart():
    assert families.SignClass("neg", 1.5) != families.SignClass("neg", 1.25)
    assert families.SignClass("zero", 1.0) == families.SignClass("zero", 2.0)
    assert riccati.ExtendedReal(1.0) != riccati.ExtendedReal(math.inf)
    assert numerics.Grid(0.0, 1.0, 17) != numerics.Grid(0.0, 1.0, 18)
    # the same field values in another class are not equal
    assert (riccati.LinearFirstOrder(1.0, 2.0)
            != spectra.NormalizabilityReport(1.0, 2.0))


@pytest.mark.parametrize("label", CASES)
def test_fields_are_frozen(label):
    build, fields, _ = CASES[label]
    obj = build()
    before = repr(obj)
    for name in fields + ("not_a_field",):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert repr(obj) == before


@pytest.mark.parametrize("label", CASES)
def test_copies_round_trip(label):
    build, _, _ = CASES[label]
    obj = build()
    for other in (copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert _same(other, obj)
        assert repr(other) == repr(obj)
        if label not in UNHASHABLE:
            assert other == obj and hash(other) == hash(obj)


def test_copies_rebuild_derived_attributes():
    sol = _solution()
    for other in (copy.copy(sol), copy.deepcopy(sol), pickle.loads(pickle.dumps(sol))):
        assert (other.kind, other.c, other.scale) == (sol.kind, sol.c, sol.scale)
        assert type(other.form) is type(sol.form)
        assert other.evaluate(0.5) == sol.evaluate(0.5)


_G = numerics.Grid(*_GRID)

# the old __post_init__ refusals: exception type and exact message
REFUSALS = {
    "ExtendedReal-nan": (lambda: riccati.ExtendedReal(math.nan),
                         ValueError, "ExtendedReal cannot hold NaN"),
    "ConstRiccati-a2": (lambda: riccati.ConstRiccati(0.0, 1.0, 1.0),
                        ValueError, "a2 must be nonzero for a Riccati equation"),
    "SignClass-kind": (lambda: families.SignClass("bogus", 1.0),
                       FamilyError, "unknown sign class 'bogus'"),
    "SignClass-c-high": (lambda: families.SignClass("pos", 1e7), FamilyError,
                         "rate constant c = 10000000.0 is out of range: "
                         "need 1e-6 <= c <= 1e6 for nonzero a"),
    "SignClass-c-low": (lambda: families.SignClass("neg", 1e-7), FamilyError,
                        "rate constant c = 1e-07 is out of range: "
                        "need 1e-6 <= c <= 1e6 for nonzero a"),
    "FamilyParams-A": (lambda: families.FamilyParams(families.SignClass("pos", 10.0),
                                                     A=2e11), FamilyError,
                       "offset A = 200000000000.0 is out of range: "
                       "need |A| <= 1e+12 and c|A| <= 1e+12"),
    "FamilyParams-B": (lambda: families.FamilyParams(families.SignClass("pos", 1.0),
                                                     B=math.nan),
                       ValueError, "ExtendedReal cannot hold NaN"),
    "Family-q": (lambda: families.Family(
                     families.FamilyParams(families.SignClass("zero"), q=0.0),
                     families.FamilyKind.INVERSE_POWER),
                 FamilyError, "inverse-power ansatz requires q != 0"),
    "RunConfig-m": (lambda: cli.RunConfig(m=math.nan),
                    ValueError, "m must be a finite number, got nan"),
    "RunConfig-kmax": (lambda: cli.RunConfig(kmax=10001), ValueError,
                       "kmax = 10001 is out of range: need 0 <= kmax <= 10000"),
    "RunConfig-n": (lambda: cli.RunConfig(grid={"xmin": 0.0, "xmax": 1.0,
                                                "n": 10 ** 7}),
                    ValueError, "grid n = 10000000 is too large: "
                                "need n <= 1000001"),
    "Grid-nonfinite": (lambda: numerics.Grid(0.0, math.inf, 20),
                       ValueError, "grid endpoints must be finite"),
    "Grid-order": (lambda: numerics.Grid(1.0, 0.0, 20),
                   ValueError, "grid needs x1 > x0"),
    "Grid-n": (lambda: numerics.Grid(0.0, 1.0, 15),
               ValueError, "grid needs at least 16 nodes"),
    "GridFunction-size": (lambda: numerics.GridFunction(_G, np.ones(16)),
                          ValueError, "values must match the grid size"),
    "GridFunction-finite": (lambda: numerics.GridFunction(_G, np.full(17, np.nan)),
                            ValueError, "grid function values must be finite"),
    "TridiagonalSym-diag": (lambda: numerics.TridiagonalSym(np.ones((2, 2)), np.ones(1)),
                            ValueError, "diagonal must be a nonempty 1-d array"),
    "TridiagonalSym-off": (lambda: numerics.TridiagonalSym(np.ones(3), np.ones(3)),
                           ValueError, "off-diagonal must have one fewer entry"),
    "ChainStep-missing": (lambda: spectra.ChainStep(1, 2.0), TypeError,
                          "ChainStep.__init__() missing 4 required positional "
                          "arguments: 'seed_parameter', 'seed_sign', "
                          "'operator_parameters', and 'adjoint'"),
    "ChainStep-unexpected": (
        lambda: spectra.ChainStep(1, 2.0, 3.0, 1, (), False, sign=1), TypeError,
        "ChainStep.__init__() got an unexpected keyword argument 'sign'"),
    "ChainStep-surplus": (
        lambda: spectra.ChainStep(1, 2.0, 3.0, 1, (), False, None), TypeError,
        "ChainStep.__init__() takes 7 positional arguments but 8 were given"),
    "ChainStep-twice": (
        lambda: spectra.ChainStep(1, 2.0, 3.0, 1, (), False, k=1), TypeError,
        "ChainStep.__init__() got multiple values for argument 'k'"),
    "LinearFirstOrder-keyword-missing": (
        lambda: riccati.LinearFirstOrder(b=1.0), TypeError,
        "LinearFirstOrder.__init__() missing 1 required positional "
        "argument: 'a'"),
    "ZSolution-keyword-missing": (
        lambda: riccati.ZSolution(y=_solution()), TypeError,
        "ZSolution.__init__() missing 2 required positional arguments: "
        "'b' and 'D'"),
}


@pytest.mark.parametrize("label", REFUSALS)
def test_refusals_keep_their_type_and_message(label):
    build, exc_type, message = REFUSALS[label]
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value) == message


def test_keyword_and_positional_construction_agree():
    values = (2, -3.5, 4.0, 1, (3.0, 2.0), False)
    by_name = spectra.ChainStep(**dict(zip(spectra.ChainStep._fields, values)))
    # names in any order, and a positional head with a named tail
    shuffled = spectra.ChainStep(adjoint=False, operator_parameters=(3.0, 2.0),
                                 seed_sign=1, seed_parameter=4.0, energy=-3.5,
                                 k=2)
    mixed = spectra.ChainStep(2, -3.5, 4.0, seed_sign=1, adjoint=False,
                              operator_parameters=(3.0, 2.0))
    by_position = spectra.ChainStep(*values)
    for other in (by_name, shuffled, mixed):
        assert other == by_position and hash(other) == hash(by_position)
        assert repr(other) == repr(by_position)


def _shapeinv_classes():
    for info in pkgutil.iter_modules(shapeinv.__path__):
        mod = importlib.import_module(f"shapeinv.{info.name}")
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield f"{info.name}.{name}", obj


def test_no_class_is_a_dataclass():
    classes = dict(_shapeinv_classes())
    assert {"families.Family", "cli.RunConfig", "_grid.Grid"} <= set(classes)
    assert {name for name, cls in classes.items()
            if dataclasses.is_dataclass(cls)} == set()


def test_cli_import_builds_no_dataclass():
    code = ("import dataclasses, sys; before = set(sys.modules); "
            "import shapeinv.cli; "
            "built = [f'{m}.{n}' for m in set(sys.modules) - before "
            "for n, c in list(vars(sys.modules[m]).items()) "
            "if isinstance(c, type) and c.__module__ == m "
            "and dataclasses.is_dataclass(c)]; "
            "print(sorted(built))")
    env = dict(os.environ)
    src = str(Path(shapeinv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
