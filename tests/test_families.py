"""Superpotential families: building blocks, k-functions, spectral symbols,
presets and the JSON descriptor schema."""

import math

import numpy as np
import pytest

from shapeinv import families, riccati
from shapeinv.errors import FamilyError, PoleError
from shapeinv.families import (Family, FamilyKind, FamilyParams, PRESET_NAMES,
                               family_from_json, family_to_json, negative_a,
                               positive_a, preset_catalogue, preset_params,
                               zero_a)
from shapeinv.riccati import INFINITY, ExtendedReal


def make(kind, sign, B, **extra):
    params = FamilyParams(sign=sign, B=B, **extra)
    return Family(params=params, kind=kind)


AFF = FamilyKind.AFFINE
INV = FamilyKind.INVERSE_POWER


# ---------------------------------------------------------------------------
# sign classes

def test_sign_class_constraints():
    assert positive_a(2.0).a == 4.0
    assert negative_a(2.0).a == -4.0
    assert zero_a().a == 0.0
    assert zero_a().c == 0.0
    with pytest.raises(FamilyError):
        positive_a(0.0)
    with pytest.raises(FamilyError):
        negative_a(-1.0)


# ---------------------------------------------------------------------------
# building blocks at the anchor point

def test_block_values_at_translation_point():
    B = 1.7
    fam = make(AFF, positive_a(1.0), ExtendedReal(B), A=0.4)
    bs = fam.basis()
    assert bs.f(0.4) == pytest.approx(-1.0 / B)
    fam = make(AFF, zero_a(), ExtendedReal(B), A=0.4)
    assert fam.basis().h(0.4) == pytest.approx(0.0)
    fam = make(AFF, negative_a(1.0), ExtendedReal(B), A=0.4)
    assert fam.basis().f(0.4) == pytest.approx(1.0 / B)


def test_k1_named_forms():
    xs = np.linspace(-1.2, 1.2, 101)
    tanh_fam = make(AFF, positive_a(1.0), INFINITY)
    assert np.allclose(tanh_fam.k1(xs), np.tanh(xs), atol=1e-14)

    cot_fam = make(AFF, negative_a(1.0), ExtendedReal(0.0))
    xs_in = np.linspace(0.2, 2.9, 101)
    assert np.allclose(cot_fam.k1(xs_in), 1.0 / np.tan(xs_in), atol=1e-12)

    flat = make(AFF, zero_a(), ExtendedReal(0.0))
    assert np.all(flat.k1(xs) == 0.0)


def test_k0_named_forms():
    xs = np.linspace(-1.2, 1.2, 101)
    lin = make(AFF, zero_a(), ExtendedReal(0.0), b=0.8, D=0.3)
    assert np.allclose(lin.k0(xs), 0.8 * xs + 0.3, atol=1e-12)

    xs_in = np.linspace(0.2, 2.9, 101)
    trig = make(AFF, negative_a(1.0), ExtendedReal(0.0), b=0.8, D=0.3)
    expect = -0.8 / np.tan(xs_in) + 0.3 / np.sin(xs_in)
    assert np.allclose(trig.k0(xs_in), expect, atol=1e-12)

    silent = make(AFF, positive_a(1.3), ExtendedReal(2.0))
    assert np.all(silent.k0(xs) == 0.0)


def test_k_affine_combination():
    fam = make(AFF, zero_a(), ExtendedReal(0.0), b=1.0)
    xs = np.linspace(-2.0, 2.0, 64)
    for m in (0.0, 1.0, 3.0):
        assert np.allclose(fam.k(xs, m), xs, atol=1e-14)


def test_k_inverse_combination():
    fam = make(INV, negative_a(1.0), ExtendedReal(0.0), q=2.0)
    xs = np.linspace(0.3, 2.8, 64)
    assert np.allclose(fam.k(xs, 2.0), 1.0 + 2.0 / np.tan(xs), atol=1e-12)
    with pytest.raises(FamilyError):
        fam.k(xs, 0.0)


# ---------------------------------------------------------------------------
# defining equations as seeded sweeps

def _random_family(rng, kind_idx, ansatz):
    kind = ("pos", "zero", "neg")[kind_idx]
    c = rng.uniform(0.3, 2.5)
    sign = {"pos": positive_a(c), "zero": zero_a(),
            "neg": negative_a(c)}[kind]
    B = INFINITY if rng.uniform() < 0.2 else ExtendedReal(rng.uniform(-4, 4))
    extra = dict(A=rng.uniform(-1.5, 1.5), t=rng.uniform(-2, 2))
    if ansatz is AFF:
        extra.update(b=rng.uniform(-2, 2), D=rng.uniform(-2, 2))
    else:
        extra.update(q=rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
    return make(ansatz, sign, B, **extra)


def _window(fam, rng, n=200, margin=1e-2):
    anchor = fam.params.A + 0.37
    poles = fam.singularities(1.0, (anchor - 3.0, anchor + 3.0))
    lo = max([p for p in poles if p <= anchor], default=anchor - 3.0)
    hi = min([p for p in poles if p > anchor], default=anchor + 3.0)
    return rng.uniform(lo + margin, hi - margin, n)


def test_k1_solves_riccati_sweep():
    rng = np.random.default_rng(41)
    for i in range(150):
        fam = _random_family(rng, i % 3, AFF)
        xs = _window(fam, rng)
        res = fam.k1_prime(xs) + fam.k1(xs) ** 2 - fam.a
        assert np.max(np.abs(res)) < 1e-9


def test_k0_solves_companion_sweep():
    rng = np.random.default_rng(43)
    for i in range(150):
        fam = _random_family(rng, i % 3, AFF)
        xs = _window(fam, rng)
        y = riccati.general_solution(fam.a, fam.params.A, fam.params.B)
        res = y.evaluate(xs) * fam.k0(xs) + fam.k0_prime(xs) - fam.params.b
        assert np.max(np.abs(res)) < 1e-9


# ---------------------------------------------------------------------------
# spectral symbol L and spacing R

def test_L_closed_forms():
    lin = make(AFF, zero_a(), ExtendedReal(0.5), b=1.0)
    for m in (1.0, 2.0, 4.5):
        assert lin.L(m) == pytest.approx(-2.0 * m)
    sq = make(AFF, negative_a(1.0), ExtendedReal(0.5))
    for m in (1.0, 2.0, 4.5):
        assert sq.L(m) == pytest.approx(m * m)
    invz = make(INV, zero_a(), ExtendedReal(1.5), q=1.0)
    for m in (1.0, 2.0, 4.5):
        assert invz.L(m) == pytest.approx(-1.0 / (m * m))


def test_R_closed_forms():
    lin = make(AFF, zero_a(), ExtendedReal(0.5), b=1.0)
    assert lin.R(3.0) == pytest.approx(2.0)
    pos = make(AFF, positive_a(1.3), ExtendedReal(2.0), b=0.7)
    a = 1.3 ** 2
    for m in (1.0, 2.5):
        assert pos.R(m) == pytest.approx(2.0 * (0.7 + m * a) + a)
    invz = make(INV, zero_a(), ExtendedReal(1.5), q=1.0)
    for m in (1.0, 3.0):
        assert invz.R(m) == pytest.approx(1.0 / (m + 1.0) ** 2 - 1.0 / m ** 2)


def test_R_independent_of_t():
    rng = np.random.default_rng(47)
    for i in range(30):
        fam = _random_family(rng, i % 3, AFF if i % 2 else INV)
        shifted = Family(
            params=FamilyParams(
                sign=fam.params.sign, A=fam.params.A, B=fam.params.B,
                b=fam.params.b, D=fam.params.D, q=fam.params.q,
                t=fam.params.t + 17.3, d=fam.params.d),
            kind=fam.kind)
        for m in (1.0, 2.0, 3.5):
            assert fam.R(m) == pytest.approx(shifted.R(m), abs=1e-12)


def test_functional_equation_sweep():
    rng = np.random.default_rng(53)
    for i in range(60):
        fam = _random_family(rng, i % 3, AFF if i % 2 else INV)
        m = rng.uniform(1.0, 5.0)
        xs = _window(fam, rng)
        res = (fam.k(xs, m + 1.0) ** 2 - fam.k(xs, m) ** 2
               + fam.k_prime(xs, m + 1.0) + fam.k_prime(xs, m)
               - (fam.L(m) - fam.L(m + 1.0)))
        assert np.max(np.abs(res)) < 1e-8


# ---------------------------------------------------------------------------
# poles and domain slicing

def test_singularities_named_cases():
    cot = make(AFF, negative_a(1.0), ExtendedReal(0.0))
    assert cot.singularities(1.0, (-0.5, 3.5)) == pytest.approx([0.0, math.pi])
    zer = make(AFF, zero_a(), ExtendedReal(1.0))
    assert zer.singularities(1.0, (-3.0, 3.0)) == pytest.approx([-1.0])
    pos = make(AFF, positive_a(1.0), ExtendedReal(2.2))
    assert pos.singularities(1.0, (-50.0, 50.0)) == []


def test_natural_domain_between_poles():
    fam = preset_params("TypeA")
    lo, hi = fam.natural_domain(2.0, math.pi / 2.0, (-10.0, 10.0))
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(math.pi)


def test_natural_domain_anchor_on_pole():
    fam = preset_params("TypeA")
    with pytest.raises(PoleError):
        fam.natural_domain(2.0, 0.0, (-10.0, 10.0))


# ---------------------------------------------------------------------------
# small-B continuity and the trivial guard

def test_small_B_continuity():
    rng = np.random.default_rng(59)
    xs = np.linspace(0.3, 2.7, 200)
    for name in ("TypeA", "TypeD", "TypeE", "HyperbolicCoth"):
        base = preset_params(name, c=1.0, b=0.7, D=0.4, q=1.3)
        p = base.params
        nudged = Family(
            params=FamilyParams(sign=p.sign, A=p.A, B=ExtendedReal(1e-8),
                                b=p.b, D=p.D, q=p.q, t=p.t, d=p.d),
            kind=base.kind)
        for m in (1.0, 2.0):
            diff = np.abs(np.asarray(nudged.k(xs, m), dtype=float)
                          - np.asarray(base.k(xs, m), dtype=float))
            assert np.max(diff) < 1e-6, name


def test_trivial_guard():
    # B = +-1 in the positive class collapses k1 to a constant
    fam = make(AFF, positive_a(1.0), ExtendedReal(1.0), b=0.5)
    assert fam.is_trivial
    with pytest.raises(FamilyError):
        fam.validate(strict=True)
    fam.validate(strict=False)  # hard checks still fine
    xs = np.linspace(-1.0, 1.0, 50)
    m = 2.0
    res = (fam.k(xs, m + 1.0) ** 2 - fam.k(xs, m) ** 2
           + fam.k_prime(xs, m + 1.0) + fam.k_prime(xs, m)
           - (fam.L(m) - fam.L(m + 1.0)))
    assert np.max(np.abs(res)) < 1e-8  # functional equation survives


def test_inverse_rejects_zero_q():
    with pytest.raises(FamilyError):
        make(INV, zero_a(), ExtendedReal(1.0), q=0.0)


# ---------------------------------------------------------------------------
# presets and JSON round trip

def test_preset_catalogue_shape():
    cat = preset_catalogue()
    assert [row["name"] for row in cat] == sorted(PRESET_NAMES)
    assert len(cat) == 8
    by_name = {row["name"]: row for row in cat}
    assert by_name["TypeA"]["sign"] == "neg"
    assert by_name["TypeD"]["kind"] == "affine"
    assert by_name["TypeF"]["kind"] == "inverse"
    assert "q" in by_name["TypeE"]["free"]
    assert "b" not in by_name["TypeF"]["free"]


def test_preset_params_errors():
    with pytest.raises(ValueError) as exc:
        preset_params("TypeQ")
    assert "TypeA" in str(exc.value)
    with pytest.raises(FamilyError):
        preset_params("TypeF", q=0.0)


def test_preset_params_ignores_non_free_constants():
    fam = preset_params("TypeF", b=5.0, D=3.0, q=-1.0)
    assert fam.params.b == 0.0
    assert fam.params.D == 0.0
    assert fam.params.q == -1.0


def test_family_json_round_trip():
    rng = np.random.default_rng(61)
    for i in range(20):
        fam = _random_family(rng, i % 3, AFF if i % 2 else INV)
        doc = family_to_json(fam)
        back = family_from_json(doc)
        assert family_to_json(back) == doc


def test_family_json_rejects_bad_input():
    doc = family_to_json(preset_params("TypeD"))
    doc["extra"] = 1.0
    with pytest.raises(ValueError):
        family_from_json(doc)
    doc = family_to_json(preset_params("TypeD"))
    doc["B"] = True  # bool is not a number here
    with pytest.raises(ValueError):
        family_from_json(doc)
    for key, bad in (("c", math.inf), ("b", math.nan), ("D", -math.inf)):
        doc = family_to_json(preset_params("TypeA"))
        doc[key] = bad
        with pytest.raises(ValueError, match=f"'{key}' must be a finite number"):
            family_from_json(doc)
    with pytest.raises(ValueError):
        family_from_json([1, 2, 3])


def test_infinite_B_survives_round_trip():
    fam = preset_params("HyperbolicTanh")
    doc = family_to_json(fam)
    assert doc["B"] == "inf"
    assert family_from_json(doc).params.B.is_infinite
