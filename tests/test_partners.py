"""Partner potentials, shape-invariance residuals, closed-form coefficient
records, and the L-sequence classifier."""

from types import SimpleNamespace

import numpy as np
import pytest

from shapeinv.errors import FamilyError
from shapeinv.families import PRESET_NAMES, preset_params
from shapeinv.partners import (PotentialPair, classify_L_sequence,
                               closed_form_potentials, factorization_residuals,
                               pair_from_family, shape_invariance_residual)


def sample_window(fam, n=160):
    anchor = fam.params.A + 0.4
    poles = fam.singularities(2.0, (anchor - 4.0, anchor + 4.0))
    lo = max([p for p in poles if p <= anchor], default=anchor - 4.0)
    hi = min([p for p in poles if p > anchor], default=anchor + 4.0)
    return np.linspace(lo + 0.05, hi - 0.05, n)


def all_presets():
    return [preset_params(name, b=0.7, D=0.4, q=1.3) for name in PRESET_NAMES]


# ---------------------------------------------------------------------------
# the pair itself

def test_pair_harmonic_oscillator():
    fam = preset_params("TypeD", b=1.0)
    pp = pair_from_family(fam)
    xs = np.linspace(-3.0, 3.0, 61)
    assert np.allclose(pp.V(xs, 1.0), xs * xs - 1.0, atol=1e-13)
    assert np.allclose(pp.Vtilde(xs, 1.0), xs * xs + 1.0, atol=1e-13)


def test_pair_trig_barrier():
    fam = preset_params("TypeA")
    pp = pair_from_family(fam)
    xs = np.linspace(0.2, 2.9, 61)
    assert np.allclose(pp.V(xs, 2.0), 6.0 / np.sin(xs) ** 2 - 4.0, atol=1e-11)


def test_pair_energy_offset():
    fam = preset_params("TypeD", b=1.0, d=3.0)
    pp = pair_from_family(fam)
    assert pp.d == 3.0
    assert pp.V(0.0, 1.0) == pytest.approx(2.0)
    override = pair_from_family(fam, d=0.0)
    assert override.V(0.0, 1.0) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# shape invariance

@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("m", [2.0, 3.0, 4.5])
def test_shape_invariance_residual_presets(name, m):
    fam = preset_params(name, b=0.7, D=0.4, q=1.3)
    pp = pair_from_family(fam)
    xs = sample_window(fam)
    res = shape_invariance_residual(pp, fam, m, xs)
    assert np.max(np.abs(res)) < 1e-10


def test_shape_invariance_detects_fake():
    # W = m x is factorizable but not shape invariant with constant R
    W = SimpleNamespace(k=lambda x, m: m * x,
                        k_prime=lambda x, m: m * np.ones_like(x))
    pp = PotentialPair(W=W)
    fam = preset_params("TypeD", b=1.0)  # only supplies an R to subtract
    xs = np.array([0.5, 1.5])
    res = shape_invariance_residual(pp, fam, 2.0, xs)
    assert abs(res[0] - res[1]) > 1.0  # x dependence survives


# ---------------------------------------------------------------------------
# closed-form coefficient records

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_records_match_superpotential_build(name):
    fam = preset_params(name, b=0.7, D=0.4, q=1.3)
    pp = pair_from_family(fam)
    xs = sample_window(fam)
    for m in (2.0, 3.5):
        rec = closed_form_potentials(fam, m)
        assert np.max(np.abs(rec.V_minus_d(xs) - (pp.V(xs, m) - pp.d))) < 1e-10
        assert np.max(np.abs(rec.Vtilde_minus_d(xs)
                             - (pp.Vtilde(xs, m) - pp.d))) < 1e-10
        assert rec.R_at_m == pytest.approx(fam.R(m))


def test_record_json_shape():
    rec = closed_form_potentials(preset_params("TypeA"), 2.0)
    doc = rec.to_json()
    assert set(doc) == {"basis", "V", "Vtilde", "R_at_m"}
    assert doc["basis"] == "generic"
    assert set(doc["V"]) == {"f2", "fh", "h2", "f", "const"}
    assert doc["V"]["f"] == 0.0  # bare-f term is inverse-power only
    limit_doc = closed_form_potentials(preset_params("HyperbolicTanh"),
                                       2.0).to_json()
    assert limit_doc["basis"] == "limit"


def test_records_are_the_unreduced_expansion():
    # W^2 -+ W' term by term: TypeE (f = -cot, h = csc) keeps its f^2 term
    # rather than folding it into h^2 and const through f^2 - h^2 + 1 = 0
    keys = ("f2", "fh", "h2", "f", "const")
    for name, V, Vt in (("TypeE", (4.0, 0.0, 2.0, -2.0, 0.25),
                         (4.0, 0.0, -2.0, -2.0, 0.25)),
                        ("TypeF", (6.0, 0.0, 0.0, 2.0, 0.25),
                         (2.0, 0.0, 0.0, 2.0, 0.25))):
        rec = closed_form_potentials(preset_params(name), 2.0)
        assert rec.V == dict(zip(keys, V)) and rec.Vtilde == dict(zip(keys, Vt))
    for name in PRESET_NAMES:
        for fam in (preset_params(name), preset_params(name, b=0.7, D=0.4,
                                                       q=1.3)):
            rec = closed_form_potentials(fam, 2.0)
            values = [*rec.V.values(), *rec.Vtilde.values()]
            assert not any(np.signbit(v) and v == 0.0 for v in values)


def test_record_inverse_power_needs_nonzero_m():
    with pytest.raises(FamilyError):
        closed_form_potentials(preset_params("TypeF"), 0.0)


# ---------------------------------------------------------------------------
# L-sequence classification

def test_classify_decreasing_quadratic():
    fam = preset_params("TypeA")
    out = classify_L_sequence(fam, 2.0)
    assert out.kind == "decreasing"
    assert out.values == pytest.approx((4.0, 1.0, 0.0))
    deep = classify_L_sequence(fam, 5.0, steps=4)
    assert deep.kind == "decreasing"
    assert deep.values == pytest.approx((25.0, 16.0, 9.0, 4.0, 1.0))


def test_classify_increasing_linear():
    fam = preset_params("TypeD", b=1.0)
    out = classify_L_sequence(fam, 3.0)
    assert out.kind == "increasing"
    assert out.values == pytest.approx((-6.0, -4.0, -2.0))


def test_classify_flat_is_other():
    fam = preset_params("TypeD", b=0.0)
    assert classify_L_sequence(fam, 3.0).kind == "other"


def test_classify_propagates_orbit_breakdown():
    fam = preset_params("TypeF", q=-1.0)
    with pytest.raises(FamilyError):
        classify_L_sequence(fam, 2.0, steps=2)  # probes m = 0


# ---------------------------------------------------------------------------
# factorization identities

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_factorization_residuals_vanish(name):
    fam = preset_params(name, b=0.7, D=0.4, q=1.3, d=1.5)
    xs = sample_window(fam)
    for m in (2.0, 3.0):
        r1, r2 = factorization_residuals(fam, m, xs)
        assert np.max(np.abs(r1)) < 1e-10
        assert np.max(np.abs(r2)) < 1e-10


def test_factorization_residuals_seeded_sweep():
    rng = np.random.default_rng(67)
    for _ in range(30):
        name = PRESET_NAMES[rng.integers(len(PRESET_NAMES))]
        fam = preset_params(
            name,
            c=float(rng.uniform(0.5, 2.0)),
            A=float(rng.uniform(-0.5, 0.5)),
            b=float(rng.uniform(-1.5, 1.5)),
            D=float(rng.uniform(-1.5, 1.5)),
            q=float(rng.uniform(0.4, 1.8)),
            t=float(rng.uniform(-2.0, 2.0)),
        )
        xs = sample_window(fam, n=80)
        m = float(rng.uniform(1.5, 4.5))
        r1, r2 = factorization_residuals(fam, m, xs)
        assert np.max(np.abs(r1)) < 1e-9
        assert np.max(np.abs(r2)) < 1e-9
        # Vtilde(., m) = V(., m - 1) + R(m - 1), to rounding of the terms
        pp = pair_from_family(fam)
        scale = np.maximum(1.0, np.maximum(np.abs(pp.V(xs, m - 1.0)),
                                           np.abs(pp.Vtilde(xs, m))))
        residual = shape_invariance_residual(pp, fam, m, xs)
        assert np.all(np.abs(residual) <= 1e-8 * scale)
