"""The exact seed verdict: residues at poles and limits at infinity, checked
against the sampling oracle (probe_oracle), at its marginal cases, and under
translation and rescaling of x."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probe_oracle import probe_square_integrable, seed_log_derivative
from shapeinv import spectra
from shapeinv.families import (PRESET_NAMES, Family, FamilyKind,
                               FamilyParams, negative_a, positive_a,
                               preset_params, zero_a)
from shapeinv.riccati import ExtendedReal
from shapeinv.spectra import spectrum_analytic

WHOLE_LINE = (-math.inf, math.inf)


def _reference_cell(fam):
    anchor = spectra._default_anchor(fam)
    return anchor, fam.natural_domain(1.0, anchor, WHOLE_LINE)


def _margins(fam, p, sign, cell):
    """Per end, ('pole', 2 s rho + 1) or ('infinity', the quantity whose sign
    decides: the coefficient of a growing h, k_inf / c, or 2 s rho_inf + 1)."""
    gamma, beta, kappa = fam._k_coefficients(p)
    form = fam.basis()
    c = fam.params.sign.c or 1.0
    out = []
    for sigma, end in ((-1, cell[0]), (+1, cell[1])):
        if math.isfinite(end):
            res_f, res_h = form.residues(end)
            rho = gamma * res_f + (beta * res_h if beta != 0.0 else 0.0)
            out.append(("pole", 2.0 * sign * rho + 1.0))
            continue
        f_inf, f_tail, h_sign = form.end(sigma)
        lead = gamma * f_inf + kappa
        if beta != 0.0 and h_sign != 0.0:
            out.append(("infinity", beta))
        elif lead != 0.0:
            out.append(("infinity", lead / c))
        else:
            out.append(("infinity", 2.0 * sign * gamma * f_tail + 1.0))
    return out


def _clear_of_thresholds(margins):
    # the probe stops once the log of the mass moves by less than 1e-6 per
    # stage; a pole end with 2 s rho + 1 = e adds about 2^(-e j) at stage j,
    # so within its 40 stages it can only settle for e above about 0.5, and
    # reads a slower convergent end as divergent (seen in a sweep of 6,000
    # draws: every disagreement had 0 < e < 0.53)
    for kind, value in margins:
        if kind == "pole" and -0.05 < value < 0.6:
            return False
        if kind == "infinity" and abs(value) < 0.05:
            return False
    return True


def _resolvable(anchor, cell):
    # the probe's 40th shell toward a pole x0 has samples |x0 - anchor| 2^-50
    # apart; once they fall below the ulp of x0 the mass stops moving and a
    # divergent end reads as settled
    return all(abs(end - anchor) * 2.0 ** -50 > 4.0 * math.ulp(end)
               for end in cell if math.isfinite(end))


def _check_against_the_probe(fam, p, sign):
    # q/p is a constant in k; near p = 0 it pushes the probe's mass past its
    # e^600 cut on a bounded cell whose mass is finite
    assume(fam.kind is FamilyKind.AFFINE or abs(p) >= 0.25)
    anchor, cell = _reference_cell(fam)
    if math.isfinite(cell[0]) and math.isfinite(cell[1]):
        anchor = 0.5 * (cell[0] + cell[1])   # as far from both poles as can be
    assume(_resolvable(anchor, cell))
    assume(_clear_of_thresholds(_margins(fam, p, sign, cell)))
    left, right = spectra._seed_end_verdicts(fam, p, sign, cell)
    probe = probe_square_integrable(seed_log_derivative(fam, p, sign), cell,
                                    anchor=anchor)
    assert probe.normalizable == (left and right)
    # with one end divergent the probe names it, except on Morse (B = +-1),
    # whose closed form overflows on the probe's shells
    if left != right and abs(fam.params.B.value or 0.0) != 1.0:
        assert probe.divergent_end == ("left" if right else "right")
    # the public question gets the same answer; it names the left end when
    # both diverge
    exact = spectra.check_normalizable(
        fam, p, "decreasing" if sign > 0 else "increasing", anchor=anchor)
    assert exact.normalizable == probe.normalizable
    assert exact.divergent_end == (None if left and right
                                   else "right" if left else "left")


SWEEP = settings(derandomize=True, database=None, deadline=None,
                 max_examples=300)


@SWEEP
@given(name=st.sampled_from(PRESET_NAMES), c=st.floats(0.8, 1.5),
       A=st.floats(-0.5, 0.5), b=st.floats(-3.0, 3.0), D=st.floats(-3.0, 3.0),
       q=st.floats(0.2, 3.0), q_sign=st.sampled_from((-1.0, 1.0)),
       p=st.floats(-4.0, 4.0), sign=st.sampled_from((-1, 1)))
def test_verdict_matches_the_probe(name, c, A, b, D, q, q_sign, p, sign):
    fam = preset_params(name, c=c, A=A, b=b, D=D, q=q_sign * q)
    _check_against_the_probe(fam, p, sign)


@SWEEP
@given(kind=st.sampled_from(FamilyKind), sign_kind=st.sampled_from(
           ("pos", "zero", "neg")),
       B=st.one_of(st.floats(0.05, 3.0), st.floats(-3.0, -0.05),
                   st.sampled_from((0.0, -1.0, 1.0, math.inf))),
       c=st.floats(0.8, 1.5), A=st.floats(-0.5, 0.5), b=st.floats(-3.0, 3.0),
       D=st.floats(-3.0, 3.0), q=st.floats(0.2, 3.0),
       q_sign=st.sampled_from((-1.0, 1.0)), p=st.floats(-4.0, 4.0),
       sign=st.sampled_from((-1, 1)))
def test_verdict_matches_the_probe_on_every_row(kind, sign_kind, B, c, A, b, D,
                                                 q, q_sign, p, sign):
    # the presets leave rows and B values out: the zero row at finite B != 0,
    # tan/sec, and the pos row at B != 0, +-1. |B| stays above 0.05: the zero
    # row's far pole at -1/B and its 1/x tail, which begins beyond it, would
    # otherwise lie past the probe's reach (about 2e12 from the anchor)
    sign_class = {"pos": positive_a(c), "zero": zero_a(),
                  "neg": negative_a(c)}[sign_kind]
    fam = Family(FamilyParams(sign=sign_class, A=A, B=ExtendedReal(B), b=b,
                              D=D, q=q_sign * q), kind)
    _check_against_the_probe(fam, p, sign)


# ---------------------------------------------------------------------------
# marginal cases: not square integrable

def test_pole_exponent_at_minus_one_is_not_square_integrable():
    # TypeA with b = D = 0: k = p cot x, so the seed is |sin x|^(s p) on (0, pi)
    fam = preset_params("TypeA")
    cell = (0.0, math.pi)
    assert fam._k_coefficients(0.5) == (-0.5, 0.0, 0.0)
    assert spectra._seed_end_verdicts(fam, 0.5, -1, cell) == (False, False)
    step = 2.0 ** -30
    assert spectra._seed_end_verdicts(fam, 0.5 - step, -1, cell) == (True, True)
    assert spectra._seed_end_verdicts(fam, 0.5 + step, -1, cell) == (False, False)
    assert spectra._seed_end_verdicts(fam, -0.5, +1, cell) == (False, False)


def test_inverse_tail_at_minus_one_is_not_square_integrable():
    # TypeC with b = 0: k = (D + p)/(x - A), so the seed is |x - A|^(s (D + p))
    # and (A, inf) can never hold it; at D + p = -1/2 both ends are marginal
    fam = preset_params("TypeC", D=0.25)
    cell = (0.0, math.inf)
    assert spectra._seed_end_verdicts(fam, -0.75, +1, cell) == (False, False)
    step = 2.0 ** -30
    assert spectra._seed_end_verdicts(fam, -0.75 - step, +1, cell) == (False, True)
    assert spectra._seed_end_verdicts(fam, -0.75 + step, +1, cell) == (True, False)


def test_tanh_without_its_tanh_term_is_not_square_integrable():
    # b/c + p c = 0 leaves k = D sech, so the seed tends to constants
    fam = preset_params("HyperbolicTanh", c=2.0, b=-12.0, D=0.7)
    assert fam._k_coefficients(3.0) == (0.0, 0.7, 0.0)
    for sign in (-1, 1):
        assert spectra._seed_end_verdicts(fam, 3.0, sign, WHOLE_LINE) == (False, False)
    # a tanh term of either sign confines one seed of the pair
    assert spectra._seed_end_verdicts(fam, 3.1, -1, WHOLE_LINE) == (True, True)
    assert spectra._seed_end_verdicts(fam, 2.9, +1, WHOLE_LINE) == (True, True)


@pytest.mark.parametrize("name, consts, p", [
    ("TypeD", dict(b=0.0, D=0.8), 2.0),            # k = D
    ("TypeB_real", dict(c=1.3, b=0.4, D=0.0), 1.5),   # Morse without h: k = b/c + p c
    ("HyperbolicCoth", dict(c=1.1, b=0.0, D=0.0), 0.0),  # k = 0
])
def test_constant_k_is_not_square_integrable(name, consts, p):
    fam = preset_params(name, **consts)
    _, cell = _reference_cell(fam)
    if name != "HyperbolicCoth":
        assert cell == WHOLE_LINE
    for sign in (-1, 1):
        assert not all(spectra._seed_end_verdicts(fam, p, sign, cell))


@pytest.mark.parametrize("b, want", [(1.0, (True, True)), (0.0, (True, False))])
def test_far_zero_row_pole_keeps_a_verdict(b, want):
    # B = 1e-200 puts the pole at -1e200, where res h = -1/(2 B^2) overflows;
    # the oscillator's slope b still decides, and b = 0 leaves rho = p = -1
    fam = Family(FamilyParams(sign=zero_a(), B=ExtendedReal(1e-200), b=b),
                 FamilyKind.AFFINE)
    _, cell = _reference_cell(fam)
    assert cell == (-1e200, math.inf)
    assert spectra._seed_end_verdicts(fam, -1.0, -1, cell) == want


def test_both_ends_divergent_names_the_left_end():
    # the sech^2 well: past its last bound state both tails of the seed grow
    spec = spectrum_analytic(preset_params("HyperbolicTanh"), 3.0, 5)
    assert len(spec.levels) == 3
    assert spectra._seed_end_verdicts(
        spec.family, 3.0 - 3.0, -1, WHOLE_LINE) == (False, False)
    assert spec.truncation_reason == (
        "chain seed at parameter 0 is not square integrable "
        "(divergent toward the left end)")


# ---------------------------------------------------------------------------
# metamorphic properties

TOWERS = {
    "TypeA": (dict(b=0.3, D=0.2), 2.0),
    "TypeB_real": (dict(b=-0.3, D=-1.5), 3.0),
    "TypeC": (dict(b=-1.0, D=0.2), 2.0),
    "TypeD": (dict(b=1.0, D=0.3), 1.0),
    "TypeE": (dict(q=0.5), 2.0),
    "TypeF": (dict(q=-4.0), 2.0),
    "HyperbolicTanh": (dict(D=0.3), 3.0),
    "HyperbolicCoth": (dict(b=-4.0, D=3.0), 1.0),
}


def _outcome(spec):
    return (spec.direction, spec.levels, spec.partner_levels,
            spec.truncation_reason)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_translation_leaves_the_spectrum_alone(name):
    consts, m = TOWERS[name]
    want = _outcome(spectrum_analytic(preset_params(name, **consts), m, 8))
    assert want[1], "the tower has a ground level"
    for A in (1.0, -30.0, 1e3, 1e6):
        got = spectrum_analytic(preset_params(name, A=A, **consts), m, 8)
        assert _outcome(got) == want


def test_translated_trig_tower():
    for A in (0.0, 1.0, 30.0, 1e3, 1e6):
        spec = spectrum_analytic(preset_params("TypeA", A=A), 2.0, 4)
        assert [e for _, e in spec.levels] == [5.0, 12.0, 21.0, 32.0, 45.0]


def test_far_translated_coth_does_not_raise():
    # the sampling probe landed on the pole at x = A here and raised PoleError
    spec = spectrum_analytic(
        preset_params("HyperbolicCoth", b=-4.0, D=3.0, A=1e6), 2.0, 3)
    assert spec.levels == ((0, 3.0),)


SCALED = ("TypeA", "TypeB_real", "TypeE", "HyperbolicTanh", "HyperbolicCoth")


@pytest.mark.parametrize("name", SCALED)
@pytest.mark.parametrize("lam", (0.5, 3.0, 100.0))
def test_rescaling_x_scales_the_levels(name, lam):
    # x -> x / lam with c -> lam c, b -> lam^2 b, D -> lam D, q -> lam q and
    # A -> A / lam turns k into lam k, so every level scales by lam^2
    consts, m = TOWERS[name]
    base = dict(consts, c=1.0, A=0.2)
    scaled = {key: val * {"b": lam * lam, "D": lam, "q": lam, "c": lam,
                          "A": 1.0 / lam}[key] for key, val in base.items()}
    want = spectrum_analytic(preset_params(name, **base), m, 8)
    got = spectrum_analytic(preset_params(name, **scaled), m, 8)
    assert got.direction is want.direction
    assert [k for k, _ in got.levels] == [k for k, _ in want.levels]
    assert [e for _, e in got.levels] == pytest.approx(
        [lam * lam * e for _, e in want.levels], rel=1e-12, abs=1e-12)


def test_rescaled_morse_keeps_its_tower():
    # at c = 100 the probe's first shell overflowed the Morse closed form
    spec = spectrum_analytic(
        preset_params("TypeB_real", c=100.0, b=-70000.0, D=400.0), 2.0, 6)
    assert [e for _, e in spec.levels] == pytest.approx(
        [1e4 * e for e in (9.0, 16.0, 21.0, 24.0)], rel=1e-12)
