"""Closed-form Riccati machinery: solutions, companions, superposition,
reductions and the linear first-order solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pole_oracle
from shapeinv import riccati
from shapeinv.errors import PoleError
from shapeinv.riccati import (INFINITY, ConstRiccati, ExtendedReal,
                              LinearFirstOrder, as_extended,
                              constant_solutions, discriminant,
                              general_solution, reduce_alternative,
                              reduce_standard, solve_linear_first_order,
                              solve_z, superpose)

XS = np.linspace(-1.3, 1.3, 257)


# ---------------------------------------------------------------------------
# ExtendedReal

def test_extended_real_tags():
    assert not ExtendedReal(2.5).is_infinite
    assert INFINITY.is_infinite
    assert ExtendedReal(None).is_infinite
    with pytest.raises(ValueError):
        ExtendedReal(float("nan"))
    # a large float is not the infinity tag
    assert not ExtendedReal(1e300).is_infinite


def test_extended_real_json_and_coercion():
    assert ExtendedReal(3.0).to_json() == 3.0
    assert INFINITY.to_json() == "inf"
    assert as_extended("inf").is_infinite
    assert as_extended(2).value == 2.0
    assert as_extended(INFINITY).is_infinite


# ---------------------------------------------------------------------------
# ConstRiccati

def test_const_riccati_rejects_linear():
    with pytest.raises(ValueError):
        ConstRiccati(0.0, 1.0, 1.0)


# nan, the infinities and integers beyond the double range, which float()
# would turn into an OverflowError
NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf, 10 ** 400,
                              -(10 ** 400)))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(slot=st.integers(0, 6), bad=NON_FINITE, ok=st.floats(-3.0, 3.0))
def test_non_finite_constants_are_refused(slot, bad, ok):
    # unrefused, a = nan gave a zero row whose y(0.3) read 0.0
    y = general_solution(1.0, 0.0, 0.5)
    name, call = (
        ("a", lambda: general_solution(bad, ok, 0.5)),
        ("A", lambda: general_solution(ok, bad, INFINITY)),
        ("b", lambda: solve_z(bad, y, ok)),
        ("D", lambda: solve_z(ok, y, bad)),
        ("a2", lambda: ConstRiccati(bad, ok, ok)),
        ("a1", lambda: ConstRiccati(ok, bad, ok)),
        ("a0", lambda: ConstRiccati(ok, ok, bad)))[slot]
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        call()


@pytest.mark.parametrize("coeffs,expected", [
    ((-1.0, 0.0, 1.0), 4.0),    # y' = -y^2 + 1
    ((-1.0, 0.0, 0.0), 0.0),
    ((1.0, 2.0, 1.0), 0.0),     # perfect square
])
def test_discriminant(coeffs, expected):
    assert discriminant(ConstRiccati(*coeffs)) == expected


def test_constant_solutions_counts():
    assert constant_solutions(ConstRiccati(-1.0, 0.0, 1.0)) == [-1.0, 1.0]
    assert constant_solutions(ConstRiccati(-1.0, 0.0, -1.0)) == []
    assert constant_solutions(ConstRiccati(1.0, -2.0, 1.0)) == [1.0]


def test_constant_solution_count_tracks_discriminant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a2 = rng.uniform(-2, 2)
        if abs(a2) < 1e-3:
            a2 = 1.0
        eq = ConstRiccati(a2, rng.uniform(-2, 2), rng.uniform(-2, 2))
        disc = discriminant(eq)
        n = len(constant_solutions(eq))
        assert n == (2 if disc > 0 else (0 if disc < 0 else 1))


# ---------------------------------------------------------------------------
# general_solution closed forms

def test_limit_solutions_match_named_forms():
    pos = general_solution(1.0, 0.0, INFINITY)
    assert np.allclose(pos.evaluate(XS), np.tanh(XS), atol=1e-14)
    zero = general_solution(0.0, 0.0, ExtendedReal(0.0))
    assert np.all(zero.evaluate(XS) == 0.0)
    neg = general_solution(-1.0, 0.0, INFINITY)
    assert np.allclose(neg.evaluate(XS), -np.tan(XS), atol=1e-12)


@pytest.mark.parametrize("a", [1.0, 0.0, -1.0])
def test_residual_single_draws(a):
    sol = general_solution(a, 0.3, ExtendedReal(0.7))
    xs = XS[np.abs(XS - 0.3) > 1e-2]
    for pole in sol.singularities((-2.0, 2.0)):
        xs = xs[np.abs(xs - pole) > 1e-2]
    res = sol.derivative(xs) + sol.evaluate(xs) ** 2 - a
    assert np.max(np.abs(res)) < 1e-9


def test_residual_sweep_per_class():
    # 50 seeded draws per sign class, closed-form derivative only
    rng = np.random.default_rng(11)
    for kind in ("pos", "zero", "neg"):
        for _ in range(50):
            A = rng.uniform(-2, 2)
            B = ExtendedReal(rng.uniform(-5, 5))
            if kind == "zero":
                a = 0.0
            else:
                c = rng.uniform(0.2, 3.0)
                a = c * c if kind == "pos" else -c * c
            sol = general_solution(a, A, B)
            xs = rng.uniform(A - 2.5, A + 2.5, 300)
            for pole in sol.singularities((A - 3.5, A + 3.5)):
                xs = xs[np.abs(xs - pole) > 1e-2]
            res = sol.derivative(xs) + sol.evaluate(xs) ** 2 - a
            assert np.max(np.abs(res)) < 1e-9, (kind, A, B.value)


def test_pole_evaluation_raises():
    # exact denominator zeros raise instead of returning +-inf
    zero = general_solution(0.0, 0.0, ExtendedReal(2.0))  # pole at -1/B
    with pytest.raises(PoleError):
        zero.evaluate(-0.5)
    lim = general_solution(0.0, 0.3, INFINITY)  # 1/(x - A)
    with pytest.raises(PoleError):
        lim.evaluate(0.3)
    neg = general_solution(-1.0, 0.0, ExtendedReal(0.0))
    with pytest.raises(PoleError):
        neg.derivative(0.0)


def test_check_regular_names_few_distinct_locations():
    # 1,000 samples on one pole plus 20 more poles, shuffled among regular
    # points: the diagnostic names at most 8 locations, sorted and distinct
    rng = np.random.default_rng(7)
    poles = np.concatenate((np.full(1000, 2.5), 10.0 + np.arange(20.0)))
    x = np.concatenate((poles, np.linspace(-1.0, 1.0, 50)))
    den = np.concatenate((np.zeros(poles.size), np.ones(50)))
    order = rng.permutation(x.size)
    with pytest.raises(PoleError) as info:
        riccati._check_regular(x[order], den[order])
    assert info.value.locations == [2.5] + [10.0 + j for j in range(7)]


def test_pole_locations_reported():
    sol = general_solution(1.0, 0.0, ExtendedReal(0.5))
    assert sol.singularities((-1.0, 1.0)) == pytest.approx([math.atanh(0.5)])
    zero = general_solution(0.0, 0.0, ExtendedReal(2.0))
    assert zero.singularities((-3.0, 3.0)) == pytest.approx([-0.5])


def test_no_pole_for_large_B_pos_class():
    sol = general_solution(1.0, 0.0, ExtendedReal(2.2))
    assert sol.singularities((-50.0, 50.0)) == []


def test_limit_recovery_large_finite_B():
    # the Infinity variant equals the pointwise B -> +-inf limit; the finite
    # form differs by O(1/(B (x-A)^2)) in the zero class, so keep 0.15 away
    for a in (1.0, 0.0, -1.0):
        lim = general_solution(a, 0.1, INFINITY)
        xs = XS[np.abs(XS - 0.1) > 0.15]
        for B in (1e6, -1e6):
            fin = general_solution(a, 0.1, ExtendedReal(B))
            assert np.max(np.abs(fin.evaluate(xs) - lim.evaluate(xs))) < 1e-4


def test_kind_and_scale():
    assert general_solution(4.0, 0.0, ExtendedReal(2.0)).kind == "pos"
    assert general_solution(0.0, 0.0, ExtendedReal(2.0)).kind == "zero"
    sol = general_solution(-4.0, 0.0, ExtendedReal(2.0))
    assert sol.kind == "neg" and sol.c == 2.0


# ---------------------------------------------------------------------------
# solve_z

def test_z_zero_class_linear_form():
    y = general_solution(0.0, 0.0, ExtendedReal(0.0))
    z = solve_z(2.0, y, 0.7)
    assert np.allclose(z.evaluate(XS), 2.0 * XS + 0.7, atol=1e-12)


def test_z_trivial_zero_forcing():
    y = general_solution(1.0, 0.0, ExtendedReal(3.0))
    z = solve_z(0.0, y, 0.0)
    assert np.all(z.evaluate(XS) == 0.0)
    assert np.all(z.derivative(XS) == 0.0)


def test_z_pos_limit_form():
    y = general_solution(1.0, 0.0, INFINITY)
    z = solve_z(1.5, y, -0.4)
    expect = 1.5 * np.tanh(XS) - 0.4 / np.cosh(XS)
    assert np.allclose(z.evaluate(XS), expect, atol=1e-12)


def test_z_residual_sweep():
    rng = np.random.default_rng(29)
    for i in range(150):
        kind = ("pos", "zero", "neg")[i % 3]
        A = rng.uniform(-2, 2)
        B = INFINITY if i % 5 == 4 else ExtendedReal(rng.uniform(-5, 5))
        if kind == "zero":
            a = 0.0
        else:
            c = rng.uniform(0.2, 3.0)
            a = c * c if kind == "pos" else -c * c
        y = general_solution(a, A, B)
        b = rng.uniform(-3, 3)
        D = rng.uniform(-3, 3)
        z = solve_z(b, y, D)
        xs = rng.uniform(A - 2.5, A + 2.5, 300)
        for pole in y.singularities((A - 3.5, A + 3.5)):
            xs = xs[np.abs(xs - pole) > 1e-2]
        res = y.evaluate(xs) * z.evaluate(xs) + z.derivative(xs) - b
        assert np.max(np.abs(res)) < 1e-9, (kind, b, D)


# ---------------------------------------------------------------------------
# superposition

def _tanh_triple():
    y1 = general_solution(1.0, 0.0, INFINITY)
    y2 = general_solution(1.0, 0.0, ExtendedReal(-1.0))  # constant +1
    y3 = general_solution(1.0, 0.0, ExtendedReal(1.0))   # constant -1
    return y1, y2, y3


def test_superpose_endpoints():
    y1, y2, y3 = _tanh_triple()
    assert np.allclose(superpose(y1, y2, y3, 0.0)(XS), y1.evaluate(XS),
                       atol=1e-12)
    assert np.allclose(superpose(y1, y2, y3, 1.0)(XS), y3.evaluate(XS),
                       atol=1e-12)
    assert np.allclose(superpose(y1, y2, y3, INFINITY)(XS), y2.evaluate(XS),
                       atol=1e-12)


@pytest.mark.parametrize("k", [-2.0, -0.5, 0.35, 0.8, 3.0])
def test_superpose_generic_k_is_a_solution(k):
    y1, y2, y3 = _tanh_triple()
    mixed = superpose(y1, y2, y3, k)
    # residual via a one-sided dense derivative of the analytic combination
    w1 = np.tanh(XS)
    num = k * 1.0 * (-1.0 - w1) + w1 * 2.0
    den = k * (-1.0 - w1) + 2.0
    keep = np.abs(den) > 0.05
    y = num[keep] / den[keep]
    assert np.allclose(mixed(XS[keep]), y, atol=1e-12)
    d1 = 1.0 - w1 ** 2
    dnum = -k * d1 + 2.0 * d1
    dden = -k * d1
    dy = (dnum[keep] * den[keep] - num[keep] * dden[keep]) / den[keep] ** 2
    assert np.max(np.abs(dy + y * y - 1.0)) < 1e-9


def test_superpose_singular_mix_raises():
    y1, y2, y3 = _tanh_triple()
    # k = 2 puts the mixing denominator zero where tanh = 0
    with pytest.raises(PoleError):
        superpose(y1, y2, y3, 2.0)(0.0)


# ---------------------------------------------------------------------------
# reductions and the linear solver

def test_reduce_standard_coefficients():
    # constant particular solutions come in as plain floats
    p = reduce_standard(ConstRiccati(-1.0, 0.0, 1.0), 1.0)
    assert p.constant_coefficients
    assert p.a == pytest.approx(2.0)
    assert p.b == pytest.approx(-1.0)
    p0 = reduce_standard(ConstRiccati(-1.0, 0.0, 0.0), 0.0)
    assert (p0.a, p0.b) == (0.0, -1.0)
    p1 = reduce_standard(ConstRiccati(1.0, 0.0, 0.0), 0.0)
    assert (p1.a, p1.b) == (0.0, 1.0)


def test_reduce_standard_callable_solution():
    eq = ConstRiccati(-1.0, 0.0, 1.0)
    p = reduce_standard(eq, np.tanh)
    xs = np.linspace(-1.0, 1.0, 33)
    assert np.allclose(p.a(xs), 2.0 * np.tanh(xs), atol=1e-14)
    assert p.b == pytest.approx(-1.0)


def test_reduce_alternative_coefficients():
    p = reduce_alternative(ConstRiccati(-1.0, 0.0, 1.0), 1.0)
    assert p.a == pytest.approx(2.0)
    assert p.b == pytest.approx(1.0)
    # a0 = 0: homogeneous in u
    ph = reduce_alternative(ConstRiccati(-1.0, 0.5, 0.0), 0.4)
    assert ph.b == pytest.approx(0.0)


def test_reduce_alternative_inverse_linear_solution():
    # y' = -y^2 with y1 = 1/x turns into du/dx = 0
    eq = ConstRiccati(-1.0, 0.0, 0.0)
    y1 = general_solution(0.0, 0.0, INFINITY)
    p = reduce_alternative(eq, y1)
    xs = np.linspace(0.5, 2.0, 64)
    assert np.max(np.abs(p.a(xs) * 1.0 + p.b)) < 1e-12  # u' = 0 for u = 1


def test_reduce_alternative_rejects_vanishing_y1():
    with pytest.raises(ValueError):
        reduce_alternative(ConstRiccati(-1.0, 0.0, 1.0), 0.0)
    p = reduce_alternative(ConstRiccati(-1.0, 0.0, 1.0), np.tanh)
    with pytest.raises(ValueError):
        p.a(np.linspace(-1.0, 1.0, 11))  # tanh vanishes at 0


def test_linear_solver_constant_cases():
    xs = np.linspace(0.0, 2.0, 101)
    v = solve_linear_first_order(LinearFirstOrder(0.0, 1.0), 0.0, E=0.0)
    assert np.allclose(v(xs), xs, atol=1e-12)
    v = solve_linear_first_order(LinearFirstOrder(1.0, 0.0), 0.0, E=1.0)
    assert np.allclose(v(xs), np.exp(xs), atol=1e-10)


def _rk4(rhs, x0, u0, x_end, n=4000):
    h = (x_end - x0) / n
    x, u = x0, u0
    for _ in range(n):
        k1 = rhs(x, u)
        k2 = rhs(x + h / 2, u + h * k1 / 2)
        k3 = rhs(x + h / 2, u + h * k2 / 2)
        k4 = rhs(x + h, u + h * k3)
        u += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        x += h
    return u


def test_linear_solver_constant_matches_rk4():
    # the reduce_standard resolvent u' = 2u - 1 with u(0) = 1
    v = solve_linear_first_order(LinearFirstOrder(2.0, -1.0), 0.0, E=1.0)
    for x_end in (0.4, 0.9, 1.5):
        ref = _rk4(lambda x, u: 2.0 * u - 1.0, 0.0, 1.0, x_end)
        assert abs(float(v(x_end)) - ref) < 1e-8


def test_linear_solver_refuses_callable_coefficients():
    # a varying y1 gives the reduced equation a callable coefficient, which
    # the closed forms do not cover
    p = reduce_standard(ConstRiccati(-1.0, 0.0, 1.0), np.tanh)
    with pytest.raises(TypeError, match="only constant coefficients"):
        solve_linear_first_order(p, 0.0, 1.0)


def test_reduction_round_trip_standard():
    # solve the reduced problem, then map back through y = y1 - 1/u; the
    # derivative of the recovered y follows from u' = a u + b in closed form
    eq = ConstRiccati(-1.0, 0.0, 1.0)
    p = reduce_standard(eq, 1.0)
    v = solve_linear_first_order(p, 0.0, E=1.2)
    xs = np.linspace(-0.8, 0.8, 401)
    u = v(xs)
    y = 1.0 - 1.0 / u
    dy = (p.a * u + p.b) / (u * u)
    res = dy + y * y - 1.0
    assert np.max(np.abs(res)) < 1e-7


def test_reduction_round_trip_alternative():
    # map back through y = u y1 / (u + y1) with y1 = 1
    eq = ConstRiccati(-1.0, 0.0, 1.0)
    p = reduce_alternative(eq, 1.0)
    v = solve_linear_first_order(p, 0.0, E=0.8)
    xs = np.linspace(-0.8, 0.8, 401)
    u = v(xs)
    y = u / (u + 1.0)
    dy = (p.a * u + p.b) / (u + 1.0) ** 2
    res = dy + y * y - 1.0
    assert np.max(np.abs(res)) < 1e-7


# ---------------------------------------------------------------------------
# the rows' residues and end limits, read off the closed forms themselves

TABLE_ROWS = {
    "pos": (1.44, (0.0, 0.6, -0.35, 1.0, -1.0, 2.5, INFINITY)),
    "zero": (0.0, (0.0, 0.8, -1.7, INFINITY)),
    "neg": (-0.81, (0.0, 0.75, -2.0, INFINITY)),
}
ROW_CASES = [(kind, B) for kind, (_, Bs) in TABLE_ROWS.items() for B in Bs]


def _row(kind, B, A=0.3):
    sol = general_solution(TABLE_ROWS[kind][0], A, B)
    return sol, sol.form


@pytest.mark.parametrize("kind, B", ROW_CASES)
def test_residues_match_the_closed_forms(kind, B):
    sol, form = _row(kind, B)
    poles = sol.singularities((sol.A - 8.0, sol.A + 8.0))
    if not poles:
        assert kind == "pos" and (B is INFINITY or abs(B) >= 1.0) \
            or kind == "zero" and B == 0.0
        return
    for x0 in poles:
        res_f, res_h = form.residues(x0)
        assert res_f == pytest.approx(1.0 / sol.scale, rel=1e-13)
        for step in (1e-6, -1e-6):
            x = np.array([x0 + step])
            assert (step * form.f(x))[0] == pytest.approx(res_f, rel=1e-5)
            assert (step * form.h(x))[0] == pytest.approx(res_h, rel=1e-5,
                                                          abs=1e-5)


@pytest.mark.parametrize("kind, B", ROW_CASES)
def test_algebra_matches_the_closed_forms(kind, B):
    # f' and h' as algebra()'s quadratic forms in (f, h, 1), against the
    # row's own df and dh, and its invariant, which vanishes on the row
    sol, form = _row(kind, B)
    xs = sol.A + np.linspace(-3.0, 3.0, 601)
    for x0 in sol.singularities((sol.A - 4.0, sol.A + 4.0)):
        xs = xs[np.abs(xs - x0) >= 1e-2]
    f, h = form.f(xs), form.h(xs)
    df, dh, invariant = form.algebra()
    for exact, coeffs in ((form.df(xs), df), (form.dh(xs), dh)):
        term = riccati.quadratic(coeffs, f, h)
        assert np.max(np.abs(exact - term) / np.maximum(1.0, np.abs(term))) \
            < 1e-12
    scale = np.maximum(1.0, f * f + h * h)
    assert np.max(np.abs(riccati.quadratic(invariant, f, h)) / scale) < 1e-12


@pytest.mark.parametrize("kind, B", [case for case in ROW_CASES
                                     if case[0] != "neg"])
def test_end_limits_match_the_closed_forms(kind, B):
    # f -> f_inf + f_tail / x; h grows with the sign h_sign, or dies out
    sol, form = _row(kind, B)
    reach = 30.0 / sol.c if kind == "pos" else 1e7
    for sigma in (-1, 1):
        f_inf, f_tail, h_sign = form.end(sigma)
        t = sigma * reach
        x = np.array([sol.A + t])
        f, h = form.f(x)[0], form.h(x)[0]
        assert t * (f - f_inf) == pytest.approx(f_tail, rel=1e-5, abs=1e-9)
        if h_sign == 0.0:
            assert abs(h) < 1e-12
        else:
            assert math.copysign(1.0, h) == h_sign and abs(h) > 1e6


# ---------------------------------------------------------------------------
# the rows' poles against the scan that branched on the sign class

_B_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 1e-9, -1e-9, 2.5, INFINITY]),
    st.floats(-1e-8, 1e-8), st.floats(-50.0, 50.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(kind=st.sampled_from(("pos", "zero", "neg")),
       log_c=st.floats(-3.0, 3.0), A=st.floats(-10.0, 10.0), B=_B_VALUES,
       start=st.floats(-60.0, 60.0), width=st.floats(1e-6, 200.0))
def test_row_poles_equal_the_former_scan(kind, log_c, A, B, start, width):
    # windows in units of 1/c around A, up to about 60 periods wide
    c = 10.0 ** log_c
    a = {"pos": c * c, "zero": 0.0, "neg": -c * c}[kind]
    sol = general_solution(a, A, B)
    scale = c if kind != "zero" else 1.0
    lo = A + start / scale
    window = (lo, lo + width / scale)
    assert sol.singularities(window) == pole_oracle.singularities(sol, window)


@pytest.mark.parametrize("kind, B", ROW_CASES)
def test_row_poles_refuse_what_the_former_scan_refused(kind, B):
    sol, _ = _row(kind, B)
    for window in ((1.0, 1.0), (2.0, -2.0), (-1e8, 1e8)):
        try:
            want = pole_oracle.singularities(sol, window)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)[:20]):
                sol.singularities(window)
        else:
            assert sol.singularities(window) == want
