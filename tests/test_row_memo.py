"""The primitive pass of each row of the closed-form table: a row computes
its x-dependent primitives once for the last array it saw, held in the
row's one memo, and f, h, f', h', z and z' read them. Outputs stay
bit-identical to a fresh row's, the held primitives are read-only, a pole
refusal is never held, and copies of a solution start with an empty
memo."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeinv import riccati
from shapeinv.errors import PoleError
from shapeinv.riccati import INFINITY, ExtendedReal, general_solution

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=40)

# (sign class, B is infinite): the three rows, each at a finite B and at
# B = infinity
ROWS = (("pos", False), ("pos", True), ("zero", False), ("zero", True),
        ("neg", False), ("neg", True))
METHODS = ("f", "h", "df", "dh", "z", "dz")


def _solution(row, c, A, B):
    kind, infinite = ROWS[row]
    a = {"pos": c * c, "zero": 0.0, "neg": -c * c}[kind]
    return general_solution(a, A, INFINITY if infinite else ExtendedReal(B))


def _call(form, name, x, b, D):
    method = getattr(form, name)
    return method(x, b, D) if name in ("z", "dz") else method(x)


def _samples(sol, fractions):
    """Points of the pole-free cell around A + 0.37, 1% in from its ends."""
    anchor = sol.A + 0.37
    poles = sol.singularities((anchor - 4.0, anchor + 4.0))
    lo = max([p for p in poles if p < anchor], default=anchor - 4.0)
    hi = min([p for p in poles if p > anchor], default=anchor + 4.0)
    pad = 0.01 * (hi - lo)
    return lo + pad + (hi - lo - 2.0 * pad) * np.asarray(fractions, dtype=float)


def _held_parts(form):
    """Every primitive the row's memo holds, under every tag of its
    entry."""
    return [part for entry in form._memo.values() for parts in entry.values()
            for part in parts]


def _assert_same(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


rows = st.integers(0, len(ROWS) - 1)
constants = st.tuples(st.floats(0.5, 2.0), st.floats(-1.0, 1.0),
                      st.sampled_from((-2.0, -0.5, 0.0, 0.3, 1.0, -1.0, 1.7)),
                      st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


@SEEDED
@given(row=rows, consts=constants,
       arrays=st.lists(fractions, min_size=2, max_size=2),
       calls=st.lists(st.tuples(st.integers(0, 1), st.sampled_from(METHODS)),
                      min_size=1, max_size=16))
def test_every_output_equals_a_fresh_rows(row, consts, arrays, calls):
    c, A, B, b, D = consts
    warm = _solution(row, c, A, B)
    inputs = [_samples(warm, f) for f in arrays]
    for which, name in calls:
        x = inputs[which]
        got = _call(warm.form, name, x, b, D)
        _assert_same(got, _call(_solution(row, c, A, B).form, name, x, b, D))
        # a fresh array, never a held one
        assert got.flags.writeable
        assert not any(np.shares_memory(got, p)
                       for p in _held_parts(warm.form))
    assert len(warm.form._memo) <= 1
    # the public evaluators read the same pass
    x = inputs[calls[-1][0]]
    fresh = _solution(row, c, A, B)
    _assert_same(warm.evaluate(x), fresh.evaluate(x))
    _assert_same(warm.derivative(x), fresh.derivative(x))
    z_warm, z_fresh = riccati.solve_z(b, warm, D), riccati.solve_z(b, fresh, D)
    _assert_same(z_warm.evaluate(x), z_fresh.evaluate(x))
    _assert_same(z_warm.derivative(x), z_fresh.derivative(x))


@SEEDED
@given(row=rows, consts=constants, before=fractions, after=fractions,
       name=st.sampled_from(METHODS))
def test_an_array_mutated_in_place_is_recomputed(row, consts, before, after,
                                                 name):
    c, A, B, b, D = consts
    warm = _solution(row, c, A, B)
    n = min(len(before), len(after))
    x = _samples(warm, before[:n]).copy()
    for other in METHODS:
        _call(warm.form, other, x, b, D)
    x[:] = _samples(warm, after[:n])
    _assert_same(_call(warm.form, name, x, b, D),
                 _call(_solution(row, c, A, B).form, name, x, b, D))


@SEEDED
@given(row=rows, consts=constants, f=fractions)
def test_held_primitives_are_read_only(row, consts, f):
    c, A, B, b, D = consts
    sol = _solution(row, c, A, B)
    x = _samples(sol, f)
    for name in METHODS:
        _call(sol.form, name, x, b, D)
    held = _held_parts(sol.form)
    # the a = 0, B = infinity row's h and h' never read the pass
    assert held
    for part in held:
        assert isinstance(part, np.ndarray) and not part.flags.writeable
        assert not np.shares_memory(part, x)
    assert x.flags.writeable


# Rows with a pole on a double: B = 0 puts the pos and neg rows' pole at
# x = A, B = -1/2 puts the a = 0 row's at A + 2, and at B = infinity the
# a = 0 row's sits at A. cos never vanishes on a double, so the neg row at
# B = infinity never refuses a sample.
POLES = ((0, 0.0, 0.0), (2, -0.5, 2.0), (3, 0.0, 0.0), (4, 0.0, 0.0))


@SEEDED
@given(case=st.sampled_from(POLES), A=st.integers(-8, 8).map(lambda j: j / 4),
       f=fractions, name=st.sampled_from(METHODS))
def test_a_pole_refusal_is_raised_again_and_holds_nothing(case, A, f, name):
    row, B, offset = case
    sol = _solution(row, 1.3, A, B)
    if row == 3 and name in ("h", "dh"):
        name = "f"      # h = t/2 is regular at the pole
    regular = _samples(sol, f)
    for other in METHODS:
        _call(sol.form, other, regular, 0.7, -0.4)
    x = np.concatenate((regular, [A + offset]))
    refusals = []
    for _ in range(2):
        with pytest.raises(PoleError) as info:
            _call(sol.form, name, x, 0.7, -0.4)
        refusals.append((str(info.value), info.value.locations))
    assert refusals[0] == refusals[1]
    assert refusals[0][1] == [A + offset]
    assert _held_parts(sol.form) == []
    # the regular array is computed again, to the same bits
    _assert_same(_call(sol.form, name, regular, 0.7, -0.4),
                 _call(_solution(row, 1.3, A, B).form, name, regular, 0.7,
                       -0.4))


@SEEDED
@given(row=rows, consts=constants, f=fractions, name=st.sampled_from(METHODS))
def test_scalars_and_large_arrays_bypass_the_memo(row, consts, f, name):
    c, A, B, b, D = consts
    sol = _solution(row, c, A, B)
    x = _samples(sol, f)
    for other in METHODS:
        _call(sol.form, other, x, b, D)
    held = list(sol.form._memo)
    lo, hi = float(x.min()), float(x.max())
    big = np.linspace(lo, hi, riccati._MEMO_MAX_POINTS + 1)
    for arg in (lo, np.array(hi), big):
        _assert_same(_call(sol.form, name, arg, b, D),
                     _call(_solution(row, c, A, B).form, name, arg, b, D))
    assert list(sol.form._memo) == held


def test_copies_of_a_solution_start_with_an_empty_memo():
    for row in range(len(ROWS)):
        sol = _solution(row, 1.1, 0.2, 0.4)
        z = riccati.solve_z(0.7, sol, -0.3)
        x = _samples(sol, np.linspace(0.0, 1.0, 33))
        want = [_call(sol.form, name, x, 0.7, -0.3) for name in METHODS]
        assert len(sol.form._memo) == 1
        for other in (copy.copy(sol), copy.deepcopy(sol),
                      pickle.loads(pickle.dumps(sol)),
                      copy.deepcopy(z).y, pickle.loads(pickle.dumps(z)).y):
            assert other == sol and hash(other) == hash(sol)
            assert other.form is not sol.form
            assert other.form._memo == {}
            for name, value in zip(METHODS, want):
                _assert_same(_call(other.form, name, x, 0.7, -0.3), value)
        assert len(sol.form._memo) == 1


def test_one_pass_serves_a_family_evaluation(monkeypatch):
    # k, k_prime and the partner potentials on one array: one pole check
    from shapeinv import partners
    from shapeinv.families import preset_params
    checks = []
    real = riccati._check_regular

    def counting(x, den):
        checks.append(np.asarray(x).tobytes())
        return real(x, den)

    monkeypatch.setattr(riccati, "_check_regular", counting)
    fam = preset_params("TypeA", c=1.2, A=0.1, b=0.3, D=0.2)
    xs = np.linspace(0.2, 0.1 + math.pi / 1.2 - 0.1, 200)
    pp = partners.pair_from_family(fam)
    partners.shape_invariance_residual(pp, fam, 2.5, xs)
    partners.closed_form_potentials(fam, 2.5).V_minus_d(xs)
    assert checks == [xs.tobytes()]
