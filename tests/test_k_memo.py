"""The two memos of a Family: `_samples`, the entry for the last sample
array (the (k0, k1) pair behind Family.k, the (k0', k1') pair behind
Family.k_prime, the grid's integrals of k0 and k1 behind every chain seed,
and the ladder chain's W per chain parameter), and `_memo`,
the scalar results of a request (pole-free cells, seed verdicts, orbit
sums). Outputs stay bit-identical to a fresh family's, whatever the call
history; refusals are raised again and never held; each memo stays private
to its instance and within its bound."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeinv import families, numerics, riccati, spectra
from shapeinv.errors import OrbitError, PoleError, ShapeInvError
from shapeinv.families import (Family, FamilyKind, FamilyParams, negative_a,
                               positive_a, preset_params, zero_a)
from shapeinv.numerics import Grid, GridFunction
from shapeinv.riccati import INFINITY, ExtendedReal
from shapeinv.spectra import (WaveFunction, build_chain, check_normalizable,
                              energy_level, excited_state, ground_state,
                              ladder_apply, max_level, partner_energies,
                              spectrum_analytic)

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=40)


def _configs():
    """The 12 (ansatz kind x sign class x finite/infinite B) families."""
    out = []
    for kind in (FamilyKind.AFFINE, FamilyKind.INVERSE_POWER):
        for sign in (positive_a(1.3), zero_a(), negative_a(0.9)):
            for B in (ExtendedReal(0.5), INFINITY):
                extra = (dict(b=0.7, D=-0.4) if kind is FamilyKind.AFFINE
                         else dict(q=-1.5))
                params = FamilyParams(sign=sign, A=0.2, B=B, t=0.1, d=0.3,
                                      **extra)
                out.append(Family(params=params, kind=kind))
    return out


CONFIGS = _configs()


def _cell(fam):
    """Pole-free interval around A + 0.37, 1% of its width in from the ends."""
    anchor = fam.params.A + 0.37
    lo, hi = fam.natural_domain(1.0, anchor, (anchor - 4.0, anchor + 4.0))
    pad = 0.01 * (hi - lo)
    return lo + pad, hi - pad


def _fresh(fam):
    return Family(params=fam.params, kind=fam.kind)


def _assert_same(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


FORMS = ("plain", "strided", "reversed", "2d", "int", "0d", "scalar", "list")


def _samples(fam, fractions, form):
    lo, hi = _cell(fam)
    xs = lo + (hi - lo) * np.asarray(fractions, dtype=float)
    if form == "strided":
        return np.repeat(xs, 2)[::2]
    if form == "reversed":
        return xs[::-1]
    if form == "2d":
        return np.concatenate((xs, xs))[:2 * (xs.size // 2)].reshape(2, -1)
    if form == "int":
        ints = np.arange(math.ceil(lo), math.floor(hi) + 1)
        assert ints.size, "every config cell holds an integer"
        return ints[np.arange(xs.size) % ints.size]
    if form == "0d":
        return np.array(xs[0])
    if form == "scalar":
        return float(xs[0])
    if form == "list":
        return xs.tolist()
    return xs


fractions = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40)
params_m = st.one_of(st.floats(-6.0, -0.25), st.floats(0.25, 6.0),
                     st.integers(1, 6))

ROW_METHODS = ("f", "h", "df", "dh", "z", "dz")
ARRAY_CALLS = ("k", "k_prime") + ROW_METHODS
GRID_CALLS = ("excited_state", "ground_state", "ladder_apply",
              "spectrum_analytic", "check_normalizable", "energy_level")
DIRECTIONS = ("decreasing", "increasing")


def _outcome(call):
    """What a call gives, in comparable form: arrays by their bytes, records
    by their fields, and a refusal by its type and message."""
    try:
        out = call()
    except ShapeInvError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, WaveFunction):
        return out.k, out.energy, out.normalized, out.values.tobytes()
    if isinstance(out, spectra.SpectrumResult):
        return (out.direction, out.levels, out.partner_levels,
                out.truncation_reason)
    if isinstance(out, (float, spectra.NormalizabilityReport)):
        return out
    return type(out), out.dtype, out.shape, out.tobytes()


def _call(fam, name, x, grid, m, level, direction):
    """One public call on fam: on the sample array x, or on the grid."""
    if name in ROW_METHODS:
        method = getattr(fam.basis(), name)
        x = np.asarray(x, dtype=float)
        return method(x, 0.7, -0.4) if name in ("z", "dz") else method(x)
    if name in ("k", "k_prime"):
        return getattr(fam, name)(x, m)
    if name == "excited_state":
        return excited_state(fam, m, level, direction, grid)
    if name == "ground_state":
        return ground_state(fam, m, direction, grid)
    if name == "ladder_apply":
        mid = 0.5 * (grid.x0 + grid.x1)
        bump = GridFunction(grid, np.exp(-(grid.x - mid) ** 2))
        return ladder_apply(fam, m, ("plus", "minus")[level % 2],
                            WaveFunction(bump, 0, 0.0, False))
    if name == "spectrum_analytic":
        return spectrum_analytic(fam, m, level)
    if name == "check_normalizable":
        return check_normalizable(fam, m, direction)
    return energy_level(fam, m, level, direction)


@SEEDED
@given(cfg=st.integers(0, len(CONFIGS) - 1),
       calls=st.lists(st.tuples(st.sampled_from(ARRAY_CALLS + GRID_CALLS),
                                st.integers(0, 2), params_m,
                                st.integers(0, 3), st.sampled_from(DIRECTIONS)),
                      min_size=1, max_size=12),
       arrays=st.lists(st.tuples(fractions, st.sampled_from(FORMS)),
                       min_size=3, max_size=3))
def test_warm_memo_matches_fresh_family(cfg, calls, arrays):
    # every public call on a family, warm from the calls before it, gives
    # the bits a fresh family gives
    fam = _fresh(CONFIGS[cfg])
    inputs = [_samples(fam, f, form) for f, form in arrays]
    lo, hi = _cell(fam)
    grids = [Grid(lo, hi, 101), Grid(lo, hi, 161), Grid(lo, hi, 101)]
    for name, which, m, level, direction in calls:
        args = (inputs[which], grids[which], m, level, direction)
        with np.errstate(all="ignore"):
            got = _outcome(lambda: _call(fam, name, *args))
            want = _outcome(lambda: _call(_fresh(fam), name, *args))
        assert got == want
    assert len(fam._samples) <= 1
    assert len(fam._memo) <= families._MEMO_MAX


@SEEDED
@given(cfg=st.integers(0, len(CONFIGS) - 1), before=fractions,
       after=fractions, m=params_m, view=st.booleans())
def test_in_place_mutation_gives_fresh_values(cfg, before, after, m, view):
    fam = _fresh(CONFIGS[cfg])
    n = min(len(before), len(after))
    base = _samples(fam, before[:n], "plain").copy()
    x = base[:] if view else base
    fam.k(x, m)
    base[:] = _samples(fam, after[:n], "plain")
    _assert_same(fam.k(x, m), _fresh(fam).k(x, m))


@SEEDED
@given(cfg=st.integers(0, len(CONFIGS) - 1),
       sizes=st.lists(st.integers(1, 64), min_size=1, max_size=20), m=params_m)
def test_memo_is_bounded_first_in_first_out(cfg, sizes, m):
    # one slot: each new array replaces the last
    fam = _fresh(CONFIGS[cfg])
    lo, hi = _cell(fam)
    keys = []
    for i, size in enumerate(sizes):
        # distinct arrays: the first sample moves with i
        x = np.linspace(lo + (hi - lo) * i / 64.0, hi, size + 1)
        fam.k(x, m)
        keys.append((x.shape, x.tobytes()))
    assert list(fam._samples) == keys[-1:]
    held = dict(fam._samples)
    # scalars, 0-d arrays and arrays above the point bound are evaluated
    # directly and leave the memo alone
    big = np.linspace(lo, hi, riccati._MEMO_MAX_POINTS + 1)
    for x in (float(lo), np.array(hi), big):
        _assert_same(fam.k(x, m), _fresh(fam).k(x, m))
    assert list(fam._samples) == list(held)


# a Family's attributes beyond its two fields: the closed forms it is built
# from and its two memos
DERIVED = {"_y", "_z", "_samples", "_memo"}


def test_copies_start_with_an_empty_memo():
    fam = _fresh(CONFIGS[0])
    assert set(vars(fam)) == {"params", "kind"} | DERIVED
    before = (repr(fam), hash(fam))
    xs = _samples(fam, np.linspace(0.0, 1.0, 50), "plain")
    fam.k(xs, 2.0)
    fam.k_prime(xs, 2.0)
    spectra.energy_level(fam, 2.0, 0, "increasing")
    check_normalizable(fam, 2.0, "increasing", anchor=fam.params.A + 0.37)
    assert len(fam._samples) == 1
    # the cell, the seed verdict and the orbit sums
    assert sorted(key[0] for key in fam._memo) == ["cell", "orbit", "seed"]
    assert (repr(fam), hash(fam)) == before and fam == _fresh(fam)
    back = pickle.loads(pickle.dumps(fam))
    for other in (copy.copy(fam), copy.deepcopy(fam), back):
        assert other == fam and hash(other) == hash(fam)
        assert repr(other) == repr(fam)
        assert other._samples == {} and other._memo == {}
        assert set(vars(other)) == set(vars(fam))
    assert len(fam._samples) == 1 and len(fam._memo) == 3


def _spectrum_and_states(fam, m, grid):
    spec = spectrum_analytic(fam, m, 3)
    out = [spec.direction, spec.levels, spec.partner_levels,
           spec.truncation_reason]
    for k, _ in spec.levels[:3]:
        try:
            wf = excited_state(fam, m, k, spec.direction, grid)
            out.append((wf.k, wf.energy, wf.values.tobytes()))
        except ShapeInvError as exc:   # the same refusal either way
            out.append(repr(exc))
    return out


SPECTRUM_CASES = ("TypeA", "TypeB_real", "TypeF")


@settings(derandomize=True, database=None, deadline=None, max_examples=9)
@given(name=st.sampled_from(SPECTRUM_CASES), m=st.floats(1.5, 5.0),
       u=st.floats(0.0, 1.0))
def test_spectra_equal_with_and_without_a_warm_memo(name, m, u):
    if name == "TypeA":
        consts = dict(c=0.8 + 0.7 * u, A=u - 0.5, b=0.5 - u, D=0.3 * u)
    elif name == "TypeB_real":   # Morse: D < 0 confines the left side
        consts = dict(c=0.8 + 0.7 * u, A=0.5 - u, b=u - 0.5, D=-0.5 - 1.5 * u)
    else:                        # Coulomb: attractive for q < 0
        consts = dict(A=u - 0.5, q=-3.0 - 3.0 * u)
    cold = preset_params(name, **consts)
    c = consts.get("c", 1.0)
    anchor = consts["A"] + 0.6180339887498949 / c
    half = 1.5 * (m + 3.0) ** 2 / abs(consts["q"]) if name == "TypeF" else 8.0 / c
    lo, hi = cold.natural_domain(m, anchor, (anchor - half, anchor + half))
    lo = lo + 0.05 if lo > anchor - half else lo
    hi = hi - 0.05 if hi < anchor + half else hi
    grid = Grid(lo, hi, 2001)
    want = _spectrum_and_states(cold, m, grid)
    warm = preset_params(name, **consts)
    _spectrum_and_states(warm, m, grid)
    assert warm._samples and warm._memo
    assert _spectrum_and_states(warm, m, grid) == want


def test_probe_shells_and_ladder_grids_hit_the_memo(monkeypatch):
    # one closed-form evaluation per distinct array, whatever the parameter
    fam = preset_params("TypeA")
    counted = []
    real = Family.k1

    def k1(self, x):
        counted.append(np.asarray(x).tobytes())
        return real(self, x)

    monkeypatch.setattr(Family, "k1", k1)
    grid = Grid(1e-3, math.pi - 1e-3, 2001)
    for k in range(3):
        excited_state(fam, 2.0, k, "decreasing", grid)
    assert counted.count(grid.x.tobytes()) == 1
    assert len(counted) == len(set(counted))


# ---------------------------------------------------------------------------
# the (k0', k1') memo behind Family.k_prime

def _k_prime_direct(fam, x, m):
    """k_prime from the closed forms, without the memo."""
    if fam.kind is FamilyKind.AFFINE:
        return fam.k0_prime(x) + m * fam.k1_prime(x)
    return m * fam.k1_prime(x)


@SEEDED
@given(cfg=st.integers(0, len(CONFIGS) - 1),
       calls=st.lists(st.tuples(st.integers(0, 2), params_m, st.booleans()),
                      min_size=1, max_size=12),
       arrays=st.lists(st.tuples(fractions, st.sampled_from(FORMS)),
                       min_size=3, max_size=3))
def test_warm_k_prime_memo_matches_fresh_family(cfg, calls, arrays):
    # k and k_prime interleaved on the same arrays: neither memo leaks into
    # the other
    fam = _fresh(CONFIGS[cfg])
    inputs = [_samples(fam, f, form) for f, form in arrays]
    for which, m, also_k in calls:
        x = inputs[which]
        if also_k:
            _assert_same(fam.k(x, m), _fresh(fam).k(x, m))
        _assert_same(fam.k_prime(x, m), _fresh(fam).k_prime(x, m))
        _assert_same(fam.k_prime(x, m), _k_prime_direct(_fresh(fam), x, m))
    assert len(fam._samples) <= 1


@SEEDED
@given(cfg=st.integers(0, len(CONFIGS) - 1), before=fractions,
       after=fractions, m=params_m, view=st.booleans())
def test_k_prime_after_in_place_mutation_gives_fresh_values(cfg, before, after,
                                                            m, view):
    fam = _fresh(CONFIGS[cfg])
    n = min(len(before), len(after))
    base = _samples(fam, before[:n], "plain").copy()
    x = base[:] if view else base
    fam.k_prime(x, m)
    base[:] = _samples(fam, after[:n], "plain")
    _assert_same(fam.k_prime(x, m), _fresh(fam).k_prime(x, m))


@SEEDED
@given(cfg=st.integers(0, len(CONFIGS) - 1),
       sizes=st.lists(st.integers(1, 64), min_size=1, max_size=20), m=params_m)
def test_k_prime_memo_holds_the_last_array(cfg, sizes, m):
    fam = _fresh(CONFIGS[cfg])
    lo, hi = _cell(fam)
    keys = []
    for i, size in enumerate(sizes):
        x = np.linspace(lo + (hi - lo) * i / 64.0, hi, size + 1)
        fam.k_prime(x, m)
        keys.append((x.shape, x.tobytes()))
    assert list(fam._samples) == keys[-1:]
    # the entry holds the (k0', k1') pair alone
    (entry,) = fam._samples.values()
    assert list(entry) == ["k'"]
    big = np.linspace(lo, hi, riccati._MEMO_MAX_POINTS + 1)
    for x in (float(lo), np.array(hi), big):
        _assert_same(fam.k_prime(x, m), _fresh(fam).k_prime(x, m))
    assert list(fam._samples) == keys[-1:] and list(entry) == ["k'"]


# ---------------------------------------------------------------------------
# the pole-free cells of the seed verdicts, in the scalar memo

WHOLE_LINE = (-math.inf, math.inf)


def _cells(fam):
    return [key for key in fam._memo if key[0] == "cell"]


@SEEDED
@given(cfg=st.integers(0, len(CONFIGS) - 1),
       offsets=st.lists(st.sampled_from((0.37, 0.41, -0.29, 2.9, 7.3)),
                        min_size=1, max_size=8))
def test_cell_memo_matches_natural_domain_and_holds_one_anchor(cfg, offsets):
    # one held cell per anchor, however often it is screened
    fam = _fresh(CONFIGS[cfg])
    seen = []
    for off in offsets:
        anchor = fam.params.A + off
        try:
            want = _fresh(fam).natural_domain(1.0, anchor, WHOLE_LINE)
        except PoleError:
            continue
        report = check_normalizable(fam, 2.0, "increasing", anchor=anchor)
        assert report == check_normalizable(_fresh(fam), 2.0, "increasing",
                                            anchor=anchor)
        assert fam._memo["cell", anchor] == want
        seen += [anchor] if anchor not in seen else []
        assert _cells(fam) == [("cell", a) for a in seen]


def test_cell_memo_does_not_keep_a_pole_refusal():
    fam = preset_params("TypeA")      # poles of cot at the multiples of pi
    check_normalizable(fam, 2.0, "decreasing", anchor=1.0)
    for _ in range(2):
        try:
            check_normalizable(fam, 2.0, "decreasing", anchor=math.pi)
        except PoleError as exc:
            assert exc.locations == [math.pi]
        else:
            raise AssertionError("an anchor on a pole must be refused")
    # anchor 1.0's cell and seed verdict, and nothing of the refusal
    assert _cells(fam) == [("cell", 1.0)]
    assert sorted(key[0] for key in fam._memo) == ["cell", "seed"]


def test_seed_verdicts_share_one_cell_per_anchor(monkeypatch):
    # a request's spectrum and pre-check screen every level from one anchor
    # and its states from the grid midpoint: one pole scan per anchor,
    # whatever the level count, and natural_domain reads the held cell
    fam = preset_params("TypeA", c=1.2, A=0.1)
    anchor = spectra._default_anchor(_fresh(fam))
    calls = []
    real = Family.singularities_near

    def singularities_near(self, m, window, around, periods):
        calls.append(around)
        return real(self, m, window, around, periods)

    monkeypatch.setattr(Family, "singularities_near", singularities_near)
    spec = spectrum_analytic(fam, 2.0, 8)
    assert check_normalizable(fam, 2.0, spec.direction)
    grid = Grid(0.15, math.pi / 1.2 + 0.05, 2001)
    for k, _ in spec.levels[:5]:
        excited_state(fam, 2.0, k, spec.direction, grid)
    # the pole at A clips the window's left end
    assert fam.natural_domain(2.0, anchor, (anchor - 1.0, anchor + 1.0)) == (
        fam._memo["cell", anchor][0], anchor + 1.0)
    assert len(spec.levels) == 9
    assert calls == [anchor, float(grid.x[1000])]


# ---------------------------------------------------------------------------
# the ladder chain's W table


def _typea_reads(fam, x, params):
    """The seed integral and W of each parameter, read through the chain
    table of the sample array x."""
    integral, W_at = fam._chain_table(x, (x[-1] - x[0]) / (x.size - 1))
    return [(integral(p).tobytes(), W_at(p)[0].tobytes()) for p in params]


def test_w_table_sees_a_grid_mutated_in_place():
    # the table compares the array's bytes, never its identity
    fam = preset_params("TypeA")
    x = np.linspace(1e-2, math.pi - 1e-2, 2001)
    first = _typea_reads(fam, x, range(2, 6))
    x[:] = np.linspace(0.2, math.pi - 0.3, 2001)
    assert _typea_reads(fam, x, range(2, 6)) == _typea_reads(
        preset_params("TypeA"), x.copy(), range(2, 6))
    assert first == _typea_reads(preset_params("TypeA"),
                                 np.linspace(1e-2, math.pi - 1e-2, 2001),
                                 range(2, 6))


def _ladder(fam, m, x):
    """ladder_apply of W(., m) to a narrow bump sampled on x: the chain's
    read of W."""
    bump = GridFunction(Grid(float(x[0]), float(x[-1]), x.size),
                        np.exp(-((x - x.mean()) / 0.1) ** 2))
    return ladder_apply(fam, m, "plus", WaveFunction(bump, 0, 0.0, False))


def _w_table(fam, x):
    """The W table of the sample entry, which must be x's."""
    (key, entry), = fam._samples.items()
    assert key == (x.shape, x.tobytes())
    return entry["W"]


def test_w_table_is_bounded_and_read_only():
    fam = preset_params("TypeA")
    lo, hi = 0.1, math.pi - 0.1
    x = np.linspace(lo, hi, 501)
    cap = families._W_TABLE_MAX_PARAMETERS
    for p in range(1, 2 * cap + 1):
        _assert_same(_ladder(fam, float(p), x).values,
                     _ladder(_fresh(fam), float(p), x).values)
    by_m = _w_table(fam, x)
    assert len(by_m) == cap
    assert sorted(m for m, _ in by_m) == list(range(cap + 1, 2 * cap + 1))
    for (m, _), (W, w_max) in by_m.items():
        assert not W.flags.writeable
        _assert_same(W, _fresh(fam).k(x, m))
        assert w_max == float(np.max(np.abs(W)))
    # a new grid replaces the old one; large arrays pass by
    y = np.linspace(lo, hi, 601)
    _ladder(fam, 2.0, y)
    assert len(_w_table(fam, y)) == 1
    big = np.linspace(lo, hi, riccati._MEMO_MAX_POINTS + 1)
    _assert_same(_ladder(fam, 3.0, big).values,
                 _ladder(_fresh(fam), 3.0, big).values)
    assert len(_w_table(fam, y)) == 1
    # zero and minus zero are kept apart
    _ladder(fam, 0.0, y)
    _ladder(fam, -0.0, y)
    assert len(_w_table(fam, y)) == 3


def test_w_table_refuses_a_non_finite_w_every_time():
    # closed forms refuse their poles themselves; m k1 overflows instead
    fam = preset_params("TypeA")
    x = np.linspace(0.1, 3.0, 101)
    for _ in range(2):
        try:
            with np.errstate(over="ignore"):
                _ladder(fam, 1e308, x)
        except PoleError as exc:
            assert str(exc) == ("superpotential is not finite on the "
                                "working grid")
        else:
            raise AssertionError("a W with a pole on the grid is refused")
    assert _w_table(fam, x) == {}


def test_chain_reads_each_parameter_once_per_grid(monkeypatch):
    # levels 0-4 of a decreasing TypeA chain ladder through parameters
    # m + 1 .. m + 4 (their seeds at m + 1 .. m + 5 read the grid's
    # integrals, not W), and the grid's (k0, k1) pair is evaluated once for
    # all of them
    fam = preset_params("TypeA")
    reads, pairs = [], []
    real_from, real_k1 = Family._k_from, Family.k1

    def k_from(self, pair, m):
        reads.append((pair[1].tobytes(), m))
        return real_from(self, pair, m)

    def k1(self, x):
        pairs.append(np.asarray(x).tobytes())
        return real_k1(self, x)

    monkeypatch.setattr(Family, "_k_from", k_from)
    monkeypatch.setattr(Family, "k1", k1)
    grid = Grid(1e-3, math.pi - 1e-3, 2001)
    for level in range(5):
        excited_state(fam, 2.0, level, "decreasing", grid)
    k1_bytes = real_k1(fam, grid.x).tobytes()
    assert sorted(reads) == [(k1_bytes, 2.0 + p) for p in range(1, 5)]
    assert pairs == [grid.x.tobytes()]


def _count_quadratures(monkeypatch) -> list:
    calls = []
    real = numerics.cumulative_simpson_values

    def counted(values, h):
        calls.append(1)
        return real(values, h)

    # families reads the quadrature from its array module on each call
    monkeypatch.setattr(numerics, "cumulative_simpson_values", counted)
    return calls


@pytest.mark.parametrize("name, consts, m, window, per_grid", [
    ("TypeA", {}, 2.0, (0.05, math.pi - 0.05), 2),
    ("TypeB_real", dict(b=-0.5, D=-2.0), 3.5, (-6.0, 10.0), 2),
    ("TypeF", dict(q=-3.0), 2.0, (0.5, 60.0), 1),
])
def test_seed_integrals_run_once_per_grid(monkeypatch, name, consts, m,
                                          window, per_grid):
    # every chain seed of a grid reads one held integral of k1 (and of k0
    # for the affine ansatz), however many states it builds
    fam = preset_params(name, **consts)
    spec = spectrum_analytic(fam, m, 3)
    assert len(spec.levels) >= 3
    calls = _count_quadratures(monkeypatch)

    def states(family, x):
        ground_state(family, m, spec.direction, x)
        for k, _ in spec.levels:
            excited_state(family, m, k, spec.direction, x)

    grid = Grid(*window, 2001)
    states(fam, grid)
    assert len(calls) == per_grid
    states(fam, grid)
    assert len(calls) == per_grid
    states(fam, Grid(*window, 3001))       # a second grid
    assert len(calls) == 2 * per_grid
    states(fam, Grid(*window, 2001))       # an equal copy of the first
    assert len(calls) == 3 * per_grid
    shifted = Grid(window[0] + 0.01, window[1] + 0.01, 2001)
    states(fam, shifted)
    assert len(calls) == 4 * per_grid
    for other in (copy.copy(fam), copy.deepcopy(fam),
                  pickle.loads(pickle.dumps(fam))):
        assert other._samples == {}
        states(other, shifted)
    assert len(calls) == 7 * per_grid


def _seed(fam, grid, p, sign):
    return spectra._state_seed(fam._chain_table(grid.x, grid.h)[0](p), sign)


def test_seed_integrals_refuse_a_non_finite_sample_every_time():
    # far left of its well at c = 100 the Morse k0 overflows: the seed is
    # refused with the ladder's PoleError, and the refusal is not held
    fam = preset_params("TypeB_real", c=100.0, b=-70000.0, D=400.0)
    grid = Grid(-8.0, 8.0, 501)
    for _ in range(2):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PoleError) as info:
                _seed(fam, grid, 2.0, -1)
        assert str(info.value) == ("superpotential is not finite on the "
                                   "working grid")
        assert "int k" not in riccati._entry(fam._samples, grid.x)


def test_an_overflowing_seed_exponent():
    # finite integrals, but p I1 overflows. TypeA's I1 = log(sin x / sin
    # x_mid) is near 0 mid-grid and falls toward the walls: with sign +1
    # the exponent overflows to -inf at the ends only, where the seed is
    # exactly 0, as exp underflows there anyway; with sign -1 it overflows
    # to +inf, has no finite max and is refused like a non-finite W
    fam = preset_params("TypeA")
    grid = Grid(0.1, 3.0, 101)
    with np.errstate(over="ignore", invalid="ignore"):
        seed = _seed(fam, grid, 1e308, +1)
        assert np.isfinite(seed).all() and seed.max() == 1.0
        assert seed[0] == seed[-1] == 0.0
        with pytest.raises(PoleError) as info:
            _seed(fam, grid, 1e308, -1)
    assert str(info.value) == "superpotential is not finite on the working grid"


# ---------------------------------------------------------------------------
# the orbit sums and seed verdicts held for spectra

# (preset, constants, m, direction, the first level the orbit refuses)
ORBIT_CASES = (
    # R(m + k) = c^2 (2k + 1 - 5.4): negative through level 2
    ("HyperbolicTanh", dict(c=1.1, b=-1.21 * 5.2), 2.5, "decreasing", 3),
    # R(m - k) = c^2 (7 - 2k): positive through level 3
    ("HyperbolicTanh", dict(c=0.9), 3.0, "increasing", 4),
    # level 1 needs R(0), where the inverse-power ansatz is undefined
    ("TypeF", dict(q=-3.0), 1.0, "increasing", 1),
)


def _cold_level(fam, m, k, direction):
    """Level k from a walk on a fresh family: its energy or its refusal."""
    try:
        for energy in spectra._orbit(_fresh(fam), m,
                                     spectra._coerce_direction(direction),
                                     fam.params.d, last=k):
            pass
    except OrbitError as exc:
        return "OrbitError: " + str(exc)
    return energy


def _warm_level(fam, m, k, direction):
    try:
        return energy_level(fam, m, k, direction)
    except OrbitError as exc:
        return "OrbitError: " + str(exc)


@pytest.mark.parametrize("name, consts, m, direction, fails", ORBIT_CASES)
def test_held_orbit_equals_a_fresh_walk_past_its_failure(name, consts, m,
                                                         direction, fails):
    fam = preset_params(name, **consts)
    with pytest.raises(OrbitError) as refusal:
        build_chain(fam, m, fails + 4, direction)
    assert "OrbitError: " + str(refusal.value) == _cold_level(
        fam, m, fails, direction)
    # levels below, at and past the refusal, in an order that revisits them
    for k in (fails + 2, 0, fails, fails + 3, fails - 1, fails + 2, fails):
        got = _warm_level(fam, m, k, direction)
        want = _cold_level(fam, m, k, direction)
        assert got == want
        assert isinstance(got, str) == (k >= fails)
        # a single level's refusal names the level asked for
        if isinstance(got, str) and "undefined" not in got:
            assert got.endswith(f"chain has no level {k}")
    cold = _fresh(fam)
    assert build_chain(fam, m, fails, direction) == build_chain(
        cold, m, fails, direction)
    # an increasing partner drops level 0, so it reads levels 1..n
    n = fails - 1 if direction == "increasing" else fails
    assert partner_energies(fam, m, n, direction) == partner_energies(
        cold, m, n, direction)
    assert max_level(fam, m, direction) == max_level(cold, m, direction)
    # a refusal is not held: the sums stop below the failing level
    (sums,) = _orbits(fam).values()
    assert len(sums) == fails


def _orbits(fam):
    """The held orbit sums, by (m, direction)."""
    return {key[1:]: sums for key, sums in fam._memo.items()
            if key[0] == "orbit"}


def test_held_orbit_is_bounded():
    # deeper levels than the held ones are summed again, to the same doubles
    fam = preset_params("TypeD", b=1.0, d=0.3)      # the oscillator
    depth = spectra._ORBIT_MEMO_LEVELS + 40
    want, total = [], 0.0
    for k in range(depth + 1):
        total += fam.R(1.5 - k) if k else 0.0
        want.append(fam.params.d + total)
    # the partner tower of an increasing chain is levels 1..depth, read
    # without building each level's operator list
    assert partner_energies(fam, 1.5, depth, "increasing") == want[1:]
    (sums,) = _orbits(fam).values()
    assert len(sums) == spectra._ORBIT_MEMO_LEVELS
    assert [energy_level(fam, 1.5, k, "increasing")
            for k in (depth, 3, depth - 1)] == [want[depth], want[3],
                                                want[depth - 1]]
    # the scalar memo drops its oldest entries beyond its bound, and a
    # dropped orbit is walked again to the same doubles
    cap = families._MEMO_MAX
    for m in range(2 * cap):
        energy_level(fam, 2.0 + m, 1, "increasing")
    assert len(fam._memo) == cap
    assert list(_orbits(fam)) == [(2.0 + m, spectra.ChainDirection.IncreasingL)
                                  for m in range(cap, 2 * cap)]
    assert energy_level(fam, 1.5, depth, "increasing") == want[depth]


@pytest.mark.parametrize("name, consts, m", [
    ("TypeA", dict(c=1.2, A=0.1, b=0.2), 2.0),
    ("TypeB_real", dict(c=1.1, A=0.2, b=0.1, D=-1.2), 2.5),
    ("TypeF", dict(A=0.1, q=-4.0), 2.2),
    ("HyperbolicTanh", dict(c=0.9, b=0.1), 4.3)])
def test_a_request_screens_each_seed_once(monkeypatch, name, consts, m):
    # spectrum_analytic, then the states of levels 0-4: one verdict per
    # distinct (p, sign, cell), whatever screens it again
    fam = preset_params(name, **consts)
    c = consts.get("c", 1.0)
    anchor = consts.get("A", 0.0) + 0.6180339887498949 / c
    half = 1.5 * (m + 5.0) ** 2 / 4.0 if name == "TypeF" else 8.0 / c
    lo, hi = fam.natural_domain(m, anchor, (anchor - half, anchor + half))
    lo = lo + 0.05 if lo > anchor - half else lo
    hi = hi - 0.05 if hi < anchor + half else hi
    grid = Grid(lo, hi, 4001 if name == "TypeF" else 2001)
    want = _spectrum_and_states(_fresh(fam), m, grid)
    calls = []
    real = spectra._seed_end_verdicts

    def counting(family, p, sign, cell):
        calls.append((p, sign, cell))
        return real(family, p, sign, cell)

    monkeypatch.setattr(spectra, "_seed_end_verdicts", counting)
    spec = spectrum_analytic(fam, m, 6, anchor=anchor)
    states = [excited_state(fam, m, k, spec.direction, grid).values.tobytes()
              for k, _ in spec.levels[:5]]
    assert len(states) == min(len(spec.levels), 5) >= 3
    assert calls and len(calls) == len(set(calls))
    assert len([key for key in fam._memo if key[0] == "seed"]) == len(calls)
    # the held verdicts leave every output as a fresh family's
    calls.clear()
    assert _spectrum_and_states(fam, m, grid) == want
