"""Ladder chains: direction resolution, closed-form levels, grid states,
normalizability screening, and spectrum assembly."""

import copy
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from probe_oracle import probe_seed, probe_square_integrable, seed_log_derivative
from shapeinv import spectra
from shapeinv.errors import (GridTooCoarseError, NormalizationError,
                             OrbitError)
from shapeinv.families import PRESET_NAMES, FamilyKind, preset_params
from shapeinv.numerics import Grid, inner_product, integrate, apply_hamiltonian
from shapeinv.partners import pair_from_family
from shapeinv.spectra import (ChainDirection, WaveFunction, build_chain,
                              check_normalizable, count_nodes, energy_level,
                              excited_state, ground_state, ladder_apply,
                              max_level, partner_energies, resolve_direction,
                              spectrum_analytic)

OSC_GRID = Grid(-8.0, 8.0, 2001)
TRIG_GRID = Grid(1e-3, math.pi - 1e-3, 2001)


def typed():
    return preset_params("TypeD", b=1.0)


# ---------------------------------------------------------------------------
# direction resolution

def test_resolve_direction_auto():
    assert resolve_direction(typed(), 1.0, None) is ChainDirection.IncreasingL
    assert (resolve_direction(preset_params("TypeA"), 2.0, None)
            is ChainDirection.DecreasingL)
    assert (resolve_direction(preset_params("HyperbolicTanh"), 3.0, None)
            is ChainDirection.IncreasingL)
    assert (resolve_direction(preset_params("TypeF", q=-1.0), 1.0, None)
            is ChainDirection.DecreasingL)


def test_resolve_direction_explicit_wins():
    # no screening on an explicit choice, even a non-normalizable one
    got = resolve_direction(preset_params("TypeA"), 2.0, "increasing")
    assert got is ChainDirection.IncreasingL
    assert (resolve_direction(typed(), 1.0, ChainDirection.IncreasingL)
            is ChainDirection.IncreasingL)
    with pytest.raises(ValueError):
        resolve_direction(typed(), 1.0, "sideways")


def test_resolve_direction_symbol_fallback():
    # constant superpotential: both seed verdicts fail, L trend decides
    fam = preset_params("TypeB_real")
    assert (resolve_direction(fam, 3.0, None)
            is ChainDirection.IncreasingL)
    # near the vertex of the L parabola the trend is not monotone
    with pytest.raises(OrbitError):
        resolve_direction(fam, 1.0, None)


# ---------------------------------------------------------------------------
# closed-form energies

def test_energy_level_towers():
    fd = typed()
    for k in range(5):
        assert energy_level(fd, 1.0, k, "increasing") == pytest.approx(2.0 * k)
    fa = preset_params("TypeA")
    want = [5.0, 12.0, 21.0]
    for k, e in enumerate(want):
        assert energy_level(fa, 2.0, k, "decreasing") == pytest.approx(e)
    ht = preset_params("HyperbolicTanh")
    for k, e in enumerate([0.0, 5.0, 8.0]):
        assert energy_level(ht, 3.0, k, "increasing") == pytest.approx(e)


def test_energy_level_offset_and_validation():
    fd = typed()
    assert energy_level(fd, 1.0, 2, "increasing", d=1.5) == pytest.approx(5.5)
    with pytest.raises(ValueError):
        energy_level(fd, 1.0, -1, "increasing")


def test_energy_level_wrong_direction_raises():
    with pytest.raises(OrbitError) as exc:
        energy_level(typed(), 1.0, 0, "decreasing")
    assert "not negative" in str(exc.value)
    with pytest.raises(OrbitError):
        energy_level(preset_params("TypeA"), 2.0, 1, "increasing")


def test_inverse_power_telescoping():
    # q^2/m^2 - q^2/(m+k+1)^2 in closed form
    fam = preset_params("TypeF", q=-1.0)
    for k in range(4):
        want = 1.0 - 1.0 / (k + 2.0) ** 2
        assert energy_level(fam, 1.0, k, "decreasing") == pytest.approx(want)


def _exact_L(fam, m):
    """L(m) at a rational m, exactly, from the family's float constants."""
    p = fam.params
    a = Fraction(fam.a)
    if fam.kind is FamilyKind.AFFINE:
        return -a * m * m - 2 * Fraction(p.b) * m + Fraction(p.t)
    return -a * m * m - Fraction(p.q) ** 2 / (m * m) + Fraction(p.t)


def _R_size(fam, m):
    """The size of R(m)'s terms at a rational m: |a| |2m + 1| + 2 |b|, or
    |2m + 1| (|a| + q^2/(m (m + 1))^2)."""
    p = fam.params
    a = abs(Fraction(fam.a))
    if fam.kind is FamilyKind.AFFINE:
        return a * abs(2 * m + 1) + 2 * abs(Fraction(p.b))
    return abs(2 * m + 1) * (a + Fraction(p.q) ** 2 / (m * (m + 1)) ** 2)


# Level k's distance from the exact d -+ (L difference), relative to the
# summed sizes of the k + 1 spacings' terms. Measured on this sweep run
# for 60 trials with seeds 1, 2 and 3 and 40 with seed 16 (about 78,000
# levels): at most 8.4 eps, at k = 64, whatever t is; the running sum adds
# one rounding per level.
LEVEL_ERROR_BOUND = 16 * 2.0 ** -52


def test_levels_match_an_exact_evaluation_whatever_t():
    rng = np.random.default_rng(16)
    for trial in range(24):
        for name in PRESET_NAMES:
            sign = float(rng.choice([-1.0, 1.0]))
            t = 0.0 if trial % 4 == 0 else sign * 10.0 ** rng.uniform(0.0, 300.0)
            fam = preset_params(
                name, c=rng.uniform(0.5, 2.0), A=rng.uniform(-1.0, 1.0),
                b=rng.uniform(-3.0, 3.0), D=rng.uniform(-1.0, 1.0),
                q=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0), t=t)
            m = float(rng.uniform(-6.0, 6.0))
            for direction in ("decreasing", "increasing"):
                mq, size = Fraction(m), Fraction(0)
                for k in range(65):
                    try:
                        e = energy_level(fam, m, k, direction, d=0.0)
                    except OrbitError:   # a spacing of the wrong sign
                        break
                    if direction == "decreasing":
                        exact = _exact_L(fam, mq + k + 1) - _exact_L(fam, mq)
                        size += _R_size(fam, mq + k)
                    else:
                        exact = _exact_L(fam, mq - k) - _exact_L(fam, mq)
                        size += _R_size(fam, mq - k) if k else 0
                    assert abs(Fraction(e) - exact) <= LEVEL_ERROR_BOUND * size, \
                        (name, direction, k, m, t)


def test_partner_energies_shift():
    assert partner_energies(preset_params("TypeA"), 2.0, 4, "decreasing") \
        == pytest.approx([0.0, 5.0, 12.0, 21.0])
    assert partner_energies(typed(), 1.0, 3, "increasing") \
        == pytest.approx([2.0, 4.0, 6.0])


def test_build_chain_bookkeeping():
    ch = build_chain(preset_params("TypeA"), 2.0, 3, "decreasing")
    assert ch.direction is ChainDirection.DecreasingL
    assert np.allclose(ch.energies, [5.0, 12.0, 21.0])
    assert [s.seed_parameter for s in ch.steps] == [3.0, 4.0, 5.0]
    assert ch.steps[2].operator_parameters == (4.0, 3.0)
    assert not ch.steps[2].adjoint
    inc = build_chain(typed(), 1.0, 3, "increasing")
    assert inc.steps[2].seed_parameter == -1.0
    assert inc.steps[2].operator_parameters == (0.0, 1.0)
    assert inc.steps[2].adjoint


@pytest.mark.parametrize("fam, m, direction", [
    (typed(), 1.0, "increasing"), (preset_params("TypeA"), 2.0, "decreasing")])
def test_energy_walks_build_no_chain_step(monkeypatch, fam, m, direction):
    # the orbit walk yields energies alone; a level's k ladder parameters are
    # built only where a ChainStep is returned, so walking K levels is O(K)
    want, total = [], 0.0
    for k in range(41):
        if direction == "decreasing":
            total += fam.R(m + k)
            want.append(fam.params.d - total)
        else:
            total += fam.R(m - k) if k else 0.0
            want.append(fam.params.d + total)
    built = []
    original = spectra.ChainStep

    def counted(*args):
        built.append(args[0])
        return original(*args)

    monkeypatch.setattr(spectra, "ChainStep", counted)
    assert spectrum_analytic(fam, m, 40, direction).energies.tolist() == want
    assert max_level(fam, m, direction) is None
    partner = partner_energies(fam, m, 40, direction)
    assert partner == ([fam.params.d] + want[:39] if direction == "decreasing"
                       else want[1:41])
    assert built == []
    assert [energy_level(fam, m, k, direction) for k in (0, 7, 40)] \
        == [want[0], want[7], want[40]]
    assert built == [0, 7, 40]


# ---------------------------------------------------------------------------
# normalizability screening

def test_check_normalizable_reports():
    rep = check_normalizable(typed(), 1.0, "increasing")
    assert rep and rep.normalizable and rep.divergent_end is None
    bad = check_normalizable(typed(), 1.0, "decreasing")
    assert not bad
    assert bad.divergent_end in ("left", "right")


def test_check_normalizable_slow_power_tail():
    # exp(+int W) for the Coulomb-like family decays as exp(q x / m) times
    # a power: the verdict reads the 1/x pole and the constant tail of W
    fam = preset_params("TypeF", q=-1.0)
    assert check_normalizable(fam, 2.0, "decreasing")
    assert not check_normalizable(fam, 1.0, "increasing")


def _typea_increasing_seed():
    fam = preset_params("TypeA")
    anchor = spectra._default_anchor(fam)
    return (seed_log_derivative(fam, 2.0, -1),
            fam.natural_domain(1.0, anchor, (-math.inf, math.inf)), anchor)


# the sampling oracle (tests/probe_oracle.py): (log derivative, domain,
# anchor) and its report (normalizable, divergent_end, stages, log_norm),
# compared bit for bit: evaluating both shells of a stage in one call must
# not move any of them
PROBE_PINS = {
    "two finite sides": (
        (lambda x: -x, (-1.0, 2.0), 0.25),
        (True, None, 19, 0.2752038776859279)),
    "one infinite side": (
        (lambda x: 1.0 / x - x, (0.0, math.inf), 1.0),
        (True, None, 8, 0.09303526693919911)),
    "both sides infinite": (
        (lambda x: -x, (-math.inf, math.inf), 0.3),
        (True, None, 2, 0.3311824714623292)),
    "40-stage divergence": (
        _typea_increasing_seed(),
        (False, "left", 40, None)),
    # both shells of stage 2 are non-finite: the left one is reported
    "non-finite left shell": (
        (lambda x: np.where(np.abs(x) > 5.0, np.nan, -x),
         (-math.inf, math.inf), 0.3),
        (False, "left", 2, None)),
    "non-finite right shell": (
        (lambda x: np.where(x > 5.0, np.inf, -x), (-math.inf, math.inf), 0.3),
        (False, "right", 2, None)),
}


@pytest.mark.parametrize("case", PROBE_PINS)
def test_probe_reports_pinned_one_evaluation_per_stage(case):
    (g, domain, anchor), expected = PROBE_PINS[case]
    sizes = []

    def counting(xs):
        sizes.append(xs.size)
        return g(xs)

    rep = probe_square_integrable(counting, domain, anchor=anchor)
    assert (rep.normalizable, rep.divergent_end, rep.stages,
            rep.log_norm) == expected
    # default samples=2048: two shells of 1024 panels each per stage
    assert sizes == [2 * 1025] * rep.stages


def test_probe_overflow_is_silent_divergence():
    # Morse (B = -1): exp(-th) in the closed form overflows on the oracle's
    # wide shells, which it reads as divergence toward the left, with no
    # RuntimeWarning. The level-3 seed in fact decays double-exponentially
    # to the left and diverges to the right, where k tends to a constant of
    # the growing sign; check_normalizable and the screening name that end.
    fam = preset_params("TypeB_real", c=1.1202389828913326,
                        A=-0.18415032727483238, b=-0.35339366958075147,
                        D=-1.6616092770240576)
    m = 3.186823711815706
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probe = probe_seed(fam, m - 3.0, "increasing")
        exact = check_normalizable(fam, m - 3.0, "increasing")
        spec = spectrum_analytic(fam, m, 5)
    assert (probe.normalizable, probe.divergent_end) == (False, "left")
    assert (exact.normalizable, exact.divergent_end) == (False, "right")
    assert spec.direction is ChainDirection.IncreasingL
    assert [k for k, _ in spec.levels] == [0, 1, 2]
    assert spec.truncation_reason.endswith("(divergent toward the right end)")


# ---------------------------------------------------------------------------
# states on grids

def test_ground_state_gaussian():
    wf = ground_state(typed(), 1.0, "increasing", OSC_GRID)
    truth = np.pi ** -0.25 * np.exp(-OSC_GRID.x ** 2 / 2.0)
    assert np.max(np.abs(wf.values - truth)) < 1e-12
    assert wf.energy == 0.0
    assert wf.norm() == pytest.approx(1.0, abs=1e-12)
    assert wf.node_count() == 0


def test_ground_state_partner_bottom():
    # decreasing chains: exp(+int W) is the partner tower's zero mode
    fam = preset_params("TypeA")
    wf = ground_state(fam, 2.0, "decreasing", TRIG_GRID)
    ref = np.sin(TRIG_GRID.x) ** 2
    ref = ref / math.sqrt(integrate(ref * ref, TRIG_GRID.h))
    diff = np.abs(wf.values - ref)
    # quadrature of 2 cot x near the walls costs a few wall-local digits
    assert np.max(diff) < 5e-6
    assert np.max(diff[np.abs(TRIG_GRID.x - math.pi / 2) < 1.0]) < 1e-8
    assert wf.energy == 0.0


def test_ground_state_screens_seed():
    with pytest.raises(NormalizationError):
        ground_state(preset_params("TypeA"), 2.0, "increasing", TRIG_GRID)


def test_excited_state_hermite():
    wf = excited_state(typed(), 1.0, 2, "increasing", OSC_GRID)
    ref = (4.0 * OSC_GRID.x ** 2 - 2.0) * np.exp(-OSC_GRID.x ** 2 / 2.0)
    ref = ref / math.sqrt(integrate(ref * ref, OSC_GRID.h))
    assert np.max(np.abs(wf.values - ref)) < 1e-8
    assert wf.energy == pytest.approx(4.0)
    assert wf.node_count() == 2


def test_excited_state_trig_chain():
    # one lowering step turns the shifted-parameter seed into sin^3 cos
    wf = excited_state(preset_params("TypeA"), 2.0, 1, "decreasing", TRIG_GRID)
    ref = np.sin(TRIG_GRID.x) ** 3 * np.cos(TRIG_GRID.x)
    ref = ref / math.sqrt(integrate(ref * ref, TRIG_GRID.h))
    assert np.max(np.abs(wf.values - ref)) < 1e-8
    assert wf.energy == pytest.approx(12.0)
    assert wf.node_count() == 1


@pytest.mark.parametrize("A", [0.0, 1e9, 1e11, 1e12])
def test_states_are_normalized_with_the_grids_spacing(A):
    # far from the origin the nodes are quantized to the ulp of A, so
    # x[1] - x[0] is not the Grid's h; the chain must normalize with the h
    # that WaveFunction.norm() uses (the first node gap read 0.99648 at 1e12)
    fam = preset_params("TypeD", b=1, A=A)
    for k in (0, 2):
        wf = excited_state(fam, 1, k, "increasing", Grid(A - 8, A + 8, 2001))
        assert abs(wf.norm() - 1.0) <= 1e-12
    wf = ground_state(fam, 1, "increasing", Grid(A - 8, A + 8, 2001))
    assert abs(wf.norm() - 1.0) <= 1e-12


def test_states_refuse_a_sample_array():
    # states are built on a Grid only: a sample array never says its step
    xs = np.linspace(-8.0, 8.0, 2001)
    with pytest.raises(TypeError, match="numerics.Grid, got ndarray"):
        excited_state(typed(), 1.0, 1, "increasing", xs)
    with pytest.raises(TypeError, match="numerics.Grid, got list"):
        ground_state(typed(), 1.0, "increasing", xs.tolist())


def test_states_orthonormal_and_eigen():
    fam = typed()
    states = [excited_state(fam, 1.0, k, "increasing", OSC_GRID)
              for k in range(4)]
    V = pair_from_family(fam).V(OSC_GRID.x, 1.0)
    for i, wf in enumerate(states):
        assert wf.node_count() == i
        assert wf.norm() == pytest.approx(1.0, abs=1e-12)
        r = apply_hamiltonian(wf.values, V, OSC_GRID.h) - wf.energy * wf.values
        assert math.sqrt(integrate(r * r, OSC_GRID.h)) < 1e-3
        for other in states[:i]:
            assert abs(inner_product(wf.values, other.values, OSC_GRID.h)) < 1e-6


def test_excited_state_screens_seed():
    ht = preset_params("HyperbolicTanh")
    with pytest.raises(NormalizationError):
        excited_state(ht, 3.0, 3, "increasing", Grid(-12.0, 12.0, 2001))


def test_coarse_grid_refused():
    with pytest.raises(GridTooCoarseError) as exc:
        excited_state(typed(), 1.0, 1, "increasing", Grid(-8.0, 8.0, 64))
    assert "refine the grid" in str(exc.value)


# ---------------------------------------------------------------------------
# ladder operators on states

def test_ladder_annihilates_ground():
    g0 = ground_state(typed(), 1.0, "increasing", OSC_GRID)
    killed = ladder_apply(typed(), 1.0, "plus", g0)
    assert killed.norm() < 1e-6
    assert not killed.normalized


def test_ladder_raises_to_first_level():
    fam = typed()
    g0 = ground_state(fam, 1.0, "increasing", OSC_GRID)
    raised = ladder_apply(fam, 1.0, "minus", g0).as_normalized()
    e1 = excited_state(fam, 1.0, 1, "increasing", OSC_GRID)
    diff = min(np.max(np.abs(raised.values - e1.values)),
               np.max(np.abs(raised.values + e1.values)))
    assert diff < 1e-10
    assert raised.norm() == pytest.approx(1.0, abs=1e-12)


def test_ladder_sign_spelling():
    g0 = ground_state(typed(), 1.0, "increasing", OSC_GRID)
    for sign in ("up", +1, -1):
        with pytest.raises(ValueError, match="'plus' or 'minus'"):
            ladder_apply(typed(), 1.0, sign, g0)


# ---------------------------------------------------------------------------
# level bounds and spectra

def test_max_level():
    ht = preset_params("HyperbolicTanh")
    assert max_level(ht, 3.0, "increasing") == 2
    assert max_level(typed(), 1.0, "increasing", limit=10) is None


def test_max_level_is_the_top_of_the_screened_spectrum():
    # spectrum_analytic and max_level read one screened walk: where 64
    # levels stop early, the last one kept is max_level, else it is None.
    # max_level walks a copy, which holds no orbit sums or verdicts
    rng = np.random.default_rng(29)
    outcomes = set()
    for name in PRESET_NAMES:
        for _ in range(3):
            fam = preset_params(name, c=rng.uniform(0.5, 2.0),
                                A=rng.uniform(-0.5, 0.5),
                                b=rng.uniform(-4.0, 4.0),
                                D=rng.uniform(-2.0, 2.0),
                                q=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 6.0))
            m = int(rng.integers(1, 6)) + rng.uniform(0.1, 0.9)
            for direction in ("decreasing", "increasing"):
                sp = spectrum_analytic(fam, m, 63, direction)
                want = len(sp.levels) - 1 if sp.truncated else None
                assert max_level(copy.copy(fam), m, direction) == want
                outcomes.add((direction, sp.truncated))
    assert len(outcomes) == 4


def test_spectrum_analytic_oscillator():
    sp = spectrum_analytic(typed(), 1.0, 3)
    assert sp.direction is ChainDirection.IncreasingL
    assert list(sp) == [(0, 0.0), (1, 2.0), (2, 4.0), (3, 6.0)]
    assert sp.partner_levels == ((0, 2.0), (1, 4.0), (2, 6.0))
    assert not sp.truncated
    assert len(sp) == 4
    assert np.allclose(sp.energies, [0.0, 2.0, 4.0, 6.0])


def test_spectrum_analytic_trig():
    sp = spectrum_analytic(preset_params("TypeA"), 2.0, 2)
    assert sp.direction is ChainDirection.DecreasingL
    assert list(sp) == [(0, 5.0), (1, 12.0), (2, 21.0)]
    assert sp.partner_levels == ((0, 0.0), (1, 5.0), (2, 12.0), (3, 21.0))


def test_spectrum_analytic_truncates():
    sp = spectrum_analytic(preset_params("HyperbolicTanh"), 3.0, 5)
    assert [e for _, e in sp.levels] == pytest.approx([0.0, 5.0, 8.0])
    assert sp.truncated
    assert "not square integrable" in sp.truncation_reason
    doc = sp.to_json()
    assert doc["truncated"] and "truncation_reason" in doc


def test_spectrum_analytic_forced_bad_direction():
    sp = spectrum_analytic(typed(), 1.0, 3, direction="decreasing")
    assert sp.levels == ()
    assert sp.truncated
    assert "not negative" in sp.truncation_reason


def test_spectrum_analytic_kmax_zero():
    sp = spectrum_analytic(typed(), 1.0, 0)
    assert list(sp) == [(0, 0.0)]
    assert sp.partner_levels == ()
    dec = spectrum_analytic(preset_params("TypeA"), 2.0, 0)
    assert dec.partner_levels == ((0, 0.0), (1, 5.0))
    with pytest.raises(ValueError):
        spectrum_analytic(typed(), 1.0, -1)


def test_spectrum_json_round_shape():
    doc = spectrum_analytic(typed(), 1.0, 2).to_json()
    assert doc["direction"] == "increasing"
    assert doc["levels"] == [{"k": 0, "E": 0.0}, {"k": 1, "E": 2.0},
                             {"k": 2, "E": 4.0}]
    assert "truncation_reason" not in doc


# ---------------------------------------------------------------------------
# node counting

def test_count_nodes_basic():
    xs = np.linspace(0.0, math.pi, 501)
    assert count_nodes(np.sin(3.0 * xs)[1:-1]) == 2
    assert count_nodes(np.ones(100)) == 0


def test_count_nodes_ignores_dust():
    vals = np.concatenate([np.full(50, 1.0), np.array([-1e-14]),
                           np.full(50, 1.0)])
    assert count_nodes(vals) == 0


def test_node_count_matches_the_interior_check():
    # the level-4 trig state carries ~1e-6 of its peak as round-off on the
    # end samples; node_count counts the interior samples excited_state checked
    grid = Grid(0.001, 3.140592653589793, 2001)
    wf = excited_state(preset_params("TypeA"), 2.0, 4, "decreasing", grid)
    assert count_nodes(wf.values) == 6
    assert wf.node_count() == 4 == count_nodes(wf.values[1:-1])


def test_wavefunction_accessors():
    wf = ground_state(typed(), 1.0, "increasing", OSC_GRID)
    assert isinstance(wf, WaveFunction)
    assert wf.grid == OSC_GRID
    assert wf.h == pytest.approx(OSC_GRID.h)
    assert wf.x.size == wf.values.size == OSC_GRID.n
    assert wf.k == 0


# ---------------------------------------------------------------------------
# seed screening is exact: no sampling, no per-instance state

SCREEN_CASES = {
    "TypeA": (lambda: preset_params("TypeA"), 2.0, TRIG_GRID),
    "TypeC": (lambda: preset_params("TypeC", b=-1.0), 2.0,
              Grid(1e-2, 10.0, 4001)),
}


@pytest.mark.parametrize("case", SCREEN_CASES)
def test_seed_screening_makes_no_probe(case):
    make, m, grid = SCREEN_CASES[case]
    fam = make()
    direction = resolve_direction(fam, m)
    spec = spectrum_analytic(fam, m, 4)
    assert spec.direction is direction and len(spec.levels) == 5
    for k, energy in spec.levels:
        assert excited_state(fam, m, k, direction, grid).energy == energy
    assert ground_state(fam, m, direction, grid).node_count() == 0
    assert max_level(fam, m, direction, limit=5) is None


def test_seed_verdict_does_not_depend_on_the_anchor():
    # every anchor of a cell gives the same verdicts, also in a cell away
    # from the family's reference point: one period over, on (pi, 2 pi)
    fam = preset_params("TypeA", b=0.3, D=0.2)
    want = spectrum_analytic(fam, 2.0, 6)
    assert len(want.levels) == 7
    for base in (0.0, math.pi, -5.0 * math.pi):
        for u in (1e-9, 0.25, 0.5, 0.9, 1.0 - 1e-9):
            got = spectrum_analytic(fam, 2.0, 6, anchor=base + u * math.pi)
            assert got == want
    grid = Grid(math.pi + 1e-3, 2.0 * math.pi - 1e-3, 2001)
    assert excited_state(fam, 2.0, 1, "decreasing", grid).node_count() == 1
    # no poles: the whole line is one cell
    tanh = preset_params("HyperbolicTanh", D=0.3)
    want = spectrum_analytic(tanh, 3.0, 5)
    assert len(want.levels) == 3
    assert "not square integrable" in want.truncation_reason
    for anchor in (-1e6, -40.0, 0.0, 3.0, 1e6):
        assert spectrum_analytic(tanh, 3.0, 5, anchor=anchor) == want


def test_seed_screening_leaves_identity_alone():
    fam = preset_params("TypeA")
    before = (repr(fam), hash(fam), sorted(fam.__getstate__()))
    spectrum_analytic(fam, 2.0, 3)
    max_level(fam, 2.0, "decreasing", limit=8)
    assert (repr(fam), hash(fam), sorted(fam.__getstate__())) == before
    assert fam == preset_params("TypeA")
    assert not hasattr(fam, "_seed_memo")
    back = pickle.loads(pickle.dumps(fam))
    assert back == fam and hash(back) == hash(fam) and repr(back) == repr(fam)
    assert spectrum_analytic(back, 2.0, 3) == spectrum_analytic(
        copy.copy(fam), 2.0, 3)
