"""Ladder chains: direction resolution, closed-form levels, grid states,
normalizability screening, and spectrum assembly."""

import math
import warnings

import numpy as np
import pytest

from shapeinv import spectra
from shapeinv.errors import (GridTooCoarseError, NormalizationError,
                             OrbitError)
from shapeinv.families import preset_params
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
    # constant superpotential: both seed probes fail, L trend decides
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


# ---------------------------------------------------------------------------
# normalizability screening

def test_check_normalizable_reports():
    rep = check_normalizable(typed(), 1.0, "increasing")
    assert rep and rep.normalizable and rep.divergent_end is None
    assert rep.log_norm is not None
    bad = check_normalizable(typed(), 1.0, "decreasing")
    assert not bad
    assert bad.divergent_end in ("left", "right")


def test_check_normalizable_slow_power_tail():
    # exp(+int W) for the Coulomb-like family decays as exp(q x / m) times
    # a power, so the probe has to survive wide windows around a 1/x spike
    fam = preset_params("TypeF", q=-1.0)
    assert check_normalizable(fam, 2.0, "decreasing")
    assert not check_normalizable(fam, 1.0, "increasing")


def _typea_increasing_seed():
    fam = preset_params("TypeA")
    anchor = spectra._default_anchor(fam)
    return (spectra._seed_log_derivative(fam, 2.0, -1),
            spectra._unbounded_domain(fam, anchor), anchor)


# (log derivative, domain, anchor) and its report (normalizable,
# divergent_end, stages, log_norm), compared bit for bit: evaluating both
# shells of a stage in one call must not move any of them
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

    rep = spectra._probe_square_integrable(counting, domain, anchor=anchor)
    assert (rep.normalizable, rep.divergent_end, rep.stages,
            rep.log_norm) == expected
    # default samples=2048: two shells of 1024 panels each per stage
    assert sizes == [2 * 1025] * rep.stages


def test_probe_overflow_is_silent_divergence():
    # Morse (B = -1): exp(-th) in the closed form overflows on the wide probe
    # shells; the probe reads that as divergence without a RuntimeWarning
    fam = preset_params("TypeB_real", c=1.1202389828913326,
                        A=-0.18415032727483238, b=-0.35339366958075147,
                        D=-1.6616092770240576)
    m = 3.186823711815706
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = spectrum_analytic(fam, m, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = spectrum_analytic(fam, m, 5)
    assert strict.levels == quiet.levels
    assert [k for k, _ in strict.levels] == [0, 1, 2]


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


def test_excited_state_accepts_plain_arrays():
    xs = np.linspace(-8.0, 8.0, 2001)
    wf = excited_state(typed(), 1.0, 1, "increasing", xs)
    assert wf.energy == pytest.approx(2.0)
    assert wf.x[0] == -8.0


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
    a = ladder_apply(typed(), 1.0, "minus", g0)
    b = ladder_apply(typed(), 1.0, -1, g0)
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        ladder_apply(typed(), 1.0, "up", g0)


# ---------------------------------------------------------------------------
# level bounds and spectra

def test_max_level():
    ht = preset_params("HyperbolicTanh")
    assert max_level(ht, 3.0, "increasing") == 2
    assert max_level(typed(), 1.0, "increasing", limit=10) is None


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


def test_wavefunction_accessors():
    wf = ground_state(typed(), 1.0, "increasing", OSC_GRID)
    assert isinstance(wf, WaveFunction)
    assert wf.grid == OSC_GRID
    assert wf.h == pytest.approx(OSC_GRID.h)
    assert wf.x.size == wf.values.size == OSC_GRID.n
    assert wf.k == 0
