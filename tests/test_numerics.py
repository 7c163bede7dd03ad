"""Finite-difference oracle: grids, stencils, quadrature, the tridiagonal
eigensolver, and the Dirichlet spectrum driver."""

import copy
import inspect
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA
from shapeinv import numerics
from shapeinv.errors import BoundaryConditionError, PoleError
from shapeinv.families import family_from_json, preset_params
from shapeinv.numerics import (_EPS, _newton_pass, _sturm_count,
                               Grid, GridFunction, NumericSpectrum,
                               TridiagonalSym, adjointness_defect,
                               apply_hamiltonian, derivative, eigen_lowest,
                               fix_sign, hamiltonian_matrix, inner_product,
                               integrate, spectrum_numeric)
from shapeinv.partners import pair_from_family
from shapeinv.spectra import spectrum_analytic


# ---------------------------------------------------------------------------
# grids and grid functions

def test_grid_basics():
    g = Grid(0.0, 1.0, 101)
    assert g.h == pytest.approx(0.01)
    assert g.x[0] == 0.0 and g.x[-1] == 1.0 and g.x.size == 101


def test_grid_nodes_are_computed_once_and_read_only():
    g = Grid(-0.3, 2.7, 2001)
    x = g.x
    assert g.x is x
    assert np.array_equal(x, np.linspace(-0.3, 2.7, 2001))
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 1.0
    assert (repr(g), hash(g)) == ("Grid(x0=-0.3, x1=2.7, n=2001)",
                                  hash(Grid(-0.3, 2.7, 2001)))
    # copies and unpickled grids carry their own read-only nodes
    for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert other == g and hash(other) == hash(g)
        assert np.array_equal(other.x, x) and not other.x.flags.writeable


@pytest.mark.parametrize("args", [(1.0, 0.0, 50), (0.0, 0.0, 50),
                                  (0.0, 1.0, 15), (0.0, math.inf, 50),
                                  (-1e308, 1e308, 50)])
def test_grid_rejects_bad_input(args):
    with pytest.raises(ValueError):
        Grid(*args)


def test_grid_builds_its_nodes_on_first_read():
    # refusals read only a grid's scalars, so a process that refuses before
    # sampling never needs numpy for it
    g = Grid(-0.3, 2.7, 2001)
    assert "x" not in vars(g)
    assert g.h == (2.7 - -0.3) / 2000 and "x" not in vars(g)
    x = g.x
    assert g.x is x and vars(g)["x"] is x and not x.flags.writeable
    assert np.array_equal(x, np.linspace(-0.3, 2.7, 2001))
    unread = Grid(-0.3, 2.7, 2001)
    copies = [copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g)),
              copy.copy(unread), pickle.loads(pickle.dumps(unread))]
    for other in [unread] + copies:
        assert other == g and hash(other) == hash(g) and repr(other) == repr(g)
    # a copy rebuilds its own nodes when it reads them
    for other in copies:
        assert "x" not in vars(other)
        assert np.array_equal(other.x, x) and other.x is not x
        assert not other.x.flags.writeable


def test_grid_mid_is_the_middle_node_bit_for_bit():
    # x[n // 2] of linspace, fl(x0 + fl(i step)), from the scalars alone,
    # including spans whose step underflows to 0
    rng = np.random.default_rng(71)
    cases = [(-1e-320, 1e-320, 1_000_001), (0.0, 5e-324 * 37, 16),
             (1.0, 1.0 + 2.0 ** -40, 1_000_001), (-3e300, -1e300, 17)]
    for _ in range(300):
        n = int(rng.choice([16, 17, 1_000_000, 1_000_001])
                if rng.uniform() < 0.2 else rng.integers(16, 1_000_002))
        x0 = float(rng.uniform(-1e3, 1e3) * 10.0 ** rng.integers(-320, 300))
        span = float(10.0 ** rng.uniform(-320, 3)) * max(abs(x0), 1.0)
        if math.isfinite(x0 + span) and x0 + span > x0:
            cases.append((x0, x0 + span, n))
    assert {n % 2 for *_, n in cases} == {0, 1}
    for x0, x1, n in cases:
        grid = Grid(x0, x1, n)
        mid = grid.mid
        node = float(np.linspace(x0, x1, n)[n // 2])
        assert mid == node and math.copysign(1.0, mid) == math.copysign(1.0, node), (x0, x1, n)


def test_grid_function_checks():
    g = Grid(0.0, 1.0, 21)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(20))
    vals = np.zeros(21)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, vals)


def test_grid_function_norm():
    g = Grid(0.0, math.pi, 2001)
    gf = GridFunction.from_callable(g, np.sin)
    assert gf.norm() == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-9)


# ---------------------------------------------------------------------------
# stencils

def test_derivative_exact_on_quartic():
    g = Grid(-1.0, 2.0, 31)
    x = g.x

    def p(x):
        return x ** 4 - 2.0 * x ** 3 + 0.5 * x ** 2 - x + 3.0

    d1 = 4.0 * x ** 3 - 6.0 * x ** 2 + x - 1.0
    d2 = 12.0 * x ** 2 - 12.0 * x + 1.0
    assert np.allclose(derivative(p(x), g.h), d1, atol=1e-9)
    assert np.allclose(derivative(p(x), g.h, order=2), d2, atol=1e-7)


def test_derivative_fourth_order_convergence():
    errs = []
    for n in (101, 201):
        g = Grid(0.0, 2.0, n)
        err = np.max(np.abs(derivative(np.sin(g.x), g.h) - np.cos(g.x)))
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0  # fifth derivative error term halves as h^4


def test_derivative_argument_validation():
    with pytest.raises(TypeError):
        derivative(np.zeros(10))  # sample array without spacing
    with pytest.raises(ValueError):
        derivative(np.zeros(4), 0.1)
    with pytest.raises(ValueError):
        derivative(np.zeros(10), 0.1, order=3)


def test_derivative_gridfunction_passthrough():
    g = Grid(0.0, 1.0, 41)
    gf = GridFunction.from_callable(g, lambda x: x ** 2)
    out = gf.derivative()
    assert isinstance(out, GridFunction)
    assert np.allclose(out.values, 2.0 * g.x, atol=1e-10)


# ---------------------------------------------------------------------------
# quadrature

def test_integrate_sin_simpson():
    g = Grid(0.0, math.pi, 2001)  # odd count, pure Simpson
    assert integrate(np.sin(g.x), g.h) == pytest.approx(2.0, abs=1e-9)


def test_integrate_even_count_tail():
    h = math.pi / 1999
    xs = np.arange(2000) * h
    assert integrate(np.sin(xs), h) == pytest.approx(1.0 - math.cos(xs[-1]),
                                                     abs=1e-8)


def test_integrate_tiny_inputs():
    assert integrate(np.array([1.0, 3.0]), 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        integrate(np.array([1.0]), 0.5)
    with pytest.raises(TypeError):
        integrate(np.array([1.0, 2.0]))


def test_inner_product_bilinear():
    rng = np.random.default_rng(71)
    u, v, w = rng.standard_normal((3, 300))
    h = 0.01
    lhs = inner_product(u, 2.0 * v + 3.0 * w, h)
    rhs = 2.0 * inner_product(u, v, h) + 3.0 * inner_product(u, w, h)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert inner_product(u, v, h) == pytest.approx(inner_product(v, u, h))


def test_inner_product_grid_checks():
    with pytest.raises(ValueError):
        inner_product(np.zeros(5), np.zeros(6), 0.1)


# ---------------------------------------------------------------------------
# tridiagonal eigensolver

def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def test_two_by_two_pair():
    mat = TridiagonalSym(diag=np.array([2.0, 2.0]),
                         offdiag=np.array([-1.0]))
    assert np.allclose(mat.eigenvalues_lowest(2), [1.0, 3.0], atol=1e-10)
    pairs = eigen_lowest(mat, 2)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(pairs[0][1], [s, s], atol=1e-8)
    assert np.allclose(pairs[1][1], [s, -s], atol=1e-8)


def test_diagonal_matrix_sorts():
    mat = TridiagonalSym(diag=np.array([3.0, -1.0, 2.0]),
                         offdiag=np.zeros(2))
    assert np.allclose(mat.eigenvalues_lowest(3), [-1.0, 2.0, 3.0], atol=1e-10)
    assert [mat.count_below(s) for s in (-2.0, 0.0, 2.5, 4.0)] == [0, 1, 2, 3]


def test_small_matrices_match_lapack():
    rng = np.random.default_rng(73)
    shifts = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = rng.standard_normal(n) * 3.0
        e = rng.standard_normal(n - 1) * 2.0
        mat = TridiagonalSym(diag=d, offdiag=e)
        want = np.sort(np.linalg.eigvalsh(_dense(d, e)))
        got = mat.eigenvalues_lowest(n)
        assert np.allclose(got, want, atol=1e-8)
        for sigma in shifts.uniform(-10.0, 10.0, 8):
            if np.min(np.abs(want - sigma)) > 1e-9:
                assert mat.count_below(sigma) == int(np.sum(want < sigma))


def test_count_below_and_bounds():
    mat = TridiagonalSym(diag=np.array([2.0, 2.0]),
                         offdiag=np.array([-1.0]))
    assert mat.count_below(0.0) == 0
    assert mat.count_below(2.0) == 1
    assert mat.count_below(4.0) == 2
    lo, hi = mat.gershgorin()
    assert lo <= 1.0 and hi >= 3.0
    one = TridiagonalSym(diag=np.array([3.0]), offdiag=np.zeros(0))
    assert one.count_below(2.5) == 0 and one.count_below(3.5) == 1
    assert one.eigenvalues_lowest(1)[0] == pytest.approx(3.0, abs=1e-14)


def _leading_minor_matrices():
    """(d, e, j): pivots of T - 0*I as powers of two with one exact zero at
    row j, so 0 is an eigenvalue of the leading (j+1)x(j+1) minor and the
    Sturm recurrence hits a vanishing pivot that must be clamped, not
    divided by."""
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        piv = rng.choice([-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0], n)
        j = int(rng.integers(0, n - 1))
        piv[j] = 0.0
        e = rng.choice([-1.0, 1.0], n - 1)
        d = piv.copy()
        d[1:] += 1.0 / np.where(piv[:-1] == 0.0, np.inf, piv[:-1])
        yield d, e, j


def test_count_below_on_leading_minor_eigenvalues():
    checked = 0
    for d, e, j in _leading_minor_matrices():
        minor = np.linalg.eigvalsh(_dense(d[:j + 1], e[:j]))
        assert np.min(np.abs(minor)) < 1e-12
        evals = np.linalg.eigvalsh(_dense(d, e))
        if np.min(np.abs(evals)) < 1e-6:
            continue
        mat = TridiagonalSym(diag=d, offdiag=e)
        assert mat.count_below(0.0) == int(np.sum(evals < 0.0))
        checked += 1
    assert checked >= 30


def test_wilkinson_near_degenerate_pair():
    # W21+: the top two eigenvalues agree to about 14 digits.
    d = np.abs(np.arange(21) - 10.0)
    e = np.ones(20)
    got = TridiagonalSym(diag=d, offdiag=e).eigenvalues_lowest(21)
    want = np.linalg.eigvalsh(_dense(d, e))
    assert np.all(np.diff(got) > 0.0)
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)
    assert got[-1] - got[-2] == pytest.approx(want[-1] - want[-2], abs=2e-14)


@pytest.mark.parametrize("d, e", [
    (np.zeros(5), np.zeros(4)),
    (np.array([1.0, 2.0, 1.0, 3.0]), np.zeros(3)),
    (np.zeros(4), np.array([1.0, 0.0, 1.0])),
    (np.abs(np.arange(21) - 10.0), np.ones(20)),    # W21+
], ids=["zero", "diagonal", "two-blocks", "W21+"])
def test_eigenvectors_orthonormal_on_split_and_wilkinson(d, e):
    # repeated eigenvalues of a split matrix give the same twisted vector at
    # the best twist row; the next rows in |gamma| order span the rest
    mat = TridiagonalSym(diag=d, offdiag=e)
    pairs = eigen_lowest(mat, mat.n)
    vecs = np.array([v for _, v in pairs])
    assert np.max(np.abs(vecs @ vecs.T - np.eye(mat.n))) <= 1e-12
    for lam, v in pairs:
        assert np.linalg.norm(mat.matvec(v) - lam * v) <= 1e-12 * max(1.0, np.max(d))


def test_eigenvector_needs_a_direction_outside_prev():
    mat = TridiagonalSym(diag=np.array([2.0, 2.0]), offdiag=np.array([-1.0]))
    basis = [v for _, v in eigen_lowest(mat, 2)]
    with pytest.raises(ValueError, match="independent of prev"):
        mat.eigenvector(1.0, prev=basis)


@pytest.mark.parametrize("n", [1001, 2001, 4001])
@pytest.mark.parametrize("name", ["oscillator", "trig", "hyperbolic"])
def test_config_eigenvectors_match_lapack(name, n):
    linalg = pytest.importorskip("scipy.linalg")
    (mat, _), k = _config_matrices(name, n)
    pairs = eigen_lowest(mat, k)
    _, want = linalg.eigh_tridiagonal(mat.diag, mat.offdiag, select="i",
                                      select_range=(0, k - 1))
    for j, (_, v) in enumerate(pairs):
        assert 1.0 - abs(v @ want[:, j]) <= 1e-13
    again = eigen_lowest(mat, k)
    assert [v.tobytes() for _, v in again] == [v.tobytes() for _, v in pairs]


@pytest.mark.parametrize("fn", [TridiagonalSym.eigenvector, eigen_lowest,
                                numerics._eigenvectors, NumericSpectrum,
                                spectrum_numeric])
def test_eigenvectors_take_no_seed(fn):
    assert "seed" not in inspect.signature(fn).parameters


def _config_problem(name):
    """Family, m, potential, grid and level count of a tests/data
    configuration, as the CLI's spectrum --mode both builds them."""
    cfg = json.loads((DATA / f"{name}.json").read_text())
    fam = family_from_json(cfg["family"])
    pair = pair_from_family(fam, cfg["d"])
    g = cfg["grid"]
    grid = Grid(g["xmin"], g["xmax"], g["n"])
    return fam, cfg["m"], (lambda x: pair.V(x, cfg["m"])), grid, cfg["kmax"] + 1


def _config_matrices(name, n=None):
    """The fine Dirichlet matrix of a tests/data configuration, at n nodes
    or the configuration's own, and its Richardson coarse matrix, with the
    level count."""
    _, _, V, grid, k = _config_problem(name)
    n = n or grid.n
    fine = Grid(grid.x0, grid.x1, n)
    coarse = Grid(grid.x0, grid.x1, n // 2 + 1)
    return [hamiltonian_matrix(V, g) for g in (fine, coarse)], k


@pytest.mark.parametrize("name", ["oscillator", "trig", "hyperbolic"])
def test_config_matrices_match_lapack_bisection(name):
    linalg = pytest.importorskip("scipy.linalg")
    mats, k = _config_matrices(name)
    for mat in mats:
        got = mat.eigenvalues_lowest(k)
        want = linalg.eigh_tridiagonal(
            mat.diag, mat.offdiag, eigvals_only=True, select="i",
            select_range=(0, k - 1), lapack_driver="stebz", tol=1e-300)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("n", [1001, 2001])
def test_lower_levels_do_not_depend_on_the_level_count(n):
    # the ladder suite's partner towers: V's four levels against Vtilde's
    # three, with Vtilde asked for three only
    pair = pair_from_family(preset_params("TypeD", b=1.0))
    grid = Grid(-8.0, 8.0, n)
    for V in (pair.V, pair.Vtilde):
        mat = hamiltonian_matrix(lambda x: V(x, 1.0), grid)
        three, four = mat.eigenvalues_lowest(3), mat.eigenvalues_lowest(4)
        assert three.tobytes() == four[:3].tobytes()


# ---------------------------------------------------------------------------
# the tree walk against plain bisection

def _reference_eigenvalues(mat, k: int) -> np.ndarray:
    """The solver before the tree walk: plain level-by-level bisection,
    one Sturm count per split."""
    lo, hi = mat.gershgorin()
    pad = 2.0 * _EPS * max(abs(lo), abs(hi))
    d, e2 = mat._sturm_rows()
    pivmin = mat._pivmin()
    los = [lo - pad] * k
    his = [hi + pad] * k
    # Bisect level by level, lowest first. Every count narrows the
    # bracket of each later level the shift falls inside of. A level stops
    # at a width relative to its magnitude, or once the midpoint no longer
    # splits the bracket.
    for i in range(k):
        for _ in range(220):
            a, b = los[i], his[i]
            mid = 0.5 * (a + b)
            if b - a <= 2.0 * _EPS * max(abs(a), abs(b)) + pivmin or not a < mid < b:
                break
            count = _sturm_count(d, e2, pivmin, mid)
            for j in range(i, k):
                if los[j] < mid < his[j]:
                    if count > j:
                        his[j] = mid
                    else:
                        los[j] = mid
    return 0.5 * (np.array(los) + np.array(his))


def _assert_matches_reference(mat, k):
    """Bit-identity with plain bisection, unless a level's final width lies
    more than 2**200 splits below the root's: only there can the 220-split
    cap bind (levels within about 1e-60 of 0 on a matrix of unit scale), and
    the walk may return a different tiny value (see test_zero_matrix_levels).
    Returns whether the comparison was made."""
    want = _reference_eigenvalues(mat, k)
    lo, hi = mat.gershgorin()
    root = hi - lo + 4.0 * _EPS * max(abs(lo), abs(hi))
    if np.any(root / (2.0 * _EPS * np.abs(want) + mat._pivmin()) > 2.0 ** 200):
        return False
    got = mat.eigenvalues_lowest(k)
    assert got.tobytes() == want.tobytes(), (got, want)
    return True


@pytest.mark.parametrize("n", [1001, 2001, 4001])
@pytest.mark.parametrize("name", ["oscillator", "trig", "hyperbolic"])
def test_tree_walk_matches_reference_on_config_matrices(name, n):
    mats, k = _config_matrices(name, n)
    for mat in mats:
        assert _assert_matches_reference(mat, k)


def test_tree_walk_matches_reference_on_wilkinson():
    d = np.abs(np.arange(21) - 10.0)
    assert _assert_matches_reference(TridiagonalSym(diag=d, offdiag=np.ones(20)), 21)


def test_tree_walk_matches_reference_on_leading_minor_pivots():
    checked = 0
    for d, e, _ in _leading_minor_matrices():
        checked += _assert_matches_reference(TridiagonalSym(diag=d, offdiag=e), d.size)
    assert checked >= 30


_ENTRY = st.one_of(st.sampled_from([-3.0, -1.0, 0.5, 1.0, 2.0, 4.0]),
                   st.floats(-10.0, 10.0, allow_nan=False))
_COUPLING = st.one_of(st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5]),
                      st.floats(-4.0, 4.0, allow_nan=False))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rows=st.lists(st.tuples(_ENTRY, _COUPLING), min_size=1, max_size=12),
       scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_tree_walk_matches_reference_on_random_tridiagonals(rows, scale):
    # zero couplings split the matrix into blocks with shared eigenvalues
    d = np.array([r[0] for r in rows]) * scale
    e = np.array([r[1] for r in rows[1:]]) * scale
    mat = TridiagonalSym(diag=d, offdiag=e)
    _assert_matches_reference(mat, mat.n)


@pytest.mark.parametrize("n", [1, 5])
def test_zero_matrix_levels(n):
    # the pad is relative to the Gershgorin bracket, so the zero matrix's
    # root node is [0, 0] and every level is exactly 0
    got = TridiagonalSym(diag=np.zeros(n), offdiag=np.zeros(n - 1)).eigenvalues_lowest(n)
    assert got.tobytes() == np.zeros(n).tobytes()


_SMALL_DIAG = np.array([1.0, 3.0, -2.0, 0.5])
_SMALL_COUPLINGS = np.array([1.0, 0.0, 2.0])


@pytest.mark.parametrize("s", [1e-60, 1e-100, 1e-150])
def test_small_matrices_bisect_to_their_own_scale(s):
    # the root bracket is padded relative to the matrix's scale, so the
    # walk reaches that scale well within the 220-split cap
    want = s * np.linalg.eigvalsh(np.diag(_SMALL_DIAG)
                                  + np.diag(_SMALL_COUPLINGS, 1)
                                  + np.diag(_SMALL_COUPLINGS, -1))
    mat = TridiagonalSym(diag=s * _SMALL_DIAG, offdiag=s * _SMALL_COUPLINGS)
    got = mat.eigenvalues_lowest(4)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (got, want)


@pytest.mark.parametrize("s", [1e-160, 1e-290])
def test_couplings_whose_squares_underflow_are_refused(s):
    # e_i^2 below the smallest normal double loses the Sturm count its
    # couplings (9.4e-6 relative error at 1e-160, 3.4 at 1e-290)
    mat = TridiagonalSym(diag=s * _SMALL_DIAG, offdiag=s * _SMALL_COUPLINGS)
    for call in (lambda: mat.eigenvalues_lowest(4),
                 lambda: mat.count_below(0.0),
                 lambda: mat.eigenvector(0.0)):
        with pytest.raises(ValueError, match="too small for bisection"):
            call()


@pytest.mark.parametrize("n", [16, 1001])
def test_negligible_couplings_may_underflow(n):
    # a Dirichlet step near 1e150 has couplings -1/h^2 near -1e-300, far
    # below eps times a unit potential on the diagonal
    grid = Grid(0.0, 1e150 * (n - 1), n)
    mat = hamiltonian_matrix(np.ones_like, grid)
    assert 0.0 < np.abs(mat.offdiag).max() < 1e-299
    assert mat.eigenvalues_lowest(mat.n) == pytest.approx(np.ones(mat.n),
                                                          rel=2.0 * _EPS)


def test_sturm_count_monotone_near_every_trig_level():
    # the tree walk takes a decision from any count on the far side of a
    # midpoint, which is sound because the computed count never decreases
    # as the shift grows; here on every double within 64 ulps of each level
    mats, k = _config_matrices("trig", 4001)
    mat = mats[0]
    d, e2 = mat._sturm_rows()
    pivmin = mat._pivmin()
    for lam in mat.eigenvalues_lowest(k):
        sigma = float(lam)
        for _ in range(64):
            sigma = float(np.nextafter(sigma, -np.inf))
        counts = []
        for _ in range(129):
            c = _sturm_count(d, e2, pivmin, sigma)
            assert _newton_pass(d, e2, pivmin, sigma)[0] == c
            counts.append(c)
            sigma = float(np.nextafter(sigma, np.inf))
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]  # the level's step lies in the window


@pytest.mark.parametrize("d", [[2.0, -1.0, 2.0], [0.0, 0.0, 1e-300, 3.0]])
def test_clamped_pivots_raise_no_warning(d):
    # zero couplings put pivots at -pivmin, where a numpy scalar would warn
    # on the derivative's overflow; a pivot in (0, pivmin) counts as negative
    mat = TridiagonalSym(diag=np.array(d), offdiag=np.zeros(len(d) - 1))
    rows, pivmin = mat._sturm_rows(), mat._pivmin()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mat.eigenvalues_lowest(mat.n)
        for sigma in (-1.0, 0.0, 1e-300, 2.0, 5.0):
            assert (_newton_pass(*rows, pivmin, sigma)[0]
                    == _sturm_count(*rows, pivmin, sigma)
                    == mat.count_below(sigma))
    assert np.allclose(got, np.sort(d), atol=1e-12)


def test_trig_pass_count(monkeypatch):
    # Sturm passes (counts plus Newton passes) of the trig configuration's
    # fine and coarse matrices; plain bisection took 346 counts
    passes = []
    for name in ("_sturm_count", "_newton_pass"):
        fn = getattr(numerics, name)

        def counted(*args, fn=fn, name=name):
            passes.append(name)
            return fn(*args)
        monkeypatch.setattr(numerics, name, counted)
    mats, k = _config_matrices("trig")
    for mat in mats:
        mat.eigenvalues_lowest(k)
    # measured 49 (31 counts, 18 Newton passes); the margin of 11 absorbs
    # last-digit differences of the potential between numpy builds
    assert 0 < len(passes) <= 60


def _assert_cell_certified(mat, sigma, between):
    """The rounding cell of sigma: it holds sigma, and its ends and the
    given fractions of the way between them run the same rows, so they
    count as sigma does. Returns the cell's width."""
    d, e2 = mat._sturm_rows()
    pivmin = mat._pivmin()
    lo, hi = numerics._ShiftRecord(mat.diag, d, e2, pivmin, 1, 0.0).cell(sigma)
    assert lo <= sigma <= hi
    rows = (mat.diag - sigma).tobytes()
    count = _sturm_count(d, e2, pivmin, sigma)
    shifts = [lo, hi, min(math.nextafter(lo, math.inf), hi),
              max(math.nextafter(hi, -math.inf), lo)]
    shifts += [min(max(lo + u * (hi - lo), lo), hi) for u in between]
    for s in shifts:
        assert (mat.diag - s).tobytes() == rows
        assert _sturm_count(d, e2, pivmin, s) == count
        assert _newton_pass(d, e2, pivmin, s)[0] == count
    return hi - lo


@pytest.mark.parametrize("name", ["oscillator", "trig", "hyperbolic"])
def test_rounding_cells_are_certified_near_every_level(name):
    rng = np.random.default_rng(4001)
    mats, k = _config_matrices(name, 4001)
    widths = []
    for mat in mats:
        for lam in mat.eigenvalues_lowest(k):
            lam = float(lam)
            for ulps in (0, 1, -1, *rng.integers(-2 ** 24, 2 ** 24, 5)):
                sigma = lam + float(ulps) * math.ulp(lam)
                width = _assert_cell_certified(mat, sigma, rng.random(4))
                widths.append(width / math.ulp(sigma))
    # on these matrices most cells span thousands of ulps of the shift
    assert np.median(widths) > 1000


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rows=st.lists(st.tuples(_ENTRY, _COUPLING), min_size=1, max_size=12),
       scale=st.sampled_from([1e-3, 1.0, 1e4]),
       where=st.floats(-1.5, 1.5), between=st.lists(st.floats(0.0, 1.0),
                                                     min_size=3, max_size=3))
def test_rounding_cells_are_certified_on_random_tridiagonals(rows, scale,
                                                             where, between):
    d = np.array([r[0] for r in rows]) * scale
    e = np.array([r[1] for r in rows[1:]]) * scale
    mat = TridiagonalSym(diag=d, offdiag=e)
    lo, hi = mat.gershgorin()
    _assert_cell_certified(mat, lo + (hi - lo) * where, between)
    for lam in mat.eigenvalues_lowest(mat.n):
        _assert_cell_certified(mat, float(lam), between)


def test_eigensolver_argument_checks():
    mat = TridiagonalSym(diag=np.array([2.0, 2.0]),
                         offdiag=np.array([-1.0]))
    with pytest.raises(ValueError):
        mat.eigenvalues_lowest(0)
    with pytest.raises(ValueError):
        mat.eigenvalues_lowest(3)
    bad = TridiagonalSym(diag=np.array([np.inf, 2.0]),
                         offdiag=np.array([-1.0]))
    with pytest.raises(ValueError):
        bad.eigenvalues_lowest(1)


def test_matrices_beyond_the_double_range_are_refused():
    # warnings are errors here, so each refusal is also silent. A Dirichlet
    # step whose 1/h^2 is not finite:
    with pytest.raises(ValueError, match="too small"):
        hamiltonian_matrix(np.zeros_like, Grid(0.0, 1e-300, 100))
    # a bracket whose midpoints and d_i - sigma overflow, and couplings
    # whose squares do, on their own or from a Dirichlet step (1/h^4)
    for mat in (TridiagonalSym(diag=np.array([1e308, 1.5e308, 1.2e308]),
                               offdiag=np.ones(2)),
                TridiagonalSym(diag=np.zeros(3), offdiag=np.full(2, 1e200)),
                hamiltonian_matrix(np.zeros_like, Grid(0.0, 1e-100, 100))):
        with pytest.raises(ValueError, match="too large for bisection"):
            mat.eigenvalues_lowest(2)
    # one scale below, the same matrix solves
    near = TridiagonalSym(diag=np.array([1e307, 2e307]), offdiag=np.zeros(1))
    assert near.eigenvalues_lowest(2) == pytest.approx([1e307, 2e307],
                                                      rel=2.0 * _EPS)


def test_sturm_counts_and_eigenvectors_refuse_what_bisection_refuses():
    # all three read one checked set of Sturm rows: unchecked, the squared
    # couplings overflowed and count_below(1e201) read 1 of the 3 levels
    for mat, message in (
            (TridiagonalSym(diag=np.zeros(3), offdiag=np.full(2, 1e200)),
             "too large for bisection"),
            (TridiagonalSym(diag=np.array([1e308, 1.5e308, 1.2e308]),
                            offdiag=np.ones(2)), "too large for bisection"),
            (TridiagonalSym(diag=np.array([np.nan, 2.0]),
                            offdiag=np.array([-1.0])), "non-finite entries")):
        for call in (lambda: mat.count_below(1e201),
                     lambda: mat.eigenvector(0.0),
                     lambda: mat.eigenvalues_lowest(1)):
            with pytest.raises(ValueError, match=message):
                call()
    near = TridiagonalSym(diag=np.array([1e307, 2e307]), offdiag=np.zeros(1))
    assert near.count_below(1.5e307) == 1
    assert abs(near.eigenvector(1e307)[0]) == 1.0


def test_matvec():
    mat = TridiagonalSym(diag=np.array([1.0, 2.0, 3.0]),
                         offdiag=np.array([0.5, -0.5]))
    out = mat.matvec(np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, [1.5, 2.0, 2.5])


def test_fix_sign():
    assert np.allclose(fix_sign(np.array([-1.0, 2.0])), [1.0, -2.0])
    assert np.allclose(fix_sign(np.array([0.0, 3.0])), [0.0, 3.0])
    # leading numerical dust below the lobe threshold is ignored
    v = np.array([-1e-9, 1.0, 0.5])
    assert np.allclose(fix_sign(v), v)
    assert np.all(fix_sign(np.zeros(3)) == 0.0)


# ---------------------------------------------------------------------------
# Dirichlet Hamiltonian

def test_box_spectrum():
    g = Grid(0.0, math.pi, 501)
    sp = spectrum_numeric(lambda x: np.zeros_like(x), g, 3)
    assert np.allclose(sp.energies, [1.0, 4.0, 9.0], atol=1e-3)
    assert sp.wavefunctions[0, 0] == 0.0 and sp.wavefunctions[-1, 0] == 0.0
    # discrete unit norm
    assert g.h * np.sum(sp.wavefunctions[:, 0] ** 2) == pytest.approx(1.0)
    # second mode is sin(2x) up to discretization
    truth = math.sqrt(2.0 / math.pi) * np.sin(2.0 * g.x)
    assert np.max(np.abs(sp.wavefunctions[:, 1] - truth)) < 1e-3


def test_box_second_order_convergence():
    errs = []
    for n in (201, 401):
        g = Grid(0.0, math.pi, n)
        sp = spectrum_numeric(lambda x: np.zeros_like(x), g, 2)
        errs.append(abs(sp.energies[1] - 4.0))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_oscillator_spectrum():
    g = Grid(-8.0, 8.0, 2001)
    sp = spectrum_numeric(lambda x: x * x - 1.0, g, 3)
    assert np.allclose(sp.energies, [0.0, 2.0, 4.0], atol=1e-3)


def test_richardson_tracks_true_error():
    fam, m, V_trig, g_trig, k = _config_problem("trig")
    exact_trig = spectrum_analytic(fam, m, k - 1).energies
    assert list(exact_trig) == [5.0, 12.0, 21.0]
    # an even node count has a coarse grid too: V is sampled on its nodes
    cases = [(lambda x: np.zeros_like(x), Grid(0.0, math.pi, 401), [1.0, 4.0, 9.0]),
             (np.zeros_like, Grid(0.0, math.pi, 200), [1.0, 4.0, 9.0]),
             (V_trig, g_trig, exact_trig)]
    for V, g, exact in cases:
        sp = spectrum_numeric(V, g, 3)
        true_err = np.abs(sp.energies - np.asarray(exact))
        assert sp.error_estimate is not None
        for est, err in zip(sp.error_estimate, true_err):
            assert 0.5 * err < est < 2.0 * err


def test_spectrum_iteration_protocol():
    g = Grid(0.0, math.pi, 101)
    sp = spectrum_numeric(lambda x: np.zeros_like(x), g, 2)
    assert isinstance(sp, NumericSpectrum)
    items = list(sp)
    assert [k for k, _, _ in items] == [0, 1]
    k, e, vec = sp[1]
    assert e == pytest.approx(4.0, abs=1e-2)
    assert vec.shape == (101,)


# ---------------------------------------------------------------------------
# wavefunctions built on first read

def _eager_wavefunctions(mat, grid, k):
    """The vectors spectrum_numeric built before they became lazy: every
    level at once, each orthogonalized against the earlier raw vectors,
    then sign-fixed and scaled by 1/sqrt(h)."""
    evals = mat.eigenvalues_lowest(k)
    psi = np.zeros((grid.n, k))
    done = []
    for j in range(k):
        v = mat.eigenvector(evals[j], prev=done)
        done.append(v)
        psi[1:-1, j] = fix_sign(v) * (1.0 / math.sqrt(grid.h))
    return evals, psi


@pytest.mark.parametrize("n", [1001, 2001])
@pytest.mark.parametrize("name", ["oscillator", "trig", "hyperbolic"])
def test_lazy_wavefunctions_are_the_eager_vectors(name, n):
    _, _, V, grid, k = _config_problem(name)
    grid = Grid(grid.x0, grid.x1, n)
    evals, want = _eager_wavefunctions(hamiltonian_matrix(V, grid), grid, k)
    sp = spectrum_numeric(V, grid, k)
    assert sp.energies.tobytes() == evals.tobytes()
    assert np.array_equal(sp.wavefunctions, want)
    pairs = eigen_lowest(hamiltonian_matrix(V, grid), k, h=grid.h)
    assert np.array_equal(np.array([v for _, v in pairs]).T, want[1:-1])
    assert [e for e, _ in pairs] == evals.tolist()


def _count_eigenvectors(monkeypatch) -> list:
    calls = []
    original = TridiagonalSym.eigenvector

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TridiagonalSym, "eigenvector", counted)
    return calls


def test_wavefunctions_are_built_once_on_first_read(monkeypatch):
    calls = _count_eigenvectors(monkeypatch)
    _, _, V, grid, k = _config_problem("trig")
    sp = spectrum_numeric(V, grid, k)
    assert sp.energies.size == k and sp.error_estimate is not None
    assert len(calls) == 0
    first = sp.wavefunctions
    assert len(calls) == k
    assert sp.wavefunctions is first
    assert [float(e) for _, e, _ in sp] == sp.energies.tolist()
    assert len(calls) == k


def test_lazy_spectrum_copies(monkeypatch):
    _, _, V, grid, k = _config_problem("oscillator")
    sp = spectrum_numeric(V, Grid(grid.x0, grid.x1, 1001), k)
    calls = _count_eigenvectors(monkeypatch)
    copies = (copy.copy(sp), copy.deepcopy(sp), pickle.loads(pickle.dumps(sp)))
    assert len(calls) == 0   # a copy builds nothing until it is read
    want = sp.wavefunctions
    for other in copies:
        assert other.grid == sp.grid
        assert other.energies.tobytes() == sp.energies.tobytes()
        assert other.error_estimate.tobytes() == sp.error_estimate.tobytes()
        assert np.array_equal(other.wavefunctions, want)
        assert repr(other) == repr(sp)
    assert len(calls) == 4 * k


def test_spectrum_kmax_range():
    g = Grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        spectrum_numeric(lambda x: np.zeros_like(x), g, 0)
    with pytest.raises(ValueError):
        spectrum_numeric(lambda x: np.zeros_like(x), g, 15)


def _inf_at(*points):
    """A potential that is 0 except inf at the given nodes, bit for bit."""
    return lambda x: np.where(np.isin(x, points), np.inf, 0.0)


def test_interior_pole_rejected():
    g = Grid(-1.0, 1.0, 21)
    with pytest.raises(PoleError) as exc:
        hamiltonian_matrix(_inf_at(g.x[10]), g)
    assert exc.value.locations == [pytest.approx(0.0)]


def test_wall_blowup_tolerated():
    g = Grid(0.0, math.pi, 101)
    # endpoints never enter the Dirichlet matrix
    mat = hamiltonian_matrix(_inf_at(g.x[0]), g)
    assert mat.n == 99


def test_potential_must_be_callable():
    g = Grid(0.0, math.pi, 101)
    for call in (hamiltonian_matrix, lambda V, g: spectrum_numeric(V, g, 2)):
        with pytest.raises(TypeError, match="callable"):
            call(np.zeros(101), g)


def test_a_pole_on_a_coarse_node_only_is_refused():
    # the Richardson re-run samples V on the n // 2 + 1 coarse nodes, which
    # an even n does not share with the fine grid: it is refused there as
    # on the fine grid, naming the node
    p = np.linspace(-1.0, 1.0, 11)[3]
    g = Grid(-1.0, 1.0, 20)
    assert p not in g.x
    with pytest.raises(PoleError) as exc, np.errstate(divide="ignore"):
        spectrum_numeric(lambda x: 1.0 / (x - p) ** 2, g, 2)
    assert exc.value.locations == [p]


def test_apply_hamiltonian_residual():
    g = Grid(0.0, math.pi, 401)
    psi = np.sin(g.x)
    out = apply_hamiltonian(psi, np.zeros_like(psi), g.h)
    assert np.max(np.abs(out - psi)) < 1e-6
    with pytest.raises(ValueError):
        apply_hamiltonian(psi, np.zeros(5), g.h)


# ---------------------------------------------------------------------------
# adjointness of the ladder pair

def test_adjointness_defect_decaying_pair():
    g = Grid(-8.0, 8.0, 2001)
    phi = GridFunction.from_callable(g, lambda x: np.exp(-(x - 1.0) ** 2))
    psi = GridFunction.from_callable(g, lambda x: np.exp(-(x + 0.5) ** 2 / 1.5))
    defect = adjointness_defect(lambda x, m: x, 1.0, phi, psi)
    assert defect < 1e-8


def test_adjointness_defect_zero_superpotential():
    g = Grid(-8.0, 8.0, 2001)
    mode = GridFunction.from_callable(
        g, lambda x: np.sin(math.pi * (x + 8.0) / 16.0))
    defect = adjointness_defect(lambda x, m: np.zeros_like(x), 1.0, mode, mode)
    assert defect < 1e-10


def test_adjointness_requires_decay():
    g = Grid(-8.0, 8.0, 101)
    grower = GridFunction.from_callable(g, lambda x: np.exp(x / 8.0))
    with pytest.raises(BoundaryConditionError):
        adjointness_defect(lambda x, m: x, 1.0, grower, grower)


def test_adjointness_grid_mismatch():
    g1 = Grid(-8.0, 8.0, 101)
    g2 = Grid(-8.0, 8.0, 201)
    a = GridFunction.from_callable(g1, lambda x: np.exp(-x * x))
    b = GridFunction.from_callable(g2, lambda x: np.exp(-x * x))
    with pytest.raises(ValueError):
        adjointness_defect(lambda x, m: x, 1.0, a, b)
