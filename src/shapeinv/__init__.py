"""Exactly solvable 1-D Schrodinger problems from first-order Riccati data.

The pipeline: closed-form solutions of y' = a - y^2 (riccati), superpotential
families k(x, m) with a shape-invariant partner structure (families,
partners), ladder-built spectra and wavefunctions (spectra), an independent
finite-difference oracle (numerics), and residual suites tying the two
together (checks). The `shapeinv` console script fronts all of it.
"""

import importlib

from .errors import (BoundaryConditionError, FamilyError, GridTooCoarseError,
                     NormalizationError, OrbitError, PoleError, ShapeInvError,
                     VerificationError)
from .riccati import (INFINITY, ConstRiccati, ExtendedReal, LinearFirstOrder,
                      RiccatiSolution, ZSolution, as_extended,
                      constant_solutions, discriminant, general_solution,
                      reduce_alternative, reduce_standard,
                      solve_linear_first_order, solve_z, superpose)
from .families import (Family, FamilyKind, FamilyParams, SignClass,
                       PRESET_NAMES, family_from_json, family_to_json,
                       negative_a, positive_a, preset_catalogue,
                       preset_params, zero_a)
from .partners import (PotentialPair, PotentialRecord, classify_L_sequence,
                       closed_form_potentials, factorization_residuals,
                       pair_from_family, shape_invariance_residual)
from ._grid import Grid
from .spectra import (ChainDirection, NormalizabilityReport, SpectralChain,
                      SpectrumResult, WaveFunction, build_chain,
                      check_normalizable, count_nodes, energy_level,
                      excited_state, ground_state, ladder_apply, max_level,
                      partner_energies, resolve_direction, spectrum_analytic)

__version__ = "0.1.0"

# The array modules load on first use, and numpy with them: the closed-form
# commands and the refusals made before any sampling never import it, and
# only `verify` needs the residual suites.
_LAZY = dict.fromkeys(("CheckResult", "SUITE_NAMES", "run_suite", "run_suites"), "checks")
_LAZY.update(dict.fromkeys((
    "GridFunction", "NumericSpectrum", "TridiagonalSym", "adjointness_defect",
    "apply_hamiltonian", "derivative", "eigen_lowest", "fix_sign",
    "hamiltonian_matrix", "inner_product", "integrate", "spectrum_numeric"), "numerics"))


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
