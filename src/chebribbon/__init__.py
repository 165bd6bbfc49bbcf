"""Exact spectra, wavefunctions, and edge-state phase diagrams of
anisotropic square and triangular tight-binding ribbons.

The secular problem of each ribbon reduces to Chebyshev polynomials of the
second kind in a reduced energy variable; this package evaluates those
closed forms (bulk bands, exponentially localized edge branches, zero
modes) and cross-validates them against dense diagonalization.
"""

from .chebpoly import (det_perturbed_corner, logcosh, logsinh, u_all, u_eval,
                       u_hyp_log, u_log, u_pair, u_trig, u_zeros)
from .classify import (StateClass, StateLabel, classify_analytic_square,
                       classify_analytic_triangle, classify_numeric, ipr,
                       model_edge_sides)
from .errors import (DegenerateParameterError, HermiticityError,
                     NoEdgeStateError, RootCountError, SingularArgumentError)
from .hamiltonian import (ModelKind, RibbonModel, Spectrum, SquareHoppings,
                          TriangleHoppings, build_beta, build_square_bloch,
                          build_triangle_bloch, eigensolve_dense,
                          subspace_overlap)
from .square_ribbon import (EdgeBranchPoint, EdgeRegime, RegimeVerdict,
                            ZeroModeState, edge_regime,
                            extrema_ellipse_residual, lr_isotropic_spectrum,
                            lr_isotropic_state, solve_zero_mode_sum,
                            xi_of_k, zero_mode_full_state,
                            zero_mode_momenta, zero_mode_state,
                            zigzag_edge_branch, zigzag_edge_u_from_xi,
                            zigzag_secular_residual)
from .triangle_ribbon import (EdgeBranch, RootTable, default_u_grid,
                              linear_energies, linear_states, tau_of_k,
                              zeta_of_k)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chebpoly
    "u_pair", "u_eval", "u_all", "u_log", "u_trig", "u_hyp_log", "u_zeros",
    "det_perturbed_corner", "logsinh", "logcosh",
    # errors
    "DegenerateParameterError", "HermiticityError", "NoEdgeStateError",
    "RootCountError", "SingularArgumentError",
    # hamiltonian
    "ModelKind", "SquareHoppings", "TriangleHoppings",
    "RibbonModel", "Spectrum", "build_beta",
    "build_square_bloch", "build_triangle_bloch", "eigensolve_dense",
    "subspace_overlap",
    # square_ribbon
    "xi_of_k", "zigzag_secular_residual",
    "zigzag_edge_u_from_xi", "EdgeBranchPoint", "zigzag_edge_branch",
    "RegimeVerdict", "EdgeRegime", "edge_regime",
    "extrema_ellipse_residual", "lr_isotropic_spectrum",
    "lr_isotropic_state", "ZeroModeState", "zero_mode_momenta",
    "zero_mode_state", "zero_mode_full_state", "solve_zero_mode_sum",
    # triangle_ribbon
    "zeta_of_k", "tau_of_k", "linear_energies", "linear_states",
    "RootTable", "EdgeBranch", "default_u_grid",
    # classify
    "StateLabel", "StateClass", "ipr", "classify_analytic_square",
    "classify_analytic_triangle", "classify_numeric", "model_edge_sides",
]
