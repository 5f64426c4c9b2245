"""Circle-method toolkit for the split quadratic form F0(x, y) = x.y.

The package numerically realizes and cross-validates the delta-method
asymptotics for the number of scaled-lattice points on the quadric
x.y = m: the finite delta identity and its kernel, complete exponential
sums and the singular series, the singular integral over the level set,
exact lattice enumeration, and a harness comparing the exact counts
against the main term sigma_infty * sigma * L^{d-2}.
"""

from .errors import AccuracyError, ArgumentError, CapabilityError
from .forms import LatticeSpec
from .weights import (AppendixExample, GaussianWeight, ProductBump,
                      WeightFunction, parse_weight)
from .delta_kernel import DeltaKernelConfig, calibrate_cQ, delta_sum, h, omega, smear
from .exp_sums import (ExpSumValue, SigmaReport, S_q_factored, S_q_naive,
                       local_density, ramanujan, remark5_sigma_p, sigma_dirichlet,
                       sigma_euler, sigma_p, sigma_remark5, sigma_remark5_product,
                       zeta_int)
from .sing_integral import (IFunctionGrid, QuadratureConfig, build_i_grid,
                            coarea_check, i_derivative_fd, i_x_projection,
                            i_y_projection, sigma_infty, smeared_sigma)
from .counter import (CountResult, HyperplaneLatticeSolution, brute_force_N_L,
                      enumerate_N_L, solve_hyperplane_lattice)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "ArgumentError", "CapabilityError",
    "LatticeSpec",
    "AppendixExample", "GaussianWeight", "ProductBump", "WeightFunction",
    "parse_weight",
    "DeltaKernelConfig", "calibrate_cQ", "delta_sum", "h", "omega", "smear",
    "ExpSumValue", "SigmaReport", "S_q_factored", "S_q_naive", "local_density",
    "ramanujan", "remark5_sigma_p", "sigma_dirichlet", "sigma_euler", "sigma_p",
    "sigma_remark5", "sigma_remark5_product", "zeta_int",
    "IFunctionGrid", "QuadratureConfig", "build_i_grid", "coarea_check",
    "i_derivative_fd", "i_x_projection", "i_y_projection", "sigma_infty",
    "smeared_sigma",
    "CountResult", "HyperplaneLatticeSolution", "brute_force_N_L",
    "enumerate_N_L", "solve_hyperplane_lattice",
]
