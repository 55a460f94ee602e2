"""Numerical toolkit for the inverse tempered stable subordinator:
density evaluation by two independent representations, exact and
asymptotic moments, Monte Carlo path simulation, and finite-difference
verification of the governing PDE at reciprocal-integer stability.
"""

from .its_density import (
    DensityResult,
    EvalPoint,
    boundary_value,
    cdf,
    derivative_at_zero,
    eval_integral,
    eval_series,
)
from .its_density import eval as eval_density
from .moments import (
    InversionError,
    MomentQuery,
    gaver_stehfest_inversion,
    moment_asymptotic,
    moment_exact,
    moment_lt,
    talbot_inversion,
)
from .montecarlo import (
    HorizonError,
    SimConfig,
    empirical_moment,
    first_passage_samples,
    sample_stable_increment,
    sample_tempered_increment,
)
from .pde_check import (
    PdeCase,
    boundary_derivative_check,
    initial_condition_check,
    pde_residual,
    residual_decay_ratio,
)
from .quadrature import QuadratureResult, integrate_semi_infinite
from .special_fn import upper_incomplete_gamma_scaled
from .stable_family import (
    NonConvergenceError,
    ParameterError,
    TemperedStableParams,
    inverse_stable_density,
    stable_density,
    tempered_density,
)

__version__ = "0.1.0"
