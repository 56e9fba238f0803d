"""Kalman filtering for periodic state-space models.

Models cycle through S seasons of system matrices. Next to the full
periodic Kalman filter the package carries low-rank recursions for the
S-lagged covariance increment, which cut the per-step covariance cost
from cubic to quadratic in the state dimension, plus the periodic
Riccati and Lyapunov solvers they are started from, an innovations-form
Gaussian log-likelihood, and a flop-metering benchmark harness.
"""

from .bench import (CostReport, ScalingTable, count_costs,
                    format_cost_table, format_scaling_table, par_family,
                    scaling_table)
from .chandrasekhar import (ChandrasekharState, Factorization, Prelude,
                            TheoremReport, auto_factorize, build_prelude,
                            chand_init, factor_eigen, factor_gain_form,
                            factor_steady_form, step_alg31, step_alg32,
                            step_minv, to_inverse_state, verify_theorem31)
from .exceptions import (EngineInitFailed, MSingular, NonConvergence,
                         NotStationary, OmegaNotPD, PeriodicFilterError,
                         ResidualTooLarge, SingularLift)
from .filtering import (ENGINES, INITS, FilterOutput, filter_series,
                        gaussian_loglik, loglik_terms)
from .kalman import (dpre_fixed_point, is_periodically_stationary,
                     monodromy, prde_step, solve_dple)
from .linalg import FlopCounter, count_flops, rel_err
from .model import (ModelFormatError, ParModel, PeriodicModel, load_model,
                    model_from_dict, model_to_dict, par_from_dict,
                    par_to_dict, par_to_state_space, random_stationary_par,
                    save_model, simulate, validate, validate_par)

__version__ = "0.1.0"

__all__ = [
    "CostReport", "ScalingTable", "count_costs", "format_cost_table",
    "format_scaling_table", "par_family", "scaling_table",
    "ChandrasekharState", "Factorization", "Prelude", "TheoremReport",
    "auto_factorize", "build_prelude", "chand_init", "factor_eigen",
    "factor_gain_form", "factor_steady_form", "step_alg31", "step_alg32",
    "step_minv", "to_inverse_state", "verify_theorem31",
    "EngineInitFailed", "MSingular", "NonConvergence", "NotStationary",
    "OmegaNotPD", "PeriodicFilterError", "ResidualTooLarge", "SingularLift",
    "ENGINES", "INITS", "FilterOutput", "filter_series", "gaussian_loglik",
    "loglik_terms",
    "dpre_fixed_point", "is_periodically_stationary", "monodromy",
    "prde_step", "solve_dple",
    "FlopCounter", "count_flops", "rel_err",
    "ModelFormatError", "ParModel", "PeriodicModel", "load_model",
    "model_from_dict", "model_to_dict", "par_from_dict", "par_to_dict",
    "par_to_state_space", "random_stationary_par", "save_model", "simulate",
    "validate", "validate_par",
]
