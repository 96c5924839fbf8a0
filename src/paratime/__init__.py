"""Parallel-in-time ODE integration with chaos-aware stopping criteria."""

from .criteria import (NormEquivalence, StopCriterion, base_weight, check,
                       equivalence_constants, proximity, update_lipschitz,
                       weighted_norm)
from .bounds import (ContractionBound, SourceBound, beta_bound,
                     empirical_order, estimate_mu_nu, outer_ball_radius,
                     source_term_empirical, source_term_theoretical,
                     spectral_norm, transport_term)
from .config import SolveConfig, SweepConfig
from .engine import (RunReport, TrajectoryVec, coarse_sweep,
                     fine_serial_reference, parareal_iterate, parareal_solve)
from .errors import (BlowUpError, ConfigError, DiagnosticUnavailable,
                     NumericalFailure, ParatimeError, StepFailureError)
from .experiments import run_single, run_sweep
from .integrators import (ButcherTableau, GridSpec, Propagator,
                          coarse_propagator, fine_propagator, get_tableau,
                          propagate, propagate_with_jacobian,
                          propagate_with_tangent, rk_step, stability_function)
from .metrics import (MetricsReport, lyapunov_estimate, speedup_model,
                      trajectory_w1, wasserstein1)
from .systems import (OdeSystem, build_system, default_initial_state,
                      make_linear, make_logistic, make_lorenz63, make_lorenz96)

__version__ = "0.1.0"
