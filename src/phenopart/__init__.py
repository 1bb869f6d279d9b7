"""Particle method for non-local advection-selection-mutation dynamics.

The package approximates measure-valued solutions of

    d_t v + div_x(a(t, x, I_a v) v) = R(t, x, I_g v) v + int m(t, x, y, I_d v) v(t, y) dy

by weighted Dirac particles on a lattice discretization of the initial
density, transports them with their volumes and intensities through a
coupled ODE system, and reconstructs densities by mollification.  A
semi-Lagrangian grid solver provides an independent reference solution for
1D local-advection models; the analysis module measures convergence rates
and decides whether the discretization preserves the long-time asymptotics.
"""

from .analysis import (APReport, AnalysisError, ClusterReport,
                       ConditionResiduals, FitResult, PredictionError,
                       ap_verdict, check_dirac_necessary_conditions,
                       default_test_functions, detect_limit_clusters,
                       fit_convergence_order, predict_limit_mass,
                       weak_measure_gap, weighted_pointwise_error)
from .discretize import (DiscretizationError, InitialDensity, MutationCheck,
                         PROFILES, ParticleEnsemble, active_box, build_profile,
                         check_mutation_discretization, partition_support)
from .dynamics import (IntegrationError, MonitorReport, RunConfig, Trajectory,
                       default_dt, integrate)
from .model import (MODELS, Box, EvaluationError, Kernel, ModelSpec,
                    ValidationEntry, ValidationReport, build_model,
                    constant_kernel, moment_kernel, pair_sum,
                    validate_model)
from .reference import (OracleError, ReferenceConfig, ReferenceSolution,
                        l1_distance, refine_until_stable, solve_reference)
from .regularize import (CUTOFFS, CutoffSpec, build_cutoff, epsilon_rule,
                         reconstruct)

__version__ = "0.1.0"
