"""Numerical laboratory for static and moving Néel wall profiles.

Reduced thin-film model on a periodic domain: spectral discretization of
the nonlocal operator T = 1 + (-Laplacian)^{1/2}, energy and gradient,
wall solvers (static minimization, traveling-wave continuation), the
linearized operators and their spectra/resolvents, damped-wave dynamics
with modulation, and sampled checks of the analytic region bounds.
"""

__version__ = "0.1.0"

from .grid import (Field, Grid, derivative, l2_inner, l2_norm, h1_norm,
                   shift, wall_background)
from .energy import EnergyBreakdown, energy, grad_energy, gradient_selftest
from .profiles import (Linearization, MobilityFit, Profile, SolverError,
                       check_field, mobility, mobility_fields,
                       solve_static, solve_traveling, traveling_residual,
                       wall_mass)
from .linops import (DiscretizedOperator, NullPair, build_Bc, build_L,
                     build_Lc, build_block, null_pair, projector_matrix,
                     translation_mode)
from .spectra import (RelativeBoundPoint, ResolventSample, SpectrumReport,
                      SweepResult, TrialStats, eig_report, match_eigenvalues,
                      numerical_abscissa, pencil_crosscheck,
                      pencil_eigenvalues, pencil_gap,
                      relative_bound_fit, res_inequality_trials,
                      resolvent_sweep)
from .dynamics import (BlowUpError, DecayFit, ModulationError,
                       OrbitalVerdict, Perturbation, SimConfig, SimTrace,
                       decay_fit, integrate, modulate, orbital_experiment)
from .regions import RegionParams, SampledCheck, run_all_checks
from .reports import load_profile, store_profile, write_report

__all__ = [name for name in dir() if not name.startswith("_")]
