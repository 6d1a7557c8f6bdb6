"""Double-descent laboratory: risk equivalents and their Monte Carlo checks.

The package computes deterministic equivalents of the excess-risk bias and
variance for ridge regression, minimum-norm least squares, and minimum-norm
least squares on randomly projected covariates, and validates them against
exact-conditional Monte Carlo experiments at desk scale.
"""

__version__ = "0.1.0"

from .config import SweepConfig, default_m_grid
from .empirical import (
    ProblemInstance,
    ReplicationResult,
    TraceProbe,
    build_design,
    build_instance,
    child_seed,
    conditional_risk_projected,
    conditional_risk_ridge,
    empirical_kappa_lambda,
    empirical_kappa_m,
    probe_trace_equivalents,
    run_replications,
    sample_matrix,
)
from .numkernel import pseudo_inverse, solve_shifted
from .selfconsistent import (
    KappaSolution,
    kappa_at_dof,
    kappa_isotropic_closed,
    kappa_of_lambda,
    kappa_two_dirac_closed,
)
from .spectrum import (
    SignalMeasure,
    Spectrum,
    df1,
    df2,
    make_inverse_index,
    make_isotropic,
    make_power_law,
    make_two_dirac,
    signal_functional,
    spectrum_for,
    spectrum_from_json,
    spectrum_to_json,
)
from .theory import (
    RiskBreakdown,
    fixed_design_ridge_risk,
    minnorm_risk,
    ridge_risk,
    rp_risk,
)

__all__ = [name for name in dir() if not name.startswith("_")]
