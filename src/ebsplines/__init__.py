"""Adaptive empirical Bayesian smoothing splines.

Data-driven selection of both the smoothing parameter and the penalty order
from the marginal likelihood, adaptive credible balls with frequentist
coverage, and a Monte Carlo lab comparing against GCV-selected splines.
"""

from .credible import (
    CredibleBall,
    RadiusSpec,
    credible_ball,
    radius,
    sample_posterior,
)
from .errors import DegenerateDataError, EbsplinesError
from .gcv import (
    GcvResult,
    gcv_criterion,
    select_lambda_gcv,
)
from .oracles import (
    OracleResult,
    SelectorVariances,
    SignalSpectrum,
    TraceCheck,
    asymptotic_variances,
    expected_t_lambda,
    expected_t_q,
    kappa,
    oracle_lambda,
    polished_tail_check,
    trace_approx_check,
)
from .selection import (
    FitResult,
    LambdaSolve,
    ModelFamily,
    Selection,
    default_q_grid,
    fit,
    marginal_loglik,
    sigma2_hat,
    solve_lambda,
    t_lambda,
    t_q,
)
from .simlab import (
    CoverageReport,
    GcvBallReport,
    Generator,
    SimulationReport,
    StudyConfig,
    coverage_experiment,
    gcv_ball_experiment,
    run_study,
)
from .spectral import (
    BasisHandle,
    DesignGrid,
    EigenSequence,
    SpectralModel,
    design_grid,
    eigenvalues,
    forward,
    inverse,
    make_basis,
    penalty_eigenvalues,
    rms_norm,
    smoother_weights,
    spectral_model,
)

__version__ = "0.1.0"
