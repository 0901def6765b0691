"""Noncentral Wishart mixtures and exact MANOVA tests for random effects.

The package has two halves that share one set of matrix-variate primitives:

* a closure engine — a noncentral Wishart mixture of noncentral Wisharts with
  common degrees of freedom is again noncentral Wishart; the parameter map,
  the hierarchical sampler, and a Monte Carlo verification battery live in
  :mod:`wishartmix.closure`;
* an exact finite-sample testing engine for random (and fixed) effects in
  balanced two-factor multivariate designs, built on the matrix-variate Beta
  Type II null law, in :mod:`wishartmix.manova` and :mod:`wishartmix.mc`,
  with CSV ingestion and a CLI in :mod:`wishartmix.design_io` and
  :mod:`wishartmix.cli`.
"""

from .closure import (
    MixtureSpec,
    VerificationReport,
    conjugation_params,
    default_probes,
    mixture_marginal_params,
    random_mixture_spec,
    sample_hierarchical,
    verify_closure,
)
from .design_io import (
    RawDataset,
    ReportTable,
    load_design_csv,
    read_matrix_file,
    report_to_dict,
    report_to_text,
    run_report,
    subsample_balanced,
)
from .distributions import (
    BetaIIParams,
    MatrixNormalParams,
    WishartParams,
    beta2_eigenvalues,
    sample_beta2,
    sample_matrix_normal,
    sample_noncentral_chisq,
    sample_wishart,
    wishart_log_mgf,
    wishart_mean,
    wishart_mgf,
)
from .errors import (
    DegenerateDesign,
    EmptyFile,
    InsufficientCell,
    MissingColumn,
    NotPsd,
    OutsideDomain,
    SingularErrorMatrix,
    UnbalancedDesign,
    UnparseableValue,
    UnsupportedDof,
    ValidationError,
)
from .manova import (
    DesignTable,
    FactorTest,
    FixedEffect,
    RandomEffect,
    SimulationSpec,
    StatisticFunctional,
    batched_statistic_eigs,
    factor_tests,
    scalar_statistic,
    simulate_design,
    sop_arrays,
)
from .mc import CalibrationSummary, McConfig, PValueEstimate, mc_pvalue, null_calibration
from .rng import RngStream
from .symmat import SpdMat, SymMat, sym_inv_sqrt, sym_sqrt

__version__ = "0.1.0"
