"""Exact posterior covariance for flow matching models.

The package turns a trained (or analytically known) velocity field into
per-sample uncertainty: the posterior covariance of the clean data given a
partially denoised interpolant state, obtained from the velocity Jacobian in
closed form rather than from ensembles or repeated sampling.
"""

from .numerics import (
    NumericsError,
    ProbeSet,
    RngState,
    draw_rademacher,
    exhaustive_sign_probes,
    hutchinson_diagonal,
)
from .oracle import (
    GmmSpec,
    OracleError,
    PosteriorOracle,
    gmm_posterior,
    gmm_posterior_batch,
    optimal_velocity_batch,
    posterior_mean_jacobian,
    sample_pairs,
)
from .models import (
    AnalyticField,
    EvalCounter,
    MlpArch,
    MlpVelocity,
    ModelError,
    ModelField,
    analytic_handle,
    load_model,
    save_model,
    time_features,
)
from .training import (
    TrainConfig,
    TrainJob,
    TrainReport,
    TrainingError,
    train,
    train_ensemble,
    train_jobs,
)
from .uq import (
    PosteriorEstimate,
    UncertaintyMapSeries,
    UqError,
    cov_closed_form,
    one_step_cov,
    posterior_mean_from_velocity,
    prior_baseline,
    shift_time_grid,
    trajectory_uq,
)
from .sampler import (
    SamplerError,
    Trajectory,
    euler_generate,
)
from .baselines import (
    BaselineError,
    BaselineEstimate,
    ensemble_uq,
    mc_dropout_uq,
)
from .metrics import (
    ConsistencyRow,
    MetricsError,
    consistency_protocol,
    corrupt,
    hitrate_at_k,
    spearman,
)
from .data import (
    DataError,
    GmmTask,
    IdxTensor,
    ImageTask,
    MnistTask,
    idx_to_float,
    parse_idx,
)
from .reporting import (
    CostEntry,
    CostLedger,
    ReportError,
    cost_report,
    write_csv,
    write_pgm,
    write_uq_map,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
)

__version__ = "0.1.0"
