"""Quantum minimum-description-length inference at finite dimension.

Pinching-operator algebra, projection-system lattices, universal mixture
sources, MLE / two-part MDL estimators, quantum divergences, and exact or
Monte-Carlo consistency experiments.
"""

from .config import TOL, Tolerances, dense_cap
from .errors import (
    AllZeroLikelihood,
    ConfigError,
    DimensionMismatch,
    InconsistentFamily,
    InvalidOperator,
    InvalidWord,
    NonMinimalSystem,
    NotRegular,
    QmdlError,
    SizeCapExceeded,
    SupportMismatch,
    ZeroTrace,
)
from .opcore import (
    as_operator,
    check_density,
    check_semi_density,
    eigh,
    herm_sqrt,
    normalize,
    norm_exceeds,
    op_norm,
    partial_trace,
    pinv_sqrt,
    tensor_power,
    trace_inner_norm,
)
from .projlat import (
    Classification,
    LatticeResult,
    ProjSystem,
    classify,
    computational_basis,
    consistent,
    finer,
    haar_random_system,
    join,
    meet,
    q_project,
    system_from_unitary,
)
from .models import example_state
from .qsource import (
    BetaExampleSource,
    MixtureSource,
    UniversalityReport,
    bullet,
    cond_density,
    conjugate,
    convex_combine,
    example_uniform_source,
    outcome_prob,
    outcome_probs,
    predict_step,
    q_restrict,
    strategy_step,
    universality_check,
    word_counts,
    word_distribution,
)
from .estim import (
    EstimateResult,
    GeneralizedModel,
    ParamModel,
    TiePath,
    alpha_scale,
    mle,
    two_part,
    two_part_classes,
)
from .infodist import (
    DivergenceValue,
    hellinger_sq,
    hellinger_sq_classical,
    kl_classical,
    rel_entropy,
    renyi,
    word_divergences,
)
from .serial import (
    matrix_from_json,
    matrix_to_json,
    source_from_json,
    system_from_json,
    system_to_json,
)
from .xplab import (
    BoundConfig,
    ConsistencyConfig,
    MarkovConfig,
    RedundancyConfig,
    RunResult,
    bound_run,
    consistency_run,
    distinguishability_mass,
    markov_run,
    redundancy_run,
)

__version__ = "0.1.0"
