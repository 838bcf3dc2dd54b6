"""Tilt a trained generative model toward high values of a differentiable
criterion, with a second-order search for the tilt strength, exact oracles,
and diagnostics."""

from .criteria import (
    AdversarialCriterion,
    BayesPosteriorClassifier,
    ClassifierCriterion,
    Criterion,
    LatentCriterion,
    LinearCriterion,
    LogisticClassifier,
    PeakCriterion,
    WindowMeanCriterion,
    normalize_affine,
)
from .diagnostics import (
    audit_run,
    compare_criteria,
    grad_norm_profile,
    importance_curves,
)
from .dists import (
    DecoderMarginal,
    DiagGaussian,
    Distribution,
    GaussianMixture,
    LatentDecoder,
    distribution_from_spec,
)
from .errors import (
    CapabilityError,
    ConfigError,
    ContractError,
    DegenerateCriterionError,
    DivergenceError,
    FlatCriterionError,
    NumericError,
    RareEventError,
    TiltgenError,
)
from .flows import FlowArchitecture, FlowGradients, FlowModel, init_identity
from .oracles import (
    GaussianTiltOracle,
    RejectionSampler,
    discrete_qbeta,
    latent_kl_bound_check,
    rejection_sample,
    top_quantile_threshold,
)
from .solver import (
    MomentEstimates,
    Target,
    estimate_moments,
    newton_step,
    pareto_sweep,
    solve,
)
from .tuner import TuneConfig, TunedModel, fit_q

__version__ = "0.1.0"
