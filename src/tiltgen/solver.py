"""Second-order search for the tilt strength hitting a target.

The outer loop alternates a variational fit of the tilted model at the
current beta with Monte-Carlo moment estimation, then updates beta with a
safeguarded second-order root-finding step.  The derivative structure comes
from exact identities of the tilted family:

    d/dbeta E[f]      = Var(f)
    d2/dbeta2 E[f]    = E[(f - E f)^3]
    d/dbeta D_KL      = beta * Var(f)
    d2/dbeta2 D_KL    = Var(f) + beta * E[(f - E f)^3]

all evaluated under the current tilted model.  Steps are clamped to a trust
region; once a sign change of the residual is bracketed, any model step that
escapes the bracket is replaced by bisection.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .criteria import Criterion
from .dists import Distribution, _map_rows, _sample_chunks
from .errors import ContractError, DivergenceError, FlatCriterionError, NumericError
from .flows import FlowArchitecture, init_identity
from .rng import derive_seed
from .tuner import TuneConfig, TunedModel, fit_q

__all__ = [
    "MomentEstimates",
    "Target",
    "SolveResult",
    "estimate_moments",
    "fit_chain",
    "newton_step",
    "solve",
    "pareto_sweep",
]

log = logging.getLogger(__name__)

# what a fit, a moment estimate or a beta proposal raises when it fails
CHAIN_FAILURES = (DivergenceError, NumericError, FlatCriterionError)

# contiguous blocks of a moment sample whose means give its standard errors
# (fewer when a block would hold under 4 values)
SE_BLOCKS = 32

# the convergence and stagnation thresholds of ``solve``
RELATIVE_TOLERANCE = 1e-2
BETA_TOLERANCE = 1e-3


@dataclass(frozen=True)
class MomentEstimates:
    """Sample moments of f and the divergence under a tuned model."""

    mean_f: float
    var_f: float
    third_central_f: float
    dkl: float
    n: int
    se_mean: float
    se_var: float
    se_third: float
    se_dkl: float

    def __post_init__(self):
        bad = [f.name for f in fields(self) if f.name != "n"
               and not math.isfinite(getattr(self, f.name))]
        if bad:
            raise NumericError(f"non-finite moment estimate: {', '.join(bad)}")
        if self.n < 2:
            raise ContractError("moment estimates need n >= 2")
        if self.var_f < 0.0:
            raise ContractError("variance estimate must be nonnegative")
        if self.dkl < -(3.0 * self.se_dkl) - 1e-9:
            raise ContractError(
                "divergence estimate is negative beyond its noise band"
            )


@dataclass(frozen=True)
class Target:
    """What the search drives to: E_q f = value or D_KL(q||p) = value."""

    mode: str  # "expectation" or "divergence"
    value: float

    def __post_init__(self):
        if self.mode not in ("expectation", "divergence"):
            raise ContractError(f"unknown target mode {self.mode!r}")
        if not math.isfinite(self.value):
            raise ContractError(f"target value must be finite, got {self.value!r}")
        if self.mode == "divergence" and self.value < 0.0:
            raise ContractError("divergence target must be >= 0")

    @classmethod
    def expectation(cls, value: float) -> "Target":
        return cls("expectation", float(value))

    @classmethod
    def divergence(cls, value: float) -> "Target":
        return cls("divergence", float(value))

    @classmethod
    def from_quantile(cls, rho: float) -> "Target":
        """Divergence budget -log(rho) for sampling the top rho mass."""
        if not 0.0 < rho <= 1.0:
            raise ContractError("quantile mass rho must lie in (0, 1]")
        return cls("divergence", -math.log(rho))

    def achieved(self, est: MomentEstimates) -> tuple[float, float]:
        """(measured value, its standard error) for this target mode."""
        if self.mode == "expectation":
            return est.mean_f, est.se_mean
        return est.dkl, est.se_dkl


def _third_central(values: np.ndarray) -> float:
    """k-statistic (unbiased) estimate of the third central moment."""
    n = values.shape[0]
    m3 = float(np.mean((values - values.mean()) ** 3))
    if n < 3:
        return m3
    return m3 * n * n / ((n - 1) * (n - 2))


def _batch_se(values: np.ndarray, stat) -> float:
    """Standard error of a statistic by the method of batch means."""
    n = values.shape[0]
    b = max(2, min(SE_BLOCKS, n // 4))
    size = n // b
    stats = np.array([stat(values[i * size : (i + 1) * size]) for i in range(b)])
    return float(stats.std(ddof=1) / np.sqrt(b))


def estimate_moments(q: TunedModel, f: Criterion, n: int, seed: int) -> MomentEstimates:
    """Sample moments of f under q plus the pathwise divergence estimate.

    Standard errors come from batch means over contiguous sample blocks.
    The base points are drawn and evaluated one row chunk at a time and only
    f and the log-ratio are kept, so memory grows with n by two floats per
    sample, plus the moment statistics' temporaries.
    """
    if n < 100:
        raise ContractError("moment estimation needs n >= 100")

    def f_and_logratio(chunk):
        y, logratio = q._logratio(chunk, q.base)
        return f.value(y), logratio

    f_vals, logratio = _map_rows(f_and_logratio, n, _sample_chunks(q.base, n, seed))
    return MomentEstimates(
        mean_f=float(f_vals.mean()),
        var_f=float(f_vals.var(ddof=1)),
        third_central_f=_third_central(f_vals),
        dkl=float(logratio.mean()),
        n=n,
        se_mean=_batch_se(f_vals, lambda v: v.mean()),
        se_var=_batch_se(f_vals, lambda v: v.var(ddof=1)),
        se_third=_batch_se(f_vals, _third_central),
        se_dkl=_batch_se(logratio, lambda v: v.mean()),
    )


def _residual_terms(beta: float, est: MomentEstimates, target: Target):
    """(residual, first derivative, second derivative) for the target mode."""
    if target.mode == "expectation":
        return est.mean_f - target.value, est.var_f, est.third_central_f
    return (
        est.dkl - target.value,
        beta * est.var_f,
        est.var_f + beta * est.third_central_f,
    )


def _quadratic_root(r: float, d1: float, d2: float) -> float:
    """Smallest-magnitude real root of r + d1*x + x^2*d2/2 = 0.

    Falls back to the first-order (Newton) step when the quadratic has no
    real root.  The root's cancellation-free form tends to the Newton step
    -r/d1 as the curvature vanishes.  With d1 = 0 the curvature-only step is
    taken in the direction that reduces the residual (the residual is an
    increasing function of beta for both target modes).
    """
    if d1 == 0.0:
        ratio = -2.0 * r / d2
        if ratio <= 0.0:
            return -math.copysign(1.0, r)
        return -math.copysign(math.sqrt(ratio), r)
    disc = d1 * d1 - 2.0 * d2 * r
    if disc < 0.0:
        return -r / d1
    return -2.0 * r / (d1 + math.copysign(math.sqrt(disc), d1))


def _bracket(records: list[dict]) -> tuple[float | None, float | None]:
    """(lo, hi): the largest beta with a negative residual and the smallest
    with a residual of 0 or above, None where no record has that sign."""
    below = [r["beta"] for r in records if r["residual"] < 0.0]
    above = [r["beta"] for r in records if r["residual"] >= 0.0]
    return max(below, default=None), min(above, default=None)


def _stagnation_message(records: list[dict]) -> str:
    """Why a search stopped short of its target: the bracket ``_bracket``
    puts on the root and the last two betas with their residuals, so a
    search stuck in a bracket that a biased residual misplaced says so."""
    lo, hi = _bracket(records)
    ends = ", ".join("none" if b is None else f"{b:.6g}" for b in (lo, hi))
    last = "; ".join(f"{r['beta']:.6g} (residual {r['residual']:+.4g})" for r in records[-2:])
    return (
        f"beta stagnated before reaching the target: residual bracket [{ends}], "
        f"last betas {last}"
    )


def newton_step(records: list[dict], target: Target) -> float:
    """Propose the next beta from the records of the fits so far.

    Reads ``beta`` and ``moments`` from the last record and brackets the
    root with every record's ``residual`` (see ``_bracket``).  Second-order
    model step, clamped to the trust region |step| <= max(1, |beta|); if a
    residual sign change is bracketed and the model step escapes the
    bracket, bisect instead.  A criterion variance below its own noise floor
    aborts: the tilt strength has no measurable effect.
    """
    if not records:
        raise ContractError("newton_step requires at least one moment estimate")
    beta, est = records[-1]["beta"], records[-1]["moments"]
    noise_floor = max(1e-12, 3.0 * est.se_var)
    if est.var_f <= noise_floor:
        raise FlatCriterionError(
            "criterion variance is below the noise floor: beta has no effect"
        )
    r, d1, d2 = _residual_terms(beta, est, target)
    if d1 == 0.0 and d2 == 0.0:
        raise FlatCriterionError("no usable derivative information at this beta")
    step = _quadratic_root(r, d1, d2)
    cap = max(1.0, abs(beta))
    step = float(np.clip(step, -cap, cap))
    proposed = max(0.0, beta + step)
    lo, hi = _bracket(records)
    if lo is not None and hi is not None and not lo <= proposed <= hi:
        proposed = 0.5 * (lo + hi)
    return proposed


def fit_chain(
    p: Distribution,
    f: Criterion,
    beta: float,
    propose,
    arch: FlowArchitecture = FlowArchitecture(),
    tune_cfg: TuneConfig = TuneConfig(),
    moments_n: int = 20000,
    seed: int = 0,
    init_seed: int | None = None,
) -> tuple[TunedModel, list[dict]]:
    """Warm-started fits at the betas ``propose`` picks: fit, measure, repeat.

    Fits at ``beta`` from the identity flow, estimates the moments, and
    appends the record ``{"iteration", "beta", "moments", "trace",
    "seconds"}``.  Then ``propose(records)`` returns the next beta, fitted
    from the last flow, or None to stop; it may add keys to the records.
    Returns the last model and the records.  ``seconds`` holds the wall time
    of the fit and of the moment estimate (``fit_s``, ``moments_s``); it is
    the one volatile key, so leave it out of anything that must reproduce.

    A ``CHAIN_FAILURES`` error raised by a fit, a moment estimate or
    ``propose`` is re-raised with the records finished so far attached as
    its ``records`` attribute.

    Fit 0 runs ``tune_cfg`` as given, on batches drawn from the tune seed
    ``t = derive_seed(seed, "tune")``.  Fit i > 0 runs its ``warm_steps``
    budget on batches drawn from ``derive_seed(t, "fit", i)``.  Fit i
    measures on ``moments_n`` samples drawn from
    ``derive_seed(seed, "moments", i)``.  ``init_seed`` drives the flow
    initialization and defaults to a stream derived from ``seed``.
    The parameters after ``propose`` are the chain settings, declared here
    only: ``solve`` and ``pareto_sweep`` pass theirs on as keywords.
    """
    if init_seed is None:
        init_seed = derive_seed(seed, "init")
    flow = init_identity(p.dim, arch, seed=init_seed)
    cfg = tune_cfg
    fit_seed = tune_seed = derive_seed(seed, "tune")
    records: list[dict] = []
    try:
        while beta is not None:
            i = len(records)
            if i > 0:
                cfg = replace(tune_cfg, steps=tune_cfg.warm_steps)
                fit_seed = derive_seed(tune_seed, "fit", i)
            start = time.perf_counter()
            model = fit_q(p, f, beta, flow, cfg, fit_seed)
            fitted = time.perf_counter()
            flow = model.flow
            est = estimate_moments(model, f, moments_n, derive_seed(seed, "moments", i))
            seconds = {"fit_s": fitted - start, "moments_s": time.perf_counter() - fitted}
            log.info(
                "fit %d at beta=%.6g: %d steps in %.3f s, moments in %.3f s",
                i, beta, len(model.trace_rows), seconds["fit_s"], seconds["moments_s"],
            )
            records.append({
                "iteration": i, "beta": beta, "moments": est,
                "trace": model.trace_rows, "seconds": seconds,
            })
            beta = propose(records)
    except CHAIN_FAILURES as err:
        err.records = records
        raise
    return model, records


@dataclass
class SolveResult:
    """Outcome of the full search: final model and per-iteration records."""

    model: TunedModel
    records: list[dict]
    converged: bool
    message: str


def solve(
    p: Distribution,
    f: Criterion,
    target: Target,
    *,
    max_iterations: int = 20,
    **chain,
) -> SolveResult:
    """Run the full search: fit, measure, update beta, repeat.

    ``f`` is used as given; call ``normalize_affine`` first to normalize it.
    The chain settings are keywords passed on to ``fit_chain``, which
    declares them and their defaults.  Convergence means the measured
    target quantity is within max(RELATIVE_TOLERANCE * |target|, 3 se) of
    the target value.  A beta update smaller than BETA_TOLERANCE * max(1,
    beta) while the target is still missed reports non-convergence
    (stagnation), as does exhausting ``max_iterations``; the message of a
    stagnation at beta 0 with a positive residual names the target and the
    value there, since beta never goes below 0.  Each record also
    carries ``achieved`` and ``residual``; the records always come back, so
    a non-converged run can still be audited (after a failure, attached to
    the error as in ``fit_chain``).
    """
    if max_iterations < 1:
        raise ContractError("max_iterations must be >= 1")
    converged = False
    message = f"iteration cap ({max_iterations}) exceeded"

    def propose(records):
        nonlocal converged, message
        record = records[-1]
        beta, est = record["beta"], record["moments"]
        achieved, se = target.achieved(est)
        residual = achieved - target.value
        record.update(achieved=achieved, residual=residual)
        if abs(residual) <= max(RELATIVE_TOLERANCE * abs(target.value), 3.0 * se):
            converged = True
            message = f"target reached at beta={beta:.6g}"
            return None
        new_beta = newton_step(records, target)
        if abs(new_beta - beta) < BETA_TOLERANCE * max(1.0, abs(beta)):
            message = _stagnation_message(records)
            if new_beta == 0.0 and residual > 0.0:
                message = (
                    f"target {target.mode} {target.value:.6g} lies below its value "
                    f"{achieved:.6g} at beta={beta:.6g}, and the search only raises beta"
                )
            return None
        return new_beta if len(records) < max_iterations else None

    model, records = fit_chain(p, f, 0.0, propose, **chain)
    return SolveResult(model, records, converged, message)


def pareto_sweep(
    p: Distribution,
    f: Criterion,
    beta_grid,
    **chain,
) -> list[dict]:
    """Warm-started fits along an increasing beta grid starting at 0.

    Returns one record per grid value, in ``fit_chain``'s shape, suitable
    for plotting the divergence-vs-expectation trade-off curve.  Grid point
    i draws the same fit and moment streams as iteration i of ``solve``; the
    chain settings are keywords passed on to ``fit_chain``, as there.
    """
    grid = [float(b) for b in beta_grid]
    if not grid or grid[0] != 0.0:
        raise ContractError("beta grid must start at 0")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ContractError("beta grid must be strictly increasing")
    _, records = fit_chain(
        p, f, grid[0],
        lambda records: grid[len(records)] if len(records) < len(grid) else None,
        **chain,
    )
    return records
