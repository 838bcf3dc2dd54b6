"""Variational fit of the tilted model at a fixed tilt strength.

``fit_q`` maximizes the three-term objective

    E_{x ~ p} [ beta * f(g(x)) + log p(g(x)) + log|det J(g)(x)| ]

over the parameters of an invertible perturbation g by stochastic gradient
ascent (Adam), starting from an identity-initialized or warm-started flow.
The resulting ``TunedModel`` is the pushforward of the base model through g:
it samples by perturbing base draws and evaluates its own log-density through
the flow inverse and the change-of-variables identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dists import Distribution, _map_rows, _sample_chunks
from .errors import ContractError, DivergenceError, NumericError
from .flows import FlowModel
from .rng import derive_seed

__all__ = [
    "TuneConfig",
    "TunedModel",
    "Adam",
    "fit_q",
    "kl_between",
]

# the early stop's moving-average window (steps) and the number of flat
# window boundaries in a row that end a fit (see ``TuneConfig``)
PLATEAU_WINDOW = 50
PLATEAU_PATIENCE = 3
# the rows of one draw from the base model, which ``_fit_batches`` splits
# into the batches of consecutive fit steps
BATCH_DRAW_ROWS = 4096


@dataclass(frozen=True)
class TuneConfig:
    """Stochastic-optimization settings for one variational fit.

    ``steps`` applies to cold-started fits; ``warm_steps`` is the shorter
    budget the solver uses once a previous solution seeds the flow.  The
    learning rate decays on a cosine schedule over ``steps``.
    ``improvement_tol`` stops a fit early when the trailing moving-average
    objective (window ``PLATEAU_WINDOW``) improves by less than that fraction
    of its magnitude at ``PLATEAU_PATIENCE`` consecutive window boundaries;
    the batch noise of a single window comparison is far above the
    tolerance, so a one-shot check would fire long before convergence.  Set
    the tolerance to 0 to disable early stopping.
    """

    batch_size: int = 256
    steps: int = 2000
    warm_steps: int = 500
    learning_rate: float = 1e-3
    improvement_tol: float = 1e-4
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8

    def __post_init__(self):
        # the config schema's bounds; written so that NaN fails them too
        bounds = {
            "steps must be >= 1": self.steps >= 1,
            "warm_steps must be >= 1": self.warm_steps >= 1,
            "batch_size must be >= 2": self.batch_size >= 2,
            "improvement_tol must be >= 0": self.improvement_tol >= 0,
            "learning_rate must be > 0": self.learning_rate > 0,
        }
        for message, ok in bounds.items():
            if not ok:
                raise ContractError(message)


class Adam:
    """Adaptive first-order ascent on a list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], cfg: TuneConfig):
        self.params = params
        self.cfg = cfg
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        # two scratch arrays per parameter array, reused by every step
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray], lr: float):
        self.t += 1
        c = self.cfg
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for p, g, m, v, (a, b) in zip(self.params, grads, self.m, self.v, self._scratch):
            # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
            m *= c.beta1
            np.multiply(1.0 - c.beta1, g, out=a)
            m += a
            v *= c.beta2
            np.multiply(1.0 - c.beta2, g, out=a)
            a *= g
            v += a
            # p += lr (m / bc1) / (sqrt(v / bc2) + epsilon), operation by operation
            np.divide(m, bc1, out=a)
            a *= lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += c.epsilon
            a /= b
            p += a


class TunedModel(Distribution):
    """Pushforward of a base distribution through a fitted flow.

    Sampling perturbs base draws: sample(n, seed) == flow.forward(base.sample
    (n, seed)), with the base points drawn one row chunk at a time.  The
    log-density inverts the flow (change of variables); the pathwise
    log-ratio against the base needs no inverse at all.
    """

    kind = "flow-pushforward"

    def __init__(self, base: Distribution, flow: FlowModel, beta: float, trace_rows=()):
        self.base = base
        self.flow = flow
        self.beta = float(beta)
        self.trace_rows = list(trace_rows)
        self.dim = base.dim

    def sample(self, n: int, seed: int) -> np.ndarray:
        (y,) = _map_rows(
            lambda chunk: self.flow._forward_cached(chunk, keep=False)[:1],
            n, _sample_chunks(self.base, n, seed),
        )
        return y

    def sample_with_logratio(self, n: int, seed: int):
        """Draw n samples y and the exact log q(y) - log p(y) per sample."""
        return _map_rows(
            lambda chunk: self._logratio(chunk, self.base), n, _sample_chunks(self.base, n, seed)
        )

    def _logratio(self, x_hat: np.ndarray, other: Distribution):
        """(y, log q(y) - log other(y)) for a chunk of base points, y = g(x_hat).

        log q(y) = log p(x_hat) - logdet needs no flow inversion.  Callers
        map this with ``dists._map_rows`` over the base sample's chunks as
        ``dists._sample_chunks`` draws them; the chunked draw gives the bytes
        of one whole draw, so the result does not depend on the chunking.
        """
        y, logdet = self.flow._forward_cached(x_hat, keep=False)[:2]
        return y, self.base.log_density(x_hat) - logdet - other.log_density(y)

    def log_density(self, x):
        # the flow's inverse checks that x is an (n, dim) batch
        x_hat, logdet = self.flow.inverse(x)
        return self.base.log_density(x_hat) - logdet


def _fit_batches(p: Distribution, batch_size: int, seed: int):
    """Yield ``fit_q``'s (batch, log p(batch)) for steps 0, 1, 2, ...

    Draw j is ``p.sample(k * batch_size, derive_seed(seed, "batch", j))``
    with k = max(1, ``BATCH_DRAW_ROWS`` // batch_size), and its
    log-densities are computed once, next to it.  Step s takes rows
    [(s mod k) * batch_size, (s mod k + 1) * batch_size) of draw s // k, as
    views of the draw and of its log-densities.  A Gaussian's or a
    mixture's log-density is computed row by row, so a slice of it is the
    bytes ``p.log_density(batch)`` gives.  Above 2048 rows k is 1 and step
    s draws its own batch from ``derive_seed(seed, "batch", s)``.
    """
    k = max(1, BATCH_DRAW_ROWS // batch_size)
    for j in itertools.count():
        draw = p.sample(k * batch_size, derive_seed(seed, "batch", j))
        log_p = p.log_density(draw)
        for i in range(0, k * batch_size, batch_size):
            yield draw[i : i + batch_size], log_p[i : i + batch_size]


def _objective_parts(
    p: Distribution, f, beta: float, flow: FlowModel, batch: np.ndarray,
    base_log_p: np.ndarray, reuse=None,
):
    """Forward pass of the tilt objective on one batch, whose base
    log-densities ``p.log_density(batch)`` are ``base_log_p``.

    Returns (objective, grads, mean_f, batch_kl, caches) where grads are
    the gradients of the batch-mean objective with respect to flow
    parameters.  ``caches``, the flow's, passed back as ``reuse`` are
    refilled in place instead of allocated when the batch has the same
    shape, strides and dtype; the bytes are those of a fresh call.
    """
    n = batch.shape[0]
    y, logdet, caches = flow._forward_cached(batch, reuse=reuse)
    f_vals, f_grad = f.value_and_grad(y)
    f_vals = np.asarray(f_vals, dtype=float)
    if not np.isfinite(f_vals).all():
        raise NumericError("criterion term is non-finite")
    log_p, score = p.log_density_and_score(y)
    if not np.isfinite(log_p).all():
        raise NumericError("base log-density term is non-finite")
    objective = float(np.mean(beta * f_vals + log_p + logdet))
    # (beta * f_grad + score) / n, operation by operation into a C-ordered
    # array, the order the backward pass takes
    dy = np.multiply(beta, f_grad, out=np.empty(y.shape))
    dy += score
    dy /= n
    grads, _ = flow._backward_cached(caches, dy, np.full(n, 1.0 / n))
    # diagnostics riding along with the batch
    mean_f = float(f_vals.mean())
    batch_kl = float(np.mean(base_log_p - logdet - log_p))
    return objective, grads, mean_f, batch_kl, caches


def _decayed_lr(cfg: TuneConfig, step: int) -> float:
    return cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / cfg.steps))


def fit_q(
    p: Distribution, f, beta: float, init: FlowModel, cfg: TuneConfig, seed: int
) -> TunedModel:
    """Fit the tilted model at fixed ``beta`` by stochastic ascent.

    Step s trains on the s-th batch of ``_fit_batches(p, cfg.batch_size,
    seed)``: the batches of consecutive steps, up to ``BATCH_DRAW_ROWS``
    rows in all, are row blocks of one draw from ``p``, whose log-densities
    are computed with it, once.

    The initial flow is copied, never mutated, so warm-start chains can keep
    their history.  A non-finite ``beta`` raises ``ContractError`` before the
    first step.  Divergence (non-finite objective) aborts with the trace
    collected so far attached to the exception.
    """
    if not np.isfinite(beta):
        raise ContractError(f"beta must be finite, got {beta!r}")
    flow = init.copy()
    opt = Adam([flow.theta], cfg)
    objectives: list[float] = []
    trace_rows: list[tuple] = []
    w = PLATEAU_WINDOW
    flat_checks = 0
    caches = None  # each step refills the previous step's arrays
    # range first: zip stops there without drawing past the last step
    batches = _fit_batches(p, cfg.batch_size, seed)
    for step, (batch, base_log_p) in zip(range(cfg.steps), batches):
        try:
            obj, grads, mean_f, batch_kl, caches = _objective_parts(
                p, f, beta, flow, batch, base_log_p, caches
            )
        except NumericError as err:
            raise DivergenceError(
                f"objective diverged at step {step}: {err}", trace=trace_rows
            ) from err
        opt.step([grads.vector], _decayed_lr(cfg, step))
        objectives.append(obj)
        trace_rows.append((step, obj, mean_f, batch_kl))
        if cfg.improvement_tol > 0 and (step + 1) % w == 0 and step + 1 >= 2 * w:
            recent = float(np.mean(objectives[-w:]))
            previous = float(np.mean(objectives[-2 * w : -w]))
            if recent - previous < cfg.improvement_tol * max(1.0, abs(recent)):
                flat_checks += 1
                if flat_checks >= PLATEAU_PATIENCE:
                    break
            else:
                flat_checks = 0
    return TunedModel(p, flow, beta, trace_rows)


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n))


def kl_between(model: TunedModel, other: Distribution, n: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo KL(q || other) using exact pathwise log q on own samples.

    ``kl_between(model, model.base, n, seed)`` is the divergence from the base.
    The standard error needs ``n >= 2``.
    """
    if n < 2:
        raise ContractError("the KL estimate needs at least 2 samples")
    # only the log-ratio is kept, not the (n, dim) samples
    (values,) = _map_rows(
        lambda chunk: model._logratio(chunk, other)[1:], n, _sample_chunks(model.base, n, seed)
    )
    return _mean_and_se(values)
