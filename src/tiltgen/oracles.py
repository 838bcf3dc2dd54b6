"""Independent ground-truth machinery for verifying the tuning pipeline.

Everything here is computed by a route that shares no code with the
variational path: closed-form Gaussian tilts, exhaustive tilting of finite
supports, brute-force rejection sampling, and the exact latent/marginal KL
comparison for linear-Gaussian decoders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import _per_row
from .dists import DiagGaussian, Distribution, LatentDecoder, _sample_chunks
from .errors import ContractError, NumericError, RareEventError
from .rng import derive_seed

__all__ = [
    "GaussianTiltOracle",
    "top_quantile_threshold",
    "RejectionSampler",
    "RejectionResult",
    "rejection_sample",
    "DiscreteTilt",
    "discrete_qbeta",
    "KlBoundResult",
    "latent_kl_bound_check",
]


class GaussianTiltOracle:
    """Exact tilt of a diagonal Gaussian by a linear criterion a . x.

    Reweighting N(mu, S) by exp(beta * a.x) gives N(mu + beta*S*a, S), so all
    moments and the divergence are available in closed form:

        E[f]   = a.mu + beta * a.S.a        Var[f] = a.S.a (constant)
        D_KL   = beta^2 * a.S.a / 2          log Z  = beta*a.mu + beta^2*a.S.a/2

    A value that overflows a float, a.S.a at construction or a result,
    raises ``NumericError``.
    """

    def __init__(self, mean, variance, coeff):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.variance = np.atleast_1d(np.asarray(variance, dtype=float))
        self.coeff = np.atleast_1d(np.asarray(coeff, dtype=float))
        if not (self.mean.shape == self.variance.shape == self.coeff.shape):
            raise ContractError("mean, variance and coeff must share shape")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.coeff).all()):
            raise ContractError("mean and coeff must be finite")
        # written so that NaN fails too
        if not np.all((self.variance > 0) & (self.variance < np.inf)):
            raise ContractError("variances must be positive and finite")
        self._asa = _finite("a.S.a", lambda: float(self.coeff @ (self.variance * self.coeff)))

    def tilted_mean(self, beta: float) -> np.ndarray:
        return _finite("tilted mean", lambda: self.mean + beta * self.variance * self.coeff)

    def tilted_dist(self, beta: float) -> DiagGaussian:
        return DiagGaussian(self.tilted_mean(beta), self.variance)

    def mean_f(self, beta: float) -> float:
        return _finite("E[f]", lambda: float(self.coeff @ self.mean) + beta * self._asa)

    def var_f(self, beta: float) -> float:
        return self._asa

    def third_central_f(self, beta: float) -> float:
        return 0.0

    def dkl(self, beta: float) -> float:
        return _finite("D_KL", lambda: 0.5 * beta * beta * self._asa)

    def log_z(self, beta: float) -> float:
        return _finite(
            "log Z", lambda: beta * float(self.coeff @ self.mean) + 0.5 * beta * beta * self._asa
        )


def _finite(what: str, compute):
    """``compute()``, with numpy's overflow warnings off; a result that
    overflowed to inf or nan raises ``NumericError`` instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute()
    if not np.all(np.isfinite(value)):
        raise NumericError(f"the Gaussian tilt's {what} is not finite (overflow)")
    return value


def top_quantile_threshold(
    p: Distribution, f, rho: float, n: int, seed: int
) -> float:
    """Empirical (1 - rho)-quantile of f on n draws of p, evaluated one row
    chunk at a time as drawn; a non-finite value raises ``NumericError``."""
    if not 0.0 < rho < 1.0:
        raise ContractError("rho must lie in (0, 1)")
    if n * rho < 100:
        raise ContractError("need n * rho >= 100 for a stable quantile")
    values = _per_row(f, n, _sample_chunks(p, n, seed), "value", f.value)
    return float(np.quantile(values, 1.0 - rho))


@dataclass(frozen=True)
class RejectionSampler:
    """Draw from ``source`` and keep rows passing ``predicate``.

    This is the expensive baseline that tilting replaces: the attempt budget
    makes genuinely rare predicates fail loudly instead of spinning forever.
    """

    source: Distribution
    predicate: object  # callable: (n, d) rows -> (n,) bools
    max_attempts: int = 10**7


@dataclass(frozen=True)
class RejectionResult:
    samples: np.ndarray
    acceptance_rate: float
    attempts: int


_CHUNK = 8192


def rejection_sample(rs: RejectionSampler, m: int, seed: int) -> RejectionResult:
    """Collect ``m`` accepted samples or raise ``RareEventError``.

    The attempt counter covers every source draw; the acceptance rate is
    accepted/attempted over whole chunks, so it is an unbiased estimate of
    the predicate mass under the source.
    """
    if m < 1:
        raise ContractError("sample count must be >= 1")
    kept: list[np.ndarray] = []
    accepted = 0
    attempts = 0
    chunk_index = 0
    while accepted < m:
        if attempts >= rs.max_attempts:
            raise RareEventError(
                f"rejection sampling exhausted {attempts} attempts with "
                f"{accepted}/{m} accepted; the target event is too rare "
                "for this budget",
                attempts=attempts,
                accepted=accepted,
            )
        draw = rs.source.sample(_CHUNK, derive_seed(seed, "chunk", chunk_index))
        chunk_index += 1
        attempts += _CHUNK
        ok = np.asarray(rs.predicate(draw), dtype=bool)
        kept.append(draw[ok])
        accepted += int(ok.sum())
    samples = np.concatenate(kept, axis=0)[:m]
    return RejectionResult(samples, accepted / attempts, attempts)


@dataclass(frozen=True)
class DiscreteTilt:
    """Exact tilted distribution on a finite support."""

    support: np.ndarray
    base_probs: np.ndarray
    probs: np.ndarray
    f_values: np.ndarray
    beta: float
    log_z: float
    mean_f: float
    var_f: float
    third_central_f: float
    dkl: float


def discrete_qbeta(support, probs, f, beta: float) -> DiscreteTilt:
    """Exhaustively tilt a finite-support distribution by exp(beta * f).

    ``f`` is a criterion, evaluated on the support rows.  The moments are
    exact sums, and the divergence is beta * E f - log Z, finite even where
    a tilted probability underflows to 0.  A ``probs`` that is not a
    distribution or a non-finite ``beta`` raises ``ContractError``, and a
    beta * f on the support that is not finite (a non-finite f value, or
    an overflow) raises ``NumericError``.
    """
    support = np.asarray(support, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if support.shape[0] != probs.shape[0]:
        raise ContractError("one probability per support point required")
    if support.shape[0] > 10**6:
        raise ContractError("support size exceeds 10^6")
    # written so that NaN and inf fail too
    if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
        raise ContractError("probabilities must be a distribution")
    if not np.isfinite(beta):
        raise ContractError("beta must be finite")
    f_values = np.asarray(f.value(support), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        tilt = beta * f_values
    if not np.isfinite(tilt).all():
        raise NumericError(f"beta * f is not finite on the support (criterion {f.label!r})")
    live = probs > 0
    log_w = np.where(live, np.log(np.where(live, probs, 1.0)) + tilt, -np.inf)
    m = log_w[live].max()
    log_z = m + np.log(np.exp(log_w - m).sum())
    q = np.where(live, np.exp(log_w - log_z), 0.0)
    mean_f = float(q @ f_values)
    centered = f_values - mean_f
    var_f = float(q @ centered**2)
    third = float(q @ centered**3)
    # KL(q || p) = sum q (beta f - log Z) = beta E_q f - log Z, which takes no
    # log q: summing q (log q - log p) gives nan once a live q underflows to 0
    dkl = float(beta * mean_f - log_z)
    return DiscreteTilt(
        support=support,
        base_probs=probs,
        probs=q,
        f_values=f_values,
        beta=float(beta),
        log_z=float(log_z),
        mean_f=mean_f,
        var_f=var_f,
        third_central_f=third,
        dkl=dkl,
    )


@dataclass(frozen=True)
class KlBoundResult:
    kl_latent: float
    kl_marginal: float
    holds: bool
    margin: float


def _full_cov(cov, dim: int) -> np.ndarray:
    arr = np.asarray(cov, dtype=float)
    if arr.ndim == 0:
        return np.eye(dim) * float(arr)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ContractError("covariance diagonal has wrong length")
        return np.diag(arr)
    if arr.shape != (dim, dim):
        raise ContractError("covariance matrix has wrong shape")
    return arr


def _gaussian_kl(mean_q, cov_q, mean_p, cov_p) -> float:
    """KL between two full-covariance Gaussians."""
    k = mean_q.shape[0]
    diff = mean_p - mean_q
    solve_cov = np.linalg.solve(cov_p, cov_q)
    quad = float(diff @ np.linalg.solve(cov_p, diff))
    _, logdet_p = np.linalg.slogdet(cov_p)
    _, logdet_q = np.linalg.slogdet(cov_q)
    return 0.5 * (np.trace(solve_cov) + quad - k + logdet_p - logdet_q)


def latent_kl_bound_check(
    dec: LatentDecoder, q_mean, q_cov=1.0
) -> KlBoundResult:
    """Compare latent and marginal divergences for a frozen linear decoder.

    With prior N(0, I) and a Gaussian latent replacement N(m, S), both KLs
    are exact: the latent one directly, the marginal one between
    N(Am, A S A^T + s^2 I) and N(0, A A^T + s^2 I).  The marginal divergence
    can never exceed the latent one.
    """
    m = np.atleast_1d(np.asarray(q_mean, dtype=float))
    if m.shape[0] != dec.latent_dim:
        raise ContractError("latent mean has wrong dimension")
    s_q = _full_cov(q_cov, dec.latent_dim)
    kl_latent = _gaussian_kl(m, s_q, np.zeros(dec.latent_dim), np.eye(dec.latent_dim))
    a = dec.weights
    cov_marg_q = a @ s_q @ a.T + dec.noise_variance * np.eye(dec.data_dim)
    cov_marg_p = dec.marginal_covariance()
    kl_marginal = _gaussian_kl(a @ m, cov_marg_q, np.zeros(dec.data_dim), cov_marg_p)
    margin = kl_latent - kl_marginal
    return KlBoundResult(
        kl_latent=float(kl_latent),
        kl_marginal=float(kl_marginal),
        holds=kl_marginal <= kl_latent + 1e-10,
        margin=float(margin),
    )
