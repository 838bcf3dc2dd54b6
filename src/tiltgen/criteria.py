"""Differentiable criteria with normalization and latent lifting.

A criterion is a scalar function of a sample point together with its input
gradient.  Constructors cover the built-in families: linear scores,
classifier-based targets (probability, log-probability, prediction entropy),
density log-ratios for adversarial refinement, and peak / windowed-mean
summaries of curve-valued samples.

Criteria are immutable and their ``value``/``grad`` are pure, so batch
evaluation can be parallelized freely.
"""

from __future__ import annotations

import numpy as np

from .dists import (
    Distribution,
    GaussianMixture,
    LatentDecoder,
    _as_batch,
    _map_rows,
    _sample_chunks,
)
from .errors import ContractError, DegenerateCriterionError, NumericError
from .rng import make_generator

LOG_PROB_FLOOR = -30.0


class Criterion:
    """Scalar criterion f with value and input gradient.

    ``value`` maps (n, d) points to (n,) reals; ``grad`` returns the
    matching (n, d) input gradients.  A subclass defines ``value`` and one of
    ``grad`` or ``value_and_grad``; the other derives from it.
    """

    label = "criterion"
    dim: int  # input dimension

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x):
        """``(value(x), grad(x))``; override to share work between them."""
        if type(self).grad is Criterion.grad:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither grad nor value_and_grad"
            )
        return self.value(x), self.grad(x)

    def _batch(self, x) -> np.ndarray:
        """``x`` as (n, dim) points; any other shape is a ``ContractError``."""
        return _as_batch(x, self.dim)


class LinearCriterion(Criterion):
    """f(x) = a . x"""

    def __init__(self, coefficients, label: str = "linear"):
        self.coefficients = np.atleast_1d(np.asarray(coefficients, dtype=float)).copy()
        if not np.isfinite(self.coefficients).all():
            raise ContractError("linear coefficients must be finite")
        self.dim = self.coefficients.shape[0]
        self.label = label
        self.coefficients.flags.writeable = False

    def value(self, x):
        batch = self._batch(x)
        return batch @ self.coefficients

    def grad(self, x):
        batch = self._batch(x)
        return np.broadcast_to(self.coefficients, batch.shape).copy()


class AffineNormalizedCriterion(Criterion):
    """(f - shift) / scale; the gradient is rescaled by 1/scale."""

    def __init__(self, base: Criterion, shift: float, scale: float):
        if not (np.isfinite(shift) and 0.0 < scale < np.inf):
            raise ContractError("normalization needs a finite shift and a positive, finite scale")
        self.base = base
        self.shift = float(shift)
        self.scale = float(scale)
        self.dim = base.dim
        self.label = f"{base.label} (normalized)"

    def value(self, x):
        return (self.base.value(x) - self.shift) / self.scale

    def value_and_grad(self, x):
        value, grad = self.base.value_and_grad(x)
        return (value - self.shift) / self.scale, grad / self.scale


def _per_row(f: Criterion, n: int, chunks, what: str, fn) -> np.ndarray:
    """``fn`` of each of ``chunks``, row chunks of ``n`` base-model points in
    all (``dists._map_rows``), one ``what`` per row; a non-finite one raises
    ``NumericError`` naming ``f``."""
    (out,) = _map_rows(lambda rows: (fn(rows),), n, chunks)
    return _finite(f, what, out)


def _finite(f: Criterion, what: str, out: np.ndarray) -> np.ndarray:
    """``out``, ``f``'s ``what`` at base-model points, once it is checked:
    a non-finite entry raises ``NumericError`` naming ``f``."""
    if not np.isfinite(out).all():
        raise NumericError(
            f"criterion {f.label!r} has a non-finite {what} on a base-model sample"
        )
    return out


def normalize_affine(f: Criterion, p: Distribution, n: int, seed: int) -> Criterion:
    """Shift/scale ``f`` so its sample mean and std under ``p`` are 0 and 1.

    The sample is drawn and ``f`` evaluated one row chunk at a time, so
    only the n values are held.  Raises ``DegenerateCriterionError`` when the
    empirical variance is zero (a constant criterion cannot drive any tilt),
    and ``NumericError`` when a value is non-finite.
    """
    if n < 2:
        raise ContractError("normalization needs at least 2 samples")
    values = _per_row(f, n, _sample_chunks(p, n, seed), "value", f.value)
    shift = float(values.mean())
    scale = float(values.std(ddof=1))
    if not np.isfinite(scale) or scale < 1e-12 * max(1.0, abs(shift)):
        raise DegenerateCriterionError(
            f"criterion {f.label!r} has zero empirical variance under the base model"
        )
    return AffineNormalizedCriterion(f, shift, scale)


# ---------------------------------------------------------------------------
# Classifier-based criteria


class LogisticClassifier:
    """Binary classifier h(1|x) = sigmoid(w.x + b) with analytic gradients."""

    def __init__(self, weights, bias: float = 0.0):
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float)).copy()
        self.bias = float(bias)
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise ContractError("logistic weights and bias must be finite")
        self.dim = self.weights.shape[0]
        self.num_classes = 2
        self.weights.flags.writeable = False

    def _logit(self, batch):
        return batch @ self.weights + self.bias

    def log_probabilities(self, batch) -> np.ndarray:
        z = self._logit(batch)
        # log sigma(+-z) = -softplus(-+z) = min(+-z, 0) - log1p(exp(-|z|)):
        # one softplus tail serves both classes, stable on both tails
        tail = np.abs(z)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        out = np.empty((z.shape[0], 2))
        np.minimum(-z, 0.0, out=out[:, 0])
        np.minimum(z, 0.0, out=out[:, 1])
        out -= tail[:, None]
        return out

    def log_probabilities_and_grads(self, batch, labels):
        # exp overflows to inf below a logit of about -709: sigma is then 0
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-self._logit(batch)))
        grads = [((1.0 - sig) if label == 1 else -sig)[:, None] * self.weights
                 for label in labels]
        return self.log_probabilities(batch), grads


class BayesPosteriorClassifier:
    """Exact posterior p(component | x) of a Gaussian mixture.

    grad log h(c|x) = score of component c minus score of the mixture.
    """

    def __init__(self, mixture: GaussianMixture):
        self.mixture = mixture
        self.dim = mixture.dim
        self.num_classes = len(mixture.components)

    def log_probabilities(self, batch) -> np.ndarray:
        resp = self.mixture.responsibilities(batch)
        return np.log(np.maximum(resp, 1e-300))

    def log_probabilities_and_grads(self, batch, labels):
        _, resp, comp_scores, score = self.mixture.posterior_terms(batch)
        log_p = np.log(np.maximum(resp, 1e-300))
        return log_p, [comp_scores[:, label] - score for label in labels]


class ClassifierCriterion(Criterion):
    """Criterion built from a probabilistic classifier.

    form "prob"      -- f = h(target | x)
    form "log-prob"  -- f = log h(target | x), clamped at ``LOG_PROB_FLOOR``
                        with zero gradient below it (keeps the objective
                        finite when the classifier saturates, without adding
                        spurious gradient)
    form "entropy"   -- f = entropy of the prediction (debugging aid)

    A classifier offers ``dim``, ``num_classes``, ``log_probabilities(batch)``
    (n, k) and ``log_probabilities_and_grads(batch, labels)``: the same
    log-probabilities and, per label c, the input gradient of log h(c | x).
    """

    FORMS = ("prob", "log-prob", "entropy")

    def __init__(self, classifier, target_class: int = 1, form: str = "log-prob"):
        if form not in self.FORMS:
            raise ContractError(f"unknown classifier criterion form {form!r}")
        if form != "entropy" and not 0 <= target_class < classifier.num_classes:
            raise ContractError("target class out of range")
        self.classifier = classifier
        self.target_class = int(target_class)
        self.form = form
        self.dim = classifier.dim
        if form == "entropy":
            self.label = "classifier-entropy"
        else:
            self.label = f"class-{form}[{target_class}]"

    def _value_from(self, log_p):
        if self.form == "prob":
            return np.exp(log_p[:, self.target_class])
        if self.form == "log-prob":
            return np.maximum(log_p[:, self.target_class], LOG_PROB_FLOOR)
        return -np.sum(np.exp(log_p) * log_p, axis=1)

    def value(self, x):
        batch = self._batch(x)
        return self._value_from(self.classifier.log_probabilities(batch))

    def value_and_grad(self, x):
        batch = self._batch(x)
        entropy = self.form == "entropy"
        labels = range(self.classifier.num_classes) if entropy else (self.target_class,)
        log_p, grads = self.classifier.log_probabilities_and_grads(batch, labels)
        value = self._value_from(log_p)
        if entropy:
            grad = np.zeros_like(batch)
            for c, g in zip(labels, grads):
                # d(-sum p log p) = -sum (log p) dp, since sum dp = 0
                grad -= (np.exp(log_p[:, c]) * log_p[:, c])[:, None] * g
        elif self.form == "prob":
            grad = np.exp(log_p[:, self.target_class])[:, None] * grads[0]
        else:
            above = log_p[:, self.target_class] > LOG_PROB_FLOOR
            grad = np.where(above[:, None], grads[0], 0.0)
        return value, grad


# ---------------------------------------------------------------------------
# Density-ratio and curve criteria


class AdversarialCriterion(Criterion):
    """f(x) = log p_data(x) - log p_model(x); gradient is the score difference."""

    def __init__(self, p_model: Distribution, p_data: Distribution):
        if p_model.dim != p_data.dim:
            raise ContractError("model and data distributions must share dimension")
        self.p_model = p_model
        self.p_data = p_data
        self.dim = p_model.dim
        self.label = "log-density-ratio"

    def value(self, x):
        return self.p_data.log_density(x) - self.p_model.log_density(x)

    def value_and_grad(self, x):
        log_data, score_data = self.p_data.log_density_and_score(x)
        log_model, score_model = self.p_model.log_density_and_score(x)
        return log_data - log_model, score_data - score_model


def _check_window(window, dim: int) -> tuple[int, int]:
    start, stop = int(window[0]), int(window[1])
    if not (0 <= start < stop <= dim):
        raise ContractError(
            f"window [{start}, {stop}) empty or outside curve length {dim}"
        )
    return start, stop


class PeakCriterion(Criterion):
    """Smoothed maximum over a window: tau * log-sum-exp(x / tau).

    Always >= the hard max over the window; tends to it as tau -> 0.
    """

    def __init__(self, dim: int, window, temperature: float):
        if not 0.0 < temperature < np.inf:
            raise ContractError("temperature must be positive and finite")
        self.dim = int(dim)
        self.window = _check_window(window, self.dim)
        self.temperature = float(temperature)
        self.label = f"soft-peak[{self.window[0]}:{self.window[1]}]"

    def value(self, x):
        batch = self._batch(x)
        w = batch[:, self.window[0] : self.window[1]] / self.temperature
        m = w.max(axis=1)
        return self.temperature * (np.log(np.exp(w - m[:, None]).sum(axis=1)) + m)

    def grad(self, x):
        batch = self._batch(x)
        w = batch[:, self.window[0] : self.window[1]] / self.temperature
        w -= w.max(axis=1, keepdims=True)
        soft = np.exp(w)
        soft /= soft.sum(axis=1, keepdims=True)
        out = np.zeros_like(batch)
        out[:, self.window[0] : self.window[1]] = soft
        return out


class WindowMeanCriterion(LinearCriterion):
    """Mean over a window minus the mean over the whole curve: a linear
    criterion whose coefficients are set by the window."""

    def __init__(self, dim: int, window):
        dim = int(dim)
        self.window = _check_window(window, dim)
        g = np.full(dim, -1.0 / dim)
        g[self.window[0] : self.window[1]] += 1.0 / (self.window[1] - self.window[0])
        super().__init__(g, label=f"window-mean[{self.window[0]}:{self.window[1]}]")


def default_peak_temperature(p: Distribution, n: int, seed: int) -> float:
    """Declared default smoothing scale: 0.05 x std of curve values under p."""
    samples = p.sample(n, seed)
    return 0.05 * float(samples.std())


# ---------------------------------------------------------------------------
# Latent lifting


class LatentCriterion(Criterion):
    """Criterion on latent space: f_hat(z) = E_{x ~ p(x|z)} f(x).

    The expectation is a Monte-Carlo mean over ``mc_samples`` decoder noise
    draws that are frozen at construction (common random numbers), so value
    and grad are pure deterministic functions of z.  The gradient is the
    pathwise estimator A^T grad f(A z + sigma eps), unbiased because the
    decoder is frozen.  With a deterministic decoder (sigma^2 = 0) the lift
    is exact: f_hat(z) = f(A z).
    """

    def __init__(self, base: Criterion, decoder: LatentDecoder, mc_samples: int, seed: int = 0):
        if mc_samples < 1:
            raise ContractError("mc_samples must be >= 1")
        if base.dim != decoder.data_dim:
            raise ContractError("criterion dimension must match decoder output")
        self.base = base
        self.decoder = decoder
        self.mc_samples = 1 if decoder.noise_variance == 0.0 else int(mc_samples)
        self.dim = decoder.latent_dim
        self.label = f"{base.label} (latent)"
        if decoder.noise_variance > 0.0:
            rng = make_generator(seed)
            self._eps = rng.standard_normal((self.mc_samples, decoder.data_dim))
        else:
            self._eps = np.zeros((1, decoder.data_dim))
        self._sigma = np.sqrt(decoder.noise_variance)

    def value(self, z):
        batch = self._batch(z)
        mean = batch @ self.decoder.weights.T
        total = np.zeros(batch.shape[0])
        for eps in self._eps:
            total += self.base.value(mean + self._sigma * eps)
        return total / self.mc_samples

    def value_and_grad(self, z):
        batch = self._batch(z)
        mean = batch @ self.decoder.weights.T
        value = np.zeros(batch.shape[0])
        grad = np.zeros_like(batch)
        for eps in self._eps:
            v, g = self.base.value_and_grad(mean + self._sigma * eps)
            value += v
            grad += g @ self.decoder.weights
        value /= self.mc_samples
        grad /= self.mc_samples
        return value, grad
