"""Probability-model abstraction and exactly-evaluable built-ins.

Every distribution here exposes three operations computed in log space:

* ``log_density(x)`` -- exact log p(x), batched,
* ``score(x)`` -- the input gradient of ``log_density`` (analytic per kind),
* ``sample(n, seed)`` -- reproducible draws from an explicit seed.

A built-in samples through one chunked draw, ``_draw``, which yields the
sample one ``_row_chunks`` chunk at a time; ``sample`` fills the chunks into
one array, and the large evaluation passes take them as they are drawn
(``_sample_chunks``), so they hold no (n, dim) sample.

Built-ins are a diagonal Gaussian, a Gaussian mixture with diagonal
components, and the marginal of a linear-Gaussian latent decoder.  All are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError, ContractError
from .rng import make_generator

_LOG_2PI = np.log(2.0 * np.pi)

# Rows per chunk of a pass over many points: the evaluation passes of
# ``_map_rows`` (the flow, the normalization and ``diagnose``'s criterion
# passes) and the built-ins' chunked draws.  A pass holds one chunk's
# temporaries at a time, so its memory does not grow with n.  With the default
# flow, chunks of 2048-8192 rows timed alike on a 2-core box, and about a
# quarter faster than one batch of 50 000 rows.
EVAL_CHUNK_ROWS = 4096


def _row_chunks(n: int):
    """Consecutive slices of ``EVAL_CHUNK_ROWS`` rows that cover ``range(n)``;
    the last one may be shorter, or one row longer."""
    start = 0
    while start < n:
        # a lone last row would take BLAS's matrix-vector product, which
        # rounds differently from the same row inside a batch: keep it with
        # the chunk before it
        stop = n if n - start <= EVAL_CHUNK_ROWS + 1 else start + EVAL_CHUNK_ROWS
        yield slice(start, stop)
        start = stop


def _map_rows(fn, n: int, chunks) -> tuple:
    """``fn`` of each of ``chunks``, consecutive row chunks of ``n`` rows in
    all, filled into fresh arrays: ``fn`` returns a tuple of float arrays with
    one entry per row of its chunk, and the map the tuple of whole arrays."""
    outs = None
    start = 0
    for chunk in chunks:
        parts = fn(chunk)
        if outs is None:
            outs = tuple(np.empty((n, *part.shape[1:])) for part in parts)
        stop = start + chunk.shape[0]
        for out, part in zip(outs, parts):
            out[start:stop] = part
        start = stop
    return outs


def _chunks_of(x: np.ndarray):
    """The ``_row_chunks`` of the array ``x``; an empty ``x`` is one empty chunk."""
    if x.shape[0] == 0:
        return [x]
    return (x[rows] for rows in _row_chunks(x.shape[0]))


def _sample_chunks(p: "Distribution", n: int, seed: int):
    """``p.sample(n, seed)`` in ``_row_chunks``, drawn one chunk at a time.

    A built-in's chunks come from its chunked draw, so no (n, dim) sample is
    held.  A distribution that overrides ``sample`` is drawn whole through
    its override and then sliced.  The check is on the class attribute, which
    a wrapper installed on ``Distribution.sample`` leaves in place."""
    if type(p).sample is not Distribution.sample:
        return _chunks_of(p.sample(n, seed))
    if n < 1:
        raise ContractError("sample count must be >= 1")
    return p._draw(n, seed)


def _as_batch(x, dim: int) -> np.ndarray:
    """``x`` as a float array of points; any shape but (n, dim) is a
    ``ContractError``."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ContractError(f"expected points of shape (n, {dim}), got shape {arr.shape}")
    return arr


class Distribution:
    """Common interface: ``dim``, ``kind``, log_density / score / sample."""

    dim: int
    kind: str

    def log_density(self, x):
        raise NotImplementedError

    def score(self, x):
        return self.log_density_and_score(x)[1]

    def log_density_and_score(self, x):
        """``(log_density(x), score(x))``; override to share work between them."""
        if type(self).score is Distribution.score:
            raise CapabilityError(f"no analytic score for kind {self.kind!r}")
        return self.log_density(x), self.score(x)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """``n`` reproducible draws from ``seed``: the chunks of ``_draw``
        filled into one (n, dim) array."""
        if n < 1:
            raise ContractError("sample count must be >= 1")
        (x,) = _map_rows(lambda chunk: (chunk,), n, self._draw(n, seed))
        return x

    def _draw(self, n: int, seed: int):
        """Yield ``sample(n, seed)`` one ``_row_chunks`` chunk at a time.

        A built-in defines this and not ``sample``, so a sample drawn whole
        and one streamed through ``_sample_chunks`` are the same bytes."""
        raise NotImplementedError


class DiagGaussian(Distribution):
    """Gaussian with diagonal covariance.

    Parameters
    ----------
    mean : array of shape (dim,)
    variance : array of shape (dim,), strictly positive
    """

    kind = "diag-gaussian"

    def __init__(self, mean, variance):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float)).copy()
        self.variance = np.atleast_1d(np.asarray(variance, dtype=float)).copy()
        if self.mean.shape != self.variance.shape or self.mean.ndim != 1:
            raise ContractError("mean and variance must be 1-d arrays of equal length")
        if np.any(self.variance <= 0.0):
            raise ContractError("variances must be strictly positive")
        self.dim = self.mean.shape[0]
        self._log_norm = 0.5 * np.sum(_LOG_2PI + np.log(self.variance))
        self._std = np.sqrt(self.variance)
        self.mean.flags.writeable = False
        self.variance.flags.writeable = False

    @classmethod
    def standard(cls, dim: int) -> "DiagGaussian":
        return cls(np.zeros(dim), np.ones(dim))

    def log_density(self, x):
        batch = _as_batch(x, self.dim)
        diff = batch - self.mean
        return -0.5 * np.sum(diff * diff / self.variance, axis=1) - self._log_norm

    def log_density_and_score(self, x):
        batch = _as_batch(x, self.dim)
        diff = batch - self.mean
        log_p = -0.5 * np.sum(diff * diff / self.variance, axis=1) - self._log_norm
        score = -diff / self.variance
        return log_p, score

    def _draw(self, n: int, seed: int):
        rng = make_generator(seed)
        for rows in _row_chunks(n):
            # one stream: the chunks' normals are those of one (n, dim) draw
            z = rng.standard_normal((rows.stop - rows.start, self.dim))
            # in place, the same bytes as mean + z * std
            z *= self._std
            z += self.mean
            yield z

    def entropy(self) -> float:
        """Differential entropy, 0.5 * sum(1 + log(2 pi variance))."""
        return 0.5 * np.sum(1.0 + _LOG_2PI + np.log(self.variance))


class GaussianMixture(Distribution):
    """Finite mixture of diagonal Gaussians.

    Weights must be nonnegative and sum to 1 within 1e-12.  Sampling draws
    an exact categorical component index, then the component.
    """

    kind = "gaussian-mixture"

    def __init__(self, weights, components):
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float)).copy()
        self.components = tuple(components)
        if self.weights.ndim != 1:
            raise ContractError("mixture weights must be a 1-d array")
        if len(self.components) != self.weights.shape[0]:
            raise ContractError("one weight per component required")
        if np.any(self.weights < 0.0):
            raise ContractError("mixture weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ContractError("mixture weights must sum to 1 within 1e-12")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise ContractError("all components must share one dimension")
        self.dim = dims.pop()
        # a zero weight gets log weight -inf, so its component carries no density
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(self.weights)
        self._std = np.sqrt(np.stack([c.variance for c in self.components]))
        self._mean = np.stack([c.mean for c in self.components])
        self.weights.flags.writeable = False

    def _shifted_weights(self, component_log_densities):
        """exp(joint - m), its row sums and m, the row max of the joint
        log-weights log w_k + log p_k(x)."""
        joint = component_log_densities + self._log_weights
        m = joint.max(axis=1, keepdims=True)
        joint -= m
        w = np.exp(joint, out=joint)
        return w, w.sum(axis=1, keepdims=True), m

    def _component_log_densities(self, batch) -> np.ndarray:
        return np.stack(
            [c.log_density(batch) for c in self.components], axis=1
        )  # (n, k)

    def log_density(self, x):
        batch = _as_batch(x, self.dim)
        _, total, m = self._shifted_weights(self._component_log_densities(batch))
        return np.log(total[:, 0]) + m[:, 0]

    def responsibilities(self, x) -> np.ndarray:
        """Posterior component probabilities p(component | x), shape (n, k)."""
        batch = _as_batch(x, self.dim)
        w, total, _ = self._shifted_weights(self._component_log_densities(batch))
        w /= total
        return w

    def posterior_terms(self, x):
        """Log-density (n,), responsibilities (n, k), component scores
        (n, k, d) and mixture score (n, d) of ``x``, from one
        ``log_density_and_score`` call per component."""
        batch = _as_batch(x, self.dim)
        parts = [c.log_density_and_score(batch) for c in self.components]
        comp_scores = np.stack([score for _, score in parts], axis=1)
        w, total, m = self._shifted_weights(np.stack([log_p for log_p, _ in parts], axis=1))
        log_p = np.log(total[:, 0]) + m[:, 0]
        w /= total
        score = np.einsum("nk,nkd->nd", w, comp_scores)
        return log_p, w, comp_scores, score

    def log_density_and_score(self, x):
        log_p, _, _, score = self.posterior_terms(x)
        return log_p, score

    def _draw(self, n: int, seed: int):
        # The stream of one whole draw is n uniforms for the component
        # indices (``choice`` with ``p`` takes one per row), then the normals.
        # Two generators on the same seed walk it in chunks: ``pick`` through
        # the uniforms, ``draw`` past them (discarded) and on through the
        # normals.
        pick, draw = make_generator(seed), make_generator(seed)
        discard = np.empty(min(n, EVAL_CHUNK_ROWS + 1))
        for rows in _row_chunks(n):
            draw.random(out=discard[: rows.stop - rows.start])
        k = len(self.components)
        for rows in _row_chunks(n):
            m = rows.stop - rows.start
            idx = pick.choice(k, size=m, p=self.weights)
            z = draw.standard_normal((m, self.dim))
            # in place; ``take`` gathers the same bytes as fancy indexing, faster
            z *= np.take(self._std, idx, axis=0)
            z += np.take(self._mean, idx, axis=0)
            yield z


class LatentDecoder:
    """Linear-Gaussian decoder x = A z + sigma * eps with standard-normal prior.

    ``noise_variance`` may be zero, in which case the decoder is deterministic
    (x = A z); the marginal density then requires A A^T to be nonsingular.
    """

    def __init__(self, weights, noise_variance: float):
        self.weights = np.atleast_2d(np.asarray(weights, dtype=float)).copy()
        self.noise_variance = float(noise_variance)
        if self.noise_variance < 0.0:
            raise ContractError("observation noise variance must be >= 0")
        self.data_dim, self.latent_dim = self.weights.shape
        self.weights.flags.writeable = False

    def prior(self) -> DiagGaussian:
        return DiagGaussian.standard(self.latent_dim)

    def decode_mean(self, z) -> np.ndarray:
        batch = _as_batch(z, self.latent_dim)
        return batch @ self.weights.T

    def decode(self, z, seed: int) -> np.ndarray:
        """Sample x ~ p(x | z) for each latent row; deterministic if sigma^2=0."""
        mean = self.decode_mean(z)
        if self.noise_variance == 0.0:
            return mean
        rng = make_generator(seed)
        eps = rng.standard_normal(mean.shape)
        return mean + np.sqrt(self.noise_variance) * eps

    def marginal_covariance(self) -> np.ndarray:
        return self.weights @ self.weights.T + self.noise_variance * np.eye(
            self.data_dim
        )

    def marginal(self) -> "DecoderMarginal":
        return DecoderMarginal(self)


class DecoderMarginal(Distribution):
    """Marginal N(0, A A^T + sigma^2 I) of a linear-Gaussian decoder.

    The Cholesky factor is computed lazily: sampling never needs it, so a
    rank-deficient noiseless decoder only fails if its marginal density is
    actually evaluated.
    """

    kind = "latent-decoder"

    def __init__(self, decoder: LatentDecoder):
        self.decoder = decoder
        self.dim = decoder.data_dim
        self._chol = None
        self._log_norm = None

    def _factor(self) -> np.ndarray:
        if self._chol is None:
            try:
                self._chol = np.linalg.cholesky(self.decoder.marginal_covariance())
            except np.linalg.LinAlgError:
                raise ContractError(
                    "marginal covariance A A^T + sigma^2 I is singular; "
                    "need positive noise variance or full-rank decoder"
                ) from None
            self._log_norm = 0.5 * (
                self.dim * _LOG_2PI + 2.0 * np.sum(np.log(np.diag(self._chol)))
            )
        return self._chol

    def _solve(self, batch) -> np.ndarray:
        # Sigma^{-1} x via the Cholesky factor, batched over rows.
        chol = self._factor()
        y = np.linalg.solve(chol, batch.T)
        return np.linalg.solve(chol.T, y).T

    def log_density(self, x):
        batch = _as_batch(x, self.dim)
        quad = np.sum(batch * self._solve(batch), axis=1)
        return -0.5 * quad - self._log_norm

    def entropy(self) -> float:
        self._factor()
        return self._log_norm + 0.5 * self.dim

    def score(self, x):
        batch = _as_batch(x, self.dim)
        return -self._solve(batch)

    def sample(self, n: int, seed: int) -> np.ndarray:
        # drawn whole: the two normal draws share one stream, and the first
        # one's length in words varies, so the second cannot be found cheaply
        if n < 1:
            raise ContractError("sample count must be >= 1")
        rng = make_generator(seed)
        z = rng.standard_normal((n, self.decoder.latent_dim))
        x = z @ self.decoder.weights.T
        if self.decoder.noise_variance > 0.0:
            eps = rng.standard_normal((n, self.dim))
            x = x + np.sqrt(self.decoder.noise_variance) * eps
        return x


def distribution_from_spec(spec: dict) -> Distribution:
    """Construct a built-in distribution from its run-config mapping."""
    kind = spec.get("kind")
    if kind == "diag-gaussian":
        return DiagGaussian(spec["mean"], spec["variance"])
    if kind == "gaussian-mixture":
        comps = [DiagGaussian(c["mean"], c["variance"]) for c in spec["components"]]
        return GaussianMixture(spec["weights"], comps)
    if kind == "latent-decoder":
        return LatentDecoder(spec["weights"], spec["noise_variance"]).marginal()
    raise ContractError(f"unknown distribution kind {kind!r}")
