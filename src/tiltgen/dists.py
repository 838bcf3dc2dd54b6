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


def _diag_gaussian_terms(batch, means, variances, log_norms, scores=None) -> np.ndarray:
    """Log-densities, shape (k, n), at the (n, d) ``batch`` of the k diagonal
    Gaussians whose means and variances are the rows of the (k, d) tables
    ``means`` and ``variances``, with log-normalizers ``log_norms`` (k,).

    ``scores``, a (d, k, n) array (a transposed view of the caller's
    result), receives the scores if given.  The work runs over the d
    coordinate rows of ``batch.T``, each on all k components at once, and
    adds the d squared distances in order.  ``np.sum`` adds fewer than 8
    terms in that order too, so for d < 8 these are the bytes of
    ``-0.5 * np.sum(diff * diff / variance, axis=1) - log_norm``; from 8
    terms on, ``np.sum`` of a C-ordered row adds pairwise and the last bits
    may differ.
    """
    quad = None
    for j, coord in enumerate(batch.T):
        diff = coord - means[:, j, None]
        if scores is not None:
            np.divide(np.negative(diff), variances[:, j, None], out=scores[j])
        diff *= diff
        diff /= variances[:, j, None]
        if quad is None:
            quad = diff
        else:
            quad += diff
    quad *= -0.5
    quad -= log_norms[:, None]
    return quad


class DiagGaussian(Distribution):
    """Gaussian with diagonal covariance.

    Parameters
    ----------
    mean : array of shape (dim,), finite
    variance : array of shape (dim,), finite and strictly positive
    """

    kind = "diag-gaussian"

    def __init__(self, mean, variance):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float)).copy()
        self.variance = np.atleast_1d(np.asarray(variance, dtype=float)).copy()
        if self.mean.shape != self.variance.shape or self.mean.ndim != 1 or self.mean.size == 0:
            raise ContractError("mean and variance must be non-empty 1-d arrays of equal length")
        if not np.all(np.isfinite(self.mean)):
            raise ContractError("the mean must be finite")
        # written so that NaN fails it too
        if not np.all((self.variance > 0.0) & (self.variance < np.inf)):
            raise ContractError("variances must be finite and strictly positive")
        self.dim = self.mean.shape[0]
        self._std = np.sqrt(self.variance)
        self.mean.flags.writeable = False
        self.variance.flags.writeable = False
        # the one-row tables of ``_diag_gaussian_terms``
        self._means = self.mean[None]
        self._variances = self.variance[None]
        self._log_norms = np.array([0.5 * np.sum(_LOG_2PI + np.log(self.variance))])

    @classmethod
    def standard(cls, dim: int) -> "DiagGaussian":
        return cls(np.zeros(dim), np.ones(dim))

    def log_density(self, x):
        batch = _as_batch(x, self.dim)
        return _diag_gaussian_terms(batch, self._means, self._variances, self._log_norms)[0]

    def log_density_and_score(self, x):
        batch = _as_batch(x, self.dim)
        score = np.empty_like(batch)
        log_p = _diag_gaussian_terms(
            batch, self._means, self._variances, self._log_norms, score.T[:, None]
        )[0]
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
    an exact categorical component index, then the component.  Densities
    and scores of all components come from one ``_diag_gaussian_terms``
    pass over tables of their parameters stacked at construction.
    """

    kind = "gaussian-mixture"

    def __init__(self, weights, components):
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float)).copy()
        self.components = tuple(components)
        if self.weights.ndim != 1:
            raise ContractError("mixture weights must be a 1-d array")
        if len(self.components) != self.weights.shape[0]:
            raise ContractError("one weight per component required")
        if not all(isinstance(c, DiagGaussian) for c in self.components):
            raise ContractError("mixture components must be DiagGaussian")
        # both written so that NaN fails them too
        if not np.all(self.weights >= 0.0):
            raise ContractError("mixture weights must be nonnegative")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise ContractError("mixture weights must sum to 1 within 1e-12")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise ContractError("all components must share one dimension")
        self.dim = dims.pop()
        # a zero weight gets log weight -inf, so its component carries no density
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(self.weights)
        self._means = np.concatenate([c._means for c in self.components])
        self._variances = np.concatenate([c._variances for c in self.components])
        self._log_norms = np.concatenate([c._log_norms for c in self.components])
        self._std = np.sqrt(self._variances)
        # the cumulative weights ``Generator.choice`` picks components by
        self._cdf = self.weights.cumsum()
        self._cdf /= self._cdf[-1]
        self.weights.flags.writeable = False

    def _shifted_weights(self, batch, scores=None):
        """exp(joint - m), its sums over the components and m, the max over
        the components of the joint log-weights log w_k + log p_k(x), each
        component a row of (k, n); ``scores`` as in ``_diag_gaussian_terms``.

        The max and the sum run over the k rows with ``np.maximum`` and
        ``+=``: the row max is exact in any order, and for k < 8 the sum
        adds in the order ``sum(axis=1)`` of (n, k) does."""
        joint = _diag_gaussian_terms(batch, self._means, self._variances, self._log_norms, scores)
        joint += self._log_weights[:, None]
        m = joint[0].copy()
        for row in joint[1:]:
            np.maximum(m, row, out=m)
        joint -= m
        w = np.exp(joint, out=joint)
        total = w[0].copy()
        for row in w[1:]:
            total += row
        return w, total, m

    def _responsibilities_from(self, w, total) -> np.ndarray:
        # w / total for the (k, n) ``w``, written as an (n, k) C-ordered array
        resp = np.empty(w.shape[::-1])
        np.divide(w, total, out=resp.T)
        return resp

    def log_density(self, x):
        batch = _as_batch(x, self.dim)
        _, total, m = self._shifted_weights(batch)
        log_p = np.log(total, out=total)
        log_p += m
        return log_p

    def responsibilities(self, x) -> np.ndarray:
        """Posterior component probabilities p(component | x), shape (n, k)."""
        batch = _as_batch(x, self.dim)
        w, total, _ = self._shifted_weights(batch)
        return self._responsibilities_from(w, total)

    def posterior_terms(self, x):
        """Log-density (n,), responsibilities (n, k), component scores
        (n, k, d) and mixture score (n, d) of ``x``, from one pass over all
        components at once."""
        batch = _as_batch(x, self.dim)
        (n, d), k = batch.shape, len(self.components)
        # the component scores are laid out as np.stack lays out per-component
        # scores ``-(batch - mean) / variance``: C-ordered (n, k, d), or
        # (d, n, k) when those are F-ordered.  The einsum's sum over three or
        # more components rounds by that layout (two give the same bytes in
        # either), so the layout keeps the per-component formulas' bytes
        if np.empty_like(batch).flags.c_contiguous:
            comp_scores = np.empty((n, k, d))
        else:
            comp_scores = np.empty((d, n, k)).transpose(1, 2, 0)
        w, total, m = self._shifted_weights(batch, comp_scores.transpose(2, 1, 0))
        resp = self._responsibilities_from(w, total)
        log_p = np.log(total, out=total)
        log_p += m
        score = np.einsum("nk,nkd->nd", resp, comp_scores)
        return log_p, resp, comp_scores, score

    def log_density_and_score(self, x):
        log_p, _, _, score = self.posterior_terms(x)
        return log_p, score

    def _draw(self, n: int, seed: int):
        # The stream of one whole draw is n uniforms for the component
        # indices (``choice`` with ``p`` takes one per row), then the normals.
        # Two generators on the same seed walk it in chunks: ``pick`` through
        # the uniforms, ``draw`` past them and on through the normals.  Philox
        # makes four 64-bit words per counter step and ``random`` takes one
        # word per double, so ``draw`` skips the n uniforms by advancing its
        # counter n // 4 steps and drawing the n % 4 left over.
        pick, draw = make_generator(seed), make_generator(seed)
        draw.bit_generator.advance(n // 4)
        draw.random(n % 4)
        uniforms = np.empty(min(n, EVAL_CHUNK_ROWS + 1))
        picks = np.empty(uniforms.shape, dtype=np.intp)
        for rows in _row_chunks(n):
            m = rows.stop - rows.start
            u, idx = uniforms[:m], picks[:m]
            pick.random(out=u)
            # ``choice``'s pick, ``cdf.searchsorted(u, side="right")``: the
            # count of the cumulative weights at or below u, of which the
            # last (1.0) never is
            idx.fill(0)
            for edge in self._cdf[:-1]:
                idx += u >= edge
            z = draw.standard_normal((m, self.dim))
            # in place; ``take`` gathers the same bytes as fancy indexing, faster
            z *= np.take(self._std, idx, axis=0)
            z += np.take(self._means, idx, axis=0)
            yield z


class LatentDecoder:
    """Linear-Gaussian decoder x = A z + sigma * eps with standard-normal prior.

    ``weights`` and ``noise_variance`` must be finite.  ``noise_variance``
    may be zero, in which case the decoder is deterministic
    (x = A z); the marginal density then requires A A^T to be nonsingular.
    """

    def __init__(self, weights, noise_variance: float):
        self.weights = np.atleast_2d(np.asarray(weights, dtype=float)).copy()
        self.noise_variance = float(noise_variance)
        if not np.all(np.isfinite(self.weights)):
            raise ContractError("decoder weights must be finite")
        # written so that NaN fails it too
        if not 0.0 <= self.noise_variance < np.inf:
            raise ContractError("observation noise variance must be finite and >= 0")
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
