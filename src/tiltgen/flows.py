"""Invertible perturbation models with analytic log-determinants.

A ``FlowModel`` is a stack of three layer types:

* affine-diagonal -- per-dimension log-scale and shift (carries the
  log-determinant; the log-scale is clamped to ``SCALE_CLAMP``),
* additive-coupling -- shifts one half of the coordinates by a tanh MLP of
  the other half with ``HIDDEN_DEPTH`` hidden layers (volume preserving),
  computed in ``CONDITIONER_DTYPE`` (float32),
* permutation -- fixed coordinate reorder (volume preserving).

All layers have exact analytic inverses.  Only the conditioners run in
float32: the parameters (``theta``), the affine layers, the coupling's own
add and subtract, and every log-determinant stay float64.  An additive
coupling is volume preserving whatever its conditioner computes, so the
density of the map the flow computes, ``log q(y) = log p(x) - logdet``, is
exact.  Gradients of any scalar objective of (output, logdet) with respect
to the layer parameters are computed by a hand-written reverse-mode pass;
no autodiff framework is involved, which keeps runs bit-reproducible.

``init_identity`` builds a model whose forward map is exactly the identity:
log-scales and shifts start at zero, conditioner output layers are
zero-initialized, and the inter-block permutations are cancelled by a final
unscrambling permutation.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .dists import _as_batch, _chunks_of, _map_rows
from .errors import ContractError, NumericError
from .rng import derive_seed, make_generator

HIDDEN_DEPTH = 2  # hidden layers of each coupling conditioner
CONDITIONER_DTYPE = np.float32  # the dtype of every conditioner's arithmetic
SCALE_CLAMP = 5.0  # bound on each affine log-scale


def _conditioner_arrays(*arrays):
    """The arrays in ``CONDITIONER_DTYPE``, each uncopied if it already is.

    A finite value beyond that dtype's range raises ``NumericError`` instead
    of turning into inf with a numpy warning."""
    try:
        with np.errstate(over="raise"):
            return [a.astype(CONDITIONER_DTYPE, copy=False) for a in arrays]
    except FloatingPointError:
        name = np.dtype(CONDITIONER_DTYPE).name
        raise NumericError(f"conditioner value beyond the {name} range") from None


class Mlp:
    """Small feed-forward conditioner: tanh hidden layers, linear output.

    Weight matrices are stored as (fan_in, fan_out), in float64 like every
    parameter.  Each pass casts its input, weights and biases to
    ``CONDITIONER_DTYPE`` and computes in it; ``backward`` writes its
    gradients into the caller's float64 arrays.  No cast is kept between
    calls, so the map is always the one the current parameters define.  The
    output layer is zero-initialized so a freshly built conditioner returns
    zeros.

    Every product is ``np.dot``, not ``@``: in a 2-d flow each conditioner
    has fan-in and fan-out 1, and for an inner dimension of 1 ``np.matmul``
    bypasses BLAS for a loop about 4x slower at batch 256.  The two give
    the same bytes on these operands, in float32 as in float64.  The
    backward pass's column sums are BLAS products too, ``np.dot(ones, a)``,
    about 4x cheaper than ``a.sum(axis=0)`` on a (256, 32) array.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases

    @classmethod
    def build(cls, in_dim: int, hidden_width: int, out_dim: int, rng):
        weights, biases = [], []
        fan_in = in_dim
        for _ in range(HIDDEN_DEPTH):
            weights.append(rng.standard_normal((fan_in, hidden_width)) / np.sqrt(fan_in))
            biases.append(np.zeros(hidden_width))
            fan_in = hidden_width
        weights.append(np.zeros((fan_in, out_dim)))
        biases.append(np.zeros(out_dim))
        return cls(weights, biases)

    def forward(self, u: np.ndarray):
        """Returns (output, activations), both in ``CONDITIONER_DTYPE``;
        the first activation is the cast input."""
        last = len(self.weights) - 1
        h, *params = _conditioner_arrays(u, *self.weights, *self.biases)
        acts = [h]
        for i, (w, b) in enumerate(zip(params[: last + 1], params[last + 1 :])):
            # in place on the fresh product: u and earlier acts are untouched
            h = np.dot(h, w)
            h += b
            if i < last:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts, dout: np.ndarray, ones: np.ndarray, grads: list[np.ndarray]):
        """Writes the gradients into ``grads`` (all biases, then all
        weights) and returns d input in ``CONDITIONER_DTYPE``; ``ones`` is a
        ones vector of the batch length, for the bias gradients' column
        sums."""
        last = len(self.weights) - 1
        dbiases, dweights = grads[: last + 1], grads[last + 1 :]
        dh, ones, *weights = _conditioner_arrays(dout, ones, *self.weights)
        for i in range(last, -1, -1):
            if i < last:  # through tanh: dh * (1 - a**2), in one temporary
                t = acts[i + 1] * acts[i + 1]
                np.subtract(1.0, t, out=t)
                t *= dh
                dh = t
            dweights[i][...] = np.dot(acts[i].T, dh)
            dbiases[i][...] = np.dot(ones, dh)
            dh = np.dot(dh, weights[i].T)
        return dh


class AffineDiagonalLayer:
    """y = x * exp(s) + t elementwise, with s clipped to +-``SCALE_CLAMP``.

    logdet = sum(s) per sample.  Clipped coordinates get zero gradient for s.
    """

    kind = "affine-diagonal"

    def __init__(self, dim: int, log_scale=None, shift=None):
        self.dim = dim
        self.scale_clamp = SCALE_CLAMP
        self.log_scale = (
            np.zeros(dim) if log_scale is None else np.asarray(log_scale, dtype=float).copy()
        )
        self.shift = np.zeros(dim) if shift is None else np.asarray(shift, dtype=float).copy()

    def params(self) -> list[np.ndarray]:
        return [self.log_scale, self.shift]

    def set_params(self, params: list[np.ndarray]):
        self.log_scale, self.shift = params

    def _effective(self):
        return np.clip(self.log_scale, -self.scale_clamp, self.scale_clamp)

    def forward(self, x: np.ndarray):
        """Returns (y, logdet, cache); logdet is one float, the same for
        every sample, and the cache holds ``x`` and the scale ``exp(s)``."""
        s = self._effective()
        scale = np.exp(s)
        y = x * scale + self.shift
        return y, s.sum(), (x, scale)

    def inverse(self, y: np.ndarray):
        s = self._effective()
        return (y - self.shift) * np.exp(-s)

    def backward(self, cache, dy: np.ndarray, dlogdet_sum: float, ones, grads):
        x, scale = cache
        ds, dshift = grads
        np.dot(ones, dy * x, out=ds)
        ds *= scale
        ds += dlogdet_sum
        active = np.abs(self.log_scale) < self.scale_clamp
        ds[~active] = 0.0
        np.dot(ones, dy, out=dshift)
        return dy * scale


class AdditiveCouplingLayer:
    """Shift one half of the coordinates by a conditioner of the other half.

    The conditioning (passthrough) half is columns ``parity::2``, the shifted
    half the others.  The conditioner reads an F-ordered copy of its half,
    the layout ``x[:, idx]`` gives: in three or more dimensions a strided
    view's products round differently.  The map is volume preserving:
    logdet = 0.
    """

    kind = "additive-coupling"

    def __init__(self, dim: int, parity: int, mlp: Mlp):
        if dim < 2 or parity not in (0, 1):
            raise ContractError(
                f"a coupling needs dim >= 2 and parity 0 or 1, got dim {dim!r}, parity {parity!r}"
            )
        self.dim = dim
        self.cond = slice(parity, None, 2)
        self.shifted = slice(1 - parity, None, 2)
        self.mlp = mlp

    def params(self) -> list[np.ndarray]:
        return self.mlp.biases + self.mlp.weights

    def set_params(self, params: list[np.ndarray]):
        n = len(self.mlp.biases)
        self.mlp.biases, self.mlp.weights = params[:n], params[n:]

    def forward(self, x: np.ndarray):
        shift, acts = self.mlp.forward(np.asfortranarray(x[:, self.cond]))
        y = x.copy()
        y[:, self.shifted] += shift
        return y, 0.0, acts

    def inverse(self, y: np.ndarray):
        shift, _ = self.mlp.forward(np.asfortranarray(y[:, self.cond]))
        x = y.copy()
        x[:, self.shifted] -= shift
        return x

    def backward(self, cache, dy: np.ndarray, dlogdet_sum: float, ones, grads):
        du = self.mlp.backward(cache, dy[:, self.shifted], ones, grads)
        dx = dy.copy()
        dx[:, self.cond] += du
        return dx


class PermutationLayer:
    """Fixed coordinate permutation; no parameters, logdet = 0."""

    kind = "permutation"

    def __init__(self, perm):
        self.perm = np.asarray(perm, dtype=int).copy()
        self.inv = np.argsort(self.perm)
        self.dim = self.perm.shape[0]

    def params(self) -> list[np.ndarray]:
        return []

    def set_params(self, params: list[np.ndarray]):
        pass

    def forward(self, x: np.ndarray):
        return x[:, self.perm], 0.0, None

    def inverse(self, y: np.ndarray):
        return y[:, self.inv]

    def backward(self, cache, dy: np.ndarray, dlogdet_sum: float, ones, grads):
        return dy[:, self.inv]


class FlowGradients:
    """Parameter gradients in one vector, laid out like ``FlowModel.theta``."""

    def __init__(self, vector: np.ndarray, layer_views: list[list[np.ndarray]]):
        self.vector = vector
        self._layer_views = layer_views

    def flat(self) -> list[np.ndarray]:
        """Views of ``vector`` shaped and ordered like ``FlowModel.parameters()``."""
        return [g for views in self._layer_views for g in views]


class FlowModel:
    """Ordered stack of invertible layers acting on dimension ``dim``.

    All parameters live in one contiguous float64 vector, ``theta``; each
    layer's arrays are views into it, laid out in ``parameters()`` order:
    layer by layer, an affine layer's ``log_scale, shift`` and a coupling
    layer's conditioner biases, then its weights.
    Updating ``theta`` in place updates every layer at once.  The model
    takes ownership of ``layers``: their arrays are rebound into the new
    ``theta``, so layer objects must not be shared between models (use
    ``copy()`` instead).
    """

    def __init__(self, dim: int, layers: list):
        self.dim = int(dim)
        self.layers = list(layers)
        for layer in self.layers:
            if layer.dim != self.dim:
                raise ContractError("all layers must act on the model dimension")
        self._bind_theta()

    def _bind_theta(self):
        """Copy the layers' parameters into a fresh ``theta``, record each
        array's slice of it and rebind every layer's arrays as views of it."""
        params = self.parameters()
        self.theta = np.concatenate([p.ravel() for p in params]) if params else np.zeros(0)
        self._layout, offset = [], 0
        for layer in self.layers:
            spans = []
            for p in layer.params():
                spans.append((slice(offset, offset + p.size), p.shape))
                offset += p.size
            self._layout.append(spans)
        for layer, views in zip(self.layers, self._layer_views(self.theta)):
            layer.set_params(views)

    def _layer_views(self, vector: np.ndarray) -> list[list[np.ndarray]]:
        """Per layer, the views of ``vector`` laid out like its parameters."""
        return [[vector[k].reshape(shape) for k, shape in spans] for spans in self._layout]

    # -- evaluation ---------------------------------------------------------

    def _forward_cached(self, batch: np.ndarray, keep: bool = True):
        """Returns (y, logdet, caches).  With ``keep=False`` (evaluation
        only) ``caches`` is empty and each layer's cache is freed as soon as
        the layer returns, so the pass holds one layer's activations at a
        time instead of every layer's."""
        # each layer's logdet is one float for the whole batch; summing the
        # floats and broadcasting once adds what a per-sample array would
        h = batch
        total = 0.0
        caches = []
        try:
            for layer in self.layers:
                if keep:
                    h, ld, cache = layer.forward(h)
                    caches.append(cache)
                else:
                    # no name may stay bound to the cache into the next layer
                    h, ld = layer.forward(h)[:2]
                total += ld
        except NumericError:  # a conditioner cast overflowed
            self._raise_first_non_finite(batch)
        logdet = np.full(batch.shape[0], total)
        # Every layer maps a non-finite coordinate to a non-finite one, so a
        # single check at the end detects what a per-layer check would.
        if not (np.isfinite(h).all() and np.isfinite(logdet).all()):
            self._raise_first_non_finite(batch)
        return h, logdet, caches

    def _raise_first_non_finite(self, batch: np.ndarray):
        """Re-run the layers one by one and name the first non-finite one,
        or the first whose conditioner cast overflows."""
        h = batch
        with np.errstate(all="ignore"):
            for i, layer in enumerate(self.layers):
                try:
                    h, ld = layer.forward(h)[:2]
                except NumericError as err:
                    raise NumericError(f"{err} at layer {i} ({layer.kind})") from None
                if not (np.all(np.isfinite(h)) and math.isfinite(ld)):
                    raise NumericError(f"non-finite output at layer {i} ({layer.kind})")
        raise NumericError("non-finite accumulated log-determinant")

    def forward(self, x):
        """Map points forward; returns (y, logdet) with logdet per sample.

        An evaluation pass: ``_forward_cached(chunk, keep=False)`` mapped
        over the row chunks of ``dists._map_rows``, so it holds one layer's
        activations of one chunk at a time, and a non-finite chunk still
        names its first non-finite layer."""
        batch = _as_batch(x, self.dim)
        return _map_rows(
            lambda chunk: self._forward_cached(chunk, keep=False)[:2],
            batch.shape[0], _chunks_of(batch),
        )

    def inverse(self, y):
        """Invert the stack; returns (x, logdet) where logdet is the forward
        log-determinant evaluated at x (constant per sample for these layers)."""
        batch = _as_batch(y, self.dim)
        h = batch
        for i, layer in reversed(list(enumerate(self.layers))):
            try:
                h = layer.inverse(h)
            except NumericError as err:  # a conditioner cast overflowed
                raise NumericError(f"{err} at layer {i} ({layer.kind})") from None
        logdet = np.full(batch.shape[0], self.constant_logdet())
        return h, logdet

    def constant_logdet(self) -> float:
        """The stack's log|det J|; x-independent for these layer types."""
        total = 0.0
        for layer in self.layers:
            if isinstance(layer, AffineDiagonalLayer):
                total += layer._effective().sum()
        return float(total)

    # -- gradients ----------------------------------------------------------

    def _backward_cached(self, caches, dy: np.ndarray, dlogdet: np.ndarray):
        """Returns (gradients, d input).  Each layer's ``backward(cache, dy,
        dlogdet_sum, ones, grads)`` writes its gradients into ``grads``, its
        views of one fresh vector, and returns d input."""
        vector = np.empty(self.theta.size)
        # column sums and products round by memory order, so take dy in C
        # order whatever the caller's: then its layout cannot change a fit
        dh = np.ascontiguousarray(dy)
        ones = np.ones(dh.shape[0])
        # a layer's logdet is the same for every sample, so its parameters
        # see only the sum of dlogdet
        dlogdet_sum = dlogdet.sum()
        layer_views = self._layer_views(vector)
        for layer, cache, grads in reversed(list(zip(self.layers, caches, layer_views))):
            dh = layer.backward(cache, dh, dlogdet_sum, ones, grads)
        return FlowGradients(vector, layer_views), dh

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays (views of ``theta``), ordered as
        FlowGradients.flat()."""
        return [p for layer in self.layers for p in layer.params()]

    def copy(self) -> "FlowModel":
        # deepcopy copies each view on its own; rebinding restores the aliasing
        new = copy.deepcopy(self)
        new._bind_theta()
        return new


@dataclass(frozen=True)
class FlowArchitecture:
    """Stack shape: ``blocks`` repetitions of [affine-diagonal, coupling pair],
    seeded permutations between blocks (cancelled at the end), and a closing
    affine-diagonal layer.  ``blocks=0`` is the affine-only flow; each
    conditioner has ``HIDDEN_DEPTH`` hidden layers of ``hidden_width``."""

    blocks: int = 2
    hidden_width: int = 32

    def __post_init__(self):
        if self.blocks < 0:
            raise ContractError(f"blocks must be >= 0, got {self.blocks!r}")
        if self.hidden_width < 1:
            raise ContractError(f"hidden_width must be >= 1, got {self.hidden_width!r}")


def init_identity(dim: int, arch: FlowArchitecture = FlowArchitecture(), seed: int = 0) -> FlowModel:
    """Build a flow whose forward map is exactly the identity.

    Conditioner hidden weights are seeded (so two seeds differ there), but
    zero output layers, zero log-scales/shifts, and self-cancelling
    permutations make forward(x) = x and logdet = 0 exactly at init.
    """
    if dim < 1:
        raise ContractError("dimension must be >= 1")
    rng = make_generator(derive_seed(seed, "flow-init"))
    layers: list = []
    net_perm = np.arange(dim)
    for b in range(arch.blocks):
        layers.append(AffineDiagonalLayer(dim))
        if dim >= 2:
            for parity in (0, 1):
                cond = len(range(parity, dim, 2))
                mlp = Mlp.build(cond, arch.hidden_width, dim - cond, rng)
                layers.append(AdditiveCouplingLayer(dim, parity, mlp))
            if b < arch.blocks - 1:
                perm = rng.permutation(dim)
                if np.array_equal(perm, np.arange(dim)):
                    perm = np.roll(perm, 1)
                layers.append(PermutationLayer(perm))
                net_perm = net_perm[perm]
    if not np.array_equal(net_perm, np.arange(dim)):
        layers.append(PermutationLayer(np.argsort(net_perm)))
    layers.append(AffineDiagonalLayer(dim))
    return FlowModel(dim, layers)
