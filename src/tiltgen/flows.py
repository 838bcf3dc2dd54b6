"""Invertible perturbation models with analytic log-determinants.

A ``FlowModel`` is a stack of two layer types:

* affine-diagonal -- per-dimension log-scale and shift (carries the
  log-determinant; the log-scale is clamped to ``SCALE_CLAMP``),
* additive-coupling -- shifts one half of the coordinates by a tanh MLP of
  the other half with ``HIDDEN_DEPTH`` hidden layers (volume preserving),
  computed in ``CONDITIONER_DTYPE`` (float32).

The couplings of a block alternate halves, columns ``0::2`` then ``1::2``,
so every coordinate is shifted once per block, with no permutation layer
between blocks (NICE, Dinh et al. arXiv 1410.8516; RealNVP, arXiv
1605.08803).  In two dimensions that is every conditioning there is.  From
three up the split is the same in every block, so columns of one parity
never condition each other: in 3-d, x0 and x2 are shifted by functions of
x1 alone.

All layers have exact analytic inverses.  Only the conditioners run in
float32: the parameters (``theta``), the affine layers, the coupling's own
add and subtract, and every log-determinant stay float64.  An additive
coupling is volume preserving whatever its conditioner computes, so the
density of the map the flow computes, ``log q(y) = log p(x) - logdet``, is
exact.  Gradients of any scalar objective of (output, logdet) with respect
to the layer parameters are computed by a hand-written reverse-mode pass;
no autodiff framework is involved, which keeps runs bit-reproducible.

Each pass casts the conditioners' parameters from theta once, into a block
whose per-conditioner views it hands down; the conditioners write their
gradients in place into a ``CONDITIONER_DTYPE`` block, the affine layers
into a float64 one, and one concatenate makes the gradient vector.  A fit
hands each step's caches to the next step's pass, which refills their
arrays instead of allocating; every other pass gets fresh arrays.  The
conditioners of one backward pass share one set of scratch arrays.  Either
way a pass computes the same bytes.

``init_identity`` builds a model whose forward map is exactly the identity:
log-scales and shifts start at zero and conditioner output layers are
zero-initialized.
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


def _cast(a: np.ndarray, out=None, order="K") -> np.ndarray:
    """``a`` in ``CONDITIONER_DTYPE``, written into ``out`` if given, else
    into a fresh array of memory order ``order`` (``"K"``: ``a``'s).

    A finite value beyond that dtype's range raises ``NumericError`` instead
    of turning into inf with a numpy warning."""
    if out is None:
        out = np.empty_like(a, dtype=CONDITIONER_DTYPE, order=order)
    try:
        with np.errstate(over="raise"):
            np.copyto(out, a)
    except FloatingPointError:
        name = np.dtype(CONDITIONER_DTYPE).name
        raise NumericError(f"conditioner value beyond the {name} range") from None
    return out


def _copy(a: np.ndarray, out=None) -> np.ndarray:
    """``a.copy()`` (C order), into ``out`` if given."""
    if out is None:
        return a.copy()
    np.copyto(out, a)
    return out


def _views(vector: np.ndarray, spans) -> list[np.ndarray]:
    """The views of ``vector`` that one layer's ``_layout`` spans describe."""
    return [vector[k].reshape(shape) for k, shape in spans]


class Mlp:
    """Small feed-forward conditioner: tanh hidden layers, linear output.

    Weight matrices are stored as (fan_in, fan_out), in float64 like every
    parameter.  Each pass computes in ``CONDITIONER_DTYPE`` on ``params``,
    the biases then the weights already cast: a flow pass casts every
    conditioner's parameters once, from ``theta``, and hands each conditioner
    its views.  Called without them, a pass casts its own.  No cast outlives
    a pass, so the map is always the one the current parameters define.  The
    output layer is zero-initialized so a freshly built conditioner returns
    zeros.

    ``out`` (forward) holds a previous call's arrays for the same batch
    shape, which the call refills in place instead of allocating; a fit
    passes them from step to step.  ``temps`` (backward) holds scratch
    arrays that die with the call, so the conditioners of one flow pass
    share them; on a fit's refilled pass they also carry over to the next
    step.  Each is a C-ordered product or elementwise result, keyed by its
    name and its width (the batch length is the pass's), so conditioners
    of any widths share them and sharing keeps the bytes.

    Every product is ``np.dot``, not ``@``: in a 2-d flow each conditioner
    has fan-in and fan-out 1, and for an inner dimension of 1 ``np.matmul``
    bypasses BLAS for a loop about 4x slower at batch 256.  The two give
    the same bytes on these operands, in float32 as in float64, and so does
    ``np.dot`` writing into ``out=``.  The backward pass's column sums are
    BLAS products too, ``np.dot(ones, a)``, about 4x cheaper than
    ``a.sum(axis=0)`` on a (256, 32) array.
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

    def forward(self, u: np.ndarray, params=None, out=None):
        """Returns (output, activations), both in ``CONDITIONER_DTYPE``;
        the first activation is ``u``, cast unless it is in that dtype."""
        depth = len(self.weights)
        if params is None:
            params = [_cast(a) for a in self.biases + self.weights]
        h = u if u.dtype == CONDITIONER_DTYPE else _cast(u)
        acts = [h]
        for i in range(depth):
            # u and earlier acts are untouched
            h = np.dot(h, params[depth + i], out=None if out is None else out[i + 1])
            h += params[i]
            if i < depth - 1:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts, dout: np.ndarray, ones: np.ndarray, grads, params=None, temps=None):
        """Writes the gradients into ``grads`` (all biases, then all
        weights, arrays in ``CONDITIONER_DTYPE``) and returns d input in that
        dtype; ``ones`` is a ones vector of the batch length in that dtype,
        for the bias gradients' column sums.  ``dout`` is cast unless it is
        in that dtype; it and ``acts`` are not written."""
        depth = len(self.weights)
        if params is None:
            params = [_cast(a) for a in self.biases + self.weights]
        temps = {} if temps is None else temps
        dh = dout if dout.dtype == CONDITIONER_DTYPE else _cast(dout)
        for i in range(depth - 1, -1, -1):
            if i < depth - 1:  # through tanh: dh * (1 - a**2), in one temporary
                a = acts[i + 1]
                key = ("tanh", a.shape[1])
                t = temps[key] = np.multiply(a, a, out=temps.get(key))
                np.subtract(1.0, t, out=t)
                t *= dh
                dh = t
            np.dot(acts[i].T, dh, out=grads[depth + i])
            np.dot(ones, dh, out=grads[i])
            # every hidden layer's d input is read into "tanh" before the
            # next one overwrites "dh"; the conditioner's own is "du"
            key = ("dh" if i else "du", acts[i].shape[1])
            dh = temps[key] = np.dot(dh, params[depth + i].T, out=temps.get(key))
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
        # np.clip's bytes from two ufunc calls, without its Python wrapper
        return np.minimum(np.maximum(self.log_scale, -self.scale_clamp), self.scale_clamp)

    def forward(self, x: np.ndarray, params=None, cache=None):
        """Returns (y, logdet, cache); logdet is one float, the same for
        every sample, and the cache holds ``x``, the scale ``exp(s)`` and
        ``y``.  Given an earlier call's ``cache``, y is written into the
        cache's ``y``."""
        c = {} if cache is None else cache
        s = self._effective()
        scale = np.exp(s)
        y = np.multiply(x, scale, out=c.get("y"))
        y += self.shift
        c["x"], c["scale"], c["y"] = x, scale, y
        return y, s.sum(), c

    def inverse(self, y: np.ndarray, params=None):
        s = self._effective()
        return (y - self.shift) * np.exp(-s)

    def backward(
        self, cache, dy: np.ndarray, dlogdet_sum: float, ones, grads, params, temps, scratch
    ):
        x, scale = cache["x"], cache["scale"]
        ds, dshift = grads
        dyx = temps["dyx"] = np.multiply(dy, x, out=temps.get("dyx"))
        np.dot(ones, dyx, out=ds)
        ds *= scale
        ds += dlogdet_sum
        active = np.abs(self.log_scale) < self.scale_clamp
        ds[~active] = 0.0
        np.dot(ones, dy, out=dshift)
        dx = temps["dx"] = np.multiply(dy, scale, out=temps.get("dx"))
        return dx


class AdditiveCouplingLayer:
    """Shift one half of the coordinates by a conditioner of the other half.

    The conditioning (passthrough) half is columns ``parity::2``, the shifted
    half the others.  The conditioner reads an F-ordered cast of its half,
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

    def forward(self, x: np.ndarray, params=None, cache=None):
        """Returns (y, 0.0, cache); the cache holds the conditioner's
        activations and ``y``.  Given an earlier call's ``cache``, the call
        refills its arrays."""
        c = {} if cache is None else cache
        out = c.get("acts")
        u = _cast(x[:, self.cond], None if out is None else out[0], order="F")
        shift, c["acts"] = self.mlp.forward(u, params, out)
        y = c["y"] = _copy(x, c.get("y"))
        half = y[:, self.shifted]
        half += shift
        return y, 0.0, c

    def inverse(self, y: np.ndarray, params=None):
        shift, _ = self.mlp.forward(_cast(y[:, self.cond], order="F"), params)
        x = y.copy()
        x[:, self.shifted] -= shift
        return x

    def backward(
        self, cache, dy: np.ndarray, dlogdet_sum: float, ones, grads, params, temps, scratch
    ):
        ones_c = scratch.get("ones")
        if ones_c is None:
            ones_c = scratch["ones"] = ones.astype(CONDITIONER_DTYPE)
        dout = temps["dout"] = _cast(dy[:, self.shifted], temps.get("dout"))
        du = self.mlp.backward(cache["acts"], dout, ones_c, grads, params, scratch)
        dx = temps["dx"] = _copy(dy, temps.get("dx"))
        half = dx[:, self.cond]
        half += du
        return dx


class FlowGradients:
    """Parameter gradients in one vector, laid out like ``FlowModel.theta``."""

    def __init__(self, vector: np.ndarray, layout):
        self.vector = vector
        self._layout = layout

    def flat(self) -> list[np.ndarray]:
        """Views of ``vector`` shaped and ordered like ``FlowModel.parameters()``,
        built on each call."""
        return [v for spans in self._layout for v in _views(self.vector, spans)]


class _PassCaches:
    """The arrays of one pass: per layer, a dict of its cache and buffers,
    and a ``CONDITIONER_DTYPE`` block laid out like theta into which
    ``refresh`` casts every conditioner's parameters, with each
    conditioner's views of it built once.

    A forward pass handed these caches back (``reuse``) on a batch of the
    same shape, strides and dtype refreshes the block and refills every
    array in place: activations, temporaries and layer outputs.  Each buffer
    first comes from the operation a fresh pass runs, so it has the memory
    order that pass gives, which products and einsums downstream round by.
    A backward pass on refilled caches keeps its temporaries, gradient
    blocks and ones vectors here as well, and refills them on the next step:
    a layer's own in its dict, the conditioners' scratch, which every
    coupling of the pass shares, in ``scratch``.
    They belong to whoever holds the caches (a fit) and die with it; nothing
    is kept on the flow.
    """

    def __init__(self, flow: "FlowModel", key=None):
        self.key = key
        self.refilled = False
        self.layers = [{} for _ in flow.layers]
        self.params = np.empty(flow.theta.size, CONDITIONER_DTYPE)
        self.param_views, self.runs = [], []
        for i, (layer, spans) in enumerate(zip(flow.layers, flow._layout)):
            coupling = isinstance(layer, AdditiveCouplingLayer)
            self.param_views.append(_views(self.params, spans) if coupling else None)
            if coupling:  # a conditioner's biases and weights are one slice of theta
                run = slice(spans[0][0].start, spans[-1][0].stop)
                self.runs.append((i, self.params[run], run))
        self.gradients = None  # the backward pass's blocks, once refilled
        self.scratch = {}  # the conditioners' backward scratch, once refilled

    def refresh(self, flow: "FlowModel"):
        """Cast every conditioner's parameters from ``flow.theta`` into the
        block, one copy per conditioner under one error state.  A finite
        value beyond the dtype's range raises ``NumericError`` naming the
        layer whose slice of theta holds it."""
        i = 0
        try:
            with np.errstate(over="raise"):
                for i, block, run in self.runs:
                    np.copyto(block, flow.theta[run])
        except FloatingPointError:
            name = np.dtype(CONDITIONER_DTYPE).name
            raise NumericError(
                f"conditioner value beyond the {name} range at layer {i} ({flow.layers[i].kind})"
            ) from None


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

    Each pass casts the conditioners' parameters from ``theta`` once, when
    it starts, and every conditioner of the pass reads that cast; no cast is
    kept on the model, so a write to ``theta`` reaches the next pass.
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
        for layer, spans in zip(self.layers, self._layout):
            layer.set_params(_views(self.theta, spans))

    # -- evaluation ---------------------------------------------------------

    def _forward_cached(self, batch: np.ndarray, keep: bool = True, reuse=None):
        """Returns (y, logdet, caches).  With ``keep=False`` (evaluation
        only) ``caches`` is None and each layer's cache is freed as soon as
        the layer returns, so the pass holds one layer's activations at a
        time instead of every layer's.

        ``reuse`` takes the caches of an earlier pass of this flow: on a
        batch of the same shape, strides and dtype this pass refills their
        arrays and returns them (y is one of them) instead of allocating
        (see ``_PassCaches``).  ``fit_q`` hands each step's caches to the
        next step; every other pass gets fresh arrays."""
        key = (batch.shape, batch.strides, batch.dtype)
        if reuse is not None and reuse.key == key:
            caches = reuse
            caches.refilled = True
        else:
            caches = _PassCaches(self, key)
        caches.refresh(self)
        h = batch
        # each layer's logdet is one float for the whole batch; summing the
        # floats and broadcasting once adds what a per-sample array would
        total = 0.0
        try:
            for layer, views, cache in zip(self.layers, caches.param_views, caches.layers):
                if keep:
                    h, ld, _ = layer.forward(h, views, cache)
                else:
                    # no name may stay bound to the cache into the next layer
                    h, ld = layer.forward(h, views)[:2]
                total += ld
        except NumericError:  # a conditioner's input cast overflowed
            self._raise_first_non_finite(batch)
        logdet = np.full(batch.shape[0], total)
        # Every layer maps a non-finite coordinate to a non-finite one, so a
        # single check at the end detects what a per-layer check would; the
        # logdet is ``total`` on every row (of none, for an empty batch)
        if not (np.isfinite(h).all() and (math.isfinite(total) or not logdet.size)):
            self._raise_first_non_finite(batch)
        return h, logdet, (caches if keep else None)

    def _raise_first_non_finite(self, batch: np.ndarray):
        """Re-run the layers one by one, each conditioner casting its own
        parameters, and name the first non-finite one, or the first whose
        conditioner cast overflows."""
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
        cast = _PassCaches(self)
        cast.refresh(self)
        h = batch
        for i, layer in reversed(list(enumerate(self.layers))):
            try:
                h = layer.inverse(h, cast.param_views[i])
            except NumericError as err:  # a conditioner's input cast overflowed
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

    def _gradient_blocks(self, n: int):
        """A backward pass's destinations: per layer, views of a float64
        block (affine layers) or a ``CONDITIONER_DTYPE`` block (conditioners),
        both laid out like theta; each layer's slice of its block, in theta
        order; and a float64 ones vector of length ``n``."""
        blocks = (np.empty(self.theta.size), np.empty(self.theta.size, CONDITIONER_DTYPE))
        views, runs = [], []
        for layer, spans in zip(self.layers, self._layout):
            block = blocks[isinstance(layer, AdditiveCouplingLayer)]
            views.append(_views(block, spans))
            if spans:
                runs.append(block[spans[0][0].start : spans[-1][0].stop])
        return views, runs, np.ones(n)

    def _backward_cached(self, caches, dy: np.ndarray, dlogdet: np.ndarray):
        """Returns (gradients, d input).  Each layer's ``backward(cache, dy,
        dlogdet_sum, ones, grads, params, temps, scratch)`` writes its
        gradients into ``grads``, its views of ``_gradient_blocks``, and
        returns d input; a conditioner reads the parameters its forward pass
        cast.  One concatenate of the blocks' runs in theta order gives the
        float64 gradient vector, a fresh array on every call.  A layer keeps
        the arrays it returns or reads again in ``temps``, and the
        conditioners keep their scratch, dead once a coupling returns, in
        ``scratch``, one dict for every coupling of the pass.  On refilled
        caches these are the layer's cache dict and ``caches.scratch``, so
        the next step refills them as it does the blocks; otherwise they are
        fresh dicts, and every array is fresh."""
        refill = caches.refilled
        gradients = caches.gradients if refill else None
        if gradients is None:
            gradients = self._gradient_blocks(dy.shape[0])
            if refill:
                caches.gradients = gradients
        views, runs, ones = gradients
        # column sums and products round by memory order, so take dy in C
        # order whatever the caller's: then its layout cannot change a fit
        dh = np.ascontiguousarray(dy)
        # a layer's logdet is the same for every sample, so its parameters
        # see only the sum of dlogdet
        dlogdet_sum = dlogdet.sum()
        scratch = caches.scratch if refill else {}
        for i in range(len(self.layers) - 1, -1, -1):
            cache = caches.layers[i]
            dh = self.layers[i].backward(
                cache, dh, dlogdet_sum, ones, views[i], caches.param_views[i],
                cache if refill else {}, scratch,
            )
        vector = np.concatenate(runs) if runs else np.zeros(0)
        return FlowGradients(vector, self._layout), dh

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
    """Stack shape: ``blocks`` repetitions of [affine-diagonal, coupling on
    parity 0, coupling on parity 1] and a closing affine-diagonal layer, so
    ``3 * blocks + 1`` layers in two or more dimensions; from three up,
    columns of one parity never condition each other.  In one dimension a
    block is its affine layer alone.  ``blocks=0`` is the affine-only flow;
    each conditioner has ``HIDDEN_DEPTH`` hidden layers of ``hidden_width``."""

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
    zero output layers and zero log-scales/shifts make forward(x) = x and
    logdet = 0 exactly at init.
    """
    if dim < 1:
        raise ContractError("dimension must be >= 1")
    rng = make_generator(derive_seed(seed, "flow-init"))
    layers: list = []
    for _ in range(arch.blocks):
        layers.append(AffineDiagonalLayer(dim))
        if dim >= 2:
            for parity in (0, 1):
                cond = len(range(parity, dim, 2))
                mlp = Mlp.build(cond, arch.hidden_width, dim - cond, rng)
                layers.append(AdditiveCouplingLayer(dim, parity, mlp))
    layers.append(AffineDiagonalLayer(dim))
    return FlowModel(dim, layers)
