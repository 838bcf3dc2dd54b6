"""Properties of the flow over random architectures and perturbed parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltgen.flows
from tiltgen import DiagGaussian, NumericError
from tiltgen.flows import (
    AdditiveCouplingLayer,
    AffineDiagonalLayer,
    FlowArchitecture,
    FlowModel,
    Mlp,
    init_identity,
)
from tiltgen.tuner import TunedModel, kl_between
from tests.conftest import flow_gradients

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def flows(draw, max_width=5):
    """A perturbed flow over a random small architecture, and a seed."""
    dim = draw(st.integers(1, 6))
    arch = FlowArchitecture(
        blocks=draw(st.integers(1, 3)),
        hidden_width=draw(st.integers(1, max_width)),
    )
    seed = draw(st.integers(0, 2**16))
    g = init_identity(dim, arch, seed=seed)
    g.theta += 0.2 * np.random.default_rng(seed).standard_normal(g.theta.shape)
    return g, seed


def objective(g, x, v, c):
    y, logdet, _ = g._forward_cached(x)
    return float(np.sum(v * y) + np.sum(c * logdet))


@PROPERTY
@given(flows(max_width=32), st.integers(1, 300))
def test_inverse_undoes_forward(case, n):
    # a coupling's inverse subtracts the float32 shift its forward pass added,
    # computed from the same untouched half: exact to float64 rounding
    g, seed = case
    x = np.random.default_rng(seed + 1).standard_normal((n, g.dim))
    y, logdet = g.forward(x)
    xi, logdet_inv = g.inverse(y)
    assert np.max(np.abs(xi - x)) <= 1e-13
    assert np.allclose(logdet_inv, logdet)


@pytest.mark.usefixtures("float64_conditioners")
@PROPERTY
@given(flows())
def test_logdet_matches_numerical_jacobian(case):
    g, seed = case
    x0 = np.random.default_rng(seed + 2).standard_normal(g.dim)
    h = 1e-6
    eye = h * np.eye(g.dim)
    jac = (g.forward(x0 + eye)[0] - g.forward(x0 - eye)[0]).T / (2 * h)
    _, logdet = g.forward(x0[None])
    assert logdet[0] == pytest.approx(np.linalg.slogdet(jac)[1], abs=1e-5)


@pytest.mark.usefixtures("float64_conditioners")
@PROPERTY
@given(flows())
def test_every_parameter_gradient_matches_finite_differences(case):
    g, seed = case
    rng = np.random.default_rng(seed + 3)
    x = rng.standard_normal((6, g.dim))
    v = rng.standard_normal((6, g.dim))
    c = rng.standard_normal(6)
    grads = flow_gradients(g, x, v, c).flat()
    h = 1e-6
    for k, (p, an) in enumerate(zip(g.parameters(), grads, strict=True)):
        idx = tuple(rng.integers(0, s) for s in p.shape)
        old = p[idx]
        p[idx] = old + h
        up = objective(g, x, v, c)
        p[idx] = old - h
        dn = objective(g, x, v, c)
        p[idx] = old
        fd = (up - dn) / (2 * h)
        assert an[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6), f"parameter {k}"


def assert_views(arrays, vector):
    """``arrays`` are consecutive views that tile ``vector`` in order."""
    start = vector.__array_interface__["data"][0]
    offset = 0
    for a in arrays:
        assert a.base is vector
        assert a.__array_interface__["data"][0] == start + 8 * offset
        offset += a.size
    assert offset == vector.size


@PROPERTY
@given(flows())
def test_parameters_and_gradients_share_one_layout(case):
    g, seed = case
    x = np.random.default_rng(seed + 4).standard_normal((5, g.dim))
    dy, dld = np.ones_like(x), np.ones(5)
    for flow in (g, g.copy()):
        params = flow.parameters()
        assert_views(params, flow.theta)
        grads = flow_gradients(flow, x, dy, dld)
        flat = grads.flat()
        assert_views(flat, grads.vector)
        assert [a.shape for a in flat] == [p.shape for p in params]
        again = flow_gradients(flow, x, dy, dld)
        assert not np.shares_memory(again.vector, grads.vector)
        assert np.array_equal(again.vector, grads.vector)


# ---------------------------------------------------------------------------
# the flow passes against an out-of-place reference: ``exp(s)`` recomputed
# at every use, one logdet array per layer, the gradients concatenated at
# the end, and a coupling's conditioner input selected by an index array,
# ``x[:, idx]``, whose copy is F-ordered.  The conditioner arithmetic runs
# in the reference's ``dtype``, float32 unless a test passes float64, on
# casts of its input, weights, biases and incoming gradient; everything
# else is float64.  The forward and inverse products are matmuls with
# ``@``; the backward's are ``np.dot`` on the cast of the strided view of
# the shifted half, as in the flow.  The backward reference takes its
# column sums as an argument: ``ones_sums`` is the flow's arithmetic, and
# ``pairwise_sums`` the ``sum(axis=0)`` the flow used before, which rounds
# differently in the last bits.


def ones_sums(a):
    return np.dot(np.ones(a.shape[0], a.dtype), a)


def pairwise_sums(a):
    return a.sum(axis=0)


def ref_mlp_forward(mlp, u, dtype):
    h = u.astype(dtype)
    acts = [h]
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = h @ w.astype(dtype) + b.astype(dtype)
        if i < len(mlp.weights) - 1:
            h = np.tanh(h)
        acts.append(h)
    return h, acts


def ref_mlp_backward(mlp, acts, dout, sums, dtype):
    dbiases, dweights, dh = [], [], dout.astype(dtype)
    for i in range(len(mlp.weights) - 1, -1, -1):
        if i < len(mlp.weights) - 1:
            dh = dh * (1.0 - acts[i + 1] * acts[i + 1])
        dweights.insert(0, np.dot(acts[i].T, dh))
        dbiases.insert(0, sums(dh))
        dh = np.dot(dh, mlp.weights[i].astype(dtype).T)
    return dh, dbiases + dweights


def ref_scale(layer):
    clamp = tiltgen.flows.SCALE_CLAMP
    return np.clip(layer.log_scale, -clamp, clamp)


def cond_idx(layer):
    return np.arange(layer.dim)[layer.cond]


def shifted_idx(layer):
    return np.arange(layer.dim)[layer.shifted]


def ref_forward(g, x, dtype=np.float32):
    h, logdet, caches = x, np.zeros(x.shape[0]), []
    for layer in g.layers:
        if isinstance(layer, AffineDiagonalLayer):
            s = ref_scale(layer)
            caches.append(h)
            h = h * np.exp(s) + layer.shift
            logdet = logdet + np.full(x.shape[0], s.sum())
        else:
            shift, acts = ref_mlp_forward(layer.mlp, h[:, cond_idx(layer)], dtype)
            caches.append(acts)
            y = h.copy()
            y[:, shifted_idx(layer)] = h[:, shifted_idx(layer)] + shift
            h = y
            logdet = logdet + np.zeros(x.shape[0])
    return h, logdet, caches


def ref_backward(g, caches, dy, dlogdet, sums=ones_sums, dtype=np.float32):
    grads, dh = [], np.ascontiguousarray(dy)
    for layer, cache in zip(reversed(g.layers), reversed(caches)):
        if isinstance(layer, AffineDiagonalLayer):
            s = ref_scale(layer)
            ds = sums(dh * cache) * np.exp(s) + dlogdet.sum()
            active = np.abs(layer.log_scale) < tiltgen.flows.SCALE_CLAMP
            grads.insert(0, [np.where(active, ds, 0.0), sums(dh)])
            dh = dh * np.exp(s)
        else:
            du, g_layer = ref_mlp_backward(layer.mlp, cache, dh[:, layer.shifted], sums, dtype)
            grads.insert(0, g_layer)
            dx = dh.copy()
            dx[:, cond_idx(layer)] = dh[:, cond_idx(layer)] + du
            dh = dx
    flat = [np.ravel(a) for layer_grads in grads for a in layer_grads]
    return (np.concatenate(flat) if flat else np.zeros(0)), dh


def ref_inverse(g, y, dtype=np.float32):
    h = y
    for layer in reversed(g.layers):
        if isinstance(layer, AffineDiagonalLayer):
            h = (h - layer.shift) * np.exp(-ref_scale(layer))
        else:
            shift, _ = ref_mlp_forward(layer.mlp, h[:, cond_idx(layer)], dtype)
            x = h.copy()
            x[:, shifted_idx(layer)] = h[:, shifted_idx(layer)] - shift
            h = x
    total = 0.0
    for layer in g.layers:
        if isinstance(layer, AffineDiagonalLayer):
            total += ref_scale(layer).sum()
    return h, np.full(y.shape[0], float(total))


@PROPERTY
@given(flows(max_width=32), st.integers(1, 300), st.sampled_from([0.1, 5.0]),
       st.sampled_from("CF"))
def test_passes_are_bit_identical_to_the_reference(case, n, clamp, order):
    g, seed = case
    with pytest.MonkeyPatch.context() as mp:  # a small clamp clips some log-scales
        mp.setattr(tiltgen.flows, "SCALE_CLAMP", clamp)
        rng = np.random.default_rng(seed + 5)
        # x's memory order reaches the couplings through the affine layers
        x = np.asarray(rng.standard_normal((n, g.dim)), order=order)
        dy, dld = rng.standard_normal((n, g.dim)), rng.standard_normal(n)

        y, logdet, caches = g._forward_cached(x)
        ref_y, ref_logdet, ref_caches = ref_forward(g, x)
        assert np.array_equal(y, ref_y) and np.array_equal(logdet, ref_logdet)

        grads, dx = g._backward_cached(caches, dy, dld)
        ref_vector, ref_dx = ref_backward(g, ref_caches, dy, dld)
        assert np.array_equal(grads.vector, ref_vector) and np.array_equal(dx, ref_dx)

        y0, logdet0 = g.forward(x[:1])
        ref_y0, ref_logdet0, _ = ref_forward(g, x[:1])
        assert np.array_equal(y0[0], ref_y0[0]) and logdet0[0] == ref_logdet0[0]

        # the evaluation pass (no caches kept) and everything built on it give the
        # bytes of the cached pass
        y_eval, logdet_eval = g.forward(x)
        assert np.array_equal(y_eval, y) and np.array_equal(logdet_eval, logdet)
        base = DiagGaussian.standard(g.dim)
        model = TunedModel(base, g, beta=1.0)
        x_hat = base.sample(n, seed)
        y_hat, logdet_hat, _ = g._forward_cached(x_hat)
        assert np.array_equal(model.sample(n, seed), y_hat)
        logratio = base.log_density(x_hat) - logdet_hat - base.log_density(y_hat)
        y_s, logratio_s = model.sample_with_logratio(n, seed)
        assert np.array_equal(y_s, y_hat) and np.array_equal(logratio_s, logratio)
        if n >= 2:
            other = DiagGaussian(np.full(g.dim, 0.5), np.full(g.dim, 2.0))
            values = base.log_density(x_hat) - logdet_hat - other.log_density(y_hat)
            expected = (float(values.mean()), float(values.std(ddof=1) / np.sqrt(n)))
            assert kl_between(model, other, n, seed) == expected

        xi, logdet_inv = g.inverse(y)
        ref_xi, ref_logdet_inv = ref_inverse(g, y)
        assert np.array_equal(xi, ref_xi) and np.array_equal(logdet_inv, ref_logdet_inv)


@pytest.mark.usefixtures("float64_conditioners")
@PROPERTY
@given(flows(max_width=32), st.integers(1, 300), st.sampled_from([0.1, 5.0]))
def test_gradients_agree_with_the_pairwise_column_sums(case, n, clamp):
    g, seed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiltgen.flows, "SCALE_CLAMP", clamp)
        rng = np.random.default_rng(seed + 7)
        x = rng.standard_normal((n, g.dim))
        dy, dld = rng.standard_normal((n, g.dim)), rng.standard_normal(n)
        _, _, caches = g._forward_cached(x)
        grads, dx = g._backward_cached(caches, dy, dld)
        _, _, ref_caches = ref_forward(g, x, np.float64)
        old_vector, old_dx = ref_backward(g, ref_caches, dy, dld, pairwise_sums, np.float64)
        tol = 1e-13 * np.max(np.abs(old_vector))
        assert np.max(np.abs(grads.vector - old_vector)) <= tol
        assert np.max(np.abs(dx - old_dx)) <= 1e-13 * np.max(np.abs(old_dx))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [7, 64, 256, 513])
def test_backward_bytes_do_not_depend_on_the_memory_order_of_dy(n, dim):
    # a fit's dy takes the memory order of its scores and criterion
    # gradient, which a custom criterion or distribution may give in F order
    g = init_identity(dim, FlowArchitecture(blocks=2, hidden_width=32), seed=n)
    rng = np.random.default_rng(n)
    g.theta += 0.2 * rng.standard_normal(g.theta.shape)
    x = rng.standard_normal((n, dim))
    dy, dld = rng.standard_normal((n, dim)), np.full(n, 1.0 / n)
    _, _, caches = g._forward_cached(x)
    c_grads, c_dx = g._backward_cached(caches, np.ascontiguousarray(dy), dld)
    c_dx = c_dx.copy()  # the next pass on these caches refills d input
    f_grads, f_dx = g._backward_cached(caches, np.asfortranarray(dy), dld)
    assert np.array_equal(c_grads.vector, f_grads.vector)
    assert np.array_equal(c_dx, f_dx)


def test_couplings_of_different_widths_share_one_backward_scratch():
    # the conditioners of a pass share their backward scratch, keyed by
    # width: couplings of different hidden widths, and a conditioner whose
    # two hidden layers differ, give the reference's bytes in fresh and in
    # refilled passes
    dim, n = 3, 16
    rng = np.random.default_rng(41)
    layers = [AffineDiagonalLayer(dim)]
    for parity, width in ((0, 8), (1, 5), (0, 3)):
        cond = len(range(parity, dim, 2))
        layers.append(AdditiveCouplingLayer(dim, parity, Mlp.build(cond, width, dim - cond, rng)))
    weights = [rng.standard_normal((1, 6)), rng.standard_normal((6, 4)), np.zeros((4, 2))]
    biases = [np.zeros(6), np.zeros(4), np.zeros(2)]
    layers += [AdditiveCouplingLayer(dim, 1, Mlp(weights, biases)), AffineDiagonalLayer(dim)]
    g = FlowModel(dim, layers)
    g.theta += 0.2 * rng.standard_normal(g.theta.shape)
    kept = None  # the caches a fit hands from step to step
    for _ in range(3):
        x = rng.standard_normal((n, dim))
        dy, dld = rng.standard_normal((n, dim)), rng.standard_normal(n)
        ref_y, _, ref_caches = ref_forward(g, x)
        ref_vector, ref_dx = ref_backward(g, ref_caches, dy, dld)
        for reuse in (None, kept):  # a fresh pass, then one on the kept caches
            y, _, caches = g._forward_cached(x, reuse=reuse)
            grads, dx = g._backward_cached(caches, dy, dld)
            assert np.array_equal(y, ref_y)
            assert np.array_equal(grads.vector, ref_vector) and np.array_equal(dx, ref_dx)
        kept = caches
    assert kept.gradients is not None and kept.scratch


# ---------------------------------------------------------------------------
# float32 conditioners against float64 ones: the map moves by float32
# rounding, but its density stays exact to float64 rounding, since an
# additive coupling adds and subtracts the same float32 shift


@PROPERTY
@given(flows(max_width=32), st.integers(1, 300))
def test_float32_conditioners_stay_close_to_float64_ones(case, n):
    g, seed = case
    rng = np.random.default_rng(seed + 8)
    x = rng.standard_normal((n, g.dim))
    dy, dld = rng.standard_normal((n, g.dim)), rng.standard_normal(n)
    y, _, caches = g._forward_cached(x)
    grads, dx = g._backward_cached(caches, dy, dld)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiltgen.flows, "CONDITIONER_DTYPE", np.float64)
        y64, _, caches64 = g._forward_cached(x)
        grads64, dx64 = g._backward_cached(caches64, dy, dld)
    assert np.max(np.abs(y - y64)) <= 1e-5 * np.max(np.abs(y64))
    assert np.max(np.abs(grads.vector - grads64.vector)) <= 1e-5 * np.max(np.abs(grads64.vector))
    assert np.max(np.abs(dx - dx64)) <= 1e-5 * np.max(np.abs(dx64))


@PROPERTY
@given(flows(max_width=32), st.integers(1, 300))
def test_log_density_through_the_inverse_matches_the_pathwise_one(case, n):
    g, seed = case
    base = DiagGaussian.standard(g.dim)
    model = TunedModel(base, g, beta=1.0)
    y, logratio = model._logratio(base.sample(n, seed), base)
    pathwise = logratio + base.log_density(y)
    assert np.max(np.abs(model.log_density(y) - pathwise)) <= 1e-13


@PROPERTY
@given(flows(), st.data())
def test_evaluation_pass_names_the_first_non_finite_layer(case, data):
    g, seed = case
    couplings = [i for i, l in enumerate(g.layers) if isinstance(l, AdditiveCouplingLayer)]
    if not couplings:  # a 1-d flow has no coupling layers
        return
    k = data.draw(st.sampled_from(couplings))
    g.layers[k].mlp.weights[-1][0, 0] = np.inf  # a view of g.theta
    x = np.random.default_rng(seed + 6).standard_normal((7, g.dim))
    with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
        g.forward(x)
    assert f"layer {k} (additive-coupling)" in str(err.value)
