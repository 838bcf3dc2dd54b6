
import numpy as np
import pytest

from tiltgen import ContractError, FlowArchitecture, NumericError, init_identity
from tiltgen.flows import (
    AdditiveCouplingLayer,
    AffineDiagonalLayer,
    FlowModel,
    Mlp,
)
from tests.conftest import flow_gradients


def perturbed_flow(dim, seed=0, scale=0.1, blocks=2):
    g = init_identity(dim, FlowArchitecture(blocks=blocks), seed=seed)
    rng = np.random.default_rng(seed + 1)
    for p in g.parameters():
        p += scale * rng.standard_normal(p.shape)
    return g


def numerical_jacobian_logdet(g, x0, h=1e-6):
    d = x0.shape[0]
    jac = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        yp, _ = g.forward((x0 + e)[None])
        ym, _ = g.forward((x0 - e)[None])
        jac[:, j] = (yp[0] - ym[0]) / (2 * h)
    return np.log(abs(np.linalg.det(jac)))


# ---------------------------------------------------------------------------
# identity initialization


def test_identity_init_is_exact_identity():
    g = init_identity(2, FlowArchitecture(blocks=2), seed=3)
    x = np.random.default_rng(0).standard_normal((100, 2))
    y, logdet = g.forward(x)
    assert np.array_equal(y, x)
    assert np.all(logdet == 0.0)


def test_identity_init_seeds_differ_only_in_hidden_weights():
    g1 = init_identity(2, seed=1)
    g2 = init_identity(2, seed=2)
    x = np.random.default_rng(4).standard_normal((50, 2))
    assert np.array_equal(g1.forward(x)[0], g2.forward(x)[0])
    w1 = next(
        l.mlp.weights[0] for l in g1.layers if isinstance(l, AdditiveCouplingLayer)
    )
    w2 = next(
        l.mlp.weights[0] for l in g2.layers if isinstance(l, AdditiveCouplingLayer)
    )
    assert not np.array_equal(w1, w2)


def test_identity_init_dim_one():
    g = init_identity(1, FlowArchitecture(blocks=3), seed=0)
    x = np.random.default_rng(1).standard_normal((20, 1))
    y, logdet = g.forward(x)
    assert np.array_equal(y, x)
    assert np.all(logdet == 0.0)


@pytest.mark.parametrize("blocks", [0, 1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_identity_init_alternates_coupling_parities_without_permutations(dim, blocks):
    # each block is [affine, coupling on parity 0, coupling on parity 1],
    # then one closing affine layer; in 1-d a block is its affine layer
    g = init_identity(dim, FlowArchitecture(blocks=blocks, hidden_width=4), seed=dim + blocks)
    block = ["affine-diagonal"] + (["additive-coupling"] * 2 if dim >= 2 else [])
    assert [layer.kind for layer in g.layers] == block * blocks + ["affine-diagonal"]
    if dim >= 2:
        assert len(g.layers) == 3 * blocks + 1
    parities = [l.cond.start for l in g.layers if isinstance(l, AdditiveCouplingLayer)]
    assert parities == ([0, 1] * blocks if dim >= 2 else [])
    x = np.random.default_rng(dim).standard_normal((33, dim))
    y, logdet, _ = g._forward_cached(x)
    assert np.array_equal(y.view(np.int64), x.view(np.int64))
    assert np.array_equal(logdet, np.zeros(33))
    xi, logdet_inv = g.inverse(x)
    assert np.array_equal(xi.view(np.int64), x.view(np.int64))
    assert np.array_equal(logdet_inv, np.zeros(33))


@pytest.mark.parametrize("shape", [{"hidden_width": 0}, {"blocks": -1}],
                         ids=["no-hidden-units", "negative-blocks"])
def test_architecture_out_of_range_is_rejected_but_zero_blocks_is_affine_only(shape):
    with pytest.raises(ContractError, match=next(iter(shape))):
        FlowArchitecture(**shape)
    g = init_identity(2, FlowArchitecture(blocks=0), seed=0)
    assert [layer.kind for layer in g.layers] == ["affine-diagonal"]


# ---------------------------------------------------------------------------
# forward / logdet


def test_affine_layer_example():
    layer = AffineDiagonalLayer(2, log_scale=[np.log(2), np.log(3)], shift=[0.0, 0.0])
    g = FlowModel(2, [layer])
    y, logdet = g.forward(np.array([[1.0, 1.0]]))
    assert np.allclose(y[0], [2.0, 3.0])
    assert logdet[0] == pytest.approx(np.log(6.0))


@pytest.mark.usefixtures("float64_conditioners")
def test_logdet_matches_numerical_jacobian():
    g = perturbed_flow(2, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x0 = rng.standard_normal(2)
        _, ld = g.forward(x0[None])
        assert ld[0] == pytest.approx(numerical_jacobian_logdet(g, x0), abs=1e-5)


def test_invertibility():
    for dim in (1, 2, 4):
        g = perturbed_flow(dim, seed=dim)
        x = np.random.default_rng(7).standard_normal((200, dim))
        y, _ = g.forward(x)
        xi, _ = g.inverse(y)
        assert np.max(np.abs(xi - x)) < 1e-8


def test_stack_logdet_is_sum_of_layers():
    g = perturbed_flow(3, seed=9)
    x = np.random.default_rng(8).standard_normal((10, 3))
    _, total = g.forward(x)
    per_layer = np.zeros(10)
    h = x
    for layer in g.layers:
        h, ld, _ = layer.forward(h)
        per_layer += ld
    assert np.allclose(total, per_layer)
    affine_sum = sum(
        l._effective().sum() for l in g.layers if isinstance(l, AffineDiagonalLayer)
    )
    assert np.allclose(total, affine_sum)


def test_scale_clamp_bounds_logdet():
    layer = AffineDiagonalLayer(1, log_scale=[12.0])
    g = FlowModel(1, [layer])
    _, ld = g.forward(np.array([[1.0]]))
    assert ld[0] == pytest.approx(5.0)


def test_non_finite_input_names_layer():
    g = perturbed_flow(2, seed=10)
    with pytest.raises(NumericError, match="layer 0"):
        g.forward(np.array([[np.inf, 0.0]]))


# ---------------------------------------------------------------------------
# pushforward normalization (change of variables)


@pytest.mark.parametrize("dim", [1, 2])
def test_pushforward_density_integrates_to_one(dim):
    from tiltgen import DiagGaussian
    from tiltgen.tuner import TunedModel

    g = perturbed_flow(dim, seed=11 + dim, scale=0.15)
    model = TunedModel(DiagGaussian.standard(dim), g, beta=0.0)
    if dim == 1:
        xs = np.linspace(-10, 10, 4001)
        mass = np.trapezoid(np.exp(model.log_density(xs[:, None])), xs)
    else:
        xs = np.linspace(-8, 8, 201)
        gx, gy = np.meshgrid(xs, xs)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        vals = np.exp(model.log_density(pts)).reshape(gx.shape)
        mass = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
    assert mass == pytest.approx(1.0, abs=1e-2)


# ---------------------------------------------------------------------------
# backward


def test_zero_upstream_gives_zero_gradients():
    g = perturbed_flow(2, seed=13)
    x = np.random.default_rng(14).standard_normal((8, 2))
    grads = flow_gradients(g, x, np.zeros((8, 2)), np.zeros(8))
    assert all(np.all(buf == 0) for buf in grads.flat())


def test_logdet_objective_gradient_is_one_per_dim():
    layer = AffineDiagonalLayer(3, log_scale=[0.1, -0.2, 0.0], shift=[1.0, 0.0, 2.0])
    g = FlowModel(3, [layer])
    x = np.array([[0.5, -1.0, 2.0]])
    grads = flow_gradients(g, x, np.zeros((1, 3)), np.ones(1))
    log_scale, shift = grads.flat()
    assert np.allclose(log_scale, 1.0)
    assert np.allclose(shift, 0.0)


@pytest.mark.usefixtures("float64_conditioners")
def test_backward_matches_finite_differences():
    # scalar objective sum_i (v . y_i + c * logdet_i)
    g = perturbed_flow(2, seed=15)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((6, g.dim))
    v = rng.standard_normal((6, g.dim))
    c = rng.standard_normal(6)

    def objective():
        y, ld, _ = g._forward_cached(x)
        return float(np.sum(v * y) + np.sum(c * ld))

    grads = flow_gradients(g, x, v, c)
    params = g.parameters()
    flat = grads.flat()
    h = 1e-6
    for k, (p, an) in enumerate(zip(params, flat)):
        idx = tuple(rng.integers(0, s) for s in p.shape)
        old = p[idx]
        p[idx] = old + h
        up = objective()
        p[idx] = old - h
        dn = objective()
        p[idx] = old
        fd = (up - dn) / (2 * h)
        assert an[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7), f"param {k}"


@pytest.mark.usefixtures("float64_conditioners")
def test_mlp_passes_work_in_place_on_their_own_buffers_only():
    rng = np.random.default_rng(17)
    mlp = Mlp.build(2, 8, 3, rng)
    mlp.weights[-1] = rng.standard_normal(mlp.weights[-1].shape)  # zero at init
    mlp.biases = [rng.standard_normal(b.shape) for b in mlp.biases]
    u = rng.standard_normal((5, 2))
    u_before = u.copy()
    out, acts = mlp.forward(u)
    acts_before = [a.copy() for a in acts]
    dout = rng.standard_normal(out.shape)
    dout_before = dout.copy()

    _, later_acts = mlp.forward(u)
    grads = [np.empty_like(a) for a in mlp.biases + mlp.weights]
    du = mlp.backward(acts, dout, np.ones(5), grads)

    assert np.array_equal(u, u_before)
    assert np.array_equal(dout, dout_before)
    assert acts[0] is u and out is acts[-1]
    for a, before, later in zip(acts[1:], acts_before[1:], later_acts[1:]):
        assert np.array_equal(a, before)
        assert not np.shares_memory(a, later)

    # the out-of-place arithmetic, bit for bit
    last = len(mlp.weights) - 1
    ref = [u_before]
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = ref[-1] @ w + b
        ref.append(np.tanh(h) if i < last else h)
    dh, dbiases, dweights = dout_before, [], []
    for i in range(last, -1, -1):
        if i < last:
            dh = dh * (1.0 - ref[i + 1] ** 2)
        dweights.insert(0, ref[i].T @ dh)
        dbiases.insert(0, np.ones(5) @ dh)
        dh = dh @ mlp.weights[i].T
    assert all(np.array_equal(a, r) for a, r in zip(acts, ref))
    assert np.array_equal(du, dh)
    assert all(np.array_equal(g, r) for g, r in zip(grads, dbiases + dweights))


def test_coupling_halves_alternate_and_need_two_dims():
    mlp = Mlp.build(1, 4, 1, np.random.default_rng(0))
    for dim, parity in [(1, 0), (2, 2), (3, -1)]:
        with pytest.raises(ContractError, match="dim >= 2 and parity 0 or 1"):
            AdditiveCouplingLayer(dim, parity, mlp)
    halves = {parity: AdditiveCouplingLayer(5, parity, mlp) for parity in (0, 1)}
    assert np.arange(5)[halves[0].cond].tolist() == [0, 2, 4]
    assert np.arange(5)[halves[0].shifted].tolist() == [1, 3]
    assert np.arange(5)[halves[1].cond].tolist() == [1, 3]
    assert np.arange(5)[halves[1].shifted].tolist() == [0, 2, 4]
