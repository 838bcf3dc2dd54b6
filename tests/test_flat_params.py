"""The flow's parameters live in one contiguous vector, ``FlowModel.theta``."""

import copy
import warnings

import numpy as np
import pytest

from tiltgen import DiagGaussian, GaussianMixture, LinearCriterion, NumericError, fit_q
from tiltgen.criteria import BayesPosteriorClassifier, ClassifierCriterion
from tiltgen.flows import (
    AdditiveCouplingLayer,
    AffineDiagonalLayer,
    FlowArchitecture,
    FlowModel,
    init_identity,
)
from tiltgen.tuner import Adam, TuneConfig, _fit_batches
from tests.conftest import flow_gradients


def perturbed(dim=3, seed=0, blocks=2):
    g = init_identity(dim, FlowArchitecture(blocks=blocks, hidden_width=6), seed=seed)
    g.theta += 0.1 * np.random.default_rng(seed + 1).standard_normal(g.theta.shape)
    return g


def attribute_order(flow):
    """The layout the flat vector must follow, read from the layer attributes
    that the forward passes use rather than from ``parameters()``: per layer,
    an affine layer's log-scale and shift, a conditioner's biases, then its
    weights."""
    out = []
    for layer in flow.layers:
        if isinstance(layer, AffineDiagonalLayer):
            out += [layer.log_scale, layer.shift]
        elif isinstance(layer, AdditiveCouplingLayer):
            out += layer.mlp.biases + layer.mlp.weights
    return out


def assert_flat(flow):
    theta = flow.theta
    assert theta.ndim == 1 and theta.dtype == np.float64
    assert theta.flags.c_contiguous and theta.flags.owndata
    expected = attribute_order(flow)
    params = flow.parameters()
    assert len(params) == len(expected)
    base = theta.__array_interface__["data"][0]
    offset = 0
    for p, want in zip(params, expected):
        # the parameter and the attribute the forward pass reads are the
        # same slice of theta
        for a in (p, want):
            assert a.base is theta
            assert a.__array_interface__["data"][0] == base + 8 * offset
        assert p.shape == want.shape
        offset += p.size
    assert offset == theta.size


def test_init_identity_binds_views():
    assert_flat(init_identity(3, FlowArchitecture(blocks=2, hidden_width=6), seed=2))


def test_copy_and_rebuilt_model_bind_views():
    g = perturbed(seed=3)
    assert_flat(g)
    assert_flat(g.copy())
    assert_flat(FlowModel(g.dim, copy.deepcopy(g.layers)))


def test_theta_updates_reach_layers():
    g = perturbed(seed=4)
    x = np.random.default_rng(5).standard_normal((7, 3))
    y0, _ = g.forward(x)
    g.theta *= 1.5
    y1, _ = g.forward(x)
    h = FlowModel(g.dim, copy.deepcopy(g.layers))
    assert not np.array_equal(y0, y1)
    assert np.array_equal(y1, h.forward(x)[0])


def test_copy_is_independent_of_source():
    g = perturbed(seed=6)
    before = g.theta.copy()
    c = g.copy()
    assert not np.shares_memory(c.theta, g.theta)
    c.theta += 1.0
    for p in c.parameters():
        p *= 2.0
    assert np.array_equal(g.theta, before)
    assert np.array_equal(c.theta, np.concatenate([p.ravel() for p in c.parameters()]))


def test_gradient_vector_matches_flat_layout():
    g = perturbed(seed=7)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((9, 3))
    grads = flow_gradients(g, x, rng.standard_normal((9, 3)), rng.standard_normal(9))
    vector = grads.vector
    assert vector.shape == g.theta.shape
    assert np.array_equal(vector, np.concatenate([a.ravel() for a in grads.flat()]))


def test_parameterless_flow_has_empty_theta():
    g = FlowModel(2, [])
    assert g.theta.shape == (0,)
    assert g.copy().theta.shape == (0,)
    x = np.random.default_rng(9).standard_normal((4, 2))
    y, logdet = g.forward(x)
    assert np.array_equal(y, x) and np.array_equal(logdet, np.zeros(4))
    # one affine layer: its log-scale and shift are all of theta
    h = FlowModel(2, [AffineDiagonalLayer(2, log_scale=[0.5, -0.5], shift=[1.0, 2.0])])
    assert_flat(h)
    assert_flat(h.copy())
    assert np.array_equal(h.theta, [0.5, -0.5, 1.0, 2.0])


# ---------------------------------------------------------------------------
# fit_q against a reference loop: separate evaluation calls and per-array Adam


def reference_fit(p, f, beta, init, cfg, seed):
    flow = init.copy()
    opt = Adam(flow.parameters(), cfg)
    rows = []
    for step, (batch, _) in zip(range(cfg.steps), _fit_batches(p, cfg.batch_size, seed)):
        n = batch.shape[0]
        y, logdet, caches = flow._forward_cached(batch)
        f_vals = np.asarray(f.value(y), dtype=float)
        log_p = p.log_density(y)
        objective = float(np.mean(beta * f_vals + log_p + logdet))
        dy = (beta * f.grad(y) + p.score(y)) / n
        grads, _ = flow._backward_cached(caches, dy, np.full(n, 1.0 / n))
        batch_kl = float(np.mean(p.log_density(batch) - logdet - log_p))
        lr = cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / cfg.steps))
        opt.step(grads.flat(), lr)
        rows.append((step, objective, float(f_vals.mean()), batch_kl))
    return rows, np.concatenate([a.ravel() for a in flow.parameters()])


MIXTURE = GaussianMixture(
    [0.5, 0.5], [DiagGaussian([-2.0, 0.0], [1.0, 1.0]), DiagGaussian([2.0, 0.0], [1.0, 1.0])]
)
SETUPS = {
    "gauss": (DiagGaussian.standard(2), LinearCriterion([1.0, 0.0]), 3.0),
    "mixture": (MIXTURE, ClassifierCriterion(BayesPosteriorClassifier(MIXTURE), 1), 1.0),
}


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_fit_q_bit_identical_to_reference_loop(name):
    p, f, beta = SETUPS[name]
    init = init_identity(2, FlowArchitecture(blocks=2, hidden_width=16), seed=11)
    cfg = TuneConfig(steps=150, batch_size=64, learning_rate=5e-3, improvement_tol=0)
    before = init.theta.copy()
    model = fit_q(p, f, beta, init, cfg, 12)
    rows, theta = reference_fit(p, f, beta, init, cfg, 12)
    assert model.trace_rows == rows
    assert np.array_equal(model.flow.theta, theta)
    assert np.array_equal(init.theta, before)  # fit_q never mutates its init


# ---------------------------------------------------------------------------
# finiteness is checked once per pass but still names the first bad layer


def test_non_finite_coupling_weight_names_its_layer():
    g = perturbed(dim=2, seed=13)
    x = np.random.default_rng(14).standard_normal((5, 2))
    couplings = [k for k, l in enumerate(g.layers) if isinstance(l, AdditiveCouplingLayer)]
    assert len(couplings) >= 2
    for k in couplings:
        h = g.copy()
        h.layers[k].mlp.weights[-1][0, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
            h._forward_cached(x)
        assert str(err.value) == f"non-finite output at layer {k} (additive-coupling)"


@pytest.mark.parametrize("param", ["weight", "bias"])
def test_conditioner_parameter_beyond_float32_names_its_layer(param):
    # finite in float64 but inf once cast for the float32 conditioner: every
    # pass raises and names the layer, and numpy warns of no overflow
    g = perturbed(dim=2, seed=13)
    x = np.random.default_rng(14).standard_normal((5, 2))
    couplings = [k for k, l in enumerate(g.layers) if isinstance(l, AdditiveCouplingLayer)]
    for k in couplings:
        h = g.copy()
        caches = h._forward_cached(x)[2]  # a fit step before the write
        mlp = h.layers[k].mlp
        (mlp.weights[0] if param == "weight" else mlp.biases[0]).flat[0] = 1e39
        passes = {
            "fit": lambda: h._forward_cached(x),
            "fit refilling the previous step's arrays": lambda: h._forward_cached(x, reuse=caches),
            "evaluation": lambda: h.forward(x),
            "inverse": lambda: h.inverse(x),
        }
        for name, run in passes.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError) as err:
                    run()
            expected = f"conditioner value beyond the float32 range at layer {k} (additive-coupling)"
            assert str(err.value) == expected, name


def test_conditioner_input_beyond_float32_names_its_layer():
    # a finite input beyond float32's range reaches a conditioner: every pass
    # names the first coupling that conditions on that column, forward at
    # layer 1 and inverse (which runs the stack backwards) at layer 4
    g = perturbed(dim=2, seed=13)
    x = np.random.default_rng(14).standard_normal((5, 2))
    caches = g._forward_cached(x)[2]  # a fit step before the bad batch
    bad = x.copy()
    bad[:, 0] = 1e39
    passes = {
        "fit": (lambda: g._forward_cached(bad), 1),
        "fit refilling the previous step's arrays": (
            lambda: g._forward_cached(bad, reuse=caches), 1
        ),
        "evaluation": (lambda: g.forward(bad), 1),
        "inverse": (lambda: g.inverse(bad), 4),
    }
    for name, (run, k) in passes.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as err:
                run()
        expected = f"conditioner value beyond the float32 range at layer {k} (additive-coupling)"
        assert str(err.value) == expected, name


def test_non_finite_log_scale_names_affine_layer():
    g = perturbed(dim=2, seed=15)
    last = len(g.layers) - 1
    assert isinstance(g.layers[last], AffineDiagonalLayer)
    g.layers[last].log_scale[1] = np.nan
    with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
        g.forward(np.zeros((3, 2)))
    assert str(err.value) == f"non-finite output at layer {last} (affine-diagonal)"
