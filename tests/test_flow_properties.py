"""Properties of the flow over random architectures and perturbed parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltgen.flows import FlowArchitecture, FlowModel, init_identity

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def flows(draw):
    """A perturbed flow over a random small architecture, and a seed."""
    dim = draw(st.integers(1, 4))
    arch = FlowArchitecture(
        blocks=draw(st.integers(1, 3)),
        hidden_width=draw(st.integers(1, 5)),
        hidden_depth=draw(st.integers(1, 2)),
        permute=draw(st.booleans()),
    )
    seed = draw(st.integers(0, 2**16))
    g = init_identity(dim, arch, seed=seed)
    g.theta += 0.2 * np.random.default_rng(seed).standard_normal(g.theta.shape)
    return g, seed


def objective(g, x, v, c):
    y, logdet, _ = g._forward_cached(x)
    return float(np.sum(v * y) + np.sum(c * logdet))


@PROPERTY
@given(flows())
def test_inverse_undoes_forward(case):
    g, seed = case
    x = np.random.default_rng(seed + 1).standard_normal((20, g.dim))
    y, logdet = g.forward(x)
    xi, logdet_inv = g.inverse(y)
    assert np.max(np.abs(xi - x)) < 1e-8
    assert np.allclose(logdet_inv, logdet)


@PROPERTY
@given(flows())
def test_logdet_matches_numerical_jacobian(case):
    g, seed = case
    x0 = np.random.default_rng(seed + 2).standard_normal(g.dim)
    h = 1e-6
    eye = h * np.eye(g.dim)
    jac = (g.forward(x0 + eye)[0] - g.forward(x0 - eye)[0]).T / (2 * h)
    _, logdet = g.forward(x0)
    assert logdet == pytest.approx(np.linalg.slogdet(jac)[1], abs=1e-5)


@PROPERTY
@given(flows())
def test_every_parameter_gradient_matches_finite_differences(case):
    g, seed = case
    rng = np.random.default_rng(seed + 3)
    x = rng.standard_normal((6, g.dim))
    v = rng.standard_normal((6, g.dim))
    c = rng.standard_normal(6)
    grads = g.backward(x, v, c).flat()
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
    for flow in (g, g.copy(), FlowModel.from_spec(g.to_spec())):
        params = flow.parameters()
        assert_views(params, flow.theta)
        grads = flow.backward(x, dy, dld)
        flat = grads.flat()
        assert_views(flat, grads.vector)
        assert [a.shape for a in flat] == [p.shape for p in params]
        again = flow.backward(x, dy, dld)
        assert not np.shares_memory(again.vector, grads.vector)
        assert np.array_equal(again.vector, grads.vector)
