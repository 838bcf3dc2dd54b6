import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tiltgen import DiagGaussian, GaussianMixture, flows
from tiltgen.flows import AffineDiagonalLayer, FlowModel
from tiltgen.tuner import TunedModel

FIXTURES = Path(__file__).parent / "fixtures"

# CI runs (GitHub sets CI) draw the same examples every time, so a property
# failure there reproduces locally with CI=1.
settings.register_profile("tiltgen-ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("tiltgen-ci")


@pytest.fixture(scope="session")
def oracle_values():
    return json.loads((FIXTURES / "oracle_values.json").read_text())


@pytest.fixture
def std_normal_1d():
    return DiagGaussian.standard(1)


@pytest.fixture
def std_normal_2d():
    return DiagGaussian.standard(2)


@pytest.fixture
def mixture_pm2():
    """Half-half mixture of N(-2, 1) and N(2, 1)."""
    return GaussianMixture(
        [0.5, 0.5], [DiagGaussian([-2.0], [1.0]), DiagGaussian([2.0], [1.0])]
    )


@pytest.fixture
def float64_conditioners(monkeypatch):
    """Run every coupling conditioner in float64.  For tests of gradient,
    Jacobian and error plumbing that does not depend on the dtype: their
    finite-difference steps and tolerances are sized for float64."""
    monkeypatch.setattr(flows, "CONDITIONER_DTYPE", np.float64)


def exact_shift_model(base, shift, beta=0.0) -> TunedModel:
    """Tuned model whose flow is an exact shift; the tilt of a Gaussian by a
    linear criterion is such a shift, so this is the closed-form solution."""
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    layer = AffineDiagonalLayer(base.dim, shift=shift)
    return TunedModel(base, FlowModel(base.dim, [layer]), beta)


def flow_gradients(g, x, grad_y, grad_logdet):
    """Parameter gradients of sum_i [grad_y[i] . y_i + grad_logdet[i] * logdet_i]
    at the (n, dim) points ``x``, through the cached passes a fit step runs."""
    _, _, caches = g._forward_cached(x)
    grads, _ = g._backward_cached(caches, grad_y, grad_logdet)
    return grads


def finite_diff_grad(fn, x, h=1e-5):
    """Central differences at the point ``x`` of ``fn``, which maps (n, dim)
    points to (n,) values."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn((x + e)[None])[0] - fn((x - e)[None])[0]) / (2 * h)
    return g
