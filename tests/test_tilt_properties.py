"""Properties of the exact tilts: the derivative identities the beta search
relies on, and the importance curves as an exact tilt of the sample."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltgen import DiagGaussian, LinearCriterion, importance_curves
from tiltgen.oracles import discrete_qbeta

PROPERTY = settings(max_examples=100, deadline=None)

betas = st.floats(-2.0, 2.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def finite_tilts(draw):
    """A finite support in 2-d, a distribution on it (some points may carry
    no mass) and a linear criterion."""
    k = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(seeds))
    support = rng.uniform(-2.0, 2.0, (k, 2))
    weights = rng.uniform(0.0, 1.0, k) * (rng.uniform(size=k) > 0.2)
    weights[draw(st.integers(0, k - 1))] += 0.5  # at least one live point
    f = LinearCriterion(rng.uniform(-1.5, 1.5, 2))
    return support, weights / weights.sum(), f


@PROPERTY
@given(tilt=finite_tilts(), beta=betas)
def test_discrete_tilt_derivative_identities(tilt, beta):
    """solver.py's four identities, each against a central finite difference:
    d/dbeta E f = Var f, d2/dbeta2 E f = E (f - E f)^3, d/dbeta D = beta Var f,
    d2/dbeta2 D = Var f + beta E (f - E f)^3."""
    support, probs, f = tilt
    h = 1e-3
    dn, mid, up = (discrete_qbeta(support, probs, f, beta + s * h) for s in (-1, 0, 1))
    # every moment of f is at most its spread to the matching power, and the
    # differences carry O(h^2) truncation error times the next two orders
    spread = max(1.0, float(np.ptp(mid.f_values[probs > 0])))

    def close(fd, exact, order):
        assert abs(fd - exact) <= 1e-4 * spread ** (order + 2)

    close((up.mean_f - dn.mean_f) / (2 * h), mid.var_f, 2)
    close((up.mean_f - 2 * mid.mean_f + dn.mean_f) / h**2, mid.third_central_f, 3)
    close((up.dkl - dn.dkl) / (2 * h), beta * mid.var_f, 2)
    close((up.dkl - 2 * mid.dkl + dn.dkl) / h**2,
          mid.var_f + beta * mid.third_central_f, 3)


@settings(max_examples=25, deadline=None)
@given(
    mean=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    variance=st.lists(st.floats(0.2, 3.0), min_size=2, max_size=2),
    coefficients=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2),
    grid=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    seed=seeds,
)
def test_importance_curves_are_the_exact_tilt_of_the_sample(
    mean, variance, coefficients, grid, seed
):
    """The curve at beta is the exact tilt of the empirical distribution of
    p.sample(n, seed), and its ESS is 1 / sum q^2 of that tilt."""
    p = DiagGaussian(mean, variance)
    f = LinearCriterion(coefficients)
    n = 10**4
    curve = importance_curves([f], p, grid, n, seed)[0]
    sample = p.sample(n, seed)
    for i, beta in enumerate(grid):
        exact = discrete_qbeta(sample, np.full(n, 1.0 / n), f, beta)
        scale = 1.0 + abs(beta) * float(np.abs(exact.f_values).max())
        assert abs(curve.log_z[i] - exact.log_z) <= 1e-12 * scale
        assert abs(curve.mean_f[i] - exact.mean_f) <= 1e-12 * scale
        assert abs(curve.dkl[i] - exact.dkl) <= 1e-11 * scale
        assert np.isclose(curve.ess[i], 1.0 / np.sum(exact.probs**2), rtol=1e-12, atol=0.0)
