import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltgen import (
    ContractError,
    DiagGaussian,
    LatentDecoder,
    LinearCriterion,
    NumericError,
    RareEventError,
    RejectionSampler,
    discrete_qbeta,
    latent_kl_bound_check,
    rejection_sample,
    top_quantile_threshold,
)
from tiltgen.oracles import GaussianTiltOracle
from tiltgen.rng import make_generator
from tests.conftest import exact_shift_model


def fine_gaussian_grid(lo=-10.0, hi=10.0, n=20001):
    xs = np.linspace(lo, hi, n)
    p = np.exp(-0.5 * xs**2)
    p /= p.sum()
    return xs[:, None], p


# ---------------------------------------------------------------------------
# closed-form tilt


def test_tilt_beta_zero_is_base():
    v = GaussianTiltOracle([0.3, -1.0], [1.0, 2.0], [1.0, 0.0])
    assert np.allclose(v.tilted_mean(0.0), [0.3, -1.0])
    assert v.dkl(0.0) == 0.0


def test_tilt_unit_gaussian_closed_form():
    v = GaussianTiltOracle([0.0], [1.0], [1.0])
    assert np.allclose(v.tilted_mean(2.0), [2.0])
    assert v.mean_f(2.0) == pytest.approx(2.0)
    assert v.dkl(2.0) == pytest.approx(2.0)


def test_tilt_divergence_budget_value():
    beta = np.sqrt(2 * 4.61)
    v = GaussianTiltOracle([0.0], [1.0], [1.0])
    assert v.dkl(beta) == pytest.approx(4.61, abs=1e-12)
    assert beta == pytest.approx(3.036, abs=1e-3)


@pytest.mark.parametrize("coeff, what", [(1e200, "a.S.a"), (1.0, "D_KL")])
def test_tilt_overflow_raises_numeric_error_without_warnings(coeff, what):
    # a.S.a = 1e400 overflows at construction; with a = 1 only beta^2/2 does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=what):
            oracle = GaussianTiltOracle([0.0], [1.0], [coeff])
            assert np.array_equal(oracle.tilted_mean(1e200), [1e200])
            assert oracle.mean_f(1e200) == 1e200
            oracle.dkl(1e200)


@pytest.mark.parametrize("mean, variance, coeff", [
    ([0.0], [np.nan], [1.0]),
    ([0.0], [np.inf], [1.0]),
    ([np.nan], [1.0], [1.0]),
    ([np.inf], [1.0], [1.0]),
    ([0.0], [1.0], [np.nan]),
    ([0.0], [1.0], [-np.inf]),
], ids=["variance-nan", "variance-inf", "mean-nan", "mean-inf", "coeff-nan", "coeff-inf"])
def test_tilt_rejects_non_finite_parameters(mean, variance, coeff):
    with pytest.raises(ContractError):
        GaussianTiltOracle(mean, variance, coeff)


def test_tilt_vs_discrete_table_on_fine_grid():
    support, probs = fine_gaussian_grid()
    f = LinearCriterion([1.0])
    oracle = GaussianTiltOracle([0.0], [1.0], [1.0])
    for beta in (0.0, 0.7, 2.0):
        table = discrete_qbeta(support, probs, f, beta)
        assert table.mean_f == pytest.approx(oracle.mean_f(beta), abs=1e-6)
        assert table.var_f == pytest.approx(oracle.var_f(beta), abs=1e-6)
        assert table.dkl == pytest.approx(oracle.dkl(beta), abs=1e-6)


# ---------------------------------------------------------------------------
# quantile threshold


def test_quantile_threshold_standard_normal(std_normal_1d, oracle_values):
    t = top_quantile_threshold(
        std_normal_1d, LinearCriterion([1.0]), rho=0.01, n=200000, seed=1
    )
    assert t == pytest.approx(oracle_values["std_normal_q99"], abs=0.04)


def test_quantile_median_for_symmetric(std_normal_1d):
    t = top_quantile_threshold(
        std_normal_1d, LinearCriterion([1.0]), rho=0.5, n=100000, seed=2
    )
    assert t == pytest.approx(0.0, abs=0.02)


def test_quantile_threshold_seed_stability(std_normal_1d):
    ts = [
        top_quantile_threshold(
            std_normal_1d, LinearCriterion([1.0]), rho=0.05, n=100000, seed=s
        )
        for s in (3, 4)
    ]
    # order-statistic se = sqrt(rho(1-rho)/n)/pdf(t) ~ 0.0067
    assert abs(ts[0] - ts[1]) < 6 * 0.0067


def test_quantile_preconditions(std_normal_1d):
    f = LinearCriterion([1.0])
    with pytest.raises(ContractError):
        top_quantile_threshold(std_normal_1d, f, rho=0.0, n=1000, seed=0)
    with pytest.raises(ContractError):
        top_quantile_threshold(std_normal_1d, f, rho=0.001, n=1000, seed=0)


# ---------------------------------------------------------------------------
# rejection sampling


def test_rejection_trivial_predicate(std_normal_1d):
    rs = RejectionSampler(std_normal_1d, lambda x: np.ones(len(x), dtype=bool))
    result = rejection_sample(rs, 100, seed=5)
    assert result.acceptance_rate == 1.0
    assert result.samples.shape == (100, 1)


def test_rejection_top_percent(std_normal_1d, oracle_values):
    t = oracle_values["std_normal_q99"]
    rs = RejectionSampler(std_normal_1d, lambda x: x[:, 0] >= t)
    result = rejection_sample(rs, 2000, seed=6)
    assert result.acceptance_rate == pytest.approx(0.01, abs=0.002)
    # conditional mean of the truncated tail, from the quadrature oracle
    mean = result.samples[:, 0].mean()
    assert mean == pytest.approx(oracle_values["trunc_mean_above_q99"], abs=0.05)


def test_rejection_rare_event_fails_loudly(std_normal_1d):
    rs = RejectionSampler(
        std_normal_1d, lambda x: x[:, 0] >= 6.0, max_attempts=100000
    )
    with pytest.raises(RareEventError) as err:
        rejection_sample(rs, 10, seed=7)
    assert err.value.attempts >= 100000
    assert err.value.accepted < 10


def test_rejection_determinism(std_normal_1d):
    rs = RejectionSampler(std_normal_1d, lambda x: x[:, 0] > 1.0)
    a = rejection_sample(rs, 50, seed=8)
    b = rejection_sample(rs, 50, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert a.attempts == b.attempts


# ---------------------------------------------------------------------------
# discrete tilt table


def test_discrete_beta_zero_is_base():
    support = np.array([[0.0], [1.0], [2.0]])
    probs = np.array([0.2, 0.5, 0.3])
    table = discrete_qbeta(support, probs, LinearCriterion([1.0]), beta=0.0)
    assert np.allclose(table.probs, probs)
    assert table.dkl == pytest.approx(0.0, abs=1e-15)
    assert table.log_z == pytest.approx(0.0, abs=1e-15)


def test_discrete_two_point_hand_values(oracle_values):
    ref = oracle_values["two_point"]
    support = np.array([[0.0], [1.0]])
    probs = np.array([0.5, 0.5])
    table = discrete_qbeta(support, probs, LinearCriterion([1.0]), beta=ref["beta"])
    assert np.exp(table.log_z) == pytest.approx(ref["Z"], abs=1e-12)
    assert table.mean_f == pytest.approx(ref["E"], abs=1e-12)
    assert table.dkl == pytest.approx(ref["dkl"], abs=1e-12)


def test_discrete_derivative_identity_by_finite_differences():
    support, probs = fine_gaussian_grid(n=4001)
    f = LinearCriterion([1.0])
    h = 1e-4
    for beta in (0.3, 1.1):
        up = discrete_qbeta(support, probs, f, beta + h)
        dn = discrete_qbeta(support, probs, f, beta - h)
        mid = discrete_qbeta(support, probs, f, beta)
        assert (up.mean_f - dn.mean_f) / (2 * h) == pytest.approx(
            mid.var_f, rel=1e-6
        )


def test_discrete_dkl_is_finite_once_a_tilted_probability_underflows():
    support = np.array([[0.0], [1.0], [2.0]])
    probs = np.array([0.2, 0.3, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = discrete_qbeta(support, probs, LinearCriterion([1.0]), beta=800.0)
    # q_beta(0) underflows to 0 and q_beta(2) is 1 to the last bit, so the
    # divergence is -log p(2)
    assert table.probs[0] == 0.0
    assert table.dkl == pytest.approx(-np.log(0.5), abs=1e-12)


@pytest.mark.parametrize("beta", [-2.0, 0.7, 3.0])
def test_discrete_dkl_is_the_sum_over_the_support(beta):
    support = np.array([[0.0], [1.0], [2.0]])
    probs = np.array([0.2, 0.3, 0.5])
    table = discrete_qbeta(support, probs, LinearCriterion([1.0]), beta=beta)
    q = table.probs
    assert table.dkl == pytest.approx(np.sum(q * (np.log(q) - np.log(probs))), abs=1e-14)


def test_discrete_rejects_bad_inputs():
    with pytest.raises(ContractError):
        discrete_qbeta(np.zeros((3, 1)), np.array([0.5, 0.5]), LinearCriterion([1.0]), 0.0)
    with pytest.raises(ContractError):
        discrete_qbeta(np.zeros((2, 1)), np.array([0.7, 0.7]), LinearCriterion([1.0]), 0.0)
    # both probs < 0 and |sum - 1| > tol are false for a NaN
    with pytest.raises(ContractError, match="distribution"):
        discrete_qbeta([[0.0], [1.0], [2.0]], [0.5, np.nan, 0.5], LinearCriterion([1.0]), 1.0)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_discrete_rejects_a_non_finite_beta(beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="beta"):
            discrete_qbeta([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5], LinearCriterion([1.0]), beta)


@pytest.mark.parametrize("point, beta", [
    (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (np.inf, 0.0), (1e300, 1e10),
], ids=["nan", "inf", "-inf", "inf-at-beta-0", "overflow"])
def test_discrete_rejects_a_tilt_that_is_not_finite_on_the_support(point, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not finite on the support"):
            discrete_qbeta([[0.0], [point], [2.0]], [0.2, 0.3, 0.5], LinearCriterion([1.0]), beta)


# ---------------------------------------------------------------------------
# latent KL bound


def test_kl_bound_prior_replacement_is_zero():
    dec = LatentDecoder([[1.0, 0.0], [0.3, 0.9]], noise_variance=0.5)
    result = latent_kl_bound_check(dec, np.zeros(2), np.ones(2))
    assert result.kl_latent == pytest.approx(0.0, abs=1e-12)
    assert result.kl_marginal == pytest.approx(0.0, abs=1e-12)
    assert result.holds


def test_kl_bound_one_dim_closed_form(oracle_values):
    ref = oracle_values["kl_bound_1d"]
    dec = LatentDecoder([[1.0]], noise_variance=1.0)
    result = latent_kl_bound_check(dec, [ref["m"]], 1.0)
    assert result.kl_latent == pytest.approx(ref["kl_latent"], abs=1e-12)
    assert result.kl_marginal == pytest.approx(ref["kl_marginal"], abs=1e-12)
    assert result.holds


def test_kl_bound_decoder_ignoring_latent():
    dec = LatentDecoder([[0.0]], noise_variance=1.0)
    for m in (0.0, 1.0, -3.0):
        result = latent_kl_bound_check(dec, [m], 1.0)
        assert result.kl_marginal == pytest.approx(0.0, abs=1e-12)
        assert result.holds


def test_kl_bound_random_trials():
    rng = make_generator(99)
    for _ in range(200):
        latent = int(rng.integers(1, 4))
        data = int(rng.integers(1, 5))
        dec = LatentDecoder(
            rng.standard_normal((data, latent)), float(rng.uniform(0.05, 2.0))
        )
        result = latent_kl_bound_check(
            dec, rng.standard_normal(latent), rng.uniform(0.2, 3.0, size=latent)
        )
        assert result.holds
        assert result.margin >= -1e-10


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def gaussian_replacements(draw, latent: int):
    """A latent replacement N(m, S) with a full covariance S."""
    rng = np.random.default_rng(draw(seeds))
    m = draw(st.floats(0.0, 3.0)) * rng.standard_normal(latent)
    root = draw(st.floats(0.0, 1.0)) * rng.standard_normal((latent, latent))
    return m, root @ root.T + draw(st.floats(0.05, 2.0)) * np.eye(latent)


@st.composite
def noisy_decoders_and_replacements(draw):
    latent, data = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    weights = draw(st.floats(0.0, 3.0)) * np.random.default_rng(draw(seeds)).standard_normal(
        (data, latent)
    )
    dec = LatentDecoder(weights, draw(st.floats(0.01, 2.0)))
    return dec, draw(gaussian_replacements(latent))


@st.composite
def invertible_decoders_and_replacements(draw):
    """A noise-free square decoder with singular values in [0.2, 5]."""
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    singular = np.array([draw(st.floats(0.2, 5.0)) for _ in range(k)])
    dec = LatentDecoder(u @ np.diag(singular) @ v.T, 0.0)
    return dec, draw(gaussian_replacements(k))


@settings(max_examples=100, deadline=None)
@given(noisy_decoders_and_replacements())
def test_kl_bound_holds_for_any_gaussian_replacement(case):
    dec, (m, cov) = case
    result = latent_kl_bound_check(dec, m, cov)
    assert result.holds
    assert result.margin >= -1e-10


@settings(max_examples=100, deadline=None)
@given(invertible_decoders_and_replacements())
def test_kl_bound_is_tight_under_an_invertible_noise_free_decoder(case):
    # x = A z is a bijection, and KL is unchanged under a bijection
    dec, (m, cov) = case
    result = latent_kl_bound_check(dec, m, cov)
    assert result.kl_marginal == pytest.approx(result.kl_latent, abs=1e-9)
    assert result.holds


# ---------------------------------------------------------------------------
# tilted vs truncated comparison (soft band)


def test_tilted_and_rejected_means_within_band(std_normal_1d, oracle_values):
    rho = 0.01
    beta = np.sqrt(2 * -np.log(rho))
    tilted = exact_shift_model(std_normal_1d, beta, beta=beta)
    tilted_mean = tilted.sample(100000, seed=10)[:, 0].mean()
    t = oracle_values["std_normal_q99"]
    rs = RejectionSampler(std_normal_1d, lambda x: x[:, 0] >= t)
    rejected_mean = rejection_sample(rs, 5000, seed=11).samples[:, 0].mean()
    rel = abs(tilted_mean - rejected_mean) / abs(rejected_mean)
    assert rel < 0.15
