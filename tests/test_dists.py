import numpy as np
import pytest

from tiltgen import (
    ContractError,
    DiagGaussian,
    GaussianMixture,
    LatentDecoder,
    distribution_from_spec,
)
from tiltgen.rng import make_generator
from tests.conftest import finite_diff_grad

LOG_2PI = np.log(2 * np.pi)


def test_standard_normal_mode_log_density(std_normal_1d):
    assert std_normal_1d.log_density(np.array([[0.0]]))[0] == pytest.approx(-0.5 * LOG_2PI)


def test_mixture_log_density_matches_direct_sum(mixture_pm2, oracle_values):
    # two-term sum evaluated independently and frozen
    assert mixture_pm2.log_density(np.array([[0.0]]))[0] == pytest.approx(
        oracle_values["mixture_pm2_logpdf_at_0"], abs=1e-12
    )


def test_latent_decoder_marginal_closed_form(oracle_values):
    dec = LatentDecoder([[1.0]], noise_variance=1.0)
    marginal = dec.marginal()
    # marginal of z -> z + eps is N(0, 2)
    assert marginal.log_density(np.array([[0.0]]))[0] == pytest.approx(
        oracle_values["n_0_2_logpdf_at_0"], abs=1e-12
    )


def test_log_density_dimension_mismatch(std_normal_2d):
    with pytest.raises(ContractError):
        std_normal_2d.log_density(np.zeros((1, 3)))


def test_gaussian_score_values():
    assert DiagGaussian([0.0], [1.0]).score(np.array([[3.0]]))[0, 0] == pytest.approx(-3.0)
    assert DiagGaussian([1.0], [4.0]).score(np.array([[3.0]]))[0, 0] == pytest.approx(-0.5)


@pytest.mark.parametrize("kind", ["gaussian", "mixture", "decoder"])
def test_score_matches_finite_differences(kind, mixture_pm2):
    if kind == "gaussian":
        d = DiagGaussian([0.3, -1.0], [0.5, 2.0])
    elif kind == "mixture":
        d = mixture_pm2
    else:
        d = LatentDecoder([[1.0, 0.2], [0.0, 0.8]], noise_variance=0.3).marginal()
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(d.dim) * 2
        fd = finite_diff_grad(lambda v: d.log_density(v), x, h=1e-4)
        assert np.allclose(d.score(x[None])[0], fd, rtol=1e-5, atol=1e-7)


def test_sample_mean_clt_bound(std_normal_1d):
    s = std_normal_1d.sample(10**5, seed=12)
    assert abs(s.mean()) < 0.013  # 4 sigma / sqrt(n)


def test_sample_determinism(mixture_pm2):
    a = mixture_pm2.sample(500, seed=77)
    b = mixture_pm2.sample(500, seed=77)
    assert np.array_equal(a, b)
    c = mixture_pm2.sample(500, seed=78)
    assert not np.array_equal(a, c)


def test_samples_are_the_bytes_of_the_out_of_place_expression():
    # sampling scales and shifts the normal draws in place; the reference is
    # mean + z * std, drawn from the same stream
    n, seed = 10**5, 5
    gauss = DiagGaussian([1.5, -0.25], [0.3, 2.0])
    z = make_generator(seed).standard_normal((n, 2))
    assert np.array_equal(gauss.sample(n, seed), gauss.mean + z * np.sqrt(gauss.variance))

    mix = GaussianMixture(
        [0.3, 0.7], [DiagGaussian([-2.0, 1.0], [0.5, 1.5]), gauss]
    )
    rng = make_generator(seed)
    idx = rng.choice(2, size=n, p=mix.weights)
    z = rng.standard_normal((n, 2))
    means = np.stack([c.mean for c in mix.components])[idx]
    stds = np.sqrt(np.stack([c.variance for c in mix.components]))[idx]
    assert np.array_equal(mix.sample(n, seed), means + z * stds)


def test_mixture_component_fractions(mixture_pm2):
    s = mixture_pm2.sample(10**5, seed=3)
    right = (s[:, 0] > 0).mean()
    assert abs(right - 0.5) < 0.01


@pytest.mark.parametrize(
    "dist",
    [
        DiagGaussian([0.4], [0.7]),
        DiagGaussian([0.0, 1.0], [1.0, 0.5]),
        GaussianMixture(
            [0.3, 0.7], [DiagGaussian([-2.0], [1.0]), DiagGaussian([2.0], [0.5])]
        ),
        LatentDecoder([[1.0], [0.5]], noise_variance=0.5).marginal(),
    ],
)
def test_density_normalizes_by_quadrature(dist):
    if dist.dim == 1:
        xs = np.linspace(-12, 12, 4001)
        mass = np.trapezoid(np.exp(dist.log_density(xs[:, None])), xs)
    else:
        xs = np.linspace(-8, 8, 321)
        grid_x, grid_y = np.meshgrid(xs, xs)
        pts = np.column_stack([grid_x.ravel(), grid_y.ravel()])
        vals = np.exp(dist.log_density(pts)).reshape(grid_x.shape)
        mass = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_own_sample_loglik_matches_entropy():
    d = DiagGaussian([1.0, -0.5], [0.5, 2.0])
    n = 50000
    ll = -d.log_density(d.sample(n, seed=9))
    se = ll.std(ddof=1) / np.sqrt(n)
    assert abs(ll.mean() - d.entropy()) < 3 * se


def test_zero_weight_component_carries_no_density():
    # a zero-weight component far from the live one: the mixture is N(0, 1)
    mix = GaussianMixture([1.0, 0.0], [DiagGaussian([0.0], [1.0]), DiagGaussian([100.0], [1.0])])
    x = np.array([[100.0], [0.0]])
    assert np.array_equal(mix.log_density(x), DiagGaussian([0.0], [1.0]).log_density(x))
    assert mix.log_density(x)[0] == pytest.approx(-5000.0 - 0.5 * LOG_2PI)
    assert np.array_equal(mix.responsibilities(x), [[1.0, 0.0], [1.0, 0.0]])
    log_p, resp, _, score = mix.posterior_terms(x)
    assert np.array_equal(resp, [[1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(score, [[-100.0], [0.0]])
    assert np.all(mix.sample(1000, seed=0) < 50.0)


def test_mixture_weight_validation():
    comps = [DiagGaussian([0.0], [1.0]), DiagGaussian([1.0], [1.0])]
    with pytest.raises(ContractError):
        GaussianMixture([0.6, 0.5], comps)
    with pytest.raises(ContractError):
        GaussianMixture([1.2, -0.2], comps)
    # one row of two weights for one component: the count and the sum match,
    # so only the shape check stops it before sampling
    with pytest.raises(ContractError, match="1-d"):
        GaussianMixture([[0.5, 0.5]], comps[:1])


def test_variance_must_be_positive():
    with pytest.raises(ContractError):
        DiagGaussian([0.0], [0.0])


def test_deterministic_decoder_marginal_density_needs_full_rank():
    rank_deficient = LatentDecoder([[1.0], [1.0]], noise_variance=0.0).marginal()
    rank_deficient.sample(10, seed=0)  # sampling never factors the covariance
    with pytest.raises(ContractError):
        rank_deficient.log_density(np.zeros((1, 2)))
    # full-rank deterministic decoder has a proper density
    full = LatentDecoder([[2.0]], noise_variance=0.0).marginal()
    assert np.isfinite(full.log_density(np.zeros((1, 1)))[0])


def test_distribution_from_spec_loads_each_kind(mixture_pm2):
    cases = [
        ({"kind": "diag-gaussian", "mean": [0.1, 0.2], "variance": [1.0, 2.0]},
         DiagGaussian([0.1, 0.2], [1.0, 2.0])),
        ({"kind": "gaussian-mixture", "weights": [0.5, 0.5],
          "components": [{"mean": [-2.0], "variance": [1.0]},
                         {"mean": [2.0], "variance": [1.0]}]},
         mixture_pm2),
        ({"kind": "latent-decoder", "weights": [[1.0, 0.0]], "noise_variance": 0.4},
         LatentDecoder([[1.0, 0.0]], noise_variance=0.4).marginal()),
    ]
    for spec, d in cases:
        loaded = distribution_from_spec(spec)
        assert loaded.kind == spec["kind"] and loaded.dim == d.dim
        x = np.linspace(-1, 1, 7)[:, None] * np.ones((1, d.dim))
        assert np.allclose(loaded.log_density(x), d.log_density(x))
    with pytest.raises(ContractError, match="unknown distribution kind"):
        distribution_from_spec({"kind": "student-t"})


def test_decoder_decode_paths():
    dec = LatentDecoder([[1.0], [0.5]], noise_variance=0.0)
    z = np.array([[2.0], [0.0]])
    assert np.allclose(dec.decode(z, seed=0), [[2.0, 1.0], [0.0, 0.0]])
    noisy = LatentDecoder([[1.0], [0.5]], noise_variance=0.25)
    a = noisy.decode(z, seed=4)
    assert np.array_equal(a, noisy.decode(z, seed=4))
    assert not np.allclose(a, dec.decode(z, seed=4))


@pytest.mark.parametrize(
    "mean,variance",
    [
        ([0.0, np.nan], [1.0, np.inf]),
        ([np.inf], [1.0]),
        ([0.0], [np.nan]),
        ([0.0], [np.inf]),
        ([], []),
    ],
)
def test_non_finite_or_empty_gaussian_parameters_are_rejected(mean, variance):
    with pytest.raises(ContractError):
        DiagGaussian(mean, variance)


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]])
def test_non_finite_mixture_weights_are_rejected(weights):
    comps = [DiagGaussian([0.0], [1.0]), DiagGaussian([1.0], [1.0])]
    with pytest.raises(ContractError):
        GaussianMixture(weights, comps)


def test_mixture_components_must_be_gaussians():
    with pytest.raises(ContractError, match="DiagGaussian"):
        GaussianMixture([1.0], [LatentDecoder([[1.0]], 1.0).marginal()])


@pytest.mark.parametrize("weights,noise", [([[1.0]], np.nan), ([[1.0]], np.inf), ([[np.nan]], 1.0)])
def test_non_finite_decoder_parameters_are_rejected(weights, noise):
    with pytest.raises(ContractError):
        LatentDecoder(weights, noise)
