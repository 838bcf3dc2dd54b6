import warnings

import numpy as np
import pytest

from tiltgen import (
    AdversarialCriterion,
    BayesPosteriorClassifier,
    ClassifierCriterion,
    ContractError,
    DegenerateCriterionError,
    DiagGaussian,
    LatentCriterion,
    LatentDecoder,
    LinearCriterion,
    LogisticClassifier,
    PeakCriterion,
    WindowMeanCriterion,
    normalize_affine,
)
from tiltgen.criteria import LOG_PROB_FLOOR, AffineNormalizedCriterion, Criterion
from tiltgen.solver import pareto_sweep
from tiltgen.tuner import TuneConfig
from tests.conftest import finite_diff_grad


class QuadraticCriterion(Criterion):
    label = "quadratic"

    def __init__(self, dim):
        self.dim = dim

    def value(self, x):
        batch = self._batch(x)
        return np.sum(batch**2, axis=1)

    def grad(self, x):
        batch = self._batch(x)
        return 2.0 * batch


class ConstantCriterion(Criterion):
    label = "constant"

    def __init__(self, dim, c=1.0):
        self.dim = dim
        self.c = c

    def value(self, x):
        batch = self._batch(x)
        return np.full(batch.shape[0], self.c)

    def grad(self, x):
        batch = self._batch(x)
        return np.zeros_like(batch)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_identity_like(std_normal_1d):
    f = normalize_affine(LinearCriterion([1.0]), std_normal_1d, 40000, seed=1)
    assert abs(f.shift) < 5 / np.sqrt(40000) * 3
    assert abs(f.scale - 1.0) < 5 / np.sqrt(40000) * 3


def test_normalize_affine_map(std_normal_1d):
    class ShiftScale(LinearCriterion):
        def value(self, x):
            return 2.0 * super().value(x) + 7.0

        def grad(self, x):
            return 2.0 * super().grad(x)

    f = normalize_affine(ShiftScale([1.0]), std_normal_1d, 60000, seed=2)
    assert f.shift == pytest.approx(7.0, abs=0.05)
    assert f.scale == pytest.approx(2.0, abs=0.05)
    # normalized criterion has mean ~0, std ~1 under p
    vals = f.value(std_normal_1d.sample(60000, seed=3))
    assert abs(vals.mean()) < 5 / np.sqrt(60000)
    assert abs(vals.std(ddof=1) - 1.0) < 5 / np.sqrt(60000)


def test_normalize_constant_degenerate(std_normal_1d):
    with pytest.raises(DegenerateCriterionError):
        normalize_affine(ConstantCriterion(1), std_normal_1d, 1000, seed=0)


def test_normalize_preserves_order_and_grad_direction(std_normal_2d):
    f = QuadraticCriterion(2)
    g = normalize_affine(f, std_normal_2d, 5000, seed=4)
    x = std_normal_2d.sample(200, seed=5)
    assert np.array_equal(np.argsort(f.value(x)), np.argsort(g.value(x)))
    gf, gg = f.grad(x), g.grad(x)
    cos = np.sum(gf * gg, axis=1) / (
        np.linalg.norm(gf, axis=1) * np.linalg.norm(gg, axis=1)
    )
    assert np.all(np.abs(cos - 1.0) < 1e-12)


def test_normalize_idempotent_up_to_noise(std_normal_1d):
    f1 = normalize_affine(QuadraticCriterion(1), std_normal_1d, 50000, seed=6)
    f2 = normalize_affine(f1, std_normal_1d, 50000, seed=7)
    assert f2.shift == pytest.approx(0.0, abs=0.05)
    assert f2.scale == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# classifier criteria


def test_logistic_logprob_gradient_closed_form():
    w = np.array([2.0, -1.0])
    h = LogisticClassifier(w, bias=0.3)
    f = ClassifierCriterion(h, target_class=1, form="log-prob")
    x = np.array([[0.2, 0.5], [-1.0, 2.0]])
    z = x @ w + 0.3
    sig = 1 / (1 + np.exp(-z))
    assert np.allclose(f.grad(x), (1 - sig)[:, None] * w)
    fd = finite_diff_grad(lambda v: f.value(v), x[0])
    assert np.allclose(f.grad(x[:1])[0], fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
def test_logistic_log_probabilities_match_the_softplus_form(scale):
    # both signs of zero, of the smallest scale and of both tails, then
    # random logits
    edges = np.array([0.0, 1e-300, 1.0, 40.0, 745.0, 1e300])
    rng = np.random.default_rng(12)
    z = np.concatenate([edges, -edges, scale * rng.standard_normal(10_000)])
    got = LogisticClassifier([1.0]).log_probabilities(z[:, None])
    # log sigma(-+z) = -softplus(+-z)
    want = np.stack([-np.logaddexp(0.0, z), -np.logaddexp(0.0, -z)], axis=1)
    assert got.shape == want.shape
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want))
    assert np.all(np.abs(np.exp(got).sum(axis=1) - 1.0) <= 1e-15)


def test_prob_form_saturates_to_zero_gradient():
    h = LogisticClassifier([1.0])
    f = ClassifierCriterion(h, target_class=1, form="prob")
    assert np.linalg.norm(f.grad(np.array([[40.0]]))[0]) < 1e-12


def test_logistic_gradient_below_the_exp_overflow_is_zero_without_a_warning():
    # exp(-z) overflows to inf below a logit of about -709, where sigma is 0
    f = ClassifierCriterion(LogisticClassifier([1.0]), 1, "prob")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = f.value_and_grad(np.array([[-800.0], [0.0]]))
    assert value.tolist() == [0.0, 0.5]
    assert grad.tolist() == [[0.0], [0.25]]


def test_log_prob_floor_clamps_value_and_gradient():
    h = LogisticClassifier([1.0])
    f = ClassifierCriterion(h, target_class=1, form="log-prob")
    x = np.array([[-100.0]])  # log sigma(-100) = -100 < floor
    assert f.value(x)[0] == LOG_PROB_FLOOR
    assert np.all(f.grad(x)[0] == 0.0)


def test_bayes_posterior_tilt_recovers_component(mixture_pm2):
    # p(x) * h(right|x) is proportional to the right component density
    h = BayesPosteriorClassifier(mixture_pm2)
    f = ClassifierCriterion(h, target_class=1, form="log-prob")
    target = DiagGaussian([2.0], [1.0])
    xs = np.linspace(-6, 6, 201)[:, None]
    tilted_log = mixture_pm2.log_density(xs) + f.value(xs) - np.log(0.5)
    assert np.allclose(tilted_log, target.log_density(xs), atol=1e-9)


def test_bayes_posterior_gradient_finite_differences(mixture_pm2):
    h = BayesPosteriorClassifier(mixture_pm2)
    for form in ("prob", "log-prob", "entropy"):
        f = ClassifierCriterion(h, target_class=1, form=form)
        for x0 in (-2.5, 0.1, 1.7):
            fd = finite_diff_grad(lambda v: f.value(v), np.array([x0]), h=1e-5)
            assert np.allclose(f.grad(np.array([[x0]]))[0], fd, rtol=1e-4, atol=1e-8)


# ---------------------------------------------------------------------------
# adversarial criterion


def test_adversarial_unit_gaussians():
    f = AdversarialCriterion(DiagGaussian([0.0], [1.0]), DiagGaussian([1.0], [1.0]))
    xs = np.linspace(-3, 3, 11)[:, None]
    assert np.allclose(f.value(xs), xs[:, 0] - 0.5, atol=1e-12)
    assert np.allclose(f.grad(xs), 1.0)


def test_adversarial_identical_distributions(std_normal_1d):
    f = AdversarialCriterion(std_normal_1d, DiagGaussian([0.0], [1.0]))
    xs = np.linspace(-3, 3, 11)[:, None]
    assert np.allclose(f.value(xs), 0.0, atol=1e-12)


def test_adversarial_tilt_is_geometric_interpolation(std_normal_1d):
    # tilting N(0,1) by beta * (x - 1/2) gives N(beta, 1): check via
    # exhaustive tilting of a fine grid
    from tiltgen.oracles import discrete_qbeta

    f = AdversarialCriterion(std_normal_1d, DiagGaussian([1.0], [1.0]))
    xs = np.linspace(-9, 9, 9001)
    probs = np.exp(std_normal_1d.log_density(xs[:, None]))
    probs /= probs.sum()
    table = discrete_qbeta(xs[:, None], probs, f, beta=0.5)
    assert table.mean_f + 0.5 == pytest.approx(0.5, abs=1e-6)  # E[x] = 0.5
    assert table.var_f == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# curve criteria


def test_peak_constant_curve():
    f = PeakCriterion(5, (1, 4), temperature=0.1)
    c = 2.5
    x = np.full((1, 5), c)
    assert f.value(x)[0] == pytest.approx(c + 0.1 * np.log(3))


def test_peak_bounds_hard_max():
    rng = np.random.default_rng(0)
    f = PeakCriterion(8, (0, 8), temperature=0.05)
    for _ in range(20):
        x = rng.standard_normal(8)
        assert f.value(x[None])[0] >= x.max()
        assert f.value(x[None])[0] <= x.max() + 0.05 * np.log(8) + 1e-12


def test_peak_gradient_is_window_softmax():
    f = PeakCriterion(6, (2, 5), temperature=0.3)
    x = np.random.default_rng(1).standard_normal(6)
    g = f.grad(x[None])[0]
    assert np.all(g[:2] == 0) and g[5] == 0
    assert g[2:5].sum() == pytest.approx(1.0)
    fd = finite_diff_grad(lambda v: f.value(v), x)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-8)


def test_window_mean_constant_curve_is_zero():
    f = WindowMeanCriterion(7, (2, 5))
    assert f.value(np.full((1, 7), 3.3))[0] == pytest.approx(0.0, abs=1e-12)


def test_window_mean_indicator_curve():
    f = WindowMeanCriterion(10, (3, 7))
    x = np.zeros(10)
    x[3:7] = 1.0
    assert f.value(x[None])[0] == pytest.approx(1.0 - 4 / 10)


def test_empty_or_out_of_range_window():
    with pytest.raises(ContractError):
        PeakCriterion(5, (3, 3), temperature=0.1)
    with pytest.raises(ContractError):
        WindowMeanCriterion(5, (2, 9))


@pytest.mark.parametrize("build", [
    lambda: AffineNormalizedCriterion(LinearCriterion([1.0]), 0.0, np.nan),
    lambda: AffineNormalizedCriterion(LinearCriterion([1.0]), 0.0, np.inf),
    lambda: AffineNormalizedCriterion(LinearCriterion([1.0]), np.nan, 1.0),
    lambda: AffineNormalizedCriterion(LinearCriterion([1.0]), -np.inf, 1.0),
    lambda: PeakCriterion(3, (0, 2), np.nan),
    lambda: PeakCriterion(3, (0, 2), np.inf),
], ids=["scale-nan", "scale-inf", "shift-nan", "shift-inf", "temperature-nan",
        "temperature-inf"])
def test_criterion_constructors_reject_non_finite_settings(build):
    with pytest.raises(ContractError):
        build()


# ---------------------------------------------------------------------------
# latent lifting


def test_lift_deterministic_decoder_is_exact():
    dec = LatentDecoder(np.eye(3), noise_variance=0.0)
    f = QuadraticCriterion(3)
    lifted = LatentCriterion(f, dec, mc_samples=1)
    z = np.random.default_rng(2).standard_normal((10, 3))
    assert np.allclose(lifted.value(z), f.value(z))


def test_lift_deterministic_gradient_chain_rule():
    a = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, -1.0]])
    dec = LatentDecoder(a, noise_variance=0.0)
    f = QuadraticCriterion(3)
    lifted = LatentCriterion(f, dec, mc_samples=1)
    z = np.array([0.3, -0.7])
    assert np.allclose(lifted.grad(z[None])[0], f.grad((z @ a.T)[None])[0] @ a)
    fd = finite_diff_grad(lambda v: lifted.value(v), z)
    assert np.allclose(lifted.grad(z[None])[0], fd, rtol=1e-5, atol=1e-8)


def test_lift_linear_criterion_noise_averages_out():
    dec = LatentDecoder([[1.0], [2.0]], noise_variance=0.8)
    coeff = np.array([1.0, -0.5])
    f = LinearCriterion(coeff)
    lifted = LatentCriterion(f, dec, mc_samples=400, seed=11)
    z = np.array([[1.0], [-2.0], [0.0]])
    expected = (z @ dec.weights.T) @ coeff
    # frozen-noise residual is the same constant for every z
    residuals = lifted.value(z) - expected
    assert np.allclose(residuals, residuals[0], atol=1e-12)
    assert abs(residuals[0]) < 4 * np.sqrt(0.8) * np.linalg.norm(coeff) / np.sqrt(400)


def test_lift_mc_variance_scaling():
    dec = LatentDecoder([[1.0], [1.0]], noise_variance=1.0)
    f = QuadraticCriterion(2)
    z = np.array([[0.5]])
    vals_1 = [LatentCriterion(f, dec, 1, seed=s).value(z)[0] for s in range(300)]
    vals_100 = [LatentCriterion(f, dec, 100, seed=s).value(z)[0] for s in range(300)]
    ratio = np.var(vals_1) / np.var(vals_100)
    assert 30 < ratio < 300  # ~100x shrinkage


def test_lift_requires_valid_mc_count():
    dec = LatentDecoder([[1.0]], noise_variance=1.0)
    with pytest.raises(ContractError):
        LatentCriterion(LinearCriterion([1.0]), dec, mc_samples=0)


# ---------------------------------------------------------------------------
# trade-off-curve invariance under affine reparametrization


def test_tradeoff_curve_invariant_under_affine_transform(std_normal_1d):
    class Rescaled(LinearCriterion):
        def value(self, x):
            return 2.0 * super().value(x) + 7.0

        def grad(self, x):
            return 2.0 * super().grad(x)

    cfg = TuneConfig(steps=800, warm_steps=400, learning_rate=5e-3)
    grid = [0.0, 1.0, 2.0]
    curves = []
    for raw in (LinearCriterion([1.0]), Rescaled([1.0])):
        f = normalize_affine(raw, std_normal_1d, 50000, seed=21)
        records = pareto_sweep(
            std_normal_1d, f, grid, tune_cfg=cfg, moments_n=20000, seed=31
        )
        pts = [(r["beta"], r["moments"]) for r in records]
        curves.append([(est.dkl, est.mean_f) for _, est in pts])
    for (d1, e1), (d2, e2) in zip(*curves):
        assert d1 == pytest.approx(d2, abs=0.08)
        assert e1 == pytest.approx(e2, abs=0.08)
