"""Fused evaluation (``value_and_grad``, ``log_density_and_score``) returns
bit for bit what the separate calls return, for every built-in; and the
protocol a user subclass or classifier must follow."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltgen import (
    CapabilityError,
    DiagGaussian,
    GaussianMixture,
    LinearCriterion,
    fit_q,
    init_identity,
)
from tiltgen.criteria import (
    AdversarialCriterion,
    AffineNormalizedCriterion,
    BayesPosteriorClassifier,
    ClassifierCriterion,
    Criterion,
    LatentCriterion,
    LogisticClassifier,
    PeakCriterion,
    WindowMeanCriterion,
)
from tiltgen.dists import Distribution, LatentDecoder
from tiltgen.flows import FlowArchitecture
from tiltgen.tuner import TuneConfig, TunedModel

MIX2 = GaussianMixture(
    [0.5, 0.5], [DiagGaussian([-2.0, 0.0], [1.0, 1.0]), DiagGaussian([2.0, 0.0], [1.0, 1.0])]
)
MIX3 = GaussianMixture(
    [0.2, 0.3, 0.5],
    [
        DiagGaussian([-3.0, 1.0], [0.5, 2.0]),
        DiagGaussian([0.0, 0.0], [1.0, 1.0]),
        DiagGaussian([3.0, -1.0], [2.0, 0.7]),
    ],
)
NOISY = LatentDecoder([[1.0, 0.5], [-0.3, 1.2], [0.7, -0.4]], 0.3)
NOISELESS = LatentDecoder([[1.0, 0.5], [-0.3, 1.2]], 0.0)

DISTRIBUTIONS = {
    "diag-gaussian": DiagGaussian([0.5, -1.0], [2.0, 0.3]),
    "mixture-2": MIX2,
    "mixture-3": MIX3,
    "decoder-noisy": NOISY.marginal(),
    "decoder-noiseless": NOISELESS.marginal(),
}


def _criteria():
    out = {
        "linear": LinearCriterion([1.0, -0.5]),
        "normalized": AffineNormalizedCriterion(
            ClassifierCriterion(BayesPosteriorClassifier(MIX2), 1, "log-prob"), 0.3, 1.7
        ),
        "adversarial": AdversarialCriterion(MIX2, DiagGaussian([1.0, 0.0], [1.5, 1.0])),
        "peak": PeakCriterion(2, (0, 2), 0.3),
        "window-mean": WindowMeanCriterion(2, (1, 2)),
        "latent-noisy": LatentCriterion(PeakCriterion(3, (0, 3), 0.5), NOISY, 4, seed=3),
        "latent-noiseless": LatentCriterion(
            ClassifierCriterion(LogisticClassifier([1.0, -2.0], 0.5), 1, "prob"), NOISELESS, 4
        ),
    }
    classifiers = {
        "logistic": LogisticClassifier([1.5, -0.5], 0.2),
        "bayes-2": BayesPosteriorClassifier(MIX2),
        "bayes-3": BayesPosteriorClassifier(MIX3),
    }
    for name, clf in classifiers.items():
        for form in ClassifierCriterion.FORMS:
            out[f"{name}-{form}"] = ClassifierCriterion(clf, 1, form)
    # a steep classifier whose log-probability is clamped at LOG_PROB_FLOOR on
    # about a third of the test points
    out["logistic-log-prob-floor"] = ClassifierCriterion(
        LogisticClassifier([20.0, -5.0]), 1, "log-prob"
    )
    return out


CRITERIA = _criteria()


def _points(dim, n, seed):
    return 2.5 * np.random.default_rng(seed).standard_normal((n, dim))


def _assert_same(fused, separate):
    assert len(fused) == len(separate) == 2
    for a, b in zip(fused, separate):
        assert np.shape(a) == np.shape(b)
        assert np.array_equal(a, b)


batch_sizes = st.integers(min_value=1, max_value=64)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.mark.parametrize("name", sorted(CRITERIA))
@settings(max_examples=20, deadline=None)
@given(n=batch_sizes, seed=seeds)
def test_value_and_grad_equals_separate_calls(name, n, seed):
    f = CRITERIA[name]
    x = _points(f.dim, n, seed)
    _assert_same(f.value_and_grad(x), (f.value(x), f.grad(x)))
    _assert_same(f.value_and_grad(x[:1]), (f.value(x[:1]), f.grad(x[:1])))


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
@settings(max_examples=20, deadline=None)
@given(n=batch_sizes, seed=seeds)
def test_log_density_and_score_equals_separate_calls(name, n, seed):
    p = DISTRIBUTIONS[name]
    x = _points(p.dim, n, seed)
    _assert_same(p.log_density_and_score(x), (p.log_density(x), p.score(x)))
    _assert_same(p.log_density_and_score(x[:1]), (p.log_density(x[:1]), p.score(x[:1])))


def test_fused_default_keeps_missing_score_error():
    model = TunedModel(DiagGaussian.standard(2), init_identity(2, seed=0), beta=0.0)
    with pytest.raises(CapabilityError):
        model.log_density_and_score(np.zeros((3, 2)))
    with pytest.raises(CapabilityError):
        model.score(np.zeros((3, 2)))


class ValueOnlyCriterion(Criterion):
    dim = 2

    def value(self, x):
        return np.sum(x, axis=-1)


def test_criterion_without_gradient_raises_not_implemented():
    f = ValueOnlyCriterion()
    for call in (f.grad, f.value_and_grad):
        with pytest.raises(NotImplementedError, match="neither grad nor value_and_grad"):
            call(np.zeros((3, 2)))


class ProtocolOnlyClassifier:
    """A user classifier offering only the two protocol methods."""

    def __init__(self, inner):
        self._inner = inner
        self.dim = inner.dim
        self.num_classes = inner.num_classes

    def log_probabilities(self, batch):
        return self._inner.log_probabilities(batch)

    def log_probabilities_and_grads(self, batch, labels):
        return self._inner.log_probabilities_and_grads(batch, labels)


@pytest.mark.parametrize("form", ClassifierCriterion.FORMS)
def test_protocol_only_classifier_matches_logistic(form):
    logistic = LogisticClassifier([1.5, -0.5], 0.2)
    builtin = ClassifierCriterion(logistic, 1, form)
    user = ClassifierCriterion(ProtocolOnlyClassifier(logistic), 1, form)
    x = _points(2, 33, 9)
    for points in (x, x[:1]):
        _assert_same(user.value_and_grad(points), builtin.value_and_grad(points))
        _assert_same((user.value(points), user.grad(points)),
                     (builtin.value(points), builtin.grad(points)))


# ---------------------------------------------------------------------------
# user subclasses that define only the separate calls


class SeparateOnlyCriterion(Criterion):
    """Delegates value and grad; inherits the default value_and_grad."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.label = "separate-only"

    def value(self, x):
        return self.inner.value(x)

    def grad(self, x):
        return self.inner.grad(x)


class SeparateOnlyDistribution(Distribution):
    """Delegates log_density, score and sample; inherits the default
    log_density_and_score."""

    kind = "separate-only"

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def log_density(self, x):
        return self.inner.log_density(x)

    def score(self, x):
        return self.inner.score(x)

    def sample(self, n, seed):
        return self.inner.sample(n, seed)


def _fit(p, f):
    cfg = TuneConfig(steps=60, batch_size=64, learning_rate=5e-3, improvement_tol=0)
    return fit_q(p, f, 1.0, init_identity(2, FlowArchitecture(blocks=1, hidden_width=8), seed=4),
                 cfg, 5)


def test_subclass_with_separate_calls_fits_like_builtin():
    f = ClassifierCriterion(BayesPosteriorClassifier(MIX2), 1, "log-prob")
    builtin = _fit(MIX2, f)
    user = _fit(SeparateOnlyDistribution(MIX2), SeparateOnlyCriterion(f))
    assert user.trace_rows == builtin.trace_rows
    assert np.array_equal(user.flow.theta, builtin.flow.theta)


def test_adversarial_value_and_grad_evaluates_each_density_once(monkeypatch):
    # a Gaussian model against a two-component mixture: one fused call per
    # distribution, 2 evaluations in all, since the mixture evaluates its
    # components from its own parameter tables without calling them
    model = DiagGaussian([1.0, 0.0], [1.5, 1.0])
    f = AdversarialCriterion(model, MIX2)
    x = _points(2, 50, 11)
    separate = (MIX2.log_density(x) - model.log_density(x), MIX2.score(x) - model.score(x))
    calls = Counter()

    def counting(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    for cls in (DiagGaussian, GaussianMixture):
        for name in ("log_density", "log_density_and_score"):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    fused = f.value_and_grad(x)
    assert calls == {"log_density_and_score": 2}, calls
    _assert_same(fused, separate)
