"""The diagonal-Gaussian densities and scores come from one pass over a table
of component parameters (``dists._diag_gaussian_terms``).  They must keep the
bytes and the memory order of the per-component formulas below, which
evaluate one component at a time, stack the results to (n, k) and reduce
along the component axis.  The order matters for bytes too: the mixture
score's sum over three or more components rounds by the layout of the
component scores, so the tests pin the strides ``np.stack`` gives."""

import numpy as np
import pytest

from tiltgen import DiagGaussian, GaussianMixture, fit_q, init_identity
from tiltgen.criteria import BayesPosteriorClassifier, ClassifierCriterion
from tiltgen.flows import FlowArchitecture
from tiltgen.tuner import TuneConfig

# ---------------------------------------------------------------------------
# the per-component formulas


class PerComponentGaussian(DiagGaussian):
    def log_density(self, x):
        diff = x - self.mean
        log_norm = 0.5 * np.sum(np.log(2.0 * np.pi) + np.log(self.variance))
        return -0.5 * np.sum(diff * diff / self.variance, axis=1) - log_norm

    def log_density_and_score(self, x):
        return self.log_density(x), -(x - self.mean) / self.variance


class PerComponentMixture(GaussianMixture):
    """Samples as ``GaussianMixture`` does; evaluates one component at a time."""

    def _shifted(self, component_log_densities):
        joint = component_log_densities + self._log_weights
        m = joint.max(axis=1, keepdims=True)
        joint -= m
        w = np.exp(joint, out=joint)
        return w, w.sum(axis=1, keepdims=True), m

    def _component_log_densities(self, x):
        return np.stack([c.log_density(x) for c in self.components], axis=1)

    def log_density(self, x):
        _, total, m = self._shifted(self._component_log_densities(x))
        return np.log(total[:, 0]) + m[:, 0]

    def responsibilities(self, x):
        w, total, _ = self._shifted(self._component_log_densities(x))
        w /= total
        return w

    def posterior_terms(self, x):
        parts = [c.log_density_and_score(x) for c in self.components]
        comp_scores = np.stack([score for _, score in parts], axis=1)
        w, total, m = self._shifted(np.stack([log_p for log_p, _ in parts], axis=1))
        log_p = np.log(total[:, 0]) + m[:, 0]
        w /= total
        score = np.einsum("nk,nkd->nd", w, comp_scores)
        return log_p, w, comp_scores, score

    def log_density_and_score(self, x):
        log_p, _, _, score = self.posterior_terms(x)
        return log_p, score


def _gaussian_params(rng, d):
    return 3.0 * rng.standard_normal(d), np.exp(rng.standard_normal(d))


def _pair(kind, k, d, seed):
    """The distribution and its per-component twin, with equal parameters."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        mean, var = _gaussian_params(rng, d)
        return DiagGaussian(mean, var), PerComponentGaussian(mean, var)
    params = [_gaussian_params(rng, d) for _ in range(k)]
    weights = rng.dirichlet(np.ones(k))
    if k > 1:
        # a zero-weight component, far from the others
        weights[-1] = 0.0
        weights /= weights.sum()
        params[-1] = (params[-1][0] + 50.0, params[-1][1])
    return (
        GaussianMixture(weights, [DiagGaussian(m, v) for m, v in params]),
        PerComponentMixture(weights, [PerComponentGaussian(m, v) for m, v in params]),
    )


def _batch(p, n, order, seed):
    rng = np.random.default_rng(seed)
    x = 2.5 * rng.standard_normal((n, p.dim))
    means = p._means
    # points on a component mean (zero differences, signed zero scores) and
    # far in the tails, where densities underflow and responsibilities are 0/1
    x[: min(n, len(means))] = means[: min(n, len(means))]
    x[len(means) :: 5] *= 1e3
    return np.asarray(x, order=order)


def _results(p, x):
    out = {"log_density": p.log_density(x), "log_density_and_score": p.log_density_and_score(x)}
    if isinstance(p, GaussianMixture):
        out["responsibilities"] = p.responsibilities(x)
        out["posterior_terms"] = p.posterior_terms(x)
    return out


def _flat(results):
    for name, value in results.items():
        for i, arr in enumerate(value if isinstance(value, tuple) else (value,)):
            yield f"{name}[{i}]", arr


CASES = [("gaussian", 1, d) for d in (1, 2, 3, 7)] + [
    ("mixture", k, d) for k in (1, 2, 3, 7) for d in (1, 2, 3, 7)
]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 4096, 4097])
@pytest.mark.parametrize("kind,k,d", CASES)
def test_same_bytes_and_memory_order_as_per_component(kind, k, d, n, order):
    p, ref = _pair(kind, k, d, seed=1000 * k + d)
    x = _batch(p, n, order, seed=n)
    got, want = dict(_flat(_results(p, x))), dict(_flat(_results(ref, x)))
    assert got.keys() == want.keys()
    for name in got:
        a, b = got[name], want[name]
        assert a.shape == b.shape and a.strides == b.strides, name
        # int64 views: array_equal would take -0.0 for 0.0
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "kind,k,d",
    [("gaussian", 1, 8), ("gaussian", 1, 16)]
    + [("mixture", k, d) for k, d in [(8, 2), (2, 8), (16, 3), (3, 16), (8, 16)]],
)
def test_eight_or_more_terms_agree_to_rounding(kind, k, d, order):
    # np.sum adds 8 or more terms of a C-ordered row pairwise, the pass adds
    # them in order: the last bits may differ.  Each result agrees within
    # 1e-13 of its scale: log-densities relative to themselves,
    # responsibilities (probabilities) absolutely, a mixture score relative
    # to the responsibility-weighted magnitudes of the component scores it
    # sums; the component scores are not sums and keep their bytes
    p, ref = _pair(kind, k, d, seed=7 * k + d)
    x = np.asarray(2.5 * np.random.default_rng(k + d).standard_normal((1000, d)), order=order)
    got, want = dict(_flat(_results(p, x))), dict(_flat(_results(ref, x)))
    if kind == "gaussian":
        scale = None
    else:
        _, resp, comp_scores, _ = ref.posterior_terms(x)
        scale = np.einsum("nk,nkd->nd", resp, np.abs(comp_scores))
    for name in got:
        a, b = got[name], want[name]
        assert a.shape == b.shape and a.strides == b.strides, name
        if name in ("log_density[0]", "log_density_and_score[0]", "posterior_terms[0]"):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0, err_msg=name)
        elif name in ("responsibilities[0]", "posterior_terms[1]"):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13, err_msg=name)
        elif name == "posterior_terms[2]" or scale is None:
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
        else:
            assert np.all(np.abs(a - b) <= 1e-13 * scale), name


def test_two_block_bayes_fit_is_bit_identical_to_per_component_mixture():
    # with two blocks the flow's output is F-ordered (the permutation's
    # x[:, perm]), and so are the scores and the criterion gradient that
    # feed the flow's backward pass
    def mixture(cls, comp):
        return cls([0.5, 0.5], [comp([-2.0, 0.0], [1.0, 1.0]), comp([2.0, 0.0], [1.0, 1.0])])

    init = init_identity(2, FlowArchitecture(blocks=2, hidden_width=16), seed=11)
    cfg = TuneConfig(steps=120, batch_size=64, learning_rate=5e-3, improvement_tol=0)
    y = init._forward_cached(np.zeros((4, 2)))[0]
    assert y.flags.f_contiguous and not y.flags.c_contiguous
    fits = []
    for p in (mixture(GaussianMixture, DiagGaussian), mixture(PerComponentMixture, PerComponentGaussian)):
        f = ClassifierCriterion(BayesPosteriorClassifier(p), 1, "log-prob")
        fits.append(fit_q(p, f, 1.0, init, cfg, 12))
    model, ref = fits
    assert model.trace_rows == ref.trace_rows
    assert np.array_equal(model.flow.theta.view(np.int64), ref.flow.theta.view(np.int64))
