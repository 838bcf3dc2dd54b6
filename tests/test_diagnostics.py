import math
import warnings

import numpy as np
import pytest

from tiltgen import (
    BayesPosteriorClassifier,
    ClassifierCriterion,
    ContractError,
    DiagGaussian,
    GaussianMixture,
    LinearCriterion,
    LogisticClassifier,
    NumericError,
    audit_run,
    compare_criteria,
    dists,
    grad_norm_profile,
    importance_curves,
    normalize_affine,
)
from tiltgen.criteria import Criterion
from tiltgen.diagnostics import ZERO_MASS_EPS
from tiltgen.dists import Distribution
from tiltgen.rng import make_generator
from tiltgen.solver import MomentEstimates, pareto_sweep
from tiltgen.tuner import TuneConfig


class TwoPointDistribution(Distribution):
    """Uniform on {0, 1} (one-dimensional); enough protocol for diagnostics."""

    kind = "two-point"
    dim = 1

    def sample(self, n, seed):
        rng = make_generator(seed)
        return rng.integers(0, 2, size=(n, 1)).astype(float)


class ScaledCriterion(Criterion):
    def __init__(self, base, factor):
        self.base = base
        self.factor = factor
        self.dim = base.dim
        self.label = f"{base.label} x{factor}"

    def value(self, x):
        return self.factor * self.base.value(x)

    def grad(self, x):
        return self.factor * self.base.grad(x)


# ---------------------------------------------------------------------------
# gradient-norm profiles


def test_profile_linear_criterion_single_bin(std_normal_2d):
    f = LinearCriterion([3.0, 4.0])
    profile = grad_norm_profile(f, std_normal_2d, n=2000, seed=1)
    assert profile.median == pytest.approx(5.0)
    assert profile.p99 == pytest.approx(5.0)
    assert profile.max == pytest.approx(5.0)
    assert (profile.counts > 0).sum() == 1
    assert profile.counts.sum() == 2000
    assert profile.zero_mass_fraction == 0.0


def test_profile_deterministic(std_normal_1d):
    f = LinearCriterion([1.0])
    p1 = grad_norm_profile(f, std_normal_1d, n=1500, seed=3)
    p2 = grad_norm_profile(f, std_normal_1d, n=1500, seed=3)
    assert np.array_equal(p1.counts, p2.counts)
    assert np.array_equal(p1.bin_edges, p2.bin_edges)


def test_profile_requires_enough_samples(std_normal_1d):
    with pytest.raises(ContractError):
        grad_norm_profile(LinearCriterion([1.0]), std_normal_1d, 100, seed=0)


def test_profile_scales_linearly_with_tilt_strength(std_normal_1d):
    # the log-ratio gradient of the tilted model is beta * grad f exactly,
    # so its norm profile is the criterion's profile with scaled bin edges
    f = ClassifierCriterion(LogisticClassifier([4.0]), 1, "log-prob")
    beta = 2.5
    base = grad_norm_profile(f, std_normal_1d, n=3000, seed=4)
    scaled = grad_norm_profile(ScaledCriterion(f, beta), std_normal_1d, n=3000, seed=4)
    assert np.allclose(scaled.bin_edges, beta * base.bin_edges)
    assert np.array_equal(scaled.counts, base.counts)
    assert scaled.median == pytest.approx(beta * base.median)
    assert scaled.p99 == pytest.approx(beta * base.p99)


# ---------------------------------------------------------------------------
# importance curves


def test_curves_beta_zero_exact(std_normal_1d):
    f = LinearCriterion([1.0])
    curve = importance_curves([f], std_normal_1d, [0.0, 0.5], n=10**4, seed=5)[0]
    values = f.value(std_normal_1d.sample(10**4, seed=5))
    assert curve.log_z[0] == 0.0
    assert curve.dkl[0] == 0.0
    assert curve.mean_f[0] == pytest.approx(values.mean(), abs=1e-14)
    assert curve.ess[0] == pytest.approx(10**4)


def test_curves_two_point_matches_hand_values(oracle_values):
    ref = oracle_values["two_point"]
    p = TwoPointDistribution()
    f = LinearCriterion([1.0])
    n = 40000
    curve = importance_curves([f], p, [0.0, ref["beta"]], n=n, seed=6)[0]
    # batch-means standard errors of the self-normalized estimates
    values = f.value(p.sample(n, seed=6))
    w = np.exp(ref["beta"] * values)
    blocks = values.reshape(20, -1)
    wb = w.reshape(20, -1)
    e_blocks = (blocks * wb).sum(axis=1) / wb.sum(axis=1)
    se_e = e_blocks.std(ddof=1) / np.sqrt(20)
    assert curve.mean_f[1] == pytest.approx(ref["E"], abs=3 * se_e)
    z_blocks = wb.mean(axis=1)
    d_blocks = ref["beta"] * e_blocks - np.log(z_blocks)
    se_d = d_blocks.std(ddof=1) / np.sqrt(20)
    assert curve.dkl[1] == pytest.approx(ref["dkl"], abs=3 * se_d)


def test_curves_match_gaussian_tilt(std_normal_1d):
    f = LinearCriterion([1.0])
    betas = [0.0, 0.5, 1.0, 1.5]
    n = 50000
    curve = importance_curves([f], std_normal_1d, betas, n=n, seed=7)[0]
    assert np.all(curve.ess >= 100)
    for i, beta in enumerate(betas):
        # se of the self-normalized mean is roughly sqrt(Var_q f / ESS)
        se = np.sqrt(1.0 / curve.ess[i])
        assert curve.mean_f[i] == pytest.approx(beta, abs=3 * se + 1e-9)
        assert curve.dkl[i] == pytest.approx(beta**2 / 2, abs=3 * se * max(beta, 0.1) + 1e-9)


def test_curves_dkl_identity_exact(std_normal_1d):
    f = LinearCriterion([1.0])
    curve = importance_curves([f], std_normal_1d, [0.0, 0.7, 1.3], n=10**4, seed=8)[0]
    assert np.allclose(
        curve.dkl, curve.betas * curve.mean_f - curve.log_z, atol=1e-12
    )


def test_curves_monotone_and_reliability_marking(std_normal_1d):
    f = LinearCriterion([1.0])
    betas = [0.0, 1.0, 2.0, 6.0, 8.0]
    curve = importance_curves([f], std_normal_1d, betas, n=10**4, seed=9)[0]
    reliable_part = curve.reliable
    assert reliable_part[0] and reliable_part[1]
    assert not curve.reliable[-1]  # ESS collapses at beta=8
    # once unreliable, stays unreliable
    first_bad = int(np.argmin(curve.reliable))
    assert not curve.reliable[first_bad:].any()
    good = curve.reliable
    assert np.all(np.diff(curve.mean_f[good]) > -0.05)
    assert np.all(np.diff(curve.dkl[good]) > -0.05)


def test_curves_require_enough_samples(std_normal_1d):
    with pytest.raises(ContractError):
        importance_curves([LinearCriterion([1.0])], std_normal_1d, [0.0], n=100, seed=0)


@pytest.mark.parametrize("chunk_rows", [dists.EVAL_CHUNK_ROWS, 1000, 3 * 4096 + 1],
                         ids=["default-chunks", "small-chunks", "one-chunk"])
def test_curves_match_an_exactly_rounded_sum(monkeypatch, chunk_rows):
    # all betas are weighted in one blocked pass over row chunks; each sum
    # must stay as accurate as one over the whole sample.  Values near 5 keep
    # every mean and ESS, and log Z off beta = 0 (where it is exactly 0), well
    # away from 0, so a relative bound is meaningful.
    p = DiagGaussian([5.0], [1.0])
    f = LinearCriterion([1.0])
    betas = [-1.5, -0.2, 0.0, 0.3, 2.0]
    n = 3 * 4096 + 1
    monkeypatch.setattr(dists, "EVAL_CHUNK_ROWS", chunk_rows)
    curve = importance_curves([f], p, betas, n=n, seed=27)[0]
    values = [float(v) for v in f.value(p.sample(n, seed=27))]
    for i, beta in enumerate(betas):
        log_w = [beta * v for v in values]
        shift = max(log_w)
        w = [math.exp(lw - shift) for lw in log_w]
        total = math.fsum(w)
        log_z = shift + math.log(total) - math.log(n)
        mean_f = math.fsum(wi * v for wi, v in zip(w, values)) / total
        ess = total * total / math.fsum(wi * wi for wi in w)
        assert curve.log_z[i] == pytest.approx(log_z, rel=1e-13, abs=0.0), beta
        assert curve.mean_f[i] == pytest.approx(mean_f, rel=1e-13, abs=0.0), beta
        assert curve.ess[i] == pytest.approx(ess, rel=1e-13, abs=0.0), beta


def _mixture_candidates():
    p = GaussianMixture(
        [0.5, 0.5], [DiagGaussian([-2.0, 0.0], [1.0, 1.0]), DiagGaussian([2.0, 0.0], [1.0, 1.0])]
    )
    candidates = [
        normalize_affine(f, p, 5000, seed=30 + i)
        for i, f in enumerate([
            ClassifierCriterion(BayesPosteriorClassifier(p), 1, "log-prob"),
            ClassifierCriterion(BayesPosteriorClassifier(p), 1, "prob"),
            ClassifierCriterion(LogisticClassifier([4.0, 0.0], 0.0), 1, "log-prob"),
            LinearCriterion([1.0, 0.0]),
        ])
    ]
    return p, candidates


def _bits(curve):
    return [getattr(curve, name).view(np.int64)
            for name in ("betas", "log_z", "mean_f", "dkl", "ess")] + [curve.reliable]


def test_curves_of_all_candidates_are_each_candidates_own_curve():
    # one shared sample: a candidate's curve is the same bytes whether it is
    # weighted alone or with the others, in any order
    p, candidates = _mixture_candidates()
    betas = [2.0, -0.5, 0.0, 3.5, -1.0, 0.7]
    n = 10**4 + 1
    together = importance_curves(candidates, p, betas, n, seed=29)
    assert len(together) == len(candidates)
    for f, curve in zip(candidates, together):
        (alone,) = importance_curves([f], p, betas, n, seed=29)
        for a, b in zip(_bits(curve), _bits(alone)):
            assert np.array_equal(a, b), f.label
    reordered = importance_curves(candidates[::-1], p, betas, n, seed=29)
    for curve, again in zip(together, reordered[::-1]):
        for a, b in zip(_bits(curve), _bits(again)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [10**4 + 1, 3 * 4096 + 1])
def test_every_candidates_curve_matches_an_exactly_rounded_sum(n):
    # values away from 0 keep every mean, and log Z off beta = 0, away from
    # 0, so a relative bound is meaningful; the grid is unsorted and mixes
    # signs, since the betas >= 0 and < 0 are shifted by the chunk max and min
    p = DiagGaussian([5.0], [1.0])
    candidates = [
        LinearCriterion([1.0]),
        LinearCriterion([-2.0]),
        ClassifierCriterion(LogisticClassifier([1.0], -5.0), 1, "prob"),
    ]
    betas = [2.0, -0.2, 0.0, -1.5, 0.3]
    curves = importance_curves(candidates, p, betas, n=n, seed=31)
    x = p.sample(n, seed=31)
    for f, curve in zip(candidates, curves):
        values = [float(v) for v in f.value(x)]
        for i, beta in enumerate(betas):
            log_w = [beta * v for v in values]
            shift = max(log_w)
            w = [math.exp(lw - shift) for lw in log_w]
            total = math.fsum(w)
            log_z = shift + math.log(total) - math.log(n)
            mean_f = math.fsum(wi * v for wi, v in zip(w, values)) / total
            ess = total * total / math.fsum(wi * wi for wi in w)
            assert curve.log_z[i] == pytest.approx(log_z, rel=1e-13, abs=0.0), (f.label, beta)
            assert curve.mean_f[i] == pytest.approx(mean_f, rel=1e-13, abs=0.0), (f.label, beta)
            assert curve.ess[i] == pytest.approx(ess, rel=1e-13, abs=0.0), (f.label, beta)


def test_curves_name_the_criterion_and_beta_of_an_overflowing_curve(std_normal_1d):
    # beta * max(f) overflows: a typed error, and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            NumericError,
            match=r"criterion 'linear' has a non-finite importance curve at beta 1e\+308",
        ):
            importance_curves(
                [LinearCriterion([1.0])], std_normal_1d, [0.0, 1.0, 1e308], n=10**4, seed=32
            )


class InfAbove(Criterion):
    """x0, but +inf where x0 > 3: its value and its gradient norm blow up."""

    label = "inf-above-3"
    dim = 1

    def value(self, x):
        batch = np.asarray(x, dtype=float)
        return np.where(batch[:, 0] > 3.0, np.inf, batch[:, 0])

    def grad(self, x):
        batch = np.asarray(x, dtype=float)
        return np.where(batch > 3.0, np.inf, 1.0)


def test_curves_name_a_criterion_with_a_non_finite_value(std_normal_1d):
    with pytest.raises(NumericError, match="'inf-above-3' has a non-finite value"):
        importance_curves([InfAbove()], std_normal_1d, [0.0, 1.0], n=10**4, seed=28)


def test_profiles_name_a_criterion_with_a_non_finite_gradient(std_normal_1d):
    candidates = [LinearCriterion([1.0]), InfAbove()]
    with pytest.raises(NumericError, match="'inf-above-3' has a non-finite gradient norm"):
        compare_criteria(candidates, std_normal_1d, n=10**4, seed=29)
    with pytest.raises(NumericError, match="'inf-above-3' has a non-finite gradient norm"):
        grad_norm_profile(InfAbove(), std_normal_1d, n=10**4, seed=29)


def test_normalization_names_a_criterion_with_a_non_finite_value(std_normal_1d):
    with pytest.raises(NumericError, match="'inf-above-3' has a non-finite value"):
        normalize_affine(InfAbove(), std_normal_1d, 10**4, seed=30)


# ---------------------------------------------------------------------------
# criterion comparison


def toy_candidates(p, n=20000):
    h = LogisticClassifier([10.0])
    prob = ClassifierCriterion(h, 1, "prob")
    logp = ClassifierCriterion(h, 1, "log-prob")
    return (
        normalize_affine(prob, p, n, seed=10),
        normalize_affine(logp, p, n, seed=11),
    )


def test_compare_ranks_log_form_first(std_normal_1d):
    prob, logp = toy_candidates(std_normal_1d)
    report = compare_criteria([prob, logp], std_normal_1d, n=20000, seed=12)
    assert report.ranked()[0].label == logp.label
    scores = {e.label: e.regularity_score for e in report.entries}
    assert scores[prob.label] / scores[logp.label] >= 2.0
    zm = {e.label: e.zero_mass_fraction for e in report.entries}
    assert zm[prob.label] > zm[logp.label]


def test_compare_identical_candidates_stable_order(std_normal_1d):
    f1 = normalize_affine(LinearCriterion([1.0]), std_normal_1d, 5000, seed=13)
    f2 = normalize_affine(LinearCriterion([1.0]), std_normal_1d, 5000, seed=13)
    report = compare_criteria([f1, f2], std_normal_1d, n=5000, seed=14)
    assert report.entries[0].regularity_score == report.entries[1].regularity_score
    assert report.ranking == (0, 1)


def test_compare_linear_beats_saturating(std_normal_1d):
    linear = normalize_affine(LinearCriterion([1.0]), std_normal_1d, 5000, seed=15)
    saturating = normalize_affine(
        ClassifierCriterion(LogisticClassifier([8.0]), 1, "prob"),
        std_normal_1d, 5000, seed=16,
    )
    report = compare_criteria([saturating, linear], std_normal_1d, n=5000, seed=17)
    assert report.ranked()[0].label == linear.label
    assert report.ranked()[0].regularity_score == pytest.approx(1.0)
    assert report.ranked()[1].regularity_score > 1.0


def test_compare_score_is_p99_over_median_of_nonzero_norms(std_normal_1d):
    prob, logp = toy_candidates(std_normal_1d)
    linear = LinearCriterion([1.0])
    n, seed = 5000, 20
    report = compare_criteria([prob, logp, linear], std_normal_1d, n=n, seed=seed)
    for f, entry in zip((prob, logp, linear), report.entries):
        norms = np.linalg.norm(np.atleast_2d(f.grad(std_normal_1d.sample(n, seed))), axis=1)
        nonzero = norms[norms >= ZERO_MASS_EPS * norms.max()]
        if f is prob:  # the saturating form has dead-gradient points to drop
            assert nonzero.size < n
        expected = np.quantile(nonzero, 0.99) / np.quantile(nonzero, 0.5)
        assert entry.regularity_score == expected


def test_compare_needs_two_candidates(std_normal_1d):
    f = normalize_affine(LinearCriterion([1.0]), std_normal_1d, 5000, seed=18)
    with pytest.raises(ContractError):
        compare_criteria([f], std_normal_1d, n=5000, seed=19)


# ---------------------------------------------------------------------------
# run audit


def test_audit_converged_benchmark_has_small_gaps(std_normal_1d):
    f = LinearCriterion([1.0])
    betas = [0.0, 0.5, 1.0, 1.5]
    curve = importance_curves([f], std_normal_1d, betas, n=10**5, seed=20)[0]
    # a converged run's sweep: exact tilt values plus realistic MC noise
    sweep = [_record(b, b + 0.005, b**2 / 2 + 0.005) for b in betas]
    report = audit_run(sweep, curve)
    assert not report.undershoot
    assert not report.stagnation
    assert all(abs(r.mean_f_gap) < 0.05 for r in report.rows)
    assert all(abs(r.dkl_gap) < 0.05 for r in report.rows)
    assert abs(report.rows[0].mean_f_gap) < 0.02  # beta = 0 gap is noise-level


def test_audit_flags_undertrained_run(std_normal_1d):
    # 10-step fits cannot move the flow, so measured values hug beta=0
    f = LinearCriterion([1.0])
    betas = [0.0, 1.0, 2.0]
    cfg = TuneConfig(steps=10, warm_steps=10, learning_rate=1e-3, improvement_tol=0)
    records = pareto_sweep(std_normal_1d, f, betas, tune_cfg=cfg,
                           moments_n=5000, seed=22)
    curve = importance_curves([f], std_normal_1d, betas, n=10**4, seed=23)[0]
    report = audit_run(records, curve)
    assert report.undershoot
    assert report.stagnation


def test_audit_requires_matching_grids(std_normal_1d):
    f = LinearCriterion([1.0])
    curve = importance_curves([f], std_normal_1d, [0.0, 1.0], n=10**4, seed=24)[0]
    with pytest.raises(ContractError, match="share a beta grid"):
        audit_run([_record(0.0, 0.0, 0.0)], curve)


def _record(beta, mean_f, dkl):
    est = MomentEstimates(mean_f=mean_f, var_f=1.0, third_central_f=0.0, dkl=dkl, n=100,
                          se_mean=0.1, se_var=0.1, se_third=0.1, se_dkl=0.1)
    return {"iteration": 0, "beta": beta, "moments": est, "trace": []}


@pytest.mark.parametrize(
    "point",
    [
        (1.0, _record(1.0, 0.5, 0.5)["moments"]),  # the retired (beta, moments) pair
        (1.0, 0.5, 0.5),  # the retired (beta, mean_f, dkl) triple
        (1.0, 0.5),
        {"beta": 1.0, "mean_f": 0.5, "dkl": 0.5},
        {"moments": _record(1.0, 0.5, 0.5)["moments"]},
        (1.0, "half", 0.5),
        None,
    ],
    ids=["pair", "triple", "short-tuple", "dict-without-moments", "record-without-beta",
         "non-numeric", "none"],
)
def test_audit_rejects_malformed_point(std_normal_1d, point):
    curve = importance_curves([LinearCriterion([1.0])], std_normal_1d, [0.0, 1.0],
                              n=10**4, seed=26)[0]
    with pytest.raises(ContractError, match="audit point"):
        audit_run([_record(0.0, 0.0, 0.0), point], curve)
