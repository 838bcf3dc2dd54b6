"""Acceptance suite: every criterion prints one pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
without ``-s`` they appear in captured output (and always on failure).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from tiltgen import (
    AdversarialCriterion,
    ClassifierCriterion,
    DiagGaussian,
    GaussianMixture,
    LinearCriterion,
    LogisticClassifier,
    RareEventError,
    RejectionSampler,
    Target,
    TuneConfig,
    compare_criteria,
    discrete_qbeta,
    estimate_moments,
    fit_q,
    importance_curves,
    init_identity,
    latent_kl_bound_check,
    normalize_affine,
    pareto_sweep,
    rejection_sample,
    solve,
    top_quantile_threshold,
)
from tiltgen.cli import main as cli_main
from tiltgen.criteria import BayesPosteriorClassifier, Criterion
from tiltgen.dists import LatentDecoder
from tiltgen.flows import AffineDiagonalLayer, FlowModel
from tiltgen.oracles import GaussianTiltOracle
from tiltgen.rng import make_generator
from tiltgen.tuner import TunedModel, kl_between
from tests.conftest import exact_shift_model

FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "oracle_values.json").read_text()
)


def report(num: int, checks: dict, detail: str):
    ok = all(checks.values())
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {num} failed checks: {failed}"


class QuadraticTiltCriterion(Criterion):
    """f(x) = x + x^2/4; its tilt of N(0,1) stays Gaussian (skewed f values)."""

    label = "linear-plus-quadratic"
    dim = 1

    def value(self, x):
        batch = self._batch(x)
        return batch[:, 0] + 0.25 * batch[:, 0] ** 2

    def grad(self, x):
        batch = self._batch(x)
        return 1.0 + 0.5 * batch


def quadratic_tilt_model(p, beta):
    # exp(-x^2/2 + beta(x + x^2/4)) is N(mu, v) with v = 1/(1-beta/2), mu = beta*v
    v = 1.0 / (1.0 - 0.5 * beta)
    layer = AffineDiagonalLayer(1, log_scale=[0.5 * np.log(v)], shift=[beta * v])
    return TunedModel(p, FlowModel(1, [layer]), beta)


def close(fd, truth, rel, abs_floor=1e-6):
    return abs(fd - truth) <= max(rel * abs(truth), abs_floor)


# ---------------------------------------------------------------------------


def test_criterion_01_gaussian_tilt_end_to_end():
    t0 = time.perf_counter()
    p = DiagGaussian.standard(2)
    f = LinearCriterion([1.0, 0.0])  # already mean 0 / var 1 under p
    res = solve(
        p, f, Target.divergence(4.61),
        tune_cfg=TuneConfig(steps=2000, warm_steps=800, learning_rate=5e-3,
                            batch_size=256),
        moments_n=50000, seed=101,
    )
    elapsed = time.perf_counter() - t0
    beta_star = np.sqrt(2 * 4.61)
    beta = res.records[-1]["beta"]
    final = res.records[-1]["moments"]
    oracle = GaussianTiltOracle([0.0, 0.0], [1.0, 1.0], [1.0, 0.0])
    kl, kl_se = kl_between(res.model, oracle.tilted_dist(beta), 50000, seed=7)
    checks = {
        "solver converged": res.converged,
        "beta within 2% of sqrt(2*4.61)": abs(beta - beta_star) <= 0.02 * beta_star,
        "achieved D_KL within 3 se of 4.61": abs(final.dkl - 4.61) <= 3 * final.se_dkl,
        "KL(q_hat || tilt oracle) < 1e-2": kl < 1e-2,
        "runtime < 2 min single-threaded": elapsed < 120.0,
    }
    report(
        1, checks,
        f"beta={beta:.4f} (target {beta_star:.4f}), D_KL={final.dkl:.4f}"
        f"+/-{final.se_dkl:.4f}, KL-to-oracle={kl:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_derivative_identities():
    xs = np.linspace(-12.0, 12.0, 48001)
    base = np.exp(-0.5 * xs**2)
    base /= base.sum()
    support = xs[:, None]
    h = 2e-4
    exact_pairs = []
    for f in (LinearCriterion([1.0]), QuadraticTiltCriterion()):
        for beta in (0.0, 0.4, 0.9):
            up = discrete_qbeta(support, base, f, beta + h)
            dn = discrete_qbeta(support, base, f, beta - h)
            mid = discrete_qbeta(support, base, f, beta)
            exact_pairs += [
                ((up.mean_f - dn.mean_f) / (2 * h), mid.var_f),
                ((up.mean_f - 2 * mid.mean_f + dn.mean_f) / h**2,
                 mid.third_central_f),
                ((up.dkl - dn.dkl) / (2 * h), beta * mid.var_f),
                ((up.dkl - 2 * mid.dkl + dn.dkl) / h**2,
                 mid.var_f + beta * mid.third_central_f),
            ]
    exact_ok = all(close(fd, truth, rel=1e-6) for fd, truth in exact_pairs)
    worst_exact = max(
        abs(fd - truth) / max(abs(truth), 1.0) for fd, truth in exact_pairs
    )

    # Monte-Carlo route, n = 1e5, common random numbers across beta +/- h.
    p = DiagGaussian.standard(1)
    n = 10**5
    f_lin = LinearCriterion([1.0])
    mc_errs = []
    for beta in (0.8, 1.2):
        hh = 0.05
        up = estimate_moments(exact_shift_model(p, beta + hh), f_lin, n, seed=3)
        dn = estimate_moments(exact_shift_model(p, beta - hh), f_lin, n, seed=3)
        mid = estimate_moments(exact_shift_model(p, beta), f_lin, n, seed=3)
        mc_errs.append(abs((up.mean_f - dn.mean_f) / (2 * hh) - mid.var_f) / mid.var_f)
        mc_errs.append(
            abs((up.dkl - dn.dkl) / (2 * hh) - beta * mid.var_f) / (beta * mid.var_f)
        )
    f_quad = QuadraticTiltCriterion()
    for beta in (0.8, 1.2):
        hh = 0.05
        up = estimate_moments(quadratic_tilt_model(p, beta + hh), f_quad, n, seed=3)
        dn = estimate_moments(quadratic_tilt_model(p, beta - hh), f_quad, n, seed=3)
        mid = estimate_moments(quadratic_tilt_model(p, beta), f_quad, n, seed=3)
        curvature_d = mid.var_f + beta * mid.third_central_f
        mc_errs.extend([
            abs((up.mean_f - dn.mean_f) / (2 * hh) - mid.var_f) / mid.var_f,
            abs((up.mean_f - 2 * mid.mean_f + dn.mean_f) / hh**2
                - mid.third_central_f) / abs(mid.third_central_f),
            abs((up.dkl - dn.dkl) / (2 * hh) - beta * mid.var_f)
            / (beta * mid.var_f),
            abs((up.dkl - 2 * mid.dkl + dn.dkl) / hh**2 - curvature_d)
            / abs(curvature_d),
        ])
    checks = {
        "exact tables match all four identities at rel 1e-6": exact_ok,
        "MC estimates match at rel 2e-2 (n=1e5)": max(mc_errs) <= 2e-2,
    }
    report(
        2, checks,
        f"exact worst rel err={worst_exact:.2e}, MC worst rel err={max(mc_errs):.2e}",
    )


def test_criterion_03_conditional_modeling():
    mixture = GaussianMixture(
        [0.5, 0.5], [DiagGaussian([-2.0], [1.0]), DiagGaussian([2.0], [1.0])]
    )
    h = BayesPosteriorClassifier(mixture)
    f = ClassifierCriterion(h, target_class=1, form="log-prob")
    flow0 = init_identity(1, seed=31)
    model = fit_q(
        mixture, f, 1.0, flow0,
        TuneConfig(steps=6000, learning_rate=3e-3, batch_size=512, improvement_tol=0), 32,
    )
    n = 10000
    samples = model.sample(n, seed=33)
    assignment = mixture.responsibilities(samples)[:, 1]
    frac_target = float((assignment > 0.5).mean())
    est = estimate_moments(model, LinearCriterion([1.0]), n, seed=34)
    checks = {
        "target-component assignment >= 99%": frac_target >= 0.99,
        "mean matches 2 within 3 se": abs(est.mean_f - 2.0) <= 3 * est.se_mean,
        "variance matches 1 within 3 se": abs(est.var_f - 1.0) <= 3 * est.se_var,
    }
    report(
        3, checks,
        f"assignment={frac_target:.4f}, mean={est.mean_f:.4f}+/-{est.se_mean:.4f}, "
        f"var={est.var_f:.4f}+/-{est.se_var:.4f}",
    )


def test_criterion_04_adversarial_refinement():
    p_model = DiagGaussian([0.0], [1.0])
    p_data = DiagGaussian([1.0], [1.0])
    f = AdversarialCriterion(p_model, p_data)
    model = fit_q(
        p_model, f, 0.5, init_identity(1, seed=41),
        TuneConfig(steps=2500, learning_rate=3e-3, improvement_tol=0), 42,
    )
    mean = float(model.sample(20000, seed=43).mean())
    checks = {"fitted mean = 0.5 +/- 0.03": abs(mean - 0.5) <= 0.03}
    report(4, checks, f"fitted mean={mean:.4f} (geometric-interpolation oracle 0.5)")


def test_criterion_05_latent_kl_bound():
    rng = make_generator(55)
    worst_margin = np.inf
    holds = 0
    trials = 1000
    for _ in range(trials):
        latent = int(rng.integers(1, 4))
        data = int(rng.integers(1, 5))
        dec = LatentDecoder(
            rng.standard_normal((data, latent)), float(rng.uniform(0.05, 2.0))
        )
        result = latent_kl_bound_check(
            dec, rng.standard_normal(latent), rng.uniform(0.2, 3.0, size=latent)
        )
        holds += result.holds and result.margin >= -1e-10
        worst_margin = min(worst_margin, result.margin)
    checks = {"bound holds in all 1000 trials with margin >= 0": holds == trials}
    report(5, checks, f"{holds}/{trials} hold, min margin={worst_margin:.3e}")


def test_criterion_06_criterion_comparison():
    p = DiagGaussian.standard(1)
    h = LogisticClassifier([FIXTURES["toy_logistic"]["w"]])
    prob_f = normalize_affine(ClassifierCriterion(h, 1, "prob"), p, 20000, seed=61)
    log_f = normalize_affine(ClassifierCriterion(h, 1, "log-prob"), p, 20000, seed=62)
    report_obj = compare_criteria([prob_f, log_f], p, n=20000, seed=63)
    by_label = {e.label: e for e in report_obj.entries}
    factor = (
        by_label[prob_f.label].regularity_score
        / by_label[log_f.label].regularity_score
    )
    oracle_factor = FIXTURES["toy_logistic"]["factor"]
    checks = {
        "log form ranked first": report_obj.ranked()[0].label == log_f.label,
        "regularity factor >= 2": factor >= 2.0,
        "factor consistent with grid oracle": 0.5 * oracle_factor
        <= factor
        <= 1.5 * oracle_factor,
    }
    report(
        6, checks,
        f"score(prob)={by_label[prob_f.label].regularity_score:.2f}, "
        f"score(log)={by_label[log_f.label].regularity_score:.2f}, "
        f"factor={factor:.2f} (grid oracle {oracle_factor:.2f})",
    )


def test_criterion_07_importance_curves_two_point():
    ref = FIXTURES["two_point"]
    support = np.array([[0.0], [1.0]])
    probs = np.array([0.5, 0.5])
    f = LinearCriterion([1.0])
    table = discrete_qbeta(support, probs, f, ref["beta"])
    exact_ok = (
        abs(np.exp(table.log_z) - ref["Z"]) < 1e-12
        and abs(table.mean_f - ref["E"]) < 1e-12
        and abs(table.dkl - ref["dkl"]) < 1e-12
    )

    class TwoPoint(DiagGaussian):
        def __init__(self):
            super().__init__([0.5], [0.25])

        def sample(self, n, seed):
            rng = make_generator(seed)
            return rng.integers(0, 2, size=(n, 1)).astype(float)

    p = TwoPoint()
    n = 40000
    curve = importance_curves([f], p, [0.0, ref["beta"]], n=n, seed=71)[0]
    values = f.value(p.sample(n, seed=71))
    w = np.exp(ref["beta"] * values).reshape(20, -1)
    v = values.reshape(20, -1)
    e_blocks = (v * w).sum(axis=1) / w.sum(axis=1)
    d_blocks = ref["beta"] * e_blocks - np.log(w.mean(axis=1))
    se_e = e_blocks.std(ddof=1) / np.sqrt(20)
    se_d = d_blocks.std(ddof=1) / np.sqrt(20)
    mc_ok = (
        abs(curve.mean_f[1] - ref["E"]) <= 3 * se_e
        and abs(curve.dkl[1] - ref["dkl"]) <= 3 * se_d
    )
    endpoint_ok = curve.log_z[0] == 0.0 and curve.dkl[0] == 0.0
    checks = {
        "exact table matches hand values to 1e-12": exact_ok,
        "MC curve matches within 3 se": mc_ok,
        "beta=0 endpoint exact": endpoint_ok,
    }
    report(
        7, checks,
        f"Z={np.exp(table.log_z):.12f}, E={table.mean_f:.12f}, "
        f"D_KL={table.dkl:.12f}; MC E={curve.mean_f[1]:.4f}, "
        f"MC D_KL={curve.dkl[1]:.4f}",
    )


def test_criterion_08_rejection_sampling_motivation():
    p = DiagGaussian.standard(1)
    f = LinearCriterion([1.0])
    rho = 1e-4
    threshold = top_quantile_threshold(p, f, rho, n=2 * 10**6, seed=81)
    rs = RejectionSampler(p, lambda x: x[:, 0] >= threshold, max_attempts=10**7)
    t0 = time.perf_counter()
    result = rejection_sample(rs, 100, seed=82)
    reject_s = time.perf_counter() - t0
    draws_per_accept = result.attempts / 100.0

    # tilted sampling at the matched divergence budget C = -log(rho)
    beta = np.sqrt(-2 * np.log(rho))
    t0 = time.perf_counter()
    model = fit_q(
        p, f, beta, init_identity(1, seed=83),
        TuneConfig(steps=2500, learning_rate=5e-3, improvement_tol=0), 84,
    )
    tilted = model.sample(10000, seed=85)
    tilt_s = time.perf_counter() - t0
    # one base draw per tilted sample, by construction of the pushforward
    tilted_draws_per_sample = 1.0

    rare = RejectionSampler(p, lambda x: x[:, 0] >= 5.7, max_attempts=10**5)
    with pytest.raises(RareEventError):
        rejection_sample(rare, 10, seed=86)

    checks = {
        "rejection produced the requested batch": result.samples.shape == (100, 1),
        "tilted sampler consumed 1 draw per sample": tilted_draws_per_sample == 1.0,
        "too-rare predicate fails loudly": True,  # the raises-block above
    }
    report(
        8, checks,
        f"rejection at rho=1e-4: {draws_per_accept:.0f} draws/accepted sample "
        f"(x{draws_per_accept / tilted_draws_per_sample:.0f} vs tilted sampling "
        f"at matched budget, tilted mean={tilted.mean():.3f}); "
        f"wall {reject_s:.2f} s rejecting 100 vs {tilt_s:.2f} s fitting and "
        f"drawing 10000 tilted; rho~1e-8 with 1e5-attempt budget raises RareEventError",
    )


def test_criterion_09_pareto_monotonicity():
    p = DiagGaussian.standard(1)
    f = LinearCriterion([1.0])
    grid = [0.0, 0.5, 1.0, 1.5, 2.0]
    records = pareto_sweep(
        p, f, grid,
        tune_cfg=TuneConfig(steps=1200, warm_steps=600, learning_rate=5e-3),
        moments_n=20000, seed=92,
    )
    points = [(r["beta"], r["moments"]) for r in records]
    means = np.array([est.mean_f for _, est in points])
    dkls = np.array([est.dkl for _, est in points])
    se_m = np.array([est.se_mean for _, est in points])
    se_d = np.array([est.se_dkl for _, est in points])
    mono_mean = all(
        means[i + 1] >= means[i] - 3 * np.hypot(se_m[i], se_m[i + 1])
        for i in range(len(grid) - 1)
    )
    mono_dkl = all(
        dkls[i + 1] >= dkls[i] - 3 * np.hypot(se_d[i], se_d[i + 1])
        for i in range(len(grid) - 1)
    )
    checks = {
        "E_q f non-decreasing (3 se)": mono_mean,
        "D_KL non-decreasing (3 se)": mono_dkl,
    }
    report(
        9, checks,
        "E=" + "/".join(f"{m:.3f}" for m in means)
        + " D_KL=" + "/".join(f"{d:.3f}" for d in dkls),
    )


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "distribution": {"kind": "diag-gaussian", "mean": [0.0], "variance": [1.0]},
        "criterion": {"name": "linear", "coefficients": [1.0]},
        "flow": {"blocks": 1},
        "tune": {"steps": 300, "warm_steps": 150, "learning_rate": 0.005,
                 "batch_size": 128},
        "target": {"mode": "divergence", "value": 0.5},
        "moments": {"samples": 4000},
        "outputs": {"samples": 50},
        "seeds": {"init": 11, "sampling": 12, "diagnostics": 13},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = cli_main(["tune", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
    identical = []
    for name in ("manifest.json", "trajectory.csv", "trace.csv", "samples.csv"):
        identical.append(
            (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        )
    checks = {"manifest and CSVs byte-identical across re-runs": all(identical)}
    report(10, checks, "manifest.json, trajectory.csv, trace.csv, samples.csv compared")
