import inspect

import numpy as np
import pytest

from tiltgen import (
    ContractError,
    DiagGaussian,
    FlatCriterionError,
    FlowArchitecture,
    LinearCriterion,
    NumericError,
    Target,
    estimate_moments,
    newton_step,
    pareto_sweep,
    solve,
)
from tiltgen.oracles import GaussianTiltOracle
from tiltgen.rng import derive_seed
from tiltgen import solver
from tiltgen.solver import (
    MomentEstimates,
    _bracket,
    _quadratic_root,
    _stagnation_message,
    fit_chain,
)
from tiltgen.tuner import TuneConfig, _fit_batches
from tests.conftest import exact_shift_model


def oracle_estimates(oracle: GaussianTiltOracle, beta: float, se=1e-6) -> MomentEstimates:
    return MomentEstimates(
        mean_f=oracle.mean_f(beta),
        var_f=oracle.var_f(beta),
        third_central_f=oracle.third_central_f(beta),
        dkl=oracle.dkl(beta),
        n=10**6,
        se_mean=se,
        se_var=se,
        se_third=se,
        se_dkl=se,
    )


def record(beta: float, est: MomentEstimates, residual: float) -> dict:
    """The keys of a fit record that ``newton_step`` reads."""
    return {"beta": beta, "moments": est, "residual": residual}


# ---------------------------------------------------------------------------
# moment estimation


def test_moments_constant_criterion(std_normal_1d):
    class Const(LinearCriterion):
        def value(self, x):
            return np.zeros_like(super().value(x)) + 4.2

        def grad(self, x):
            return super().grad(x) * 0

    model = exact_shift_model(std_normal_1d, 0.0)
    est = estimate_moments(model, Const([1.0]), 1000, seed=1)
    assert est.mean_f == pytest.approx(4.2)
    assert est.var_f == pytest.approx(0.0, abs=1e-24)
    assert est.third_central_f == pytest.approx(0.0, abs=1e-24)


def test_moments_of_exact_tilt(std_normal_1d):
    model = exact_shift_model(std_normal_1d, 2.0, beta=2.0)
    est = estimate_moments(model, LinearCriterion([1.0]), 20000, seed=2)
    assert abs(est.mean_f - 2.0) <= 4 * est.se_mean
    assert abs(est.var_f - 1.0) <= 4 * est.se_var
    assert abs(est.third_central_f) <= 4 * est.se_third
    assert abs(est.dkl - 2.0) <= 4 * est.se_dkl


def test_moments_require_enough_samples(std_normal_1d):
    model = exact_shift_model(std_normal_1d, 0.0)
    with pytest.raises(ContractError):
        estimate_moments(model, LinearCriterion([1.0]), 50, seed=3)


def test_moment_estimates_validation():
    with pytest.raises(ContractError):
        MomentEstimates(0, -1.0, 0, 0, 100, 0.1, 0.1, 0.1, 0.1)
    with pytest.raises(ContractError):
        MomentEstimates(0, 1.0, 0, -1.0, 100, 0.1, 0.1, 0.1, 0.1)


# ---------------------------------------------------------------------------
# newton step


def test_quadratic_root_expectation_example():
    # Gaussian tilt, f = x: from beta=0 targeting C_f=2 the unclamped
    # second-order model root is exactly 2 (var=1, third=0)
    assert _quadratic_root(r=-2.0, d1=1.0, d2=0.0) == pytest.approx(2.0)


def test_quadratic_root_curvature_only():
    # divergence mode at beta=0: d1=0, curvature-only step sqrt(2 C / var)
    assert _quadratic_root(r=-4.61, d1=0.0, d2=1.0) == pytest.approx(
        np.sqrt(2 * 4.61)
    )


def test_newton_step_clamps_to_trust_region():
    oracle = GaussianTiltOracle([0.0], [1.0], [1.0])
    records = [record(0.0, oracle_estimates(oracle, 0.0), -2.0)]
    new_beta = newton_step(records, Target.expectation(2.0))
    assert new_beta == pytest.approx(1.0)  # |step| <= max(1, |beta|)
    records.append(record(1.0, oracle_estimates(oracle, 1.0), -1.0))
    assert newton_step(records, Target.expectation(2.0)) == pytest.approx(2.0)


def test_newton_divergence_mode_converges_in_six_iterations():
    oracle = GaussianTiltOracle([0.0], [1.0], [1.0])
    target = Target.divergence(4.61)
    records = []
    beta = 0.0
    for iteration in range(6):
        est = oracle_estimates(oracle, beta)
        records.append(record(beta, est, est.dkl - target.value))
        new_beta = newton_step(records, target)
        if abs(new_beta - beta) < 1e-3 * max(1.0, beta):
            break
        beta = new_beta
    assert iteration <= 5
    assert beta == pytest.approx(np.sqrt(2 * 4.61), abs=1e-3)


def test_newton_beta_zero_divergence_takes_curvature_step():
    oracle = GaussianTiltOracle([0.0], [1.0], [1.0])
    records = [record(0.0, oracle_estimates(oracle, 0.0), -4.61)]
    # no division by zero; step is the (clamped) curvature-only move
    assert newton_step(records, Target.divergence(4.61)) == pytest.approx(1.0)


def test_newton_flat_criterion_error():
    est = MomentEstimates(0.0, 1e-14, 0.0, 0.0, 1000, 1e-3, 1e-3, 1e-3, 1e-3)
    with pytest.raises(FlatCriterionError):
        newton_step([record(0.0, est, -1.0)], Target.expectation(1.0))


def test_newton_step_needs_a_record():
    with pytest.raises(ContractError, match="at least one"):
        newton_step([], Target.expectation(1.0))


def test_newton_bisects_when_model_step_leaves_bracket():
    oracle = GaussianTiltOracle([0.0], [1.0], [1.0])
    target = Target.expectation(6.5)
    # a skewed curvature leaves the model without a real root at beta 2, and
    # the fallback Newton step, clamped to the trust region, lands on 0
    skewed = MomentEstimates(8.5, 1.0, 40.0, 2.0, 1000, 1e-3, 1e-3, 1e-3, 1e-3)
    records = [
        record(1.0, oracle_estimates(oracle, 1.0), -1.0),
        record(2.0, skewed, skewed.mean_f - target.value),
    ]
    proposed = newton_step(records, target)
    assert proposed == pytest.approx(1.5)  # midpoint of the bracket


def test_bracket_bookkeeping():
    est = MomentEstimates(0.0, 1.0, 0.0, 0.0, 100, 0.1, 0.1, 0.1, 0.1)
    records = [record(0.0, est, -1.0)]
    assert _bracket(records) == (0.0, None)
    records.append(record(3.0, est, 0.5))
    assert _bracket(records) == (0.0, 3.0)
    records.append(record(1.0, est, -0.2))
    assert _bracket(records) == (1.0, 3.0)
    records.append(record(2.0, est, 0.0))  # a zero residual closes the bracket from above
    assert _bracket(records) == (1.0, 2.0)


def test_stagnation_message_names_the_bracket_and_the_last_betas():
    # seed 105 of tune-gauss-rare (beta* = 4.2919 for KL target 9.2103): a
    # warm fit at beta 4.319 that had not reached its tilt read a residual
    # of -0.105 where the exact one is +0.117, so the bracket excludes beta*
    est = MomentEstimates(0.0, 1.0, 0.0, 0.0, 100, 0.1, 0.1, 0.1, 0.1)
    residuals = {0.0: -9.2103, 1.0: -8.7103, 2.0: -7.2103, 4.0: -1.2103,
                 4.319: -0.105, 4.3434: 0.2223}
    records = [record(beta, est, r) for beta, r in residuals.items()]
    lo, hi = _bracket(records)
    assert not lo <= 4.2919 <= hi
    assert _stagnation_message(records) == (
        "beta stagnated before reaching the target: residual bracket [4.319, 4.3434], "
        "last betas 4.319 (residual -0.105); 4.3434 (residual +0.2223)"
    )
    # before a sign change the open end reads "none"; one fit names one beta
    assert _stagnation_message(records[:1]) == (
        "beta stagnated before reaching the target: residual bracket [0, none], "
        "last betas 0 (residual -9.21)"
    )


# ---------------------------------------------------------------------------
# full solve


def test_solve_target_already_met(std_normal_1d):
    cfg = TuneConfig(steps=400, learning_rate=2e-3)
    res = solve(
        std_normal_1d, LinearCriterion([1.0]), Target.expectation(0.0),
        tune_cfg=cfg, moments_n=5000, seed=5,
    )
    assert res.converged
    assert res.records[-1]["beta"] == 0.0
    x = std_normal_1d.sample(2000, seed=6)
    y, _ = res.model.flow.forward(x)
    assert float(np.abs(y - x).mean()) < 0.05


def test_solve_divergence_benchmark(std_normal_1d):
    cfg = TuneConfig(steps=1200, warm_steps=600, learning_rate=5e-3)
    res = solve(
        std_normal_1d, LinearCriterion([1.0]), Target.divergence(2.0),
        tune_cfg=cfg, moments_n=20000, seed=8,
    )
    assert res.converged
    assert res.records[-1]["beta"] == pytest.approx(2.0, rel=0.03)
    final = res.records[-1]["moments"]
    assert abs(final.dkl - 2.0) <= max(0.01 * 2.0, 3 * final.se_dkl)


def test_solve_same_beta_from_different_initializations(std_normal_1d):
    cfg = TuneConfig(steps=1200, warm_steps=600, learning_rate=5e-3)
    betas = []
    for init_seed in (100, 200):
        res = solve(
            std_normal_1d, LinearCriterion([1.0]), Target.divergence(2.0),
            tune_cfg=cfg, moments_n=20000, seed=10, init_seed=init_seed,
        )
        assert res.converged
        betas.append(res.records[-1]["beta"])
    assert betas[0] == pytest.approx(betas[1], abs=0.05)


def test_solve_iteration_cap_reports_non_convergence(std_normal_1d):
    cfg = TuneConfig(steps=200, learning_rate=2e-3)
    res = solve(
        std_normal_1d, LinearCriterion([1.0]), Target.divergence(8.0),
        tune_cfg=cfg, moments_n=2000, seed=12, max_iterations=1,
    )
    assert not res.converged
    assert "cap" in res.message
    assert len(res.records) == 1


def test_solve_names_a_target_below_the_base_value(std_normal_1d):
    # beta never goes below 0, so the search stops at once on an expectation
    # below the base model's; the message says so instead of "stagnated"
    res = solve(
        std_normal_1d, LinearCriterion([1.0]), Target.expectation(-1.0),
        tune_cfg=TuneConfig(steps=60, warm_steps=30), moments_n=2000, seed=3,
    )
    assert not res.converged
    assert [r["beta"] for r in res.records] == [0.0]
    assert res.records[0]["residual"] > 0.0
    achieved = res.records[0]["achieved"]
    assert res.message == (
        f"target expectation -1 lies below its value {achieved:.6g} at beta=0, "
        "and the search only raises beta"
    )


def quickstart_solve(seed):
    """The README quickstart's problem on a small budget, one fit."""
    return solve(
        DiagGaussian.standard(2), LinearCriterion([1.0, 0.0]), Target.from_quantile(0.01),
        tune_cfg=TuneConfig(steps=60, warm_steps=30, learning_rate=5e-3),
        moments_n=2000, seed=seed, max_iterations=1,
    )


def test_solve_seed_drives_the_fit_batches():
    first_mean_f = [quickstart_solve(seed).records[0]["trace"][0][2] for seed in (7, 8)]
    assert first_mean_f[0] != first_mean_f[1]


def test_first_fit_draws_its_batches_from_the_tune_stream():
    # the stream the CLI has always used: fit 0 draws its batches with the
    # seed derive_seed(seed, "tune"), so its draw j has the seed
    # derive_seed(derive_seed(seed, "tune"), "batch", j)
    batch, _ = next(
        _fit_batches(DiagGaussian.standard(2), TuneConfig().batch_size, derive_seed(7, "tune"))
    )
    # the flow starts at the identity, so step 0 evaluates f on the batch itself
    assert quickstart_solve(7).records[0]["trace"][0][2] == float(batch[:, 0].mean())


# ---------------------------------------------------------------------------
# pareto sweep


def test_pareto_single_point_grid(std_normal_1d):
    cfg = TuneConfig(steps=300, learning_rate=2e-3)
    records = pareto_sweep(
        std_normal_1d, LinearCriterion([1.0]), [0.0], tune_cfg=cfg,
        moments_n=5000, seed=14,
    )
    points = [(r["beta"], r["moments"]) for r in records]
    assert len(points) == 1
    beta, est = points[0]
    assert beta == 0.0
    assert abs(est.mean_f) <= 4 * est.se_mean + 0.05
    assert est.dkl <= 0.05


def test_pareto_grid_validation(std_normal_1d):
    f = LinearCriterion([1.0])
    with pytest.raises(ContractError):
        pareto_sweep(std_normal_1d, f, [1.0, 2.0])
    with pytest.raises(ContractError):
        pareto_sweep(std_normal_1d, f, [0.0, 2.0, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_pareto_rejects_non_finite_beta(std_normal_1d, bad):
    # the grid checks let NaN and inf through; the fit refuses them by name
    with pytest.raises(ContractError, match="beta must be finite"):
        pareto_sweep(
            std_normal_1d, LinearCriterion([1.0]), [0.0, bad],
            tune_cfg=TuneConfig(steps=5), moments_n=200,
        )


def test_pareto_over_solves_betas_reproduces_its_records(std_normal_1d):
    # one warm-start loop: grid point i draws the streams of solve's iteration i
    f = LinearCriterion([1.0])
    run = dict(
        tune_cfg=TuneConfig(steps=300, warm_steps=150, learning_rate=5e-3),
        moments_n=2000, seed=14,
    )
    res = solve(std_normal_1d, f, Target.divergence(2.0), max_iterations=4, **run)
    betas = [r["beta"] for r in res.records]
    assert len(betas) >= 3 and all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
    swept = pareto_sweep(std_normal_1d, f, betas, **run)
    assert [r["beta"] for r in swept] == betas
    for searched, gridded in zip(res.records, swept):
        assert gridded["moments"] == searched["moments"]
        assert gridded["trace"] == searched["trace"]


def test_pareto_matches_tilt_curve_and_is_monotone(std_normal_1d):
    cfg = TuneConfig(steps=1000, warm_steps=500, learning_rate=5e-3)
    grid = [0.0, 1.0, 2.0]
    records = pareto_sweep(
        std_normal_1d, LinearCriterion([1.0]), grid, tune_cfg=cfg,
        moments_n=20000, seed=16,
    )
    points = [(r["beta"], r["moments"]) for r in records]
    for beta, est in points:
        assert est.mean_f == pytest.approx(beta, abs=0.07)
        assert est.dkl == pytest.approx(beta**2 / 2, abs=0.1)
    means = [est.mean_f for _, est in points]
    dkls = [est.dkl for _, est in points]
    for a, b in zip(means, means[1:]):
        assert b >= a - 3 * 0.02
    for a, b in zip(dkls, dkls[1:]):
        assert b >= a - 3 * 0.02


# ---------------------------------------------------------------------------
# derivative identities on Monte-Carlo estimates (common random numbers)


def test_derivative_identities_monte_carlo(std_normal_1d):
    f = LinearCriterion([1.0])
    n = 10**5
    beta, h = 1.2, 0.05
    seed = 17

    def measure(b):
        model = exact_shift_model(std_normal_1d, b, beta=b)
        est = estimate_moments(model, f, n, seed=seed)
        return est

    up, mid, dn = measure(beta + h), measure(beta), measure(beta - h)
    d_mean = (up.mean_f - dn.mean_f) / (2 * h)
    d_dkl = (up.dkl - dn.dkl) / (2 * h)
    assert d_mean == pytest.approx(mid.var_f, rel=2e-2)
    assert d_dkl == pytest.approx(beta * mid.var_f, rel=2e-2)


@pytest.mark.parametrize("field", ["mean_f", "var_f", "dkl"])
def test_moment_estimates_reject_nan(field):
    values = dict(mean_f=0.0, var_f=1.0, third_central_f=0.0, dkl=0.5, n=100,
                  se_mean=0.1, se_var=0.1, se_third=0.1, se_dkl=0.1)
    values[field] = float("nan")
    with pytest.raises(NumericError, match=field):
        MomentEstimates(**values)


def test_moment_estimates_reject_infinite_standard_error():
    with pytest.raises(NumericError, match="se_var"):
        MomentEstimates(0.0, 1.0, 0.0, 0.5, 100, 0.1, float("inf"), 0.1, 0.1)


@pytest.mark.parametrize("failing", ["moments", "propose"])
def test_fit_chain_failure_carries_the_finished_records(std_normal_1d, monkeypatch, failing):
    # the third moment estimate fails, or the beta proposed after the second fit
    estimate = solver.estimate_moments
    calls = []

    def flaky_estimate(*args, **kwargs):
        calls.append(1)
        if failing == "moments" and len(calls) == 3:
            raise NumericError("non-finite moment estimate: dkl")
        return estimate(*args, **kwargs)

    def propose(records):
        if failing == "propose" and len(records) == 2:
            raise FlatCriterionError("flat")
        return float(len(records))

    monkeypatch.setattr(solver, "estimate_moments", flaky_estimate)
    error = NumericError if failing == "moments" else FlatCriterionError
    with pytest.raises(error) as err:
        fit_chain(
            std_normal_1d, LinearCriterion([1.0]), 0.0, propose,
            tune_cfg=TuneConfig(steps=5, warm_steps=5), moments_n=200,
        )
    assert [r["iteration"] for r in err.value.records] == [0, 1]
    assert [r["beta"] for r in err.value.records] == [0.0, 1.0]


# fit_chain's parameters after ``propose``: the settings of every fit chain
CHAIN_SETTINGS = list(inspect.signature(fit_chain).parameters)[4:]


@pytest.mark.parametrize("entry", [solve, pareto_sweep])
def test_chain_settings_are_declared_by_fit_chain_only(entry):
    assert CHAIN_SETTINGS == ["arch", "tune_cfg", "moments_n", "seed", "init_seed"]
    assert not set(inspect.signature(entry).parameters) & set(CHAIN_SETTINGS)


def test_misspelled_chain_keyword_raises_type_error(std_normal_1d, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran despite the misspelled keyword")

    monkeypatch.setattr(solver, "fit_q", no_fit)
    f = LinearCriterion([1.0])
    with pytest.raises(TypeError, match="moment_n"):
        solve(std_normal_1d, f, Target.divergence(1.0), moment_n=200)
    with pytest.raises(TypeError, match="moment_n"):
        pareto_sweep(std_normal_1d, f, [0.0, 1.0], moment_n=200)
