import numpy as np
import pytest

from tiltgen import (
    CapabilityError,
    ContractError,
    DiagGaussian,
    DivergenceError,
    FlowArchitecture,
    GaussianMixture,
    LinearCriterion,
    NumericError,
    fit_q,
    init_identity,
)
from tiltgen.flows import AffineDiagonalLayer, FlowModel
from tiltgen.rng import derive_seed
from tiltgen.tuner import (
    BATCH_DRAW_ROWS,
    TuneConfig,
    TunedModel,
    _fit_batches,
    _objective_parts,
    kl_between,
)
from tiltgen.criteria import Criterion


def shift_flow(dim, shift):
    return FlowModel(dim, [AffineDiagonalLayer(dim, shift=np.full(dim, shift))])


def test_elbo_at_beta_zero_identity_collapses(std_normal_1d):
    g = init_identity(1, seed=0)
    batch = std_normal_1d.sample(512, seed=1)
    log_p = std_normal_1d.log_density(batch)
    obj = _objective_parts(std_normal_1d, LinearCriterion([1.0]), 0.0, g, batch, log_p)[0]
    assert obj == pytest.approx(float(std_normal_1d.log_density(batch).mean()))


def test_elbo_gap_of_exact_shift_is_half_beta_squared(std_normal_1d):
    # on a unit Gaussian the shift-by-beta map beats the identity by
    # beta^2/2 - beta * (batch mean), exactly per batch
    f = LinearCriterion([1.0])
    batch = std_normal_1d.sample(1024, seed=2)
    log_p = std_normal_1d.log_density(batch)
    for beta in (0.5, 2.0, 3.0):
        obj_shift = _objective_parts(std_normal_1d, f, beta, shift_flow(1, beta), batch, log_p)[0]
        obj_id = _objective_parts(
            std_normal_1d, f, beta, init_identity(1, seed=0), batch, log_p
        )[0]
        gap = obj_shift - obj_id
        assert gap == pytest.approx(beta**2 / 2 - beta * batch.mean(), abs=1e-10)
        assert gap == pytest.approx(beta**2 / 2, abs=4 * beta / np.sqrt(1024))


@pytest.mark.usefixtures("float64_conditioners")
def test_elbo_gradients_match_finite_differences(std_normal_2d):
    g = init_identity(2, seed=3)
    rng = np.random.default_rng(4)
    for p in g.parameters():
        p += 0.05 * rng.standard_normal(p.shape)
    f = LinearCriterion([1.0, -0.5])
    batch = std_normal_2d.sample(64, seed=5)
    log_p = std_normal_2d.log_density(batch)
    beta = 1.3
    grads = _objective_parts(std_normal_2d, f, beta, g, batch, log_p)[1]
    params = g.parameters()
    flat = grads.flat()
    h = 1e-5
    for p, an in zip(params, flat):
        idx = tuple(rng.integers(0, s) for s in p.shape)
        old = p[idx]
        p[idx] = old + h
        up = _objective_parts(std_normal_2d, f, beta, g, batch, log_p)[0]
        p[idx] = old - h
        dn = _objective_parts(std_normal_2d, f, beta, g, batch, log_p)[0]
        p[idx] = old
        assert an[idx] == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-8)


def test_elbo_names_non_finite_term(std_normal_1d):
    class ExplodingCriterion(Criterion):
        label = "exploding"
        dim = 1

        def value(self, x):
            batch = self._batch(x)
            return np.full(batch.shape[0], np.inf)

        def grad(self, x):
            batch = self._batch(x)
            return batch * 0

    g = init_identity(1, seed=0)
    batch = std_normal_1d.sample(16, seed=6)
    with pytest.raises(NumericError, match="criterion term"):
        _objective_parts(
            std_normal_1d, ExplodingCriterion(), 1.0, g, batch, std_normal_1d.log_density(batch)
        )


# ---------------------------------------------------------------------------
# the fit's batches

BATCH_BASES = {
    "gaussian": DiagGaussian([0.5, -1.0], [1.0, 2.0]),
    "mixture-2": GaussianMixture(
        [0.3, 0.7], [DiagGaussian([-2.0, 0.0], [1.0, 0.5]), DiagGaussian([2.0, 1.0], [2.0, 1.0])]
    ),
    "mixture-3": GaussianMixture(
        [0.2, 0.3, 0.5],
        [
            DiagGaussian([-2.0, 0.0, 1.0], [1.0, 0.5, 1.0]),
            DiagGaussian([2.0, 1.0, 0.0], [2.0, 1.0, 0.5]),
            DiagGaussian([0.0, -3.0, 2.0], [0.5, 1.0, 3.0]),
        ],
    ),
}


@pytest.mark.parametrize("batch_size", [256, 300, 5000])
@pytest.mark.parametrize("name", sorted(BATCH_BASES))
def test_fit_batches_are_row_blocks_of_one_draw(name, batch_size):
    # k steps share one draw of k * batch_size rows: 16 at 256, 13 at 300
    # (3900 rows; 300 does not divide 4096), and 1 above 2048 rows, where
    # step s draws its own batch from derive_seed(seed, "batch", s)
    p, seed = BATCH_BASES[name], 9
    k = max(1, BATCH_DRAW_ROWS // batch_size)
    assert k == {256: 16, 300: 13, 5000: 1}[batch_size]
    draws = {}
    previous = None
    for step, (batch, log_p) in zip(range(2 * k + 1), _fit_batches(p, batch_size, seed)):
        j, i = divmod(step, k)
        if j not in draws:
            draws[j] = p.sample(k * batch_size, derive_seed(seed, "batch", j))
        rows = slice(i * batch_size, (i + 1) * batch_size)
        assert batch.shape == (batch_size, p.dim) and batch.flags.c_contiguous
        assert np.array_equal(batch.view(np.int64), draws[j][rows].view(np.int64))
        # a view of its draw, which the batches before it in the draw share
        assert batch.base is not None
        if i:
            assert batch.base is previous.base
        else:
            assert previous is None or not np.shares_memory(batch, previous)
        # the draw's log-densities, sliced: the bytes of a per-batch call
        assert log_p.shape == (batch_size,) and log_p.base is not None
        assert np.array_equal(log_p.view(np.int64), p.log_density(batch).view(np.int64))
        previous = batch


# ---------------------------------------------------------------------------
# fit_q


def test_fit_beta_zero_keeps_identity(std_normal_1d):
    g = init_identity(1, seed=7)
    model = fit_q(
        std_normal_1d, LinearCriterion([1.0]), 0.0, g,
        TuneConfig(steps=2000, learning_rate=5e-3), 8,
    )
    x = std_normal_1d.sample(5000, seed=9)
    y, _ = model.flow.forward(x)
    assert float(np.linalg.norm(y - x, axis=1).mean()) < 0.05


def test_fit_gaussian_tilt_matches_closed_form(std_normal_1d):
    g = init_identity(1, seed=10)
    model = fit_q(
        std_normal_1d, LinearCriterion([1.0]), 2.0, g,
        TuneConfig(steps=2000, learning_rate=1e-3), 11,
    )
    s = model.sample(20000, seed=12)
    assert abs(s.mean() - 2.0) < 0.05
    kl, _ = kl_between(model, DiagGaussian([2.0], [1.0]), 20000, 13)
    assert kl < 1e-2


def test_fit_objective_trace_non_decreasing_moving_average(std_normal_1d):
    model = fit_q(
        std_normal_1d, LinearCriterion([1.0]), 2.0, init_identity(1, seed=14),
        TuneConfig(steps=1200, learning_rate=5e-3, improvement_tol=0), 15,
    )
    obj = np.array([row[1] for row in model.trace_rows])
    window = 50
    ma = np.convolve(obj, np.ones(window) / window, mode="valid")
    checkpoints = ma[::window]
    # non-decreasing up to moving-average batch noise
    assert np.all(np.diff(checkpoints) > -0.1)
    assert checkpoints[-1] > checkpoints[0]


def test_fit_divergence_aborts_with_trace(std_normal_1d):
    # a criterion valid only below a ceiling goes NaN once the tilt pushes
    # samples past it; the fit must abort with the trace collected so far
    class DomainLimitedCriterion(Criterion):
        label = "domain-limited"
        dim = 1

        def value(self, x):
            batch = self._batch(x)
            return np.where(batch[:, 0] < 10.0, batch[:, 0], np.nan)

        def grad(self, x):
            batch = self._batch(x)
            return np.ones_like(batch)

    g = init_identity(1, FlowArchitecture(blocks=1), seed=16)
    with pytest.raises(DivergenceError) as err:
        fit_q(
            std_normal_1d, DomainLimitedCriterion(), 50.0, g,
            TuneConfig(steps=5000, learning_rate=0.05, improvement_tol=0), 17,
        )
    assert len(err.value.trace) > 0


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_fit_rejects_non_finite_beta(std_normal_1d, beta):
    # refused before the first step, so no NaN reaches the flow
    with pytest.raises(ContractError, match="beta must be finite"):
        fit_q(std_normal_1d, LinearCriterion([1.0]), beta, init_identity(1, seed=0),
              TuneConfig(steps=5), 0)


@pytest.mark.parametrize("base_dim, flow_dim", [(2, 3), (3, 2), (1, 2)])
def test_flow_of_another_dimension_is_refused(base_dim, flow_dim):
    # refused by name before any draw, not as a numpy broadcasting error
    base = DiagGaussian.standard(base_dim)
    flow = init_identity(flow_dim, seed=0)
    message = f"flow dimension {flow_dim} does not match base dimension {base_dim}"
    with pytest.raises(ContractError, match=message):
        fit_q(base, LinearCriterion(np.ones(base_dim)), 1.0, flow, TuneConfig(steps=5), 0)
    with pytest.raises(ContractError, match=message):
        TunedModel(base, flow, 1.0)


def test_fit_reproducible_from_seed(std_normal_1d):
    cfg = TuneConfig(steps=120)
    g = init_identity(1, seed=19)
    m1 = fit_q(std_normal_1d, LinearCriterion([1.0]), 1.0, g, cfg, 18)
    m2 = fit_q(std_normal_1d, LinearCriterion([1.0]), 1.0, g, cfg, 18)
    for p1, p2 in zip(m1.flow.parameters(), m2.flow.parameters()):
        assert np.array_equal(p1, p2)


def test_warm_start_dominance(std_normal_1d):
    # reaching the beta=2 optimal objective takes no more steps warm than cold
    f = LinearCriterion([1.0])
    cfg = TuneConfig(steps=1500, learning_rate=5e-3, improvement_tol=0)
    m1 = fit_q(std_normal_1d, f, 1.0, init_identity(1, seed=21), cfg, 20)
    warm = fit_q(std_normal_1d, f, 2.0, m1.flow, cfg, 20)
    cold = fit_q(std_normal_1d, f, 2.0, init_identity(1, seed=21), cfg, 20)
    optimum = std_normal_1d.entropy() * -1 + 2.0  # -H + beta^2/2
    threshold = optimum - 0.05

    def steps_to_reach(model):
        obj = np.array([row[1] for row in model.trace_rows])
        ma = np.convolve(obj, np.ones(25) / 25, mode="valid")
        hits = np.flatnonzero(ma >= threshold)
        return hits[0] if hits.size else len(obj)

    assert steps_to_reach(warm) <= steps_to_reach(cold)


# ---------------------------------------------------------------------------
# TunedModel


def test_tuned_model_sampling_is_pushforward(std_normal_2d):
    model = TunedModel(std_normal_2d, shift_flow(2, 1.5), beta=1.5)
    y = model.sample(100, seed=22)
    x = std_normal_2d.sample(100, seed=22)
    yy, _ = model.flow.forward(x)
    assert np.array_equal(y, yy)


def test_tuned_model_log_density_consistency(std_normal_2d):
    g = init_identity(2, seed=23)
    rng = np.random.default_rng(24)
    for p in g.parameters():
        p += 0.1 * rng.standard_normal(p.shape)
    model = TunedModel(std_normal_2d, g, beta=0.7)
    x_hat = std_normal_2d.sample(50, seed=25)
    y, logdet = g.forward(x_hat)
    pathwise = std_normal_2d.log_density(x_hat) - logdet
    assert np.allclose(model.log_density(y), pathwise, atol=1e-9)


def test_tuned_model_score_unsupported(std_normal_1d):
    model = TunedModel(std_normal_1d, shift_flow(1, 0.0), beta=0.0)
    with pytest.raises(CapabilityError):
        model.score(np.array([0.0]))


@pytest.mark.parametrize("n", [0, 1])
def test_kl_between_needs_two_samples(std_normal_1d, n):
    model = TunedModel(std_normal_1d, shift_flow(1, 2.0), beta=2.0)
    with pytest.raises(ContractError, match="at least 2 samples"):
        kl_between(model, model.base, n, seed=26)


def test_kl_between_base_exact_shift(std_normal_1d):
    model = TunedModel(std_normal_1d, shift_flow(1, 2.0), beta=2.0)
    kl, se = kl_between(model, model.base, 50000, seed=26)
    assert kl == pytest.approx(2.0, abs=4 * se)
    assert kl >= -3 * se  # nonnegative up to estimator noise
