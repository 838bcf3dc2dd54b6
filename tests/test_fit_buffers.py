"""A fit step refills the previous step's arrays: the bytes of fresh passes,
no stale parameters, no memory shared with what it hands out, and nothing
left on the fitted flow."""

import gc
import tracemalloc

import numpy as np
import pytest

from tiltgen import DiagGaussian, GaussianMixture, LinearCriterion, fit_q
from tiltgen.criteria import BayesPosteriorClassifier, ClassifierCriterion
from tiltgen.flows import AdditiveCouplingLayer, FlowArchitecture, init_identity
from tiltgen.tuner import Adam, TuneConfig, _decayed_lr, _fit_batches, _objective_parts

MIXTURE_3D = GaussianMixture(
    [0.3, 0.3, 0.4],
    [
        DiagGaussian([-2.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        DiagGaussian([0.0, 2.0, 0.0], [1.0, 0.5, 1.0]),
        DiagGaussian([2.0, 0.0, 1.0], [1.0, 2.0, 1.0]),
    ],
)
# (base, criterion, beta, dim): a 2-d Gaussian; a 1-d flow, which has no
# coupling layers; and a 3-d Bayes tune on three components, whose
# two-block flow output feeds the posterior's einsum, which rounds by the
# output's memory order (C)
SETUPS = {
    "gauss-2d": (DiagGaussian.standard(2), LinearCriterion([1.0, 0.0]), 3.0, 2),
    "gauss-1d": (DiagGaussian.standard(1), LinearCriterion([1.0]), 2.0, 1),
    "bayes-3d-3-components": (
        MIXTURE_3D, ClassifierCriterion(BayesPosteriorClassifier(MIXTURE_3D), 2), 1.0, 3
    ),
}


def fresh_fit(p, f, beta, init, cfg, seed):
    """``fit_q``'s steps with every pass on fresh arrays."""
    flow = init.copy()
    opt = Adam([flow.theta], cfg)
    rows = []
    batches = _fit_batches(p, cfg.batch_size, seed)
    for step, (batch, log_p) in zip(range(cfg.steps), batches):
        obj, grads, mean_f, batch_kl, _ = _objective_parts(p, f, beta, flow, batch, log_p)
        opt.step([grads.vector], _decayed_lr(cfg, step))
        rows.append((step, obj, mean_f, batch_kl))
    return rows, flow.theta


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_fit_with_reused_buffers_is_bit_identical_to_fresh_passes(name):
    p, f, beta, dim = SETUPS[name]
    init = init_identity(dim, FlowArchitecture(blocks=2, hidden_width=16), seed=21)
    cfg = TuneConfig(steps=60, batch_size=64, learning_rate=5e-3, improvement_tol=0)
    model = fit_q(p, f, beta, init, cfg, 22)
    rows, theta = fresh_fit(p, f, beta, init, cfg, 22)
    assert model.trace_rows == rows
    assert model.flow.theta.tobytes() == theta.tobytes()
    if dim == 3:  # the layout-sensitive case is the one exercised
        y = init._forward_cached(p.sample(8, 0))[0]
        assert y.flags.c_contiguous and not y.flags.f_contiguous


def perturbed(dim=2, seed=31):
    g = init_identity(dim, FlowArchitecture(blocks=2, hidden_width=8), seed=seed)
    g.theta += 0.2 * np.random.default_rng(seed).standard_normal(g.theta.shape)
    return g


def batches(dim=2, n=16, seed=32):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, dim)) for _ in range(3)]


def test_a_refilled_pass_reuses_its_caches_arrays():
    g = perturbed()
    x0, x1, _ = batches()
    y0, _, caches = g._forward_cached(x0)
    y1, _, again = g._forward_cached(x1, reuse=caches)
    assert again is caches and y1 is y0
    # another batch shape gets fresh arrays
    y2, _, other = g._forward_cached(x1[:5], reuse=caches)
    assert other is not caches and not np.shares_memory(y2, y1)


def test_a_theta_write_between_refilled_steps_reaches_the_next_pass():
    g = perturbed()
    x0, x1, x2 = batches()
    dy = np.random.default_rng(33).standard_normal(x0.shape)
    dld = np.full(x0.shape[0], 1.0 / x0.shape[0])
    _, _, caches = g._forward_cached(x0)
    g._backward_cached(caches, dy, dld)
    _, _, caches = g._forward_cached(x1, reuse=caches)
    g._backward_cached(caches, dy, dld)  # the refilled backward keeps its buffers
    before = g._forward_cached(x2)[0]
    k = next(i for i, l in enumerate(g.layers) if isinstance(l, AdditiveCouplingLayer))
    g.layers[k].mlp.weights[0][0, 0] += 0.5  # a view of g.theta
    y, logdet, refilled = g._forward_cached(x2, reuse=caches)
    assert refilled is caches
    fresh_y, fresh_logdet, fresh_caches = g._forward_cached(x2)
    assert not np.array_equal(fresh_y, before)
    assert np.array_equal(y, fresh_y) and np.array_equal(logdet, fresh_logdet)
    grads, dx = g._backward_cached(refilled, dy, dld)
    fresh_grads, fresh_dx = g._backward_cached(fresh_caches, dy, dld)
    assert np.array_equal(grads.vector, fresh_grads.vector) and np.array_equal(dx, fresh_dx)


def assert_tiles(arrays, vector):
    """``arrays`` are consecutive views that tile ``vector`` in order."""
    start = vector.__array_interface__["data"][0]
    offset = 0
    for a in arrays:
        assert a.base is vector
        assert a.__array_interface__["data"][0] == start + 8 * offset
        offset += a.size
    assert offset == vector.size


def test_refilled_backward_passes_hand_out_unshared_vectors():
    p, f, beta = DiagGaussian.standard(2), LinearCriterion([1.0, 0.0]), 3.0
    g = perturbed()
    buffers, vectors = None, []
    for x in batches():
        _, grads, _, _, buffers = _objective_parts(p, f, beta, g, x, p.log_density(x), buffers)
        vectors.append(grads.vector)
        flat = grads.flat()
        assert_tiles(flat, grads.vector)
        assert [a.shape for a in flat] == [q.shape for q in g.parameters()]
    for i, a in enumerate(vectors):
        for b in vectors[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert not any(np.shares_memory(v, g.theta) for v in vectors)


def test_refilled_caches_hold_one_conditioner_scratch_pair():
    # the couplings of a pass share their backward scratch: after refilled
    # steps the caches hold one (n, width) pair of it, not one per coupling
    p, f, beta = DiagGaussian.standard(2), LinearCriterion([1.0, 0.0]), 3.0
    g = perturbed()  # hidden width 8
    buffers = None
    for x in batches():  # 16 rows each
        _, _, _, _, buffers = _objective_parts(p, f, beta, g, x, p.log_density(x), buffers)
    caches = buffers[0]
    assert caches.refilled
    assert sum(isinstance(layer, AdditiveCouplingLayer) for layer in g.layers) == 4
    held = [
        a for d in [caches.scratch, *caches.layers] for a in d.values()
        if isinstance(a, np.ndarray) and a.shape == (16, 8)
    ]
    assert len(held) == 2 and not np.shares_memory(held[0], held[1])
    assert all(a.dtype == np.float32 for a in held)


def fitted_flow_attributes(flow):
    """Every attribute name on the flow, its layers and their conditioners."""
    names = {("flow", name) for name in vars(flow)}
    for layer in flow.layers:
        names |= {(layer.kind, name) for name in vars(layer)}
        if isinstance(layer, AdditiveCouplingLayer):
            names |= {("mlp", name) for name in vars(layer.mlp)}
    return names


def test_a_fitted_flow_keeps_no_buffers():
    # the fit's buffers die with it: the returned flow has the attributes of
    # its init, and what the fit leaves allocated is about theta, not a batch
    # of activations (512 x 32 float32 is 64 KiB each)
    p, f, beta = DiagGaussian.standard(2), LinearCriterion([1.0, 0.0]), 3.0
    init = init_identity(2, FlowArchitecture(blocks=2, hidden_width=32), seed=41)
    cfg = TuneConfig(steps=20, batch_size=512, learning_rate=5e-3, improvement_tol=0)
    fit_q(p, f, beta, init, cfg, 42)  # first-call allocations stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = fit_q(p, f, beta, init, cfg, 42)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert fitted_flow_attributes(model.flow) == fitted_flow_attributes(init)
    assert retained < 2 * model.flow.theta.nbytes + 32 * 1024
