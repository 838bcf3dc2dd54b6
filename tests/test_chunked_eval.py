"""Evaluation passes run in row chunks and give what one whole batch gives.

The base sample is drawn one ``dists.EVAL_CHUNK_ROWS``-row chunk at a time,
and the flow, the densities and the criterion run over each chunk as it is
drawn.  At n = 2 chunks + 17 rows every entry point crosses two chunk
boundaries and ends on a short chunk.  The same row chunks run the criterion
passes of ``diagnose`` and of the normalization, and the built-ins' chunked
draws, which give the bytes of one whole draw.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltgen import (
    BayesPosteriorClassifier,
    ClassifierCriterion,
    DiagGaussian,
    FlowArchitecture,
    GaussianMixture,
    LinearCriterion,
    LogisticClassifier,
    NumericError,
    diagnostics,
    dists,
    flows,
    init_identity,
    normalize_affine,
)
from tiltgen.rng import make_generator
from tiltgen.solver import estimate_moments
from tiltgen.tuner import TunedModel, kl_between

CHUNK = dists.EVAL_CHUNK_ROWS
N = 2 * CHUNK + 17
SEED = 8


def perturbed_model(dim):
    g = init_identity(dim, FlowArchitecture(), seed=3)
    g.theta += 0.1 * np.random.default_rng(4).standard_normal(g.theta.shape)
    return TunedModel(DiagGaussian.standard(dim), g, beta=1.0)


def whole_batch(model, other, n):
    """(y, log q(y) - log other(y)) from one whole-batch cached pass."""
    x_hat = model.base.sample(n, SEED)
    y, logdet, _ = model.flow._forward_cached(x_hat)
    return y, model.base.log_density(x_hat) - logdet - other.log_density(y)


def chunked_and_whole(dim, n, monkeypatch):
    """Every chunked quantity and its whole-batch counterpart."""
    model = perturbed_model(dim)
    other = DiagGaussian(np.full(dim, 0.5), np.full(dim, 2.0))
    f = LinearCriterion(np.linspace(1.0, -0.5, dim))
    y, logratio = whole_batch(model, model.base, n)
    _, kl_values = whole_batch(model, other, n)
    chunked = {
        "sample": model.sample(n, SEED),
        "sample_with_logratio": model.sample_with_logratio(n, SEED),
        "kl_between": kl_between(model, other, n, SEED),
        "estimate_moments": estimate_moments(model, f, n, SEED),
    }
    # one chunk as large as the sample: one whole-batch pass
    monkeypatch.setattr(dists, "EVAL_CHUNK_ROWS", n)
    whole = {
        "sample": y,
        "sample_with_logratio": (y, logratio),
        "kl_between": (float(kl_values.mean()), float(kl_values.std(ddof=1) / np.sqrt(n))),
        "estimate_moments": estimate_moments(model, f, n, SEED),
    }
    return chunked, whole


def test_chunked_passes_are_bit_identical_to_one_batch_in_dim_2(monkeypatch):
    chunked, whole = chunked_and_whole(2, N, monkeypatch)
    assert np.array_equal(chunked["sample"], whole["sample"])
    for got, want in zip(chunked["sample_with_logratio"], whole["sample_with_logratio"]):
        assert np.array_equal(got, want)
    assert chunked["kl_between"] == whole["kl_between"]
    assert chunked["estimate_moments"] == whole["estimate_moments"]


def test_chunked_passes_agree_with_one_batch_in_dim_3(monkeypatch):
    # a 1-and-2 coordinate coupling split: BLAS may round a short chunk
    # differently from the same rows inside a long batch
    chunked, whole = chunked_and_whole(3, N, monkeypatch)

    def close(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    close(chunked["sample"], whole["sample"])
    for got, want in zip(chunked["sample_with_logratio"], whole["sample_with_logratio"]):
        close(got, want)
    close(chunked["kl_between"], whole["kl_between"])
    got, want = chunked["estimate_moments"], whole["estimate_moments"]
    for name in ("mean_f", "var_f", "third_central_f", "dkl", "se_mean", "se_dkl"):
        close(getattr(got, name), getattr(want, name))


def counted_passes(g):
    """Replace ``g._forward_cached`` by a wrapper; returns the list of the
    row counts it is called with."""
    calls = []
    original = g._forward_cached

    def counted(batch, keep=True):
        calls.append(batch.shape[0])
        return original(batch, keep)

    g._forward_cached = counted
    return calls


@pytest.mark.parametrize(
    "n, chunks",
    [
        (1, [1]),
        (CHUNK, [CHUNK]),
        # a lone last row would go through BLAS's matrix-vector product and
        # round differently from one batch, so it joins the chunk before it
        (CHUNK + 1, [CHUNK + 1]),
        (CHUNK + 2, [CHUNK, 2]),
        (N, [CHUNK, CHUNK, 17]),
    ],
)
def test_evaluation_pass_chunk_sizes(n, chunks):
    g = init_identity(2, FlowArchitecture(blocks=1), seed=3)
    calls = counted_passes(g)
    x = np.random.default_rng(10).standard_normal((n, 2))
    y, logdet = g.forward(x)
    assert calls == chunks
    assert np.array_equal(y, x) and np.array_equal(logdet, np.zeros(n))
    # the tuned model's passes, at each n they accept, map over the same
    # chunks; through the identity flow q is the base, so log q / p is 0
    model = TunedModel(DiagGaussian.standard(2), g, beta=1.0)
    passes = {"sample_with_logratio": lambda: model.sample_with_logratio(n, SEED)[1]}
    if n >= 2:
        passes["kl_between"] = lambda: kl_between(model, model.base, n, SEED)
    if n >= 100:
        passes["estimate_moments"] = lambda: estimate_moments(
            model, LinearCriterion([1.0, 0.0]), n, SEED
        ).dkl
    for name, run in passes.items():
        calls.clear()
        assert not np.any(run()), name
        assert calls == chunks, name


@pytest.mark.usefixtures("float64_conditioners")
def test_non_finite_coupling_in_a_later_chunk_names_its_layer():
    # identity flow; the first coupling adds 1e308 to x1, which overflows
    # only on one row of the last chunk (float64 conditioners: in float32
    # the 1e308 bias would fail its cast on the first chunk)
    g = init_identity(2, FlowArchitecture(blocks=1), seed=3)
    couplings = (i for i, l in enumerate(g.layers) if isinstance(l, flows.AdditiveCouplingLayer))
    k = next(couplings)
    g.layers[k].mlp.biases[-1][:] = 1e308
    x = np.random.default_rng(9).standard_normal((N, 2))
    x[N - 5] = [0.0, 1e308]
    calls = counted_passes(g)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        g.forward(x)
    assert f"layer {k} (additive-coupling)" in str(err.value)
    assert calls == [CHUNK, CHUNK, 17]  # the first two chunks passed


# sizes around the chunk boundary: one row, a chunk short of one, one chunk, a
# chunk and a lone row (which joins it), and three chunks and a lone row
DIAGNOSE_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1]


def mixture(dim):
    return GaussianMixture(
        [0.3, 0.7],
        [DiagGaussian(np.full(dim, -2.0), np.full(dim, 0.5)),
         DiagGaussian(np.linspace(1.0, 2.0, dim), np.linspace(0.5, 1.5, dim))],
    )


def diagnose_criteria(dim):
    bayes = BayesPosteriorClassifier(mixture(dim))
    return [
        LinearCriterion(np.linspace(1.0, -0.5, dim)),
        ClassifierCriterion(bayes, 1, "log-prob"),
        ClassifierCriterion(bayes, 1, "prob"),
        ClassifierCriterion(LogisticClassifier(np.linspace(4.0, -1.0, dim), 0.5), 1, "log-prob"),
    ]


def counted_values(f):
    """Replace ``f.value`` by a wrapper; returns the list of the row counts
    it is called with."""
    calls = []
    original = f.value

    def counted(x):
        calls.append(x.shape[0])
        return original(x)

    f.value = counted
    return calls


@pytest.mark.parametrize("dim", [1, 2, 16])
@pytest.mark.parametrize("n", DIAGNOSE_SIZES)
def test_criterion_passes_in_chunks_are_bit_identical_to_one_batch(n, dim):
    x = mixture(dim).sample(n, SEED)
    for f in diagnose_criteria(dim):
        values = diagnostics._per_row(f, n, dists._chunks_of(x), "value", f.value)
        assert np.array_equal(values, f.value(x)), f.label
        norms = diagnostics._grad_norms(f, x)
        assert np.array_equal(norms, np.linalg.norm(f.grad(x), axis=1)), f.label
        if n >= 2:
            # the normalization draws the same sample and maps f over its chunks
            whole = f.value(x)
            calls = counted_values(f)
            g = normalize_affine(f, mixture(dim), n, SEED)
            assert calls == [rows.stop - rows.start for rows in dists._row_chunks(n)], f.label
            assert (g.shift, g.scale) == (whole.mean(), whole.std(ddof=1)), f.label


@pytest.mark.parametrize("dim", [1, 2, 16])
@pytest.mark.parametrize("n", DIAGNOSE_SIZES)
def test_mixture_sample_in_chunks_is_bit_identical_to_one_batch(n, dim, monkeypatch):
    chunked = mixture(dim).sample(n, SEED)
    monkeypatch.setattr(dists, "EVAL_CHUNK_ROWS", n)
    assert np.array_equal(chunked, mixture(dim).sample(n, SEED))


# Streamed draws.  The built-ins draw a sample one row chunk at a time; the
# references below are the whole-sample draws that ``sample`` made before
# that, so a streamed pass sees the bytes of one whole draw.


def reference_gaussian_sample(p, n, seed):
    rng = make_generator(seed)
    z = rng.standard_normal((n, p.dim))
    z *= np.sqrt(p.variance)
    z += p.mean
    return z


def reference_mixture_sample(p, n, seed):
    rng = make_generator(seed)
    idx = rng.choice(len(p.components), size=n, p=p.weights)
    z = rng.standard_normal((n, p.dim))
    std = np.sqrt(np.stack([c.variance for c in p.components]))
    mean = np.stack([c.mean for c in p.components])
    for rows in dists._row_chunks(n):
        chunk = z[rows]
        chunk *= std[idx[rows]]
        chunk += mean[idx[rows]]
    return z


def streamed_distribution(kind, dim):
    """(distribution, reference whole-sample draw) of each streamed kind."""
    comps = [
        DiagGaussian(np.full(dim, -2.0), np.full(dim, 0.5)),
        DiagGaussian(np.linspace(1.0, 2.0, dim), np.linspace(0.5, 1.5, dim)),
        DiagGaussian(np.full(dim, 4.0), np.full(dim, 2.0)),
    ]
    if kind == "gaussian":
        return DiagGaussian(np.linspace(-1.0, 1.0, dim), np.linspace(0.2, 3.0, dim)), (
            reference_gaussian_sample
        )
    weights = {
        "mixture-1": [1.0],
        "mixture-2-zero": [0.0, 1.0],
        "mixture-3-zero": [0.3, 0.0, 0.7],
        "mixture-3": [0.2, 0.5, 0.3],
    }[kind]
    return GaussianMixture(weights, comps[: len(weights)]), reference_mixture_sample


STREAM_SIZES = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1, 100_003]


@pytest.mark.parametrize("n", STREAM_SIZES)
@pytest.mark.parametrize("dim", [1, 2, 16])
@pytest.mark.parametrize(
    "kind", ["gaussian", "mixture-1", "mixture-2-zero", "mixture-3-zero", "mixture-3"]
)
def test_streamed_draw_is_the_whole_sample_stream(kind, dim, n):
    p, reference = streamed_distribution(kind, dim)
    want = reference(p, n, SEED)
    chunks = list(dists._sample_chunks(p, n, SEED))
    assert [c.shape[0] for c in chunks] == [r.stop - r.start for r in dists._row_chunks(n)]
    assert np.array_equal(np.concatenate(chunks), want)
    assert np.array_equal(p.sample(n, SEED), want)


def normalized(raw):
    """``raw`` nonnegative numbers, not all 0, scaled to mixture weights."""
    raw = np.asarray(raw, dtype=float)
    return raw / raw.sum()


mixture_weights = (
    st.lists(st.just(0.0) | st.floats(1e-6, 1.0), min_size=1, max_size=6)
    .filter(lambda raw: sum(raw) > 0)
    .map(normalized)
)


@settings(max_examples=60, deadline=None)
@given(
    weights=mixture_weights,
    n=st.sampled_from([1, 2, 3, 5, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3]),
    seed=st.integers(0, 2**64 - 1),
)
# weights whose cumulative sums round: ``choice`` rescales them by the last one
@example(weights=np.full(10, 0.1), n=2 * CHUNK + 3, seed=SEED)
@example(weights=np.full(3, 1 / 3), n=CHUNK + 1, seed=SEED)
@example(weights=np.array([0.7, 0.2, 0.1]), n=CHUNK - 1, seed=SEED)
def test_mixture_draw_is_the_choice_stream(weights, n, seed):
    comps = [
        DiagGaussian([float(c), -0.5 * c], [1.0 + c, 0.25 + c])
        for c in range(weights.shape[0])
    ]
    p = GaussianMixture(weights, comps)
    assert np.array_equal(p.sample(n, seed), reference_mixture_sample(p, n, seed))


class OverriddenSample(DiagGaussian):
    """A Gaussian whose ``sample`` override shifts the built-in draw; passes
    must draw through the override."""

    def __init__(self):
        super().__init__([0.0, 0.0], [1.0, 1.0])
        self.calls = []

    def sample(self, n, seed):
        self.calls.append(n)
        return super().sample(n, seed) + 10.0


def test_streamed_passes_draw_through_an_overridden_sample():
    p = OverriddenSample()
    f = LinearCriterion([1.0, 0.5])
    n = 3 * CHUNK + 17  # importance curves need 10^4 draws
    values = f.value(p.sample(n, SEED))
    p.calls.clear()
    curve = diagnostics.importance_curves([f], p, [0.0], n, SEED)[0]
    # the override moves f by 15, so the weighted mean tells the draws apart
    assert curve.mean_f[0] == pytest.approx(values.mean(), rel=1e-12)
    g = normalize_affine(f, p, n, SEED)
    assert (g.shift, g.scale) == (values.mean(), values.std(ddof=1))
    identity = init_identity(2, FlowArchitecture(blocks=1), seed=3)
    moments = estimate_moments(TunedModel(p, identity, beta=1.0), f, n, SEED)
    assert moments.mean_f == values.mean()
    assert p.calls == [n, n, n]
