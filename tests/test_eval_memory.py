"""Evaluation passes through the flow hold one layer's activations at a time.

The fit step keeps every layer's cache for the backward pass; an
evaluation-only pass (``FlowModel.forward`` and everything built on it) must
free each cache as soon as the next layer has run.  With the default
architecture a coupling conditioner holds two hidden activations of
n x hidden_width floats while it runs, so the peak of a pass stays under three
of them plus a few (n, dim) arrays.  A pass that kept its caches would hold
about eight.

Evaluation passes also run in row chunks of ``dists.EVAL_CHUNK_ROWS``, so
those activations are a chunk's, not the whole sample's, and the memory of
``estimate_moments`` grows with n by a few floats per sample only.  The
criterion passes of ``diagnose`` run in the same chunks, so there too a
criterion's temporaries are a chunk's.  The base sample of these passes is
drawn chunk by chunk too, so none of them holds an (n, dim) sample.
"""

import tracemalloc

import numpy as np
import pytest

from tiltgen import (
    BayesPosteriorClassifier,
    ClassifierCriterion,
    DiagGaussian,
    FlowArchitecture,
    GaussianMixture,
    LinearCriterion,
    LogisticClassifier,
    compare_criteria,
    importance_curves,
    init_identity,
    normalize_affine,
)
from tiltgen.dists import EVAL_CHUNK_ROWS
from tiltgen.oracles import top_quantile_threshold
from tiltgen.solver import estimate_moments
from tiltgen.tuner import TunedModel

N = 20_000
DIM = 2
ARCH = FlowArchitecture()
ACTIVATION_BYTES = N * ARCH.hidden_width * 8
# three hidden activations, plus eight (n, dim) arrays for the points, the
# sliced conditioner inputs, the log-determinant and the densities
BOUND_BYTES = 3 * ACTIVATION_BYTES + 8 * N * DIM * 8


def _perturbed_model():
    g = init_identity(DIM, ARCH, seed=3)
    g.theta += 0.1 * np.random.default_rng(4).standard_normal(g.theta.shape)
    return TunedModel(DiagGaussian.standard(DIM), g, beta=1.0)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("entry", ["forward", "estimate_moments"])
def test_evaluation_pass_keeps_no_per_layer_caches(entry):
    model = _perturbed_model()
    if entry == "forward":
        x = np.random.default_rng(5).standard_normal((N, DIM))
        peak = _peak_bytes(model.flow.forward, x)
    else:
        peak = _peak_bytes(estimate_moments, model, LinearCriterion([1.0, 0.0]), N, 6)
    assert peak < BOUND_BYTES, (
        f"{entry} peaked at {peak / ACTIVATION_BYTES:.1f} hidden activations"
    )


def test_moment_estimate_memory_does_not_grow_with_n_times_hidden_width():
    n = 200_000
    chunk_activation_bytes = EVAL_CHUNK_ROWS * ARCH.hidden_width * 8
    # three hidden activations of one chunk, plus six n-length float arrays:
    # the base sampler's three (n, 2) arrays, or later the base points, f,
    # the log-ratio and two temporaries of the moment statistics; one
    # whole-batch pass would hold 2 x n x hidden_width
    bound = 3 * chunk_activation_bytes + 6 * n * 8
    peak = _peak_bytes(estimate_moments, _perturbed_model(), LinearCriterion([1.0, 0.0]), n, 6)
    assert peak < bound, f"estimate_moments peaked at {peak / (n * 8):.1f} n-length arrays"


MIB = 2**20
# the mixture and the four normalized candidates of the diagnose-curves
# benchmark config
MIXTURE = GaussianMixture(
    [0.5, 0.5], [DiagGaussian([-2.0, 0.0], [1.0, 1.0]), DiagGaussian([2.0, 0.0], [1.0, 1.0])]
)
CANDIDATES = [
    normalize_affine(f, MIXTURE, 10_000, seed=40 + i)
    for i, f in enumerate([
        ClassifierCriterion(BayesPosteriorClassifier(MIXTURE), 1, "log-prob"),
        ClassifierCriterion(BayesPosteriorClassifier(MIXTURE), 1, "prob"),
        ClassifierCriterion(LogisticClassifier([4.0, 0.0], 0.0), 1, "log-prob"),
        LinearCriterion([1.0, 0.0]),
    ])
]


@pytest.mark.parametrize("position", range(len(CANDIDATES)))
def test_importance_curves_memory_is_the_sample_and_its_values(position):
    # 10^6 2-d points (15.3 MiB) and their values (7.6 MiB), plus a chunk's
    # temporaries; one whole-sample criterion pass peaked at 68.7 MiB (Bayes)
    betas = np.linspace(0.0, 4.0, 41)
    peak = _peak_bytes(importance_curves, [CANDIDATES[position]], MIXTURE, betas, 10**6, 7)
    assert peak <= 30 * MIB, f"peaked at {peak / MIB:.1f} MiB"


def test_compare_criteria_memory_is_the_sample_and_its_norms():
    # 200 000 2-d points and a candidate's norms and their order statistics;
    # whole-sample gradient passes peaked at 32.5 MiB
    peak = _peak_bytes(compare_criteria, CANDIDATES, MIXTURE, 200_000, 8)
    assert peak <= 15 * MIB, f"peaked at {peak / MIB:.1f} MiB"


def test_moment_estimate_holds_no_base_sample():
    n = 200_000
    chunk_activation_bytes = EVAL_CHUNK_ROWS * ARCH.hidden_width * 8
    # the base points are drawn one chunk at a time, so the peak is f, the
    # log-ratio and two temporaries of the moment statistics: 4.0 n-length
    # float arrays measured (tracemalloc), plus one chunk's hidden activation
    # of margin; a whole (n, 2) base sample adds two more (6.0 measured)
    bound = 4 * n * 8 + chunk_activation_bytes
    peak = _peak_bytes(estimate_moments, _perturbed_model(), LinearCriterion([1.0, 0.0]), n, 6)
    assert peak < bound, f"estimate_moments peaked at {peak / (n * 8):.1f} n-length arrays"


@pytest.mark.parametrize("position", range(len(CANDIDATES)))
def test_importance_curves_memory_is_the_values_and_a_chunk(position):
    # the sample is drawn one chunk at a time and each chunk's values are
    # reduced as soon as they are evaluated: the reweighting block (1.3 MiB)
    # and a chunk's temporaries, 2.2 MiB measured (tracemalloc); keeping the
    # 10^6 values took 9.4 MiB, and 23.8 MiB with the sample drawn whole
    betas = np.linspace(0.0, 4.0, 41)
    peak = _peak_bytes(importance_curves, [CANDIDATES[position]], MIXTURE, betas, 10**6, 7)
    assert peak <= 3 * MIB, f"peaked at {peak / MIB:.1f} MiB"


def test_importance_curves_memory_of_all_candidates_is_one_chunk():
    # one sample, drawn one chunk at a time, for all four candidates; each
    # chunk's values are reduced as soon as they are evaluated, so the peak is
    # the reweighting block (1.3 MiB), a chunk's temporaries and each
    # candidate's per-chunk sums (0.3 MiB): 3.2 MiB measured (tracemalloc).
    # Keeping each candidate's 10^6 values took 9.4 MiB per candidate, and
    # 23.8 MiB with the sample drawn whole
    betas = np.linspace(0.0, 4.0, 41)
    peak = _peak_bytes(importance_curves, CANDIDATES, MIXTURE, betas, 10**6, 7)
    assert peak <= 4 * MIB, f"peaked at {peak / MIB:.1f} MiB"


def test_quantile_threshold_holds_the_values_not_the_sample():
    n = 10**6
    # the n values and the copy np.quantile sorts (2 n-floats, 15.3 MiB) plus
    # a chunk's temporaries: 17.1 MiB measured (tracemalloc), 23.6 MiB with
    # the (n, 2) sample drawn whole
    peak = _peak_bytes(
        top_quantile_threshold, DiagGaussian.standard(DIM), LinearCriterion([1.0, 0.5]),
        1e-3, n, 5,
    )
    assert peak < 2.5 * n * 8, f"peaked at {peak / (n * 8):.2f} n-length arrays"
