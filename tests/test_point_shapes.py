"""Every method that takes points takes an (n, dim) batch and nothing else:
a scalar, a single vector, a 3-d array or a wrong column count is a
``ContractError`` naming the expected shape."""

import numpy as np
import pytest

from tiltgen import ContractError, DiagGaussian, GaussianMixture, LinearCriterion, init_identity
from tiltgen.criteria import (
    BayesPosteriorClassifier,
    ClassifierCriterion,
    LatentCriterion,
    PeakCriterion,
)
from tiltgen.dists import LatentDecoder
from tiltgen.tuner import TunedModel

GAUSS = DiagGaussian([0.5, -1.0], [2.0, 0.3])
MIX = GaussianMixture(
    [0.5, 0.5], [DiagGaussian([-2.0, 0.0], [1.0, 1.0]), DiagGaussian([2.0, 0.0], [1.0, 1.0])]
)
DECODER = LatentDecoder([[1.0, 0.5], [-0.3, 1.2], [0.7, -0.4]], 0.3)
FLOW = init_identity(2, seed=0)
CRITERIA = {
    "LinearCriterion": LinearCriterion([1.0, -0.5]),
    "ClassifierCriterion": ClassifierCriterion(BayesPosteriorClassifier(MIX), 1, "log-prob"),
    "PeakCriterion": PeakCriterion(2, (0, 2), 0.3),
    "LatentCriterion": LatentCriterion(PeakCriterion(3, (0, 3), 0.5), DECODER, 2, seed=3),
}

# name -> (method taking points, the dimension it expects)
ENTRIES = {
    **{
        f"{name}.{method}": (getattr(f, method), f.dim)
        for name, f in CRITERIA.items()
        for method in ("value", "grad", "value_and_grad")
    },
    **{
        f"{name}.{method}": (getattr(p, method), p.dim)
        for name, p in (("DiagGaussian", GAUSS), ("GaussianMixture", MIX))
        for method in ("log_density", "score", "log_density_and_score")
    },
    "GaussianMixture.responsibilities": (MIX.responsibilities, 2),
    "GaussianMixture.posterior_terms": (MIX.posterior_terms, 2),
    "DecoderMarginal.log_density": (DECODER.marginal().log_density, 3),
    "DecoderMarginal.score": (DECODER.marginal().score, 3),
    "LatentDecoder.decode_mean": (DECODER.decode_mean, 2),
    "LatentDecoder.decode": (lambda z: DECODER.decode(z, seed=0), 2),
    "FlowModel.forward": (FLOW.forward, 2),
    "FlowModel.inverse": (FLOW.inverse, 2),
    "TunedModel.log_density": (TunedModel(GAUSS, FLOW, beta=0.0).log_density, 2),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_points_not_an_n_by_dim_batch_are_a_contract_error(name):
    entry, dim = ENTRIES[name]
    entry(np.zeros((3, dim)))  # the one accepted form
    for bad in (np.float64(0.5), np.zeros(dim), np.zeros((2, 3, dim)), np.zeros((3, dim + 1))):
        with pytest.raises(ContractError, match=rf"shape \(n, {dim}\)"):
            entry(bad)
