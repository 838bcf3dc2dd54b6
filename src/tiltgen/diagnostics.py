"""Criterion assessment and run auditing.

Two complementary tools: gradient-norm profiling compares candidate criteria
before any tuning (a criterion whose gradient norms are spread over many
orders of magnitude makes a harder optimization landscape), and
self-normalized importance curves predict the expectation/divergence
trade-off directly from base-model samples, giving a theoretical reference
that converged runs should track.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import Criterion, _finite, _per_row
from .dists import Distribution, _chunks_of, _row_chunks, _sample_chunks
from .errors import ContractError, NumericError

__all__ = [
    "GradNormProfile",
    "grad_norm_profile",
    "TheoreticalCurve",
    "importance_curves",
    "CriterionEntry",
    "ComparisonReport",
    "compare_criteria",
    "AuditRow",
    "AuditReport",
    "audit_run",
]

PROFILE_BINS = 50  # the gradient-norm histogram's bins, from 0 to the largest norm
ZERO_MASS_EPS = 1e-3  # a norm below eps * max counts as a dead-gradient point
ESS_FLOOR = 50.0  # a curve point with a smaller effective sample size is unreliable
UNDERSHOOT_MARGIN = 0.1  # audit_run's flags: see its docstring
STAGNATION_RATIO = 0.2


@dataclass(frozen=True)
class GradNormProfile:
    """Histogram summary of criterion gradient norms under the base model."""

    label: str
    sample_count: int
    bin_edges: np.ndarray
    counts: np.ndarray
    median: float
    p90: float
    p99: float
    max: float
    zero_mass_fraction: float


def grad_norm_profile(
    f: Criterion,
    p: Distribution,
    n: int,
    seed: int,
) -> GradNormProfile:
    """Histogram of ||grad f|| over ``n`` base-model samples, with
    ``PROFILE_BINS`` equal bins from 0 to the largest norm."""
    x = _profile_sample(p, n, seed)
    return _profile_from_norms(f.label, _grad_norms(f, x))


def _profile_sample(p: Distribution, n: int, seed: int) -> np.ndarray:
    """The profile's ``n`` draws from ``p``, once ``n`` is checked."""
    if n < 1000:
        raise ContractError("gradient profiling needs n >= 1000")
    return p.sample(n, seed)


def _grad_norms(f: Criterion, x: np.ndarray) -> np.ndarray:
    def norms(rows):
        return np.linalg.norm(f.grad(rows), axis=1)

    return _per_row(f, x.shape[0], _chunks_of(x), "gradient norm", norms)


def _profile_from_norms(label: str, norms: np.ndarray) -> GradNormProfile:
    top = float(norms.max())
    counts, edges = np.histogram(norms, bins=PROFILE_BINS, range=(0.0, top or 1.0))
    # one partition for the three quantiles
    median, p90, p99 = np.quantile(norms, [0.5, 0.9, 0.99])
    return GradNormProfile(
        label=label,
        sample_count=norms.shape[0],
        bin_edges=edges,
        counts=counts,
        median=float(median),
        p90=float(p90),
        p99=float(p99),
        max=top,
        zero_mass_fraction=float(np.mean(norms < ZERO_MASS_EPS * max(top, 1e-300))),
    )


@dataclass(frozen=True)
class TheoreticalCurve:
    """Importance-sampling predictions of the tilt trade-off from p-samples.

    For each beta the weights are w = exp(beta * f) over a fixed sample set:
    log Z is the self-normalized log-mean weight, the expectation is the
    weighted mean of f, and the divergence is beta * E - log Z.  ``reliable``
    turns False from the first beta whose effective sample size drops below
    ``ESS_FLOOR`` and stays False beyond it.
    """

    betas: np.ndarray
    log_z: np.ndarray
    mean_f: np.ndarray
    dkl: np.ndarray
    ess: np.ndarray
    reliable: np.ndarray


def _chunk_sums(betas, k: int, v: np.ndarray, block: np.ndarray, basis: np.ndarray, out):
    """One row chunk's part of the self-normalized weighting of the values
    ``v`` by ``exp(beta * v)``, for the ``betas`` whose first ``k`` are >= 0.

    Fills the (4, len(betas)) ``out`` with the chunk's shift s_c and its sums
    of w, w*v and w^2, where w = exp(beta * v - s_c).  The shift is
    beta * max(v) for beta >= 0 and beta * min(v) for beta < 0, so every w
    is at most 1; it is folded into the outer product as
    beta * (v - max(v)) (v - min(v) for beta < 0).  The weights of all betas
    fill one (len(betas), chunk) view of ``block``, and one product with the
    chunk's [1, v] rows of ``basis`` gives sum w and sum w*v."""
    hi, lo = v.max(), v.min()
    w = block[:, : v.shape[0]]
    np.multiply.outer(betas[:k], v - hi, out=w[:k])
    np.multiply.outer(betas[k:], v - lo, out=w[k:])
    np.exp(w, out=w)
    ones_v = basis[: v.shape[0]]
    ones_v[:, 1] = v
    np.multiply(betas[:k], hi, out=out[0, :k])
    np.multiply(betas[k:], lo, out=out[0, k:])
    out[1:3] = (w @ ones_v).T
    # sum w^2 of each beta as a stack of (1, m) x (m, 1) products, which
    # numpy hands to BLAS's dot
    np.matmul(w[:, None, :], w[:, :, None], out=out[3][:, None, None])


def _curve(f: Criterion, betas, n: int, sums: np.ndarray) -> TheoreticalCurve:
    """``f``'s curve over ``betas`` from ``sums``, its ``_chunk_sums`` parts
    along a last axis of row chunks of its ``n`` values; a non-finite curve
    value raises ``NumericError`` naming ``f`` and the beta.

    The shift of a beta is the max of its chunk shifts, which is
    beta * max(f) (beta * min(f) for beta < 0) exactly, since rounding is
    monotone.  Each chunk's sums are scaled by exp(s_c - shift) (its square
    for the sum of w^2) and added pairwise across chunks, as in one sum over
    the whole sample; adding them up chunk by chunk lost up to 3.5e-13
    relative in log Z on 10^6 values."""
    shifts, total, weighted, squares = sums
    shift = shifts.max(axis=1)
    scale = np.exp(shifts - shift[:, None])
    total = (total * scale).sum(axis=1)
    weighted = (weighted * scale).sum(axis=1)
    squares = (squares * scale * scale).sum(axis=1)
    log_z = shift + np.log(total) - np.log(n)
    mean_f = weighted / total
    dkl = betas * mean_f - log_z
    ess = total * total / squares
    finite = np.isfinite([log_z, mean_f, dkl, ess]).all(axis=0)
    if not finite.all():
        beta = float(betas[np.argmin(finite)])
        raise NumericError(
            f"criterion {f.label!r} has a non-finite importance curve at beta {beta!r}"
        )
    reliable = np.logical_and.accumulate(ess >= ESS_FLOOR)
    return TheoreticalCurve(betas, log_z, mean_f, dkl, ess, reliable)


def importance_curves(candidates, p: Distribution, beta_grid, n: int, seed: int) -> tuple:
    """The theoretical curve of each of ``candidates`` over ``beta_grid``,
    all from the same ``n`` draws of ``p``.

    The sample is drawn one row chunk at a time, and every candidate's values
    on a chunk are reduced to the chunk's weighted sums as soon as they are
    evaluated, so no n-length array is held.  A non-finite criterion value
    raises ``NumericError`` naming the candidate, and so does a non-finite
    curve value (an overflowing beta), naming the beta too.
    """
    if n < 10**4:
        raise ContractError("importance curves need n >= 10^4")
    betas = np.asarray(list(beta_grid), dtype=float)
    # the chunks are weighted with the betas >= 0 first, then put back in order
    order = np.argsort(betas < 0, kind="stable")
    ordered = betas[order]
    k = int(np.count_nonzero(ordered >= 0))
    chunks = list(_row_chunks(n))
    width = max(rows.stop - rows.start for rows in chunks)
    block = np.empty((betas.shape[0], width))
    basis = np.ones((width, 2))
    sums = np.empty((len(candidates), 4, betas.shape[0], len(chunks)))
    for j, x in enumerate(_sample_chunks(p, n, seed)):
        for f, out in zip(candidates, sums):
            values = _finite(f, "value", f.value(x))
            with np.errstate(all="ignore"):
                _chunk_sums(ordered, k, values, block, basis, out[:, :, j])
    back = np.argsort(order)
    curves = []
    for f, out in zip(candidates, sums):
        with np.errstate(all="ignore"):
            curves.append(_curve(f, betas, n, out[:, back]))
    return tuple(curves)


@dataclass(frozen=True)
class CriterionEntry:
    """One candidate's profile plus the declared regularity score.

    The score is p99/median over the nonzero gradient norms; lower means a
    more evenly informative gradient field, hence an easier tuning problem.
    """

    position: int
    label: str
    profile: GradNormProfile
    regularity_score: float
    zero_mass_fraction: float


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple
    ranking: tuple  # entry positions, best first

    def ranked(self) -> list[CriterionEntry]:
        return [self.entries[i] for i in self.ranking]


def compare_criteria(
    candidates,
    p: Distribution,
    n: int,
    seed: int,
) -> ComparisonReport:
    """Profile each candidate and rank them by regularity score.

    Candidates should already be normalized (the score is scale-free, but
    the raw histograms are only comparable on a common scale).  Ties go to
    the smaller zero-mass fraction, then to input order.  Every candidate is
    profiled on the same ``n`` draws from ``p``; its gradient norms are
    computed once, one row chunk at a time, and feed both its profile (a
    histogram of ``PROFILE_BINS`` bins) and score.  A non-finite gradient
    norm raises ``NumericError`` naming the candidate.
    """
    if len(candidates) < 2:
        raise ContractError("need at least two candidate criteria to compare")
    x = _profile_sample(p, n, seed)
    entries = []
    for i, f in enumerate(candidates):
        norms = _grad_norms(f, x)
        profile = _profile_from_norms(f.label, norms)
        nonzero = norms[norms >= ZERO_MASS_EPS * max(profile.max, 1e-300)]
        med, p99 = np.quantile(nonzero, [0.5, 0.99]) if nonzero.size else (0.0, 0.0)
        score = float(p99) / float(med) if med > 0 else float("inf")
        entries.append(
            CriterionEntry(
                position=i,
                label=f.label,
                profile=profile,
                regularity_score=score,
                zero_mass_fraction=profile.zero_mass_fraction,
            )
        )
    ranking = sorted(
        range(len(entries)),
        key=lambda i: (
            entries[i].regularity_score,
            entries[i].zero_mass_fraction,
            entries[i].position,
        ),
    )
    return ComparisonReport(tuple(entries), tuple(ranking))


@dataclass(frozen=True)
class AuditRow:
    beta: float
    empirical_mean_f: float
    theoretical_mean_f: float
    mean_f_gap: float
    empirical_dkl: float
    theoretical_dkl: float
    dkl_gap: float
    undershoot: bool
    stagnation: bool


@dataclass(frozen=True)
class AuditReport:
    rows: tuple
    undershoot: bool
    stagnation: bool


def _audit_point(point) -> tuple[float, float, float]:
    """(beta, mean_f, dkl) of a fit record."""
    try:
        return float(point["beta"]), point["moments"].mean_f, point["moments"].dkl
    except (KeyError, AttributeError, TypeError, ValueError):
        raise ContractError(
            "an audit point is a fit record with 'beta' and 'moments', "
            f"got {type(point).__name__}"
        ) from None


def audit_run(sweep, curve: TheoreticalCurve) -> AuditReport:
    """Compare a sweep's measured points against the theoretical curve.

    ``sweep`` is a sequence of fit records, as ``solve`` and ``pareto_sweep``
    return them, on the same beta grid as ``curve``; any other point raises
    ``ContractError``.  An undershoot flag marks a point whose measured
    expectation falls short of the prediction by more than
    ``UNDERSHOOT_MARGIN`` of its scale; a stagnation flag marks a step where
    the predicted divergence grows by more than 0.1 and the measured one by
    less than ``STAGNATION_RATIO`` of that.
    """
    triples = [_audit_point(point) for point in sweep]
    betas = np.array([t[0] for t in triples])
    if betas.shape != curve.betas.shape or not np.allclose(betas, curve.betas):
        raise ContractError("sweep and theoretical curve must share a beta grid")
    rows = []
    any_under = False
    any_stag = False
    prev_emp_dkl = prev_theo_dkl = None
    for i, (beta, emp_e, emp_d) in enumerate(triples):
        theo_e = float(curve.mean_f[i])
        theo_d = float(curve.dkl[i])
        scale_e = max(abs(theo_e), 1.0)
        scale_d = max(abs(theo_d), 1.0)
        mean_gap = (emp_e - theo_e) / scale_e
        dkl_gap = (emp_d - theo_d) / scale_d
        undershoot = (theo_e - emp_e) > UNDERSHOOT_MARGIN * scale_e
        stagnation = False
        if prev_theo_dkl is not None:
            theo_inc = theo_d - prev_theo_dkl
            emp_inc = emp_d - prev_emp_dkl
            stagnation = theo_inc > 0.1 and emp_inc < STAGNATION_RATIO * theo_inc
        prev_emp_dkl, prev_theo_dkl = emp_d, theo_d
        any_under = any_under or undershoot
        any_stag = any_stag or stagnation
        rows.append(
            AuditRow(
                beta=beta,
                empirical_mean_f=emp_e,
                theoretical_mean_f=theo_e,
                mean_f_gap=mean_gap,
                empirical_dkl=emp_d,
                theoretical_dkl=theo_d,
                dkl_gap=dkl_gap,
                undershoot=undershoot,
                stagnation=stagnation,
            )
        )
    return AuditReport(tuple(rows), any_under, any_stag)
