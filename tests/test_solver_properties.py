"""Properties of the beta search: the model root and the safeguarded step."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltgen.solver import MomentEstimates, Target, _bracket, _quadratic_root, newton_step

PROPERTY = settings(max_examples=100, deadline=None)

# magnitudes a residual or a moment takes, from negligible to large
nonzero = st.floats(1e-15, 1e6).flatmap(lambda m: st.sampled_from([m, -m]))
magnitudes = st.one_of(st.just(0.0), nonzero)


@PROPERTY
@given(r=magnitudes, d1=nonzero, d2=magnitudes)
@example(r=1e6, d1=1e-3, d2=1e-15)  # curvature far below the slope, still a root
def test_quadratic_root_solves_the_model_or_takes_the_newton_step(r, d1, d2):
    x = _quadratic_root(r, d1, d2)
    if d1 * d1 - 2.0 * d2 * r < 0.0:
        assert x == -r / d1
        return
    terms = (r, d1 * x, d2 * x * x / 2.0)
    assert abs(sum(terms)) <= 1e-9 * sum(abs(t) for t in terms)


@PROPERTY
@given(r=nonzero, d2=nonzero)
def test_quadratic_root_without_slope_moves_against_the_residual(r, d2):
    x = _quadratic_root(r, 0.0, d2)
    assert math.copysign(1.0, x) == -math.copysign(1.0, r)
    if -2.0 * r / d2 > 0.0:
        assert abs(r + d2 * x * x / 2.0) <= 1e-9 * abs(r)


@st.composite
def estimates(draw):
    """Moment estimates with a variance well above its noise floor."""
    return MomentEstimates(
        mean_f=draw(st.floats(-1e3, 1e3)),
        var_f=draw(st.floats(1e-3, 1e3)),
        third_central_f=draw(st.floats(-1e3, 1e3)),
        dkl=draw(st.floats(0.0, 1e3)),
        n=1000,
        se_mean=1e-6,
        se_var=1e-6,
        se_third=1e-6,
        se_dkl=1e-6,
    )


targets = st.builds(
    Target, st.sampled_from(["expectation", "divergence"]), st.floats(0.0, 100.0)
)
betas = st.floats(0.0, 1e3)


@PROPERTY
@given(beta=betas, est=estimates(), residual=st.floats(-100.0, 100.0), target=targets)
def test_newton_step_without_bracket_stays_in_the_trust_region(beta, est, residual, target):
    proposed = newton_step([{"beta": beta, "moments": est, "residual": residual}], target)
    assert proposed >= 0.0
    assert abs(proposed - beta) <= max(1.0, abs(beta))


@PROPERTY
@given(
    ends=st.lists(betas, min_size=2, max_size=2, unique=True).map(sorted),
    t=st.floats(0.0, 1.0),
    ests=st.lists(estimates(), min_size=3, max_size=3),
    residual=st.floats(-100.0, 100.0),
    target=targets,
)
def test_newton_step_never_leaves_a_bracket(ends, t, ests, residual, target):
    lo, hi = ends
    beta = lo + t * (hi - lo)
    records = [
        {"beta": b, "moments": est, "residual": r}
        for b, est, r in zip((lo, hi, beta), ests, (-1.0, 1.0, residual))
    ]
    lo, hi = _bracket(records)
    proposed = newton_step(records, target)
    assert 0.0 <= lo <= proposed <= hi
