import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privstream.noise import (
    GUMBEL,
    LAPLACE,
    ZERO_FOR_TEST,
    NoiseSource,
    ScoredCandidate,
    derive_seed,
    gumbel_cdf,
    private_argmax,
    sample_gumbel,
    sample_laplace,
)


class FixedUniform:
    """Stub source producing one fixed uniform, for quantile pinning."""

    kind = GUMBEL

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def ks_distance(samples, cdf):
    x = np.sort(np.asarray(samples))
    f = cdf(x)
    n = len(x)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(f - hi), np.abs(f - lo))))


def test_zero_source_is_silent():
    src = NoiseSource(ZERO_FOR_TEST, 0.0, seed=3)
    assert sample_laplace(1.0, src) == 0.0
    assert sample_gumbel(0.0, 1.0, src) == 0.0
    assert sample_gumbel(2.5, 1.0, src) == 2.5
    assert src.draw() == 0.0


def test_gumbel_fixed_quantile_equals_location():
    # u = 1/e puts the draw exactly at the location parameter.
    x = sample_gumbel(2.5, 1.7, FixedUniform(1.0 / math.e))
    assert x == pytest.approx(2.5, abs=1e-12)


def test_gumbel_cdf_closed_form():
    assert gumbel_cdf(0.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0))
    assert gumbel_cdf(3.0, 3.0, 0.5) == pytest.approx(math.exp(-1.0))
    assert gumbel_cdf(1e6) == pytest.approx(1.0)
    assert gumbel_cdf(-1e6) == pytest.approx(0.0)
    # x = location + scale*ln 2 -> exp(-1/2)
    assert gumbel_cdf(1.0 + 2.0 * math.log(2), 1.0, 2.0) == pytest.approx(math.exp(-0.5))


@given(
    x=st.floats(-50, 50),
    shift=st.floats(0, 50),
    loc=st.floats(-10, 10),
    scale=st.floats(0.1, 10),
)
def test_gumbel_cdf_is_a_cdf(x, shift, loc, scale):
    lo = gumbel_cdf(x, loc, scale)
    hi = gumbel_cdf(x + shift, loc, scale)
    assert 0.0 <= lo <= hi <= 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        sample_laplace(0.0, NoiseSource(LAPLACE, 1.0, seed=0))
    with pytest.raises(ValueError):
        sample_gumbel(0.0, -1.0, NoiseSource(GUMBEL, 1.0, seed=0))
    with pytest.raises(ValueError):
        gumbel_cdf(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        NoiseSource(LAPLACE, -2.0, seed=0)
    with pytest.raises(ValueError):
        NoiseSource("cauchy", 1.0, seed=0)


@given(seed=st.integers(0, 2**63), kind=st.sampled_from([LAPLACE, GUMBEL]))
@settings(max_examples=25)
def test_equal_seeds_give_identical_streams(seed, kind):
    a = NoiseSource(kind, 1.3, seed=seed)
    b = NoiseSource(kind, 1.3, seed=seed)
    assert [a.draw() for _ in range(50)] == [b.draw() for _ in range(50)]


def test_tuple_seeds_are_deterministic_and_distinct():
    a = NoiseSource(LAPLACE, 1.0, seed=(7, 1, 0))
    b = NoiseSource(LAPLACE, 1.0, seed=(7, 1, 0))
    c = NoiseSource(LAPLACE, 1.0, seed=(7, 2, 0))
    xs = [a.draw() for _ in range(20)]
    assert xs == [b.draw() for _ in range(20)]
    assert xs != [c.draw() for _ in range(20)]
    assert derive_seed(7, 1, 0) != derive_seed(7, 0, 1)


def test_laplace_moments_and_tail():
    scale = 3.0
    src = NoiseSource(LAPLACE, scale, seed=99)
    n = 200_000
    draws = np.array([sample_laplace(scale, src) for _ in range(n)])
    assert abs(draws.mean()) < 0.01 * scale
    beta = 0.01
    cut = scale * math.log(1 / beta)
    assert (np.abs(draws) > cut).mean() <= 1.1 * beta


def test_gumbel_sampler_matches_cdf():
    src = NoiseSource(GUMBEL, 1.0, seed=42)
    draws = [src.draw() for _ in range(100_000)]
    d = ks_distance(draws, lambda x: np.exp(-np.exp(-x)))
    assert d < 0.005


def test_gumbel_cdf_of_samples_is_uniform():
    loc, scale = -2.0, 3.5
    src = NoiseSource(GUMBEL, scale, seed=7, location=loc)
    u = [gumbel_cdf(src.draw(), loc, scale) for _ in range(100_000)]
    d = ks_distance(u, lambda x: np.clip(x, 0.0, 1.0))
    assert d < 0.005


def test_gumbel_tail_bounds():
    mu, gamma, beta = 1.0, 2.0, 0.01
    src = NoiseSource(GUMBEL, gamma, seed=5, location=mu)
    n = 200_000
    draws = np.array([src.draw() for _ in range(n)])
    upper = mu + gamma * math.log(1 / beta)
    lower = mu - gamma * math.log(math.log(1 / beta))
    assert (draws > upper).mean() <= 1.1 * beta
    assert (draws < lower).mean() <= 1.1 * beta


def test_private_argmax_single_and_errors():
    src = NoiseSource(GUMBEL, 1.0, seed=0)
    assert private_argmax([ScoredCandidate(9, -5.0)], 1.0, 1.0, src) == 9
    with pytest.raises(ValueError):
        private_argmax([], 1.0, 1.0, src)
    with pytest.raises(ValueError):
        private_argmax([ScoredCandidate(0, 0.0)], 0.0, 1.0, src)
    with pytest.raises(ValueError):
        private_argmax([ScoredCandidate(0, 0.0)], 1.0, 0.0, src)
    nan_pair = [ScoredCandidate(0, math.nan), ScoredCandidate(1, math.nan)]
    with pytest.raises(ValueError, match="non-finite"):
        private_argmax(nan_pair, 1.0, 1.0, src)
    with pytest.raises(ValueError, match="non-finite"):
        private_argmax([ScoredCandidate(0, 1.0), ScoredCandidate(1, math.inf)], 1.0, 1.0,
                       NoiseSource(ZERO_FOR_TEST, 0.0, seed=0))


def test_private_argmax_zero_source_is_exact():
    src = NoiseSource(ZERO_FOR_TEST, 0.0, seed=0)
    cands = [ScoredCandidate(0, 1.0), ScoredCandidate(1, 3.0), ScoredCandidate(2, 2.0)]
    assert all(private_argmax(cands, 1.0, 1.0, src) == 1 for _ in range(10))


def test_private_argmax_two_point_probabilities():
    # Scores {0, ln 3} at eps=2, sensitivity 1: odds exactly 1:3.
    cands = [ScoredCandidate(0, 0.0), ScoredCandidate(1, math.log(3.0))]
    src = NoiseSource(GUMBEL, 1.0, seed=17)
    n = 200_000
    ones = sum(private_argmax(cands, 2.0, 1.0, src) for _ in range(n))
    assert ones / n == pytest.approx(0.75, abs=0.01)


def test_private_argmax_symmetry():
    cands = [ScoredCandidate(i, 4.2) for i in range(3)]
    src = NoiseSource(GUMBEL, 1.0, seed=23)
    n = 90_000
    counts = np.bincount(
        [private_argmax(cands, 1.0, 1.0, src) for _ in range(n)], minlength=3
    )
    assert np.all(np.abs(counts / n - 1 / 3) < 0.01)


def test_private_argmax_shift_invariance():
    # Same noise stream + shifted scores -> identical selections draw by draw.
    cands = [ScoredCandidate(0, 0.3), ScoredCandidate(1, 1.1), ScoredCandidate(2, 0.9)]
    shifted = [ScoredCandidate(c.index, c.score + 57.0) for c in cands]
    a = NoiseSource(GUMBEL, 1.0, seed=31)
    b = NoiseSource(GUMBEL, 1.0, seed=31)
    picks_a = [private_argmax(cands, 0.7, 1.0, a) for _ in range(5000)]
    picks_b = [private_argmax(shifted, 0.7, 1.0, b) for _ in range(5000)]
    assert picks_a == picks_b
