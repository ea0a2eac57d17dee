import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privstream.accounting import PrivacyParams
from privstream.noise import (
    APPROX_SLACK,
    GUMBEL,
    LAPLACE,
    ZERO_FOR_TEST,
    NoiseSource,
    derive_seed,
    draw_block,
    draw_block_approx,
    inverse_cdf,
    private_argmax,
)
from privstream.objectives import coverage_oracle
from privstream.streaming import PssmConfig, pssm


def gumbel_cdf(x: float, location: float = 0.0, scale: float = 1.0) -> float:
    """Gumbel CDF exp(-exp(-(x - location)/scale))."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    z = (x - location) / scale
    if z < -700.0:  # exp(-z) would overflow; the CDF is 0 in double precision
        return 0.0
    return math.exp(-math.exp(-z))


def ks_distance(samples, cdf):
    x = np.sort(np.asarray(samples))
    f = cdf(x)
    n = len(x)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(f - hi), np.abs(f - lo))))


def test_zero_source_is_silent():
    src = NoiseSource(ZERO_FOR_TEST, 0.0, seed=3)
    assert [src.draw() for _ in range(3)] == [0.0, 0.0, 0.0]
    assert src.spawn(1, 2).draw() == 0.0


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
    with pytest.raises(ValueError, match="scale"):
        NoiseSource(LAPLACE, 0.0, seed=0)
    with pytest.raises(ValueError, match="scale"):
        NoiseSource(GUMBEL, -1.0, seed=0)
    with pytest.raises(ValueError, match="scale"):
        NoiseSource(GUMBEL, math.nan, seed=0)
    with pytest.raises(ValueError, match="scale"):
        NoiseSource(LAPLACE, 1.0, seed=0).spawn(1, kind=GUMBEL, scale=0.0)
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


MASK64 = (1 << 64) - 1
STEP = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def unxorshift(y, shift):
    # Inverts x ^ (x >> shift): each pass fixes shift more high bits.
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def unfinalize(out):
    """The counter value whose splitmix64 finalizer output is ``out``."""
    z = unxorshift(out, 31)
    z = (z * pow(MIX2, -1, 1 << 64)) & MASK64
    z = unxorshift(z, 27)
    z = (z * pow(MIX1, -1, 1 << 64)) & MASK64
    return unxorshift(z, 30)


def finalize(z):
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def bits(rows):
    return [[x.hex() for x in row] for row in rows]


def scalar_block(sources, count):
    return [[s.draw() for _ in range(count)] for s in sources]


@pytest.mark.filterwarnings("error")  # numpy warns on a scalar uint64 overflow
@pytest.mark.parametrize("kind", [LAPLACE, GUMBEL])
def test_draw_block_equals_scalar_draws(kind):
    for scale in (1e-3, 0.3, 2.5, 117.0):
        for seed in range(40):
            width = 1 + seed % 6
            sources = [NoiseSource(kind, scale, seed=(seed, i, 1)) for i in range(width)]
            twins = [NoiseSource(kind, scale, seed=(seed, i, 1)) for i in range(width)]
            for count in (1, 2, 7, 31, 32, 33, 65):
                start = [s._state for s in sources]
                assert bits(draw_block(sources, count)) == bits(scalar_block(twins, count))
                assert [s._state for s in sources] == [
                    (x + count * STEP) & MASK64 for x in start]
            # Each source goes on where its block ended.
            assert bits(scalar_block(sources, 3)) == bits(scalar_block(twins, 3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [LAPLACE, GUMBEL])
def test_draw_block_clamps_a_zero_uniform(kind):
    # Finalizer outputs below 2^11 give u = 0, which is raised to 2^-53;
    # 2^11 gives 2^-53 itself, the same draw, and 2^12 the next uniform up.
    # Counters are set so the step lands at
    # several positions of a block, on either side of a wrap past 2^64.
    clamped = NoiseSource(kind, 2.0, seed=0)
    clamped._state = (unfinalize(0) - STEP) & MASK64
    expected = clamped.draw()
    if kind == GUMBEL:
        assert expected == -2.0 * math.log(-math.log(2.0 ** -53))
    else:
        assert expected == 2.0 * math.log(1.0 + 2.0 * (2.0 ** -53 - 0.5))
    for out in (0, 5, 2047, 2048, 4096):
        counter = unfinalize(out)
        assert finalize(counter) == out
        for position in (1, 17, 40):
            sources = [NoiseSource(kind, 2.0, seed=(out, i)) for i in range(3)]
            twins = [NoiseSource(kind, 2.0, seed=(out, i)) for i in range(3)]
            for s in (sources[1], twins[1]):
                s._state = (counter - position * STEP) & MASK64
            rows = draw_block(sources, 40)
            assert bits(rows) == bits(scalar_block(twins, 40))
            assert (rows[1][position - 1] == expected) == (out < 4096)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [LAPLACE, GUMBEL])
def test_draw_block_approx_stays_far_inside_its_slack(kind):
    # 2^20 uniforms per scale, in blocks of 16 sources x 4096 draws; each
    # block's first two sources start at the clamped ends 2^-53 (a zero
    # finalizer output) and 1 - 2^-53 (all ones). The scan's certificates
    # need the gap below the slack; 2^10 below it leaves room for a numpy
    # whose log is a few ulps off math.log.
    ends = (unfinalize(0), unfinalize(MASK64))
    for scale in (1e-3, 0.3, 2.5, 117.0):
        largest = 0.0
        for chunk in range(16):
            sources = [NoiseSource(kind, scale, seed=(chunk, i)) for i in range(16)]
            twins = [NoiseSource(kind, scale, seed=(chunk, i)) for i in range(16)]
            for i, counter in enumerate(ends):
                sources[i]._state = twins[i]._state = (counter - STEP) & MASK64
            approx, uniforms = draw_block_approx(sources, 4096)
            exact = draw_block(twins, 4096)
            assert (uniforms[0][0], uniforms[1][0]) == (2.0 ** -53, 1 - 2.0 ** -53)
            assert [inverse_cdf(kind, scale, u) for u in uniforms[0]] == exact[0]
            assert [s._state for s in sources] == [s._state for s in twins]
            largest = max(largest, float(np.abs(np.subtract(approx, exact)).max()))
        assert largest <= scale * APPROX_SLACK / 2 ** 10


def test_draw_block_approx_zero_and_extreme_scales_are_exact():
    for scale in (0.0, 1.0):
        zero = [NoiseSource(ZERO_FOR_TEST, scale, seed=i) for i in range(2)]
        assert draw_block_approx(zero, 3) == ([[0.0] * 3] * 2, [[None] * 3] * 2)
    for scale in (2.0 ** -1000, 2.0 ** 1000):
        sources = [NoiseSource(GUMBEL, scale, seed=i) for i in range(2)]
        twins = [NoiseSource(GUMBEL, scale, seed=i) for i in range(2)]
        assert draw_block_approx(sources, 40) == (draw_block(twins, 40), [[None] * 40] * 2)


def test_draw_block_validation_and_zero_sources():
    zero = [NoiseSource(ZERO_FOR_TEST, 0.0, seed=i) for i in range(2)]
    assert draw_block(zero, 3) == [[0.0] * 3, [0.0] * 3]
    assert [s._state for s in zero] == [derive_seed(0), derive_seed(1)]
    mixed = [[NoiseSource(LAPLACE, 1.0, seed=0), NoiseSource(LAPLACE, 2.0, seed=1)],
             [NoiseSource(LAPLACE, 1.0, seed=0), NoiseSource(GUMBEL, 1.0, seed=1)]]
    for sources in mixed:
        with pytest.raises(ValueError, match="one kind and scale"):
            draw_block(sources, 4)


def test_laplace_moments_and_tail():
    scale = 3.0
    src = NoiseSource(LAPLACE, scale, seed=99)
    n = 200_000
    draws = np.array([src.draw() for _ in range(n)])
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
    src = NoiseSource(GUMBEL, scale, seed=7)
    u = [gumbel_cdf(loc + src.draw(), loc, scale) for _ in range(100_000)]
    d = ks_distance(u, lambda x: np.clip(x, 0.0, 1.0))
    assert d < 0.005


def test_gumbel_tail_bounds():
    mu, gamma, beta = 1.0, 2.0, 0.01
    src = NoiseSource(GUMBEL, gamma, seed=5)
    n = 200_000
    draws = np.array([mu + src.draw() for _ in range(n)])
    upper = mu + gamma * math.log(1 / beta)
    lower = mu - gamma * math.log(math.log(1 / beta))
    assert (draws > upper).mean() <= 1.1 * beta
    assert (draws < lower).mean() <= 1.1 * beta


def test_private_argmax_single_and_errors():
    src = NoiseSource(GUMBEL, 1.0, seed=0)
    assert private_argmax([-5.0], src) == 0
    with pytest.raises(ValueError, match="non-empty"):
        private_argmax([], src)
    with pytest.raises(ValueError, match="finite"):
        private_argmax([math.nan, math.nan], src)
    with pytest.raises(ValueError, match="finite"):
        private_argmax([1.0, math.inf], NoiseSource(ZERO_FOR_TEST, 0.0, seed=0))


def test_private_argmax_zero_source_is_exact():
    src = NoiseSource(ZERO_FOR_TEST, 0.0, seed=0)
    assert all(private_argmax([1.0, 3.0, 2.0], src) == 1 for _ in range(10))
    assert private_argmax([2.0, 3.0, 3.0], src) == 1  # first wins on ties


def test_private_argmax_two_point_probabilities():
    # Scores {0, ln 3} at eps=2, sensitivity 1 (scale 2*sens/eps = 1): odds 1:3.
    src = NoiseSource(GUMBEL, 1.0, seed=17)
    n = 200_000
    ones = sum(private_argmax([0.0, math.log(3.0)], src) for _ in range(n))
    assert ones / n == pytest.approx(0.75, abs=0.01)


def test_private_argmax_symmetry():
    src = NoiseSource(GUMBEL, 2.0, seed=23)
    n = 90_000
    counts = np.bincount(
        [private_argmax([4.2] * 3, src) for _ in range(n)], minlength=3
    )
    assert np.all(np.abs(counts / n - 1 / 3) < 0.01)


def test_private_argmax_shift_invariance():
    # Same noise stream + shifted scores -> identical selections draw by draw.
    scores = [0.3, 1.1, 0.9]
    shifted = [q + 57.0 for q in scores]
    a = NoiseSource(GUMBEL, 2.0 / 0.7, seed=31)
    b = NoiseSource(GUMBEL, 2.0 / 0.7, seed=31)
    picks_a = [private_argmax(scores, a) for _ in range(5000)]
    picks_b = [private_argmax(shifted, b) for _ in range(5000)]
    assert picks_a == picks_b


def first_wins_argmax(scores, twin):
    noisy = [q + twin.draw() for q in scores]
    return noisy.index(max(noisy))


def test_private_argmax_is_first_wins_argmax_of_draws():
    rng = np.random.default_rng(4)
    for seed in range(300):
        # Few distinct integer scores, so noisy ties are possible at scale 0.
        scores = [float(q) for q in rng.integers(0, 4, size=int(rng.integers(1, 8)))]
        for kind, scale in ((GUMBEL, 1.7), (LAPLACE, 0.4), (ZERO_FOR_TEST, 0.0)):
            src = NoiseSource(kind, scale, seed=seed)
            twin = NoiseSource(kind, scale, seed=seed)
            for _ in range(3):
                assert private_argmax(scores, src) == first_wins_argmax(scores, twin)


@pytest.mark.parametrize("kind", [LAPLACE, GUMBEL])
@pytest.mark.parametrize("epsilon", [0.25, 0.5])
def test_pssm_selection_draws_gumbel_of_scale_4_over_eps(kind, epsilon):
    # pssm picks the rung with the largest value plus one draw of the
    # Gumbel(2*sens/(eps/2)) stream (master_seed, T, 2), sens = 1.
    rng = np.random.default_rng(8)
    records = [int(r) for r in rng.integers(0, 6, size=40)]
    f = coverage_oracle(records)
    for master_seed in range(60):
        cfg = PssmConfig(k=3, theta=0.2, privacy=PrivacyParams(epsilon, 1e-6), noise_kind=kind,
                         m_bound=float(len(records)), n_bound=6, master_seed=master_seed)
        _, diag = pssm(f, range(6), cfg)
        twin = NoiseSource(GUMBEL, 4.0 / epsilon, seed=(master_seed, diag.num_guesses, 2))
        assert diag.chosen_index == first_wins_argmax(diag.per_guess_values, twin)
