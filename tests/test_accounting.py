import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privstream.accounting import (
    ADVANCED,
    BASIC,
    PrivacyParams,
    advanced_compose,
    advanced_compose_delta,
    basic_compose,
    basic_split,
    per_guess_budget_advanced,
    sparse_gumbel_scale,
    sparse_laplace_sigma,
    split_budget,
)


# Per-instance scales of T guess instances under advanced composition.
def laplace_sigma(k, T, eps, delta):
    return split_budget(PrivacyParams(eps, delta, ADVANCED), T, "laplace", k).laplace_scale


def gumbel_gamma(T, eps, delta):
    return split_budget(PrivacyParams(eps, delta, ADVANCED), T, "gumbel").gumbel_scale


def test_basic_compose_sums():
    assert basic_compose([(0.1, 1e-6), (0.2, 1e-6)]) == pytest.approx((0.3, 2e-6))
    assert basic_compose([]) == (0.0, 0.0)
    eps, delta = basic_compose([(0.25, 1e-7)] * 8)
    assert (eps, delta) == pytest.approx((2.0, 8e-7))
    with pytest.raises(ValueError):
        basic_compose([(-0.1, 0.0)])


def test_advanced_compose_closed_form():
    assert advanced_compose(0.0, 0.0, 10, 1e-6) == 0.0
    # sqrt(20 ln 1e6) * 0.1 + 1 * (e^0.1 - 1), frozen from a hand evaluation
    assert advanced_compose(0.1, 0.0, 10, 1e-6) == pytest.approx(1.767429054344758, rel=1e-9)
    assert advanced_compose_delta(1e-7, 10, 1e-6) == pytest.approx(2e-6)


@given(
    eps_total=st.floats(0.05, 0.99),
    delta=st.floats(1e-9, 1e-2),
    k=st.integers(1, 500),
)
@settings(max_examples=100)
def test_advanced_inverse_rule(eps_total, delta, k):
    # Per-call eps'/(2 sqrt(2k ln 1/delta)) recomposes to at most eps'.
    per_call = eps_total / (2 * math.sqrt(2 * k * math.log(1 / delta)))
    assert advanced_compose(per_call, delta, k, delta) <= eps_total * (1 + 1e-12)


def test_laplace_sigma_frozen_value():
    # k=5, T=9, eps=1, delta=1e-3: eps' ~ 0.019416, sigma ~ 1977.11
    with pytest.warns(UserWarning):
        sigma = laplace_sigma(5, 9, 1.0, 1e-3)
    assert sigma == pytest.approx(1977.1149280943469, rel=1e-9)


def test_laplace_sigma_homogeneity_and_monotonicity():
    base = laplace_sigma(5, 9, 0.5, 1e-3)
    assert laplace_sigma(5, 9, 0.25, 1e-3) == 2.0 * base
    assert laplace_sigma(6, 9, 0.5, 1e-3) > base
    assert laplace_sigma(5, 12, 0.5, 1e-3) > base


def test_gumbel_scale_single_instance_frozen_value():
    # 8/(0.5 ln 2) * ln(2/(0.5e-4)) ~ 23.083 * 10.5966
    assert sparse_gumbel_scale(0.5, 1e-4) == pytest.approx(244.60339807279118, rel=1e-9)


def test_gumbel_gamma_composed_matches_inline_evaluation():
    T, eps, delta = 10, 0.5, 1e-4
    delta_per = delta / (T + 1)
    eps_per = eps / (4 * math.sqrt(2 * T * math.log(1 / delta_per)))
    expected = 8 / (eps_per * math.log(2)) * math.log(2 / (eps_per * delta_per))
    assert gumbel_gamma(T, eps, delta) == pytest.approx(expected, rel=1e-12)
    assert gumbel_gamma(T, eps, delta) == pytest.approx(24063.800501800473, rel=1e-9)


@given(
    eps_lo=st.floats(0.01, 0.5),
    bump=st.floats(0.01, 0.49),
    delta=st.floats(1e-10, 1e-2),
    T=st.integers(1, 300),
)
@settings(max_examples=100)
def test_noise_scales_positive_and_decreasing_in_epsilon(eps_lo, bump, delta, T):
    eps_hi = eps_lo + bump
    lo_sigma = laplace_sigma(4, T, eps_lo, delta)
    hi_sigma = laplace_sigma(4, T, eps_hi, delta)
    lo_gamma = gumbel_gamma(T, eps_lo, delta)
    hi_gamma = gumbel_gamma(T, eps_hi, delta)
    assert lo_sigma > hi_sigma > 0
    assert lo_gamma > hi_gamma > 0


def test_basic_split_values():
    assert basic_split(1.0, 1e-4, 10) == pytest.approx((0.1, 1e-5))
    assert basic_split(0.3, 1e-5, 1) == (0.3, 1e-5)


@given(
    eps=st.floats(0.01, 0.99),
    delta=st.floats(1e-9, 0.1),
    T=st.integers(1, 64),
)
@settings(max_examples=100)
def test_basic_split_recomposes(eps, delta, T):
    per = basic_split(eps, delta, T)
    total = basic_compose([per] * T)
    assert total[0] == pytest.approx(eps, rel=1e-12)
    assert total[1] == pytest.approx(delta, rel=1e-12)
    if T <= 2:  # doubling a float is exact; longer sums round at 1 ulp
        assert total == (eps, delta)


@given(
    eps=st.floats(0.05, 0.99),
    delta=st.floats(1e-9, 1e-2),
    T=st.integers(1, 200),
)
@settings(max_examples=100)
def test_per_guess_budget_recomposes_to_half_epsilon(eps, delta, T):
    eps_per, delta_per = per_guess_budget_advanced(eps, delta, T)
    composed = advanced_compose(eps_per, delta_per, T, delta_per)
    assert composed <= (eps / 2) * (1 + 1e-9)
    total_delta = advanced_compose_delta(delta_per, T, delta_per)
    assert total_delta == pytest.approx(delta, rel=1e-9)


def test_privacy_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(0.0, 1e-5)
    with pytest.raises(ValueError):
        PrivacyParams(0.5, 0.0)
    with pytest.raises(ValueError):
        PrivacyParams(0.5, 1.5)
    with pytest.raises(ValueError):
        PrivacyParams(0.5, 1e-5, composition="optimal")
    for epsilon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            PrivacyParams(epsilon, 1e-3)
    with pytest.warns(UserWarning):
        PrivacyParams(2.0, 1e-5)


def test_split_budget_modes():
    params = PrivacyParams(0.8, 1e-5, composition=BASIC)
    split = split_budget(params, T=8, noise_kind="laplace", k=3)
    assert split.per_guess_epsilon == pytest.approx(0.05)  # (0.8/2)/8
    assert split.per_guess_delta == pytest.approx(1.25e-6)
    assert split.selection_epsilon == pytest.approx(0.4)
    assert split.laplace_scale == pytest.approx(
        sparse_laplace_sigma(3, 0.05, 1.25e-6)
    )
    assert split.gumbel_scale is None

    adv = PrivacyParams(0.8, 1e-5, composition=ADVANCED)
    split_adv = split_budget(adv, T=8, noise_kind="gumbel")
    eps_per, delta_per = per_guess_budget_advanced(0.8, 1e-5, 8)
    assert split_adv.per_guess_epsilon == pytest.approx(eps_per)
    assert split_adv.per_guess_delta == pytest.approx(delta_per)
    assert split_adv.gumbel_scale == pytest.approx(sparse_gumbel_scale(eps_per, delta_per))


def test_split_budget_rejects_unguaranteed_kinds():
    params = PrivacyParams(0.5, 1e-5)
    with pytest.raises(ValueError):
        split_budget(params, T=4, noise_kind="zero")
    with pytest.raises(ValueError):
        split_budget(params, T=4, noise_kind="laplace")  # k missing
