"""Privacy budget composition and closed-form noise calibration.

The streaming maximizer spends half its (epsilon, delta) budget on the
threshold phase (split across the T parallel guess instances, under basic or
advanced composition) and the other half on the final private selection.
This module owns those splits and the per-instance noise scales they imply.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

BASIC = "basic"
ADVANCED = "advanced"


@dataclass(frozen=True)
class PrivacyParams:
    """Total (epsilon, delta) budget plus the composition mode to spend it."""

    epsilon: float
    delta: float
    composition: str = ADVANCED

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.composition not in (BASIC, ADVANCED):
            raise ValueError(f"unknown composition mode {self.composition!r}")
        if self.epsilon >= 1:
            # The calibration formulas stay well-defined but their analysis
            # assumes epsilon < 1; benchmark configs use epsilon = 1 anyway.
            warnings.warn(
                f"epsilon = {self.epsilon} >= 1: noise scales remain valid "
                "but the theoretical utility analysis assumes epsilon < 1",
                stacklevel=2,
            )


def basic_compose(budgets) -> tuple[float, float]:
    """Sum per-mechanism (epsilon_i, delta_i) budgets coordinate-wise."""
    eps_total = 0.0
    delta_total = 0.0
    for eps, delta in budgets:
        if eps < 0 or delta < 0:
            raise ValueError("budget components must be non-negative")
        eps_total += eps
        delta_total += delta
    return eps_total, delta_total


def advanced_compose(epsilon: float, delta: float, k: int, delta_prime: float) -> float:
    """Epsilon after k-fold adaptive composition of (epsilon, delta) mechanisms.

    Returns sqrt(2k ln(1/delta'))*eps + k*eps*(e^eps - 1); the composed delta
    is k*delta + delta_prime (see :func:`advanced_compose_delta`).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if not 0 < delta_prime < 1:
        raise ValueError(f"delta_prime must lie in (0, 1), got {delta_prime}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return math.sqrt(2 * k * math.log(1 / delta_prime)) * epsilon + k * epsilon * (
        math.expm1(epsilon)
    )


def advanced_compose_delta(delta: float, k: int, delta_prime: float) -> float:
    """Delta after k-fold adaptive composition with slack delta_prime."""
    return k * delta + delta_prime


def basic_split(epsilon: float, delta: float, T: int) -> tuple[float, float]:
    """Evenly split a budget across T mechanisms: (epsilon/T, delta/T)."""
    if T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    return epsilon / T, delta / T


def per_guess_budget_advanced(epsilon: float, delta: float, T: int) -> tuple[float, float]:
    """Per-instance budget under advanced composition of T guess instances.

    Each instance gets eps' = epsilon / (4*sqrt(2T ln((T+1)/delta))) and
    delta' = delta/(T+1); composing the T instances with slack delta/(T+1)
    then costs at most (epsilon/2, delta) overall, leaving epsilon/2 for the
    final selection step.
    """
    if T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    eps_per = epsilon / (4.0 * math.sqrt(2.0 * T * math.log((T + 1) / delta)))
    return eps_per, delta / (T + 1)


def sparse_laplace_sigma(k: int, epsilon: float, delta: float) -> float:
    """Laplace scale making one threshold instance (epsilon, delta)-private.

    sigma = sqrt(32 k ln(1/delta)) / epsilon; the instance adds Lap(sigma) to
    the threshold and Lap(2*sigma) to each query, for up to k acceptances.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(32.0 * k * math.log(1.0 / delta)) / epsilon


def sparse_gumbel_scale(epsilon: float, delta: float) -> float:
    """Gumbel scale making one threshold instance (epsilon, delta)-private
    for decomposable objectives, independent of the cutoff k.

    gamma = 8/(epsilon ln 2) * ln(2/(epsilon*delta)).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return 8.0 / (epsilon * math.log(2.0)) * math.log(2.0 / (epsilon * delta))


@dataclass(frozen=True)
class BudgetSplit:
    """Resolved per-phase budgets and noise scales for one maximizer run.

    The T guess instances jointly cost at most (epsilon/2, delta); the final
    selection costs (epsilon/2, 0).
    """

    per_guess_epsilon: float
    per_guess_delta: float
    selection_epsilon: float
    laplace_scale: float | None = None
    gumbel_scale: float | None = None


@functools.lru_cache(maxsize=256)
def split_budget(params: PrivacyParams, T: int, noise_kind: str, k: int | None = None) -> BudgetSplit:
    """Derive per-instance budgets and the noise scale for a maximizer run.

    ``noise_kind`` must be ``"laplace"`` (requires k) or ``"gumbel"``; the
    noiseless test kind carries no guarantee and is rejected here. Memoized:
    the split is a pure function of public inputs.
    """
    if noise_kind == "laplace":
        if k is None:
            raise ValueError("laplace calibration requires the cutoff k")
    elif noise_kind != "gumbel":
        raise ValueError(f"no privacy guarantee for noise kind {noise_kind!r}")

    stream_epsilon = params.epsilon / 2.0
    if params.composition == BASIC:
        eps_per, delta_per = basic_split(stream_epsilon, params.delta, T)
    else:
        # per_guess_budget_advanced folds the halving into its constant.
        eps_per, delta_per = per_guess_budget_advanced(params.epsilon, params.delta, T)

    sigma = gamma = None
    if noise_kind == "laplace":
        sigma = sparse_laplace_sigma(k, eps_per, delta_per)
    else:
        gamma = sparse_gumbel_scale(eps_per, delta_per)
    return BudgetSplit(
        per_guess_epsilon=eps_per,
        per_guess_delta=delta_per,
        selection_epsilon=params.epsilon / 2.0,
        laplace_scale=sigma,
        gumbel_scale=gamma,
    )
