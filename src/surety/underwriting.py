"""Risk estimation, collateral sizing, and premium pricing.

Everything here is real-valued and shape-polymorphic: pass floats to
price one job, numpy arrays to price a population. Quantization to
integer minor units happens at the settlement boundary, not here.

The collateral demand follows a logistic schedule in the estimated
failure probability: D = sigmoid(p_hat) * M with
sigmoid(x) = 1 / (1 + exp(-steepness * (x - midpoint))). The premium is
the actuarially fair price of the uncollateralized exposure times an
optional loading: premium = p_hat * (M - D) * (1 + load).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RiskChannel:
    """Observation noise on the true failure probability.

    false_positive is the rate at which good jobs are flagged as bad,
    false_negative the rate at which bad jobs slip through.
    """

    false_positive: float = 0.0
    false_negative: float = 0.0

    def __post_init__(self) -> None:
        for name in ("false_positive", "false_negative"):
            v = getattr(self, name)
            if not 0.0 <= float(v) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass(frozen=True)
class CollateralSchedule:
    midpoint: float = 0.15
    steepness: float = 10.0

    def __post_init__(self) -> None:
        if not float(self.steepness) > 0.0:
            raise ValueError("steepness must be positive")

    def fraction(self, p_hat):
        # logistic in the risk estimate; 0.5 exactly at the midpoint
        return 1.0 / (1.0 + np.exp(-self.steepness * (np.asarray(p_hat, dtype=float) - self.midpoint)))


@dataclass(frozen=True)
class PricingPolicy:
    load: float = 0.0

    def __post_init__(self) -> None:
        if not float(self.load) >= 0.0:
            raise ValueError("load must be non-negative")


def estimate_risk(p, channel: RiskChannel):
    """Failure probability as seen through a noisy classification channel."""
    p = np.asarray(p, dtype=float)
    return p * (1.0 - channel.false_negative) + (1.0 - p) * channel.false_positive


def price(p_hat, principal, schedule: CollateralSchedule, policy: PricingPolicy):
    """Collateral demand and premium, ``(D, premium)``.

    D = fraction(p_hat) * principal lies in [0, principal]; the premium is
    the loaded fair price of the exposure left uncovered by it,
    p_hat * (principal - D) * (1 + load). The premium is priced off the
    returned demand, so premium / (1 + load) == p_hat * (principal - D)
    holds to rounding.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    principal = np.asarray(principal, dtype=float)
    demand = schedule.fraction(p_hat) * principal
    return demand, p_hat * (principal - demand) * (1.0 + policy.load)
