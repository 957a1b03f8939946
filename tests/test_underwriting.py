"""Pricing and collateral schedule identities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from surety import (
    CollateralSchedule,
    PricingPolicy,
    RiskChannel,
    estimate_risk,
    price,
)


def test_risk_estimate_oracle():
    channel = RiskChannel(false_positive=0.1, false_negative=0.3)
    assert estimate_risk(0.2, channel) == pytest.approx(0.22, abs=1e-15)


def test_clean_channel_is_identity():
    channel = RiskChannel()
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert estimate_risk(p, channel) == p


def test_schedule_is_half_at_midpoint():
    for m in (0.1, 0.15, 0.35):
        for s in (5.0, 10.0, 50.0):
            schedule = CollateralSchedule(midpoint=m, steepness=s)
            assert schedule.fraction(m) == pytest.approx(0.5, abs=1e-15)


def test_collateral_oracle():
    schedule = CollateralSchedule(midpoint=0.15, steepness=10.0)
    d, _ = price(0.30, 100.0, schedule, PricingPolicy())
    assert float(d) == pytest.approx(81.75744761936437, abs=1e-12)


def test_premium_oracle():
    schedule = CollateralSchedule(midpoint=0.15, steepness=10.0)
    policy = PricingPolicy(load=0.5)
    _, pi = price(0.2, 100.0, schedule, policy)
    assert float(pi) == pytest.approx(11.326220063944362, abs=1e-12)


def test_zero_risk_prices_to_zero():
    schedule = CollateralSchedule()
    assert float(price(0.0, 1000.0, schedule, PricingPolicy(load=2.0))[1]) == 0.0


@given(
    p_hat=st.floats(min_value=0.0, max_value=1.0),
    principal=st.floats(min_value=1.0, max_value=1e9),
    midpoint=st.floats(min_value=0.01, max_value=0.99),
    steepness=st.floats(min_value=0.1, max_value=100.0),
    load=st.floats(min_value=0.0, max_value=5.0),
)
def test_actuarial_identity_and_bounds(p_hat, principal, midpoint, steepness, load):
    schedule = CollateralSchedule(midpoint=midpoint, steepness=steepness)
    policy = PricingPolicy(load=load)
    d, pi = (float(x) for x in price(p_hat, principal, schedule, policy))
    assert 0.0 <= d <= principal
    assert pi >= 0.0
    # the unloaded premium is exactly the fair price of the uncovered slice
    fair = p_hat * (principal - d)
    assert math.isclose(pi / (1.0 + load), fair, rel_tol=1e-12, abs_tol=1e-12)


@given(p=st.floats(min_value=0.0, max_value=1.0), fp=st.floats(min_value=0.0, max_value=1.0), fn=st.floats(min_value=0.0, max_value=1.0))
def test_risk_estimate_stays_in_unit_interval(p, fp, fn):
    assert 0.0 <= float(estimate_risk(p, RiskChannel(false_positive=fp, false_negative=fn))) <= 1.0


def test_vectorized_pricing_matches_scalar():
    rng = np.random.default_rng(7)
    p = rng.random(64)
    schedule = CollateralSchedule(midpoint=0.2, steepness=20.0)
    policy = PricingPolicy(load=0.3)
    channel = RiskChannel(false_positive=0.05, false_negative=0.1)
    p_hat = estimate_risk(p, channel)
    d_vec, pi_vec = price(p_hat, 500.0, schedule, policy)
    for i in range(p.size):
        q_hat = float(estimate_risk(p[i], channel))
        d, pi = price(q_hat, 500.0, schedule, policy)
        assert q_hat == pytest.approx(float(p_hat[i]), abs=1e-15)
        assert float(d) == pytest.approx(float(d_vec[i]), abs=1e-12)
        assert float(pi) == pytest.approx(float(pi_vec[i]), abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"false_positive": -0.1},
        {"false_positive": 1.1},
        {"false_negative": 2.0},
    ],
)
def test_channel_rates_validated(kwargs):
    with pytest.raises(ValueError):
        RiskChannel(**kwargs)


def test_schedule_and_policy_validated():
    with pytest.raises(ValueError):
        CollateralSchedule(steepness=0.0)
    with pytest.raises(ValueError):
        PricingPolicy(load=-0.01)
