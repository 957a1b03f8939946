"""Episode economics read off the settlement machine's ledger, against
hand-written values and against the simulator's closed form."""

from dataclasses import fields, replace

import numpy as np
import pytest

from surety import CellPlan, EngineInconsistency, EpisodeEconomics, EpisodePlan, check_episode, ledger_economics
from surety.market_sim import _ECONOMICS_COLUMNS, _vector_economics


def _plan(**kwargs) -> EpisodePlan:
    base = dict(
        m_minor=1000,
        d_minor=100,
        pi_minor=20,
        adopt=True,
        post=True,
        override_proceed=False,
        fail=False,
    )
    base.update(kwargs)
    return EpisodePlan(**base)


def test_covered_pass_economics():
    econ = ledger_economics(_plan())
    assert econ.executed and not econ.cancelled and not econ.failed
    assert econ.user_loss == 0
    assert econ.underwriter_delta == 20  # premium kept


def test_covered_failure_makes_user_whole():
    econ = ledger_economics(_plan(fail=True))
    assert econ.failed
    assert econ.user_loss == 0
    # premium in, slash recovered, payout out: 20 - (1000 - 100)
    assert econ.underwriter_delta == 20 - 900


def test_non_adoption_is_inert():
    econ = ledger_economics(_plan(adopt=False, fail=True))
    assert econ.executed and econ.failed
    assert econ.user_loss == 1000
    assert econ.underwriter_delta == 0


def test_refusal_without_override_cancels():
    econ = ledger_economics(_plan(post=False, override_proceed=False, fail=True))
    assert econ.cancelled and not econ.executed and not econ.failed
    assert econ.user_loss == 0
    assert econ.underwriter_delta == 0


def test_override_proceed_runs_uncovered():
    econ = ledger_economics(_plan(post=False, override_proceed=True, fail=True))
    assert econ.executed and econ.failed
    assert econ.user_loss == 1000  # no coverage in force
    assert econ.underwriter_delta == 0  # premium was refunded


def test_zero_collateral_coverage_stays_in_force():
    econ = ledger_economics(_plan(d_minor=0, post=False, fail=True))
    # nothing to post, so the posting roll is irrelevant
    assert econ.executed and econ.failed
    assert econ.user_loss == 0
    assert econ.underwriter_delta == 20 - 1000


PATH_SHAPES = [
    dict(),  # covered pass
    dict(fail=True),  # covered failure
    dict(adopt=False),  # no adoption, pass
    dict(adopt=False, fail=True),  # no adoption, failure
    dict(post=False, override_proceed=False),  # refusal, cancelled
    dict(post=False, override_proceed=True),  # override, pass
    dict(post=False, override_proceed=True, fail=True),  # override, failure
    dict(d_minor=0, fail=True),  # zero collateral, covered failure
    dict(pi_minor=0),  # free coverage, pass
]


def _closed_form(plan: EpisodePlan) -> EpisodeEconomics:
    """The ``_vector_economics`` row of a one-episode cell holding ``plan``."""
    cell = CellPlan(**{f.name: np.array([getattr(plan, f.name)]) for f in fields(EpisodePlan)})
    econ = _vector_economics(cell)
    return EpisodeEconomics(*(econ[name].item() for name in _ECONOMICS_COLUMNS))


@pytest.mark.parametrize("shape", PATH_SHAPES)
def test_ledger_replay_matches_closed_form(shape):
    plan = _plan(**shape)
    expected = _closed_form(plan)
    assert ledger_economics(plan) == expected
    assert check_episode(plan, expected) == expected


def test_check_episode_raises_on_doctored_plan():
    plan = _plan(fail=True)
    econ = ledger_economics(plan)
    with pytest.raises(EngineInconsistency):
        check_episode(plan, replace(econ, user_loss=econ.user_loss + 1))
