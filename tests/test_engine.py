"""Episode economics read off the settlement machine's ledger, against
hand-written values and against the simulator's closed form."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from surety import (
    CellPlan,
    EngineInconsistency,
    EpisodeEconomics,
    EpisodePlan,
    check_episode,
    engine,
    ledger_economics,
    open_episode,
)
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


# one plan per engine branch, each with the principal of _plan()
BRANCHES = {
    "covered_pass": _plan(),
    "covered_fail": _plan(fail=True),
    "zero_collateral": _plan(d_minor=0, post=False, fail=True),
    "override_proceed": _plan(post=False, override_proceed=True, fail=True),
    "override_cancel": _plan(post=False),
}


def _jsonl(log) -> bytes:
    return "".join(json.dumps(event, separators=(",", ":")) + "\n" for event in log).encode("utf-8")


def test_continuing_one_shared_opening_is_exact():
    opening = open_episode("sim-7", 1000)
    before = _jsonl(opening.log)
    assert len(opening.log) == 7 and opening.log[-1]["kind"] == "RequestUW"
    for name, plan in BRANCHES.items():
        for d, pi in ((100, 20), (350, 45)):
            varied = replace(plan, d_minor=0 if plan.d_minor == 0 else d, pi_minor=pi)
            assert ledger_economics(varied, "sim-7", opening) == ledger_economics(varied, "sim-7"), (name, d, pi)
    assert _jsonl(opening.log) == before


def _replays(message: str, plan: EpisodePlan) -> None:
    """``message`` names the episode, and its plan as ``ledger_economics`` takes it."""
    assert message.startswith("sim-3: ")
    assert eval(message.rpartition("; ")[2], {"EpisodePlan": EpisodePlan}) == plan


def test_every_inconsistency_names_its_episode_and_plan(monkeypatch):
    plan = BRANCHES["covered_fail"]
    econ = ledger_economics(plan, "sim-3")
    with pytest.raises(EngineInconsistency) as diverged:
        check_episode(plan, replace(econ, user_loss=econ.user_loss + 1), "sim-3")
    _replays(str(diverged.value), plan)
    with pytest.raises(EngineInconsistency) as misfit:
        ledger_economics(plan, "sim-3", open_episode("sim-4", plan.m_minor))
    _replays(str(misfit.value), plan)
    # a continuation one step short: the job stays open, or a cancel keeps the premium
    real = engine._continuation
    monkeypatch.setattr(engine, "_continuation", lambda opening, plan: list(real(opening, plan))[:-1])
    for plan in BRANCHES.values():
        with pytest.raises(EngineInconsistency) as short:
            check_episode(plan, _closed_form(plan), "sim-3")
        _replays(str(short.value), plan)


def test_the_outcome_is_read_from_the_machine(monkeypatch):
    # the continuation plays the other failure coin; the plan still says what was drawn
    plan = BRANCHES["override_proceed"]
    real = engine._continuation
    monkeypatch.setattr(engine, "_continuation", lambda opening, plan: real(opening, replace(plan, fail=not plan.fail)))
    with pytest.raises(EngineInconsistency) as flipped:
        check_episode(plan, _closed_form(plan), "sim-3")
    _replays(str(flipped.value), plan)
