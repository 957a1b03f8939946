"""The records the settlement step and the engine build once per step or
per episode keep the frozen dataclass contract: they build positionally and
by keyword, refuse assignment, compare and hash by value, and work with
``dataclasses.replace`` and ``fields``."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from surety import Action, ActionKind, EpisodeEconomics, EpisodePlan, LedgerInstruction, PartyRef, PolicyViolation, Role
from surety.ledger import InstructionKind

_SENDER = PartyRef("user-1", Role.HUMAN_REQUESTOR)

# (record class, field values in declaration order, a field and another value for it)
RECORDS = [
    pytest.param(Action, (ActionKind.CANCEL_JOB, _SENDER, ("job_id",), "token"), ("signature", "other"), id="Action"),
    pytest.param(
        LedgerInstruction,
        (InstructionKind.LOCK_FEE, "job-7", "ab" * 32, 5, "wallet:user-1", "escrow:job-7", "r1"),
        ("amount", 6),
        id="LedgerInstruction",
    ),
    pytest.param(EpisodePlan, (1000, 100, 20, True, True, False, False), ("fail", True), id="EpisodePlan"),
    pytest.param(EpisodeEconomics, (True, False, True, 1000, -20), ("user_loss", 0), id="EpisodeEconomics"),
]


@pytest.mark.parametrize("cls, values, change", RECORDS)
def test_a_record_keeps_the_frozen_dataclass_contract(cls, values, change):
    names = [f.name for f in fields(cls)]
    positional = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert positional == by_keyword and tuple(getattr(positional, name) for name in names) == values
    assert hash(positional) == hash(by_keyword) == hash(values)
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(positional, name, None)
    name, value = change
    changed = replace(positional, **{name: value})
    assert getattr(changed, name) == value and changed != positional
    assert replace(changed, **{name: getattr(positional, name)}) == positional


def test_an_action_payload_defaults_to_a_fresh_dict_and_keeps_an_explicit_none():
    first, second = Action(ActionKind.CANCEL_JOB, _SENDER), Action(ActionKind.CANCEL_JOB, _SENDER)
    assert first.payload == {} and first.payload is not second.payload
    assert first.signature is None
    # a dict payload is unhashable, so is the action that carries it
    with pytest.raises(TypeError):
        hash(first)
    explicit = Action(ActionKind.CANCEL_JOB, _SENDER, None)
    assert explicit.payload is None
    with pytest.raises(PolicyViolation, match="payload must be an object"):
        explicit.validate_shape()
