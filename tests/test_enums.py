"""The package's enums hash by identity and decode wire values through dicts.

Identity hashing is safe only if every member stays a singleton: a member
that comes back from pickling or copying must be the member itself, so it
still finds its entry in every table keyed by members.
"""

import copy
import inspect
import pickle
from enum import Enum

import pytest

from surety import actions, agreement, cli, engine, errors, ledger, lifecycle, market_sim, underwriting
from surety.actions import ACTION_SPECS, ActionKind, decode_kind
from surety.agreement import AssuranceMode, CollateralPolicy, PremiumRefundPolicy, Role, decode_role
from surety.enums import SuretyEnum, decoder
from surety.market_sim import SweepConfig, render_csv, run_sweep

MODULES = (actions, agreement, cli, engine, errors, ledger, lifecycle, market_sim, underwriting)
# each enum once, though a module may bind it under a second name
ENUMS = tuple(
    dict.fromkeys(
        cls
        for module in MODULES
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, Enum) and cls.__module__ == module.__name__
    )
)


def _copies(member):
    yield copy.copy(member)
    yield copy.deepcopy(member)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(member, protocol))


def test_every_enum_of_the_package_hashes_by_identity():
    assert len(ENUMS) == 11
    for enum_cls in ENUMS:
        assert issubclass(enum_cls, SuretyEnum), enum_cls
        for member in enum_cls:
            assert hash(member) == object.__hash__(member)


@pytest.mark.parametrize("enum_cls", ENUMS, ids=lambda cls: cls.__name__)
def test_members_survive_pickle_and_copy_as_themselves(enum_cls):
    for member in enum_cls:
        for twin in _copies(member):
            assert twin is member
            assert hash(twin) == hash(member)
            assert {member: 1}[twin] == 1


def test_copied_members_find_their_table_entries():
    for kind in ActionKind:
        for twin in _copies(kind):
            assert ACTION_SPECS[twin] is ACTION_SPECS[kind]
            assert lifecycle._HANDLERS[twin] is lifecycle._HANDLERS[kind]
            assert (twin in engine._BOUND_KINDS) == (kind in engine._BOUND_KINDS)
    enabled_sets = [
        lifecycle._UNBORN,
        lifecycle._REQUEST,
        lifecycle._NEGOTIATION,
        lifecycle._NEGOTIATION_DRAFTED,
        lifecycle._EVALUATE,
        lifecycle._UNWIND,
        *lifecycle._TRANSACTION.values(),
        *lifecycle._EVALUATION.values(),
    ]
    for enabled in enabled_sets:
        for kind in ActionKind:
            assert all((twin in enabled) == (kind in enabled) for twin in _copies(kind))
    for fee, principal in lifecycle._TRANSACTION:
        twin_key = (pickle.loads(pickle.dumps(fee)), copy.deepcopy(principal))
        assert lifecycle._TRANSACTION[twin_key] is lifecycle._TRANSACTION[fee, principal]
    for kind in ledger.InstructionKind:
        for twin in _copies(kind):
            assert ledger._ENDPOINT_RULES[twin] == ledger._ENDPOINT_RULES[kind]


def test_engine_sweep_csv_is_the_same_in_one_process_and_two():
    config = SweepConfig.from_dict({"kind": "lambda", "episodes": 80, "seed": 18, "lambda_grid": [0.0, 0.4, 0.8]})
    one = render_csv(run_sweep(config, mode="engine", jobs=1))
    assert render_csv(run_sweep(config, mode="engine", jobs=2)) == one


@pytest.mark.parametrize(
    "decode, enum_cls",
    [
        (decode_kind, ActionKind),
        (decode_role, Role),
        (decoder(AssuranceMode), AssuranceMode),
        (decoder(PremiumRefundPolicy), PremiumRefundPolicy),
        (decoder(CollateralPolicy), CollateralPolicy),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_decoding_a_wire_value_answers_as_calling_the_enum(decode, enum_cls):
    for member in enum_cls:
        assert decode(member.value) is member
        assert decode(member) is member
    for bad in ("x", "", None, 3, ["human_requestor"], {"role": "x"}, member.name):
        with pytest.raises(ValueError) as expected:
            enum_cls(bad)
        with pytest.raises(ValueError) as got:
            decode(bad)
        assert str(got.value) == str(expected.value)
