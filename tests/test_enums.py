"""The package's enums: identity hashing, singleton members, wire-value lookup.

Identity hashing is safe only if every member stays a singleton: a member
that comes back from pickling or copying must be the member itself, so it
still finds its entry in every table keyed by members. Calling an enum with
a wire value gives its member, or raises ``ValueError`` with the stdlib
``Enum``'s message. Members are plain class attributes, so reading one on
the step path costs a class-dict lookup.
"""

import copy
import inspect
import pickle

import pytest

from surety import actions, agreement, cli, engine, errors, ledger, lifecycle, market_sim, underwriting
from surety.actions import ACTION_SPECS, ActionKind
from surety.enums import SuretyEnum
from surety.market_sim import SweepConfig, render_csv, run_sweep

MODULES = (actions, agreement, cli, engine, errors, ledger, lifecycle, market_sim, underwriting)
# each enum once, though a module may bind it under a second name
ENUMS = tuple(
    dict.fromkeys(
        cls
        for module in MODULES
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, SuretyEnum) and cls.__module__ == module.__name__
    )
)

# _HANDLERS and the benchmark's per-kind metrics are built in this order
ACTION_KIND_VALUES = (
    "SubmitRequest",
    "AcceptRequest",
    "RejectRequest",
    "ProposeAgreement",
    "SignAgreement",
    "CancelJob",
    "LockFeeEscrow",
    "SubmitDeliverable",
    "SettleFeeEscrow",
    "RequestUW",
    "UWDecision",
    "PayPremium",
    "LockCollateral",
    "RefuseCollateral",
    "OverrideDecision",
    "ApproveRelease",
    "ReleasePrincipal",
    "SubmitExecutionEvidence",
    "UnwindPreExecution",
    "EvaluateOutcome",
    "SettleCollateral",
    "FileClaim",
    "PayClaim",
)

# none is the value of any member; unhashable ones must still raise ValueError
NOT_VALUES = ("x", "", None, 3, ["human_requestor"], {"role": "x"})


def _copies(member):
    yield copy.copy(member)
    yield copy.deepcopy(member)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(member, protocol))


def _ids(cls):
    return cls.__name__


def test_every_enum_of_the_package_hashes_by_identity():
    assert len(ENUMS) == 11
    for enum_cls in ENUMS:
        for member in enum_cls:
            assert hash(member) == object.__hash__(member)


def test_action_kinds_iterate_in_declaration_order():
    assert tuple(kind.value for kind in ActionKind) == ACTION_KIND_VALUES


@pytest.mark.parametrize("enum_cls", ENUMS, ids=_ids)
def test_members_are_plain_class_attributes(enum_cls):
    # a __getattr__ anywhere on the metaclass puts every member read on its slow path
    assert not any("__getattr__" in vars(klass) for klass in type(enum_cls).__mro__)
    for member in enum_cls:
        assert vars(enum_cls)[member.name] is member


@pytest.mark.parametrize("enum_cls", ENUMS, ids=_ids)
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


@pytest.mark.parametrize("enum_cls", ENUMS, ids=_ids)
def test_calling_an_enum_with_a_wire_value_gives_its_member(enum_cls):
    for member in enum_cls:
        assert enum_cls(member.value) is member
        assert enum_cls(member) is member
    names = tuple(member.name for member in enum_cls if member.name != member.value)
    for bad in NOT_VALUES + names:
        with pytest.raises(ValueError) as got:
            enum_cls(bad)
        assert str(got.value) == f"{bad!r} is not a valid {enum_cls.__name__}"


@pytest.mark.parametrize("enum_cls", ENUMS, ids=_ids)
def test_members_read_as_the_stdlib_enum_did(enum_cls):
    for member in enum_cls:
        assert str(member) == f"{enum_cls.__name__}.{member.name}"
        assert repr(member) == f"<{enum_cls.__name__}.{member.name}: {member.value!r}>"
        assert f"{member}" == str(member)
