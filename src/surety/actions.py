"""Typed action vocabulary: action kinds and one spec record per kind.

``ACTION_SPECS`` maps every ``ActionKind`` to an ``ActionSpec``: its
required and optional payload fields, its signature rule (required,
optional or none), its sender rule (roles anyone may send in, and seats
only the job's bound parties hold) and its binding subject (none, the
draft or bound agreement, or the bound agreement). ``Action.validate_shape``
checks a payload against its record and returns the record, so
``SettlementMachine.apply`` looks it up once per step and its sender and
binding checks read the same record. The validation order 1-6 in the
``lifecycle`` docstring is unchanged. Amount fields (``AMOUNT_FIELDS``) are
checked here, at stage 1, as non-negative integers (bools excluded), so the
handlers compare them with quotes and the claim rule without checking their
type again.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from typing import Optional

from .agreement import PartyRef, Role
from .enums import SuretyEnum
from .errors import PolicyViolation


class ActionKind(SuretyEnum):
    SUBMIT_REQUEST = "SubmitRequest"
    ACCEPT_REQUEST = "AcceptRequest"
    REJECT_REQUEST = "RejectRequest"
    PROPOSE_AGREEMENT = "ProposeAgreement"
    SIGN_AGREEMENT = "SignAgreement"
    CANCEL_JOB = "CancelJob"
    LOCK_FEE_ESCROW = "LockFeeEscrow"
    SUBMIT_DELIVERABLE = "SubmitDeliverable"
    SETTLE_FEE_ESCROW = "SettleFeeEscrow"
    REQUEST_UW = "RequestUW"
    UW_DECISION = "UWDecision"
    PAY_PREMIUM = "PayPremium"
    LOCK_COLLATERAL = "LockCollateral"
    REFUSE_COLLATERAL = "RefuseCollateral"
    OVERRIDE_DECISION = "OverrideDecision"
    APPROVE_RELEASE = "ApproveRelease"
    RELEASE_PRINCIPAL = "ReleasePrincipal"
    SUBMIT_EXECUTION_EVIDENCE = "SubmitExecutionEvidence"
    UNWIND_PRE_EXECUTION = "UnwindPreExecution"
    EVALUATE_OUTCOME = "EvaluateOutcome"
    SETTLE_COLLATERAL = "SettleCollateral"
    FILE_CLAIM = "FileClaim"
    PAY_CLAIM = "PayClaim"


class SignatureRule(SuretyEnum):
    """Whether an action must carry the sender's binding token."""

    NONE = "none"  # a token, if sent, is not read
    OPTIONAL = "optional"  # verified when present
    REQUIRED = "required"


class BindingSubject(SuretyEnum):
    """The agreement hash that the payload's ``agreement_hash`` and the token bind to."""

    NONE = "none"  # no agreement exists yet; the payload carries no hash
    DRAFT_OR_BOUND = "draft_or_bound"  # the bound agreement, else the current draft
    BOUND = "bound"  # the bound agreement


# Seats: the parties a job has bound, as (JobState field holding the party's
# id, the role it must send in; None for the role the requestor submitted in).
REQUESTOR = ("requestor_id", None)
HUMAN = ("human_id", Role.HUMAN_REQUESTOR)
PROVIDER = ("provider_id", Role.BUSINESS_AGENT)
UNDERWRITER = ("underwriter_id", Role.UNDERWRITER)

# payload fields that become ledger instruction refs, amounts of minor units,
# and lists of approval tokens
LEDGER_REF_FIELDS = frozenset(
    {"lock_ref", "premium_ref", "collateral_ref", "transfer_ref", "settlement_ref", "payout_ref"}
    | {"premium_refund_ref", "collateral_unlock_ref"}
)
AMOUNT_FIELDS = frozenset({"premium", "collateral_required", "amount", "claimed_loss", "payout"})
TOKEN_LIST_FIELDS = frozenset({"approvals"})


@dataclass(frozen=True)
class ActionSpec:
    """Everything that depends only on an action's kind.

    ``required`` and ``optional`` name the payload fields; ``job_id`` is
    always required and ``agreement_hash`` is required unless ``binding`` is
    ``BindingSubject.NONE``. A sender is permitted when its role is in
    ``roles``, whoever it is, or when it holds one of ``seats`` in the job.
    """

    required: frozenset
    optional: frozenset
    signature: SignatureRule
    roles: tuple
    seats: tuple
    binding: BindingSubject
    allowed: frozenset = field(init=False)
    refs: tuple = field(init=False)  # ledger-ref fields, each a non-empty string
    amounts: tuple = field(init=False)  # amount fields, each a non-negative int (not a bool)
    token_lists: tuple = field(init=False)  # fields holding lists of token strings

    def __post_init__(self) -> None:
        allowed = self.required | self.optional
        object.__setattr__(self, "allowed", allowed)
        object.__setattr__(self, "refs", tuple(sorted(allowed & LEDGER_REF_FIELDS)))
        object.__setattr__(self, "amounts", tuple(sorted(allowed & AMOUNT_FIELDS)))
        object.__setattr__(self, "token_lists", tuple(sorted(allowed & TOKEN_LIST_FIELDS)))


def _spec(binding, fields=(), optional=(), signature=SignatureRule.NONE, roles=(), seats=()):
    head = ("job_id",) if binding is BindingSubject.NONE else ("job_id", "agreement_hash")
    return ActionSpec(frozenset(head + fields), frozenset(optional), signature, roles, seats, binding)


_K, _B, _S = ActionKind, BindingSubject, SignatureRule

ACTION_SPECS: dict[ActionKind, ActionSpec] = {
    _K.SUBMIT_REQUEST: _spec(
        _B.NONE,
        ("task_spec", "fee_terms"),
        ("principal_terms", "principal"),
        roles=(Role.HUMAN_REQUESTOR, Role.ASSISTANT_REQUESTOR),
    ),
    _K.ACCEPT_REQUEST: _spec(_B.NONE, ("decision",), ("reason",), roles=(Role.BUSINESS_AGENT,)),
    _K.REJECT_REQUEST: _spec(_B.NONE, ("decision",), ("reason",), roles=(Role.BUSINESS_AGENT,)),
    _K.PROPOSE_AGREEMENT: _spec(_B.NONE, ("agreement_draft",), seats=(REQUESTOR, PROVIDER)),
    _K.SIGN_AGREEMENT: _spec(_B.DRAFT_OR_BOUND, seats=(REQUESTOR, PROVIDER)),
    _K.CANCEL_JOB: _spec(_B.DRAFT_OR_BOUND, ("reason",), signature=_S.REQUIRED, seats=(REQUESTOR, HUMAN, PROVIDER)),
    _K.LOCK_FEE_ESCROW: _spec(_B.BOUND, ("lock_ref",), signature=_S.REQUIRED, seats=(REQUESTOR, HUMAN)),
    _K.SUBMIT_DELIVERABLE: _spec(_B.BOUND, ("deliverable_ref",), signature=_S.REQUIRED, seats=(PROVIDER,)),
    _K.SETTLE_FEE_ESCROW: _spec(_B.BOUND, ("disposition", "settlement_ref"), roles=(Role.SETTLEMENT,)),
    _K.REQUEST_UW: _spec(_B.BOUND, ("coverage_request",), seats=(PROVIDER,)),
    # a signed approving UWDecision doubles as the underwriter's release vote
    _K.UW_DECISION: _spec(
        _B.BOUND, ("decision", "premium"), ("collateral_required",), _S.OPTIONAL, roles=(Role.UNDERWRITER,)
    ),
    _K.PAY_PREMIUM: _spec(_B.BOUND, ("premium", "premium_ref"), signature=_S.REQUIRED, seats=(HUMAN,)),
    _K.LOCK_COLLATERAL: _spec(_B.BOUND, ("amount", "collateral_ref"), signature=_S.REQUIRED, seats=(PROVIDER,)),
    _K.REFUSE_COLLATERAL: _spec(_B.BOUND, signature=_S.REQUIRED, seats=(PROVIDER,)),
    _K.OVERRIDE_DECISION: _spec(_B.BOUND, ("decision",), signature=_S.REQUIRED, seats=(HUMAN,)),
    # for a human requestor the REQUESTOR and HUMAN seats are the same party
    _K.APPROVE_RELEASE: _spec(_B.BOUND, signature=_S.REQUIRED, seats=(HUMAN, REQUESTOR)),
    _K.RELEASE_PRINCIPAL: _spec(_B.BOUND, ("approvals", "transfer_ref"), roles=(Role.SETTLEMENT,)),
    _K.SUBMIT_EXECUTION_EVIDENCE: _spec(
        _B.BOUND, ("exec_evidence_ref",), signature=_S.REQUIRED, seats=(PROVIDER,)
    ),
    _K.UNWIND_PRE_EXECUTION: _spec(
        _B.BOUND, optional=("premium_refund_ref", "collateral_unlock_ref"), roles=(Role.SETTLEMENT,)
    ),
    _K.EVALUATE_OUTCOME: _spec(_B.BOUND, ("outcome",), ("trigger", "evidence_ref"), roles=(Role.EVALUATOR,)),
    _K.SETTLE_COLLATERAL: _spec(
        _B.BOUND, ("disposition", "amount", "settlement_ref"), roles=(Role.SETTLEMENT,)
    ),
    _K.FILE_CLAIM: _spec(_B.BOUND, ("trigger", "claimed_loss", "evidence_ref"), seats=(REQUESTOR, HUMAN)),
    _K.PAY_CLAIM: _spec(
        _B.BOUND, ("payout", "payout_ref"), signature=_S.OPTIONAL, roles=(Role.SETTLEMENT,), seats=(UNDERWRITER,)
    ),
}


@dataclass(frozen=True, init=False)
class Action:
    """One typed, attributable message driving the state machine.

    The engine builds one per step, so ``__init__`` writes the instance
    dict once instead of setting each frozen field in turn; an omitted
    payload is a fresh empty dict, as ``default_factory`` would make it.
    """

    kind: ActionKind
    sender: PartyRef
    payload: dict = field(default_factory=dict)
    signature: Optional[str] = None

    def __init__(self, kind, sender, payload=MISSING, signature=None) -> None:
        payload = {} if payload is MISSING else payload
        object.__setattr__(self, "__dict__", {"kind": kind, "sender": sender, "payload": payload, "signature": signature})

    def validate_shape(self) -> ActionSpec:
        """Check the kind and the payload against this kind's spec and return the spec."""
        kind = self.kind
        if not isinstance(kind, ActionKind):
            raise PolicyViolation(f"unknown action kind {kind!r}")
        payload = self.payload
        if not isinstance(payload, dict):
            raise PolicyViolation(f"{kind.value}: payload must be an object")
        spec = ACTION_SPECS[kind]
        keys = payload.keys()
        # a payload of exactly the required fields, the common case, passes both tests
        if keys != spec.required:
            if not keys >= spec.required:
                raise PolicyViolation(f"{kind.value}: missing payload fields {sorted(spec.required.difference(keys))}")
            if not keys <= spec.allowed:
                unknown = sorted(keys - spec.allowed, key=str)
                raise PolicyViolation(f"{kind.value}: unknown payload fields {unknown}")
        if self.signature is None and spec.signature is SignatureRule.REQUIRED:
            raise PolicyViolation(f"{kind.value}: binding signature required")
        for name in spec.refs:
            if name in payload and not (isinstance(payload[name], str) and payload[name]):
                raise PolicyViolation(f"{kind.value}: {name} must be a non-empty string")
        for name in spec.amounts:
            if name in payload:
                amount = payload[name]
                if isinstance(amount, bool) or not isinstance(amount, int) or amount < 0:
                    raise PolicyViolation(f"{kind.value}: {name} must be a non-negative integer")
        for name in spec.token_lists:
            tokens = payload[name]
            if not isinstance(tokens, (list, tuple)) or not all(isinstance(token, str) for token in tokens):
                raise PolicyViolation(f"{kind.value}: {name} must be a list of token strings")
        return spec
