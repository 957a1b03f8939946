"""Typed action vocabulary: kinds, payload schemas, signature requirements."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .agreement import PartyRef
from .errors import PolicyViolation


class ActionKind(Enum):
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


# required / optional payload fields per kind. The binding signature, where
# one is required, travels on the Action itself rather than in the payload.
PAYLOAD_SCHEMA: dict[ActionKind, tuple[frozenset, frozenset]] = {
    ActionKind.SUBMIT_REQUEST: (
        frozenset({"job_id", "task_spec", "fee_terms"}),
        frozenset({"principal_terms", "principal"}),
    ),
    ActionKind.ACCEPT_REQUEST: (frozenset({"job_id", "decision"}), frozenset({"reason"})),
    ActionKind.REJECT_REQUEST: (frozenset({"job_id", "decision"}), frozenset({"reason"})),
    ActionKind.PROPOSE_AGREEMENT: (frozenset({"job_id", "agreement_draft"}), frozenset()),
    ActionKind.SIGN_AGREEMENT: (frozenset({"job_id", "agreement_hash"}), frozenset()),
    ActionKind.CANCEL_JOB: (frozenset({"job_id", "agreement_hash", "reason"}), frozenset()),
    ActionKind.LOCK_FEE_ESCROW: (frozenset({"job_id", "agreement_hash", "lock_ref"}), frozenset()),
    ActionKind.SUBMIT_DELIVERABLE: (
        frozenset({"job_id", "agreement_hash", "deliverable_ref"}),
        frozenset(),
    ),
    ActionKind.SETTLE_FEE_ESCROW: (
        frozenset({"job_id", "agreement_hash", "disposition", "settlement_ref"}),
        frozenset(),
    ),
    ActionKind.REQUEST_UW: (
        frozenset({"job_id", "agreement_hash", "coverage_request"}),
        frozenset(),
    ),
    ActionKind.UW_DECISION: (
        frozenset({"job_id", "agreement_hash", "decision", "premium"}),
        frozenset({"collateral_required"}),
    ),
    ActionKind.PAY_PREMIUM: (
        frozenset({"job_id", "agreement_hash", "premium", "premium_ref"}),
        frozenset(),
    ),
    ActionKind.LOCK_COLLATERAL: (
        frozenset({"job_id", "agreement_hash", "amount", "collateral_ref"}),
        frozenset(),
    ),
    ActionKind.REFUSE_COLLATERAL: (frozenset({"job_id", "agreement_hash"}), frozenset()),
    ActionKind.OVERRIDE_DECISION: (
        frozenset({"job_id", "agreement_hash", "decision"}),
        frozenset(),
    ),
    ActionKind.APPROVE_RELEASE: (frozenset({"job_id", "agreement_hash"}), frozenset()),
    ActionKind.RELEASE_PRINCIPAL: (
        frozenset({"job_id", "agreement_hash", "approvals", "transfer_ref"}),
        frozenset(),
    ),
    ActionKind.SUBMIT_EXECUTION_EVIDENCE: (
        frozenset({"job_id", "agreement_hash", "exec_evidence_ref"}),
        frozenset(),
    ),
    ActionKind.UNWIND_PRE_EXECUTION: (
        frozenset({"job_id", "agreement_hash"}),
        frozenset({"premium_refund_ref", "collateral_unlock_ref"}),
    ),
    ActionKind.EVALUATE_OUTCOME: (
        frozenset({"job_id", "agreement_hash", "outcome"}),
        frozenset({"trigger", "evidence_ref"}),
    ),
    ActionKind.SETTLE_COLLATERAL: (
        frozenset({"job_id", "agreement_hash", "disposition", "amount", "settlement_ref"}),
        frozenset(),
    ),
    ActionKind.FILE_CLAIM: (
        frozenset({"job_id", "agreement_hash", "trigger", "claimed_loss", "evidence_ref"}),
        frozenset(),
    ),
    ActionKind.PAY_CLAIM: (
        frozenset({"job_id", "agreement_hash", "payout", "payout_ref"}),
        frozenset(),
    ),
}

# kinds whose Action must carry a valid binding token from the sender
SIGNED_KINDS = frozenset(
    {
        ActionKind.CANCEL_JOB,
        ActionKind.LOCK_FEE_ESCROW,
        ActionKind.SUBMIT_DELIVERABLE,
        ActionKind.PAY_PREMIUM,
        ActionKind.LOCK_COLLATERAL,
        ActionKind.REFUSE_COLLATERAL,
        ActionKind.OVERRIDE_DECISION,
        ActionKind.APPROVE_RELEASE,
        ActionKind.SUBMIT_EXECUTION_EVIDENCE,
    }
)

# kinds where a token is accepted and verified if present but not demanded.
# A signed approving UWDecision doubles as the underwriter's release vote.
OPTIONALLY_SIGNED_KINDS = frozenset({ActionKind.PAY_CLAIM, ActionKind.UW_DECISION})


@dataclass(frozen=True)
class Action:
    """One typed, attributable message driving the state machine."""

    kind: ActionKind
    sender: PartyRef
    payload: dict = field(default_factory=dict)
    signature: Optional[str] = None

    def validate_shape(self) -> None:
        if not isinstance(self.payload, dict):
            raise PolicyViolation(f"{self.kind.value}: payload must be an object")
        required, optional = PAYLOAD_SCHEMA[self.kind]
        keys = set(self.payload)
        missing = required - keys
        if missing:
            raise PolicyViolation(f"{self.kind.value}: missing payload fields {sorted(missing)}")
        unknown = keys - required - optional
        if unknown:
            raise PolicyViolation(f"{self.kind.value}: unknown payload fields {sorted(unknown)}")
        if self.signature is None and self.kind in SIGNED_KINDS:
            raise PolicyViolation(f"{self.kind.value}: binding signature required")
