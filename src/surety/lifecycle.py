"""The deterministic job settlement state machine.

A job moves through the phases REQUEST, NEGOTIATION, TRANSACTION,
EVALUATION, CLOSED, with CANCELLED reachable where the transition rules
permit. Inside TRANSACTION two independent fund tracks advance: the fee
track (escrowed service compensation) and, for fund-involving jobs, the
principal track (execution capital guarded by underwriting, collateral,
and a multi-signature release predicate).

``SettlementMachine.apply`` is a pure function of (state, action, now).
It never reads a clock, never touches balances, and reports every custody
side effect as ledger instructions for the caller to execute. Replaying a
job's event log through ``apply`` reproduces the final state exactly.

States are frozen. Each handler returns the fields it changes, and
``apply`` builds the next state from them with one copy of the input
state's field dict. The follow-on steps (principal releasable, evaluation,
close) and the appended log event are written into that fresh dict before
the state is returned; the caller's state is never written. A state stores
each fact once: its sequence number and last timestamp are read off the
log, not stamped beside it.

Everything that depends only on an action's kind is one record in
``actions.ACTION_SPECS``: payload fields, signature rule, sender rule and
binding subject. ``apply`` gets the record from ``validate_shape`` once per
step, and the sender and binding checks read it. Enabled sets are
frozensets built at import. The validation order below is unchanged by
the table, so error types stay predictable:

1. action kind and payload shape, including amounts, ledger refs and
   approval tokens (PolicyViolation)
2. enablement of the action kind in the current state (NotEnabled)
3. sender role and identity (WrongSender)
4. agreement-hash binding and signature token (BadBinding)
5. deadlines (DeadlineExceeded)
6. value and policy consistency (PolicyViolation)

Each rule on whether compensation is still owed is one predicate: a claim
can still be filed (``_claim_open``, the one reader of the claim deadline),
collateral is in the vault (``_collateral_held``) and a paid premium is
held (``_premium_held``). Custody is one table, ``_ACCOUNTS``, of who pays
whom for each instruction kind, plus one rule in ``_move``: a zero amount
moves nothing.

The step is the hot path of every engine-mode sweep. Its enums are
``SuretyEnum`` classes (see ``enums``): members hash by identity and are
plain class attributes, so reading ``Phase.TRANSACTION`` or a member's
``value`` costs what any attribute read costs. The binding check asks
``Keyring.verify``, which remembers each token it computed by its whole
subject (party, job, agreement hash), so verifying a token that the
harness has signed costs one ``compare_digest``, not an HMAC.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import compress, product
from typing import NamedTuple, Optional

from .actions import Action, ActionKind, ActionSpec, BindingSubject, SignatureRule
from .agreement import (
    AssuranceMode,
    Keyring,
    PartyRef,
    PremiumRefundPolicy,
    CollateralPolicy,
    Role,
    StructuredAgreement,
    canonical_hash,
    terms_from_dict,
)
from .enums import SuretyEnum
from .errors import (
    BadBinding,
    DeadlineExceeded,
    InvalidAgreement,
    NotEnabled,
    PolicyViolation,
    WrongSender,
)
from .ledger import InstructionKind, LedgerInstruction, reimbursement, settle_claim
from .ledger import collateral_vault, escrow, treasury, wallet


class Phase(SuretyEnum):
    REQUEST = "REQUEST"
    NEGOTIATION = "NEGOTIATION"
    TRANSACTION = "TRANSACTION"
    EVALUATION = "EVALUATION"
    CLOSED = "CLOSED"
    CANCELLED = "CANCELLED"


class FeeState(SuretyEnum):
    FEE_AWAIT_LOCK = "FEE_AWAIT_LOCK"
    FEE_ESCROW_LOCKED = "FEE_ESCROW_LOCKED"
    FEE_DELIVERED = "FEE_DELIVERED"


class PrincipalState(SuretyEnum):
    UW_AWAIT_REQUEST = "UW_AWAIT_REQUEST"
    UW_REVIEW = "UW_REVIEW"
    PREMIUM_PENDING = "PREMIUM_PENDING"
    COLLATERAL_REQUESTED = "COLLATERAL_REQUESTED"
    OVERRIDE_PENDING = "OVERRIDE_PENDING"
    APPROVAL_PENDING = "APPROVAL_PENDING"
    RELEASABLE = "RELEASABLE"
    EXECUTION_PENDING = "EXECUTION_PENDING"
    CANCELLED = "CANCELLED"


class ApplyResult(NamedTuple):
    state: "JobState"
    instructions: tuple[LedgerInstruction, ...]


@dataclass(frozen=True)
class JobState:
    """Immutable snapshot of one job. ``phase`` is None before SubmitRequest.

    Facts that a stored field fixes are derived views, not fields: ``seq``
    and ``last_ts`` (from ``log``); ``agreement`` and ``agreement_hash``
    (``draft`` and ``draft_hash`` once ``requestor_signed`` and
    ``provider_signed`` both hold); ``fee_settled`` (``fee_disposition``);
    ``fee_locked`` (``fee_state``); ``fund_involving`` (``principal_state``);
    ``posted_amount`` (``collateral_quote`` once ``collateral_posted``); and
    ``payout_amount`` (the covered reimbursement of ``claim`` once ``claim_paid``).
    What no rule reads stays in the log only: SubmitRequest's terms, the
    deliverable ref, and the evaluation's trigger, evidence ref and sender.
    """

    job_id: str
    phase: Optional[Phase] = None
    fee_state: FeeState = FeeState.FEE_AWAIT_LOCK
    principal_state: Optional[PrincipalState] = None

    requestor_id: Optional[str] = None
    requestor_role: Optional[Role] = None
    human_id: Optional[str] = None
    provider_id: Optional[str] = None
    underwriter_id: Optional[str] = None

    draft: Optional[StructuredAgreement] = None
    draft_hash: Optional[str] = None
    requestor_signed: bool = False
    provider_signed: bool = False

    premium_quote: Optional[int] = None
    collateral_quote: Optional[int] = None
    premium_paid: bool = False
    premium_refunded: bool = False
    collateral_posted: bool = False
    override_ack: bool = False
    approvals: frozenset = frozenset()  # of (role value, party id, token)

    fee_disposition: Optional[str] = None  # "release" or "refund" once settled or unwound
    exec_evidence_ref: Optional[str] = None

    outcome: Optional[str] = None
    claim: Optional[tuple] = None  # (trigger, claimed_loss, evidence_ref)
    collateral_settled: bool = False
    slash_amount: int = 0
    claim_paid: bool = False
    unwound: bool = False
    cancel_reason: Optional[str] = None

    log: tuple = ()

    # -- derived views ------------------------------------------------------

    @property
    def seq(self) -> int:
        return len(self.log)

    @property
    def last_ts(self) -> int:
        log = self.log
        return log[-1]["ts"] if log else -1

    @property
    def agreement(self) -> Optional[StructuredAgreement]:
        # the second signature binds the draft on the table and ends NEGOTIATION, the one phase that takes a new draft
        return self.draft if self.requestor_signed and self.provider_signed else None

    @property
    def agreement_hash(self) -> Optional[str]:
        return self.draft_hash if self.requestor_signed and self.provider_signed else None

    @property
    def fee_settled(self) -> bool:
        return self.fee_disposition is not None

    @property
    def fund_involving(self) -> bool:
        # binding opens the principal track exactly for a fund-involving agreement, and it never closes to None
        return self.principal_state is not None

    @property
    def posted_amount(self) -> int:
        # LockCollateral posts exactly the quoted demand
        return self.collateral_quote if self.collateral_posted else 0

    @property
    def payout_amount(self) -> int:
        # PayClaim pays exactly the covered reimbursement
        return _covered_reimbursement(self) if self.claim_paid else 0

    @property
    def fee_locked(self) -> bool:
        return self.fee_state is not FeeState.FEE_AWAIT_LOCK


_FIELD_NAMES = frozenset(f.name for f in fields(JobState))


def _evolve(state: JobState, **changes) -> JobState:
    """``dataclasses.replace`` for ``JobState`` by one dict copy.

    The new state is as frozen as any other; until it is returned, ``apply``
    may still write its fields through ``__dict__``.
    """
    if not _FIELD_NAMES.issuperset(changes):
        raise TypeError(f"JobState has no fields {sorted(changes.keys() - _FIELD_NAMES)}")
    new = object.__new__(JobState)
    object.__setattr__(new, "__dict__", {**state.__dict__, **changes})
    return new


# every field at its default; a new job is this state with its id, made by one dict copy
_NEW_JOB_TEMPLATE = JobState(job_id="")


def new_job(job_id: str) -> JobState:
    if not isinstance(job_id, str) or not job_id:
        raise PolicyViolation("job_id must be a non-empty string")
    return _evolve(_NEW_JOB_TEMPLATE, job_id=job_id)


# -- custody instructions ------------------------------------------------------


# who pays whom: each instruction kind's (source, destination) accounts, each a function of the job's state
_ACCOUNTS = {
    InstructionKind.LOCK_FEE: (lambda s: wallet(s.human_id), lambda s: escrow(s.job_id)),
    InstructionKind.RELEASE_FEE: (lambda s: escrow(s.job_id), lambda s: wallet(s.provider_id)),
    InstructionKind.REFUND_FEE: (lambda s: escrow(s.job_id), lambda s: wallet(s.human_id)),
    InstructionKind.LOCK_COLLATERAL: (lambda s: wallet(s.provider_id), lambda s: collateral_vault(s.job_id)),
    InstructionKind.UNLOCK_COLLATERAL: (lambda s: collateral_vault(s.job_id), lambda s: wallet(s.provider_id)),
    InstructionKind.SLASH_COLLATERAL: (lambda s: collateral_vault(s.job_id), lambda s: wallet(s.human_id)),
    InstructionKind.TRANSFER_PRINCIPAL: (
        lambda s: wallet(s.human_id),
        lambda s: wallet(s.agreement.principal_terms.destination.id),
    ),
    InstructionKind.COLLECT_PREMIUM: (lambda s: wallet(s.human_id), lambda s: treasury(s.underwriter_id)),
    InstructionKind.REFUND_PREMIUM: (lambda s: treasury(s.underwriter_id), lambda s: wallet(s.human_id)),
    InstructionKind.PAY_CLAIM: (lambda s: treasury(s.underwriter_id), lambda s: wallet(s.human_id)),
}


def _move(state: JobState, kind: InstructionKind, amount: int, ref: str) -> tuple[LedgerInstruction, ...]:
    """The custody move of ``amount`` for ``kind``, bound to the job and its
    agreement hash: nothing for a zero amount, else one instruction."""
    if amount == 0:
        return ()
    source, dest = _ACCOUNTS[kind]
    return (LedgerInstruction(kind, state.job_id, state.agreement_hash, amount, source(state), dest(state), ref),)


def _claim_open(state: JobState, now: Optional[int] = None) -> bool:
    # the static half is FileClaim's enabled flag; ``now`` adds the claim window.
    # collateral posted means coverage in force: only the principal track posts collateral,
    # LockCollateral follows PayPremium, and no override can follow it
    if not (state.outcome == "fail" and state.collateral_posted and state.claim is None):
        return False
    return now is None or now <= state.agreement.deadlines.claim


def _collateral_held(state: JobState) -> bool:
    return state.posted_amount > 0 and not state.collateral_settled


def _premium_held(state: JobState) -> bool:
    return state.premium_paid and not state.premium_refunded and state.premium_quote > 0


def _covered_reimbursement(state: JobState) -> int:
    """What PayClaim owes on the filed claim, after the slash actually applied
    (0 under ``CollateralPolicy.NO_SLASH``)."""
    _trigger, claimed_loss, _evidence = state.claim
    return reimbursement(claimed_loss, state.slash_amount, state.agreement.coverage_limit)


# -- authorization predicates ----------------------------------------------


def _with_approval(state: JobState, action: Action, role_value: str) -> frozenset:
    """``state.approvals`` with the sender's signed approval recorded under ``role_value``.

    A token names one approver. A token already on record for another
    (role, party) is refused, so ReleasePrincipal reads one role for each
    token it is shown, whatever order the set of approvals iterates in.
    """
    entry = (role_value, action.sender.id, action.signature)
    for recorded in state.approvals:
        if recorded[2] == entry[2] and recorded != entry:
            raise BadBinding(f"{action.kind.value}: approval token is already on record for another role or party")
    return state.approvals | {entry}


def release_auth(sigma_roles: set[Role] | frozenset, requestor_role: Role) -> bool:
    """Adaptive release predicate A and (U or H) over the signature set.

    When the requestor side is a human acting for themselves there is no
    assistant signer, so A holds vacuously and the rule degrades to 1-of-2
    (human or underwriter). When an assistant submitted the job, the
    assistant's signature is mandatory and the rule is 2-of-3.
    """
    has_h = Role.HUMAN_REQUESTOR in sigma_roles
    has_a = Role.ASSISTANT_REQUESTOR in sigma_roles
    has_u = Role.UNDERWRITER in sigma_roles
    a_ok = True if requestor_role is Role.HUMAN_REQUESTOR else has_a
    return a_ok and (has_u or has_h)


def sigma_roles(state: JobState) -> frozenset:
    return frozenset(Role(role_value) for role_value, _pid, _tok in state.approvals)


def release_ready(state: JobState) -> bool:
    if state.requestor_role is None:
        return False
    # a paid premium means coverage is bound: PayPremium is enabled only once an approving UWDecision quoted one
    return release_auth(sigma_roles(state), state.requestor_role) and (
        state.premium_paid or state.override_ack
    )


def subject_hash(state: JobState, binding: BindingSubject) -> Optional[str]:
    """The agreement hash that an action with this binding subject binds to
    in ``state``: its payload ``agreement_hash`` must equal it, and its
    signature token signs it (or the empty string when it is None)."""
    if binding is BindingSubject.BOUND:
        return state.agreement_hash
    if binding is BindingSubject.DRAFT_OR_BOUND:
        return state.draft_hash
    return None


# -- enablement table --------------------------------------------------------

_FEE_TRACK_ENABLED = {
    FeeState.FEE_AWAIT_LOCK: {ActionKind.LOCK_FEE_ESCROW},
    FeeState.FEE_ESCROW_LOCKED: {ActionKind.SUBMIT_DELIVERABLE},
    FeeState.FEE_DELIVERED: set(),
}

_PRINCIPAL_TRACK_ENABLED = {
    None: set(),  # fee-only job
    PrincipalState.UW_AWAIT_REQUEST: {ActionKind.REQUEST_UW},
    PrincipalState.UW_REVIEW: {ActionKind.UW_DECISION},
    PrincipalState.PREMIUM_PENDING: {ActionKind.PAY_PREMIUM},
    PrincipalState.COLLATERAL_REQUESTED: {ActionKind.LOCK_COLLATERAL, ActionKind.REFUSE_COLLATERAL},
    PrincipalState.OVERRIDE_PENDING: {ActionKind.OVERRIDE_DECISION},
    PrincipalState.APPROVAL_PENDING: {ActionKind.APPROVE_RELEASE},
    PrincipalState.RELEASABLE: {ActionKind.RELEASE_PRINCIPAL},
    PrincipalState.EXECUTION_PENDING: {ActionKind.SUBMIT_EXECUTION_EVIDENCE},
    PrincipalState.CANCELLED: set(),
}

# every enabled set is one of these frozensets, built once at import
_UNBORN = frozenset({ActionKind.SUBMIT_REQUEST})
_REQUEST = frozenset({ActionKind.ACCEPT_REQUEST, ActionKind.REJECT_REQUEST, ActionKind.CANCEL_JOB})
_NEGOTIATION = frozenset({ActionKind.PROPOSE_AGREEMENT, ActionKind.CANCEL_JOB})
_NEGOTIATION_DRAFTED = _NEGOTIATION | {ActionKind.SIGN_AGREEMENT}
_EVALUATE = frozenset({ActionKind.EVALUATE_OUTCOME})
_UNWIND = frozenset({ActionKind.UNWIND_PRE_EXECUTION})
_NONE = frozenset()


def _transaction_cancellable(fee_state: FeeState, principal_state: Optional[PrincipalState]) -> bool:
    # the cancellation window closes once the deliverable is in or the
    # principal has left custody
    return fee_state is not FeeState.FEE_DELIVERED and principal_state is not PrincipalState.EXECUTION_PENDING


_TRANSACTION = {
    (fee, principal): frozenset(
        fee_kinds | principal_kinds | ({ActionKind.CANCEL_JOB} if _transaction_cancellable(fee, principal) else set())
    )
    for fee, fee_kinds in _FEE_TRACK_ENABLED.items()
    for principal, principal_kinds in _PRINCIPAL_TRACK_ENABLED.items()
}
# EVALUATION, keyed by whether each of these kinds is enabled
_EVALUATION_KINDS = (
    ActionKind.SETTLE_FEE_ESCROW,
    ActionKind.SETTLE_COLLATERAL,
    ActionKind.FILE_CLAIM,
    ActionKind.PAY_CLAIM,
)
_EVALUATION = {flags: frozenset(compress(_EVALUATION_KINDS, flags)) for flags in product((False, True), repeat=4)}


def enabled_actions(state: JobState) -> frozenset[ActionKind]:
    """Action kinds the tables enable in the current compound state.

    Returns one of a fixed set of frozensets built at import, so callers
    share it and cannot change it. Time-dependent windows (premium lapse,
    claim window) are resolved at apply time; this static view assumes no
    deadline has passed.
    """
    phase = state.phase
    if phase is Phase.TRANSACTION:
        return _TRANSACTION[state.fee_state, state.principal_state]
    if phase is Phase.EVALUATION:
        if state.outcome is None:
            return _EVALUATE
        held = _collateral_held(state)
        return _EVALUATION[
            not state.fee_settled,
            held,
            _claim_open(state),
            state.claim is not None and not state.claim_paid and not held,
        ]
    if phase is None:
        return _UNBORN
    if phase is Phase.REQUEST:
        return _REQUEST
    if phase is Phase.NEGOTIATION:
        return _NEGOTIATION if state.draft is None else _NEGOTIATION_DRAFTED
    if phase is Phase.CANCELLED:
        return _NONE if state.unwound else _UNWIND
    return _NONE  # CLOSED


# -- the machine --------------------------------------------------------------


class SettlementMachine:
    """Applies typed actions to job states and emits custody instructions.

    ``keyring`` maps party ids to the secrets used to verify binding
    signature tokens.
    """

    def __init__(self, keyring: Keyring) -> None:
        self.keyring = keyring

    # -- public API ---------------------------------------------------------

    def apply(self, state: JobState, action: Action, now: int) -> ApplyResult:
        if isinstance(now, bool) or not isinstance(now, int):
            raise PolicyViolation("now must be an integer timestamp")
        if now < state.last_ts:
            raise PolicyViolation("timestamps must be non-decreasing per job")
        spec = action.validate_shape()
        if action.payload["job_id"] != state.job_id:
            raise PolicyViolation("payload job_id does not match the job")

        kind = action.kind
        if kind not in enabled_actions(state):
            if (
                kind is ActionKind.OVERRIDE_DECISION
                and state.phase is Phase.TRANSACTION
                and state.principal_state is PrincipalState.PREMIUM_PENDING
                and self._premium_lapsed(state, now)
            ):
                # unpaid premium past the delivery deadline degrades the
                # quote to the same escalation point as a rejection
                pass
            else:
                raise NotEnabled(f"{kind.value} is not enabled in the current state")

        self._check_sender(state, action, spec)
        self._check_binding(state, action, spec)

        changes, instructions = _HANDLERS[kind](self, state, action, now)
        new_state = _evolve(state, **changes)
        self._post_transition(new_state, now)
        event = self._event(new_state, action, now, instructions)
        new_state.__dict__["log"] = state.log + (event,)
        return ApplyResult(new_state, instructions)

    # -- shared checks --------------------------------------------------------

    @staticmethod
    def _premium_lapsed(state: JobState, now: int) -> bool:
        return state.agreement is not None and now > state.agreement.deadlines.delivery

    @staticmethod
    def _check_sender(state: JobState, action: Action, spec: ActionSpec) -> None:
        sender = action.sender
        if not isinstance(sender, PartyRef):
            raise WrongSender("sender must be a PartyRef")
        role = sender.role
        if role in spec.roles:
            return
        fields_ = state.__dict__
        for id_field, seat_role in spec.seats:
            if fields_[id_field] == sender.id and role is (fields_["requestor_role"] if seat_role is None else seat_role):
                return
        raise WrongSender(f"{action.kind.value}: sender {sender.id!r}/{role.value} not permitted")

    def _check_binding(self, state: JobState, action: Action, spec: ActionSpec) -> None:
        """Validate the payload agreement_hash and the signature token."""
        expected = subject_hash(state, spec.binding)
        payload = action.payload
        if "agreement_hash" in payload and payload["agreement_hash"] != expected:
            raise BadBinding(f"{action.kind.value}: agreement_hash does not match the job's agreement")

        if action.signature is not None and spec.signature is not SignatureRule.NONE:
            if not self.keyring.verify(action.sender.id, state.job_id, expected or "", action.signature):
                raise BadBinding(f"{action.kind.value}: invalid signature token")

    # -- handlers -------------------------------------------------------------
    # Each returns (changed fields, a tuple of ledger instructions) and writes nothing.

    def _h_submit_request(self, state, action, now):
        p = action.payload
        try:
            terms_from_dict(p["fee_terms"], p.get("principal_terms"))
        except InvalidAgreement as exc:
            raise PolicyViolation(f"SubmitRequest: {exc}") from exc
        if not isinstance(p["task_spec"], str):
            raise PolicyViolation("SubmitRequest: task_spec must be a string")

        sender = action.sender
        if sender.role is Role.ASSISTANT_REQUESTOR:
            principal_id = p.get("principal")
            if not isinstance(principal_id, str) or not principal_id:
                raise PolicyViolation("an assistant requestor must name its human principal")
        else:
            if p.get("principal") is not None:
                raise PolicyViolation("a human requestor is their own principal")
            principal_id = sender.id
        changes = {
            "phase": Phase.REQUEST,
            "requestor_id": sender.id,
            "requestor_role": sender.role,
            "human_id": principal_id,
        }
        return changes, ()

    def _h_accept_request(self, state, action, now):
        if action.payload["decision"] != "accept":
            raise PolicyViolation("AcceptRequest requires decision 'accept'")
        return {"phase": Phase.NEGOTIATION, "provider_id": action.sender.id}, ()

    def _h_reject_request(self, state, action, now):
        if action.payload["decision"] != "reject":
            raise PolicyViolation("RejectRequest requires decision 'reject'")
        return {"phase": Phase.CANCELLED, "cancel_reason": action.payload.get("reason")}, ()

    def _h_propose_agreement(self, state, action, now):
        try:
            draft = StructuredAgreement.from_dict(action.payload["agreement_draft"])
            if draft.job_id != state.job_id:
                raise PolicyViolation("ProposeAgreement: draft job_id does not match the job")
            # an amount or deadline outside u64, or a lone surrogate, has no canonical encoding
            draft_hash = canonical_hash(draft)
        except (InvalidAgreement, UnicodeEncodeError) as exc:
            raise PolicyViolation(f"ProposeAgreement: invalid draft: {exc}") from exc
        # a fresh draft voids any signatures collected on the previous one
        changes = {
            "draft": draft,
            "draft_hash": draft_hash,
            "requestor_signed": False,
            "provider_signed": False,
        }
        return changes, ()

    def _h_sign_agreement(self, state, action, now):
        sender = action.sender
        if sender.id == state.requestor_id and sender.role is state.requestor_role:
            changes = {"requestor_signed": True}
            other_signed = state.provider_signed
        else:
            changes = {"provider_signed": True}
            other_signed = state.requestor_signed
        if other_signed:
            fund = state.draft.assurance_mode is AssuranceMode.FUND_INVOLVING
            changes.update(
                phase=Phase.TRANSACTION,
                principal_state=PrincipalState.UW_AWAIT_REQUEST if fund else None,
            )
        return changes, ()

    def _h_cancel_job(self, state, action, now):
        changes = {
            "phase": Phase.CANCELLED,
            "cancel_reason": action.payload.get("reason"),
            "principal_state": PrincipalState.CANCELLED if state.principal_state is not None else None,
        }
        return changes, ()

    def _h_lock_fee_escrow(self, state, action, now):
        fee = state.agreement.fee_terms.amount
        instructions = _move(state, InstructionKind.LOCK_FEE, fee, action.payload["lock_ref"])
        return {"fee_state": FeeState.FEE_ESCROW_LOCKED}, instructions

    def _h_submit_deliverable(self, state, action, now):
        return {"fee_state": FeeState.FEE_DELIVERED}, ()

    def _h_settle_fee_escrow(self, state, action, now):
        disposition = action.payload["disposition"]
        if disposition not in ("release", "refund"):
            raise PolicyViolation("SettleFeeEscrow: disposition must be 'release' or 'refund'")
        if disposition == "release" and state.outcome != "pass":
            raise PolicyViolation("SettleFeeEscrow: release requires a passing evaluation")
        if disposition == "refund" and state.outcome != "fail":
            raise PolicyViolation("SettleFeeEscrow: refund requires a failing evaluation")
        kind = InstructionKind.RELEASE_FEE if disposition == "release" else InstructionKind.REFUND_FEE
        fee = state.agreement.fee_terms.amount if state.fee_locked else 0
        return {"fee_disposition": disposition}, _move(state, kind, fee, action.payload["settlement_ref"])

    def _h_request_uw(self, state, action, now):
        return {"principal_state": PrincipalState.UW_REVIEW}, ()

    def _h_uw_decision(self, state, action, now):
        p = action.payload
        decision = p["decision"]
        if decision not in ("approve", "reject"):
            raise PolicyViolation("UWDecision: decision must be 'approve' or 'reject'")
        premium = p["premium"]
        collateral = p.get("collateral_required", 0)
        if collateral > state.agreement.principal_terms.amount:
            raise PolicyViolation("UWDecision: collateral demand exceeds the principal")
        changes = {"underwriter_id": action.sender.id}
        if decision == "approve":
            approvals = state.approvals
            if action.signature is not None:
                # a signed approval doubles as the underwriter's release vote
                approvals = _with_approval(state, action, Role.UNDERWRITER.value)
            changes.update(
                premium_quote=premium,
                collateral_quote=collateral,
                principal_state=PrincipalState.PREMIUM_PENDING,
                approvals=approvals,
            )
        elif state.agreement.override_allowed:
            changes["principal_state"] = PrincipalState.OVERRIDE_PENDING
        else:
            changes.update(
                phase=Phase.CANCELLED,
                principal_state=PrincipalState.CANCELLED,
                cancel_reason="underwriter rejected and no override is allowed",
            )
        return changes, ()

    def _h_pay_premium(self, state, action, now):
        if self._premium_lapsed(state, now):
            raise DeadlineExceeded("PayPremium: the premium window has lapsed")
        amount = action.payload["premium"]
        if amount != state.premium_quote:
            raise PolicyViolation("PayPremium: amount does not match the quoted premium")
        changes = {"premium_paid": True, "principal_state": PrincipalState.COLLATERAL_REQUESTED}
        return changes, _move(state, InstructionKind.COLLECT_PREMIUM, amount, action.payload["premium_ref"])

    def _h_lock_collateral(self, state, action, now):
        amount = action.payload["amount"]
        if amount != state.collateral_quote:
            raise PolicyViolation("LockCollateral: amount does not match the quoted demand")
        changes = {"collateral_posted": True, "principal_state": PrincipalState.APPROVAL_PENDING}
        return changes, _move(state, InstructionKind.LOCK_COLLATERAL, amount, action.payload["collateral_ref"])

    def _h_refuse_collateral(self, state, action, now):
        return {"principal_state": PrincipalState.OVERRIDE_PENDING}, ()

    def _h_override_decision(self, state, action, now):
        decision = action.payload["decision"]
        if decision not in ("proceed", "cancel"):
            raise PolicyViolation("OverrideDecision: decision must be 'proceed' or 'cancel'")
        if decision == "cancel":
            changes = {
                "phase": Phase.CANCELLED,
                "principal_state": PrincipalState.CANCELLED,
                "cancel_reason": "human authority declined to proceed uncovered",
            }
            return changes, ()
        # proceeding uncovered: any quote that was paid never attaches, so
        # the premium goes straight back regardless of the refund policy
        changes = {"override_ack": True, "principal_state": PrincipalState.APPROVAL_PENDING}
        if not _premium_held(state):
            return changes, ()
        changes["premium_refunded"] = True
        ref = f"{state.job_id}.{state.seq}.premium-refund"
        return changes, _move(state, InstructionKind.REFUND_PREMIUM, state.premium_quote, ref)

    def _h_approve_release(self, state, action, now):
        return {"approvals": _with_approval(state, action, action.sender.role.value)}, ()

    def _h_release_principal(self, state, action, now):
        claimed = action.payload["approvals"]  # a list of strings: checked by validate_shape
        # one role per token: _with_approval never records a token twice
        by_token = {token: Role(role_value) for role_value, _pid, token in state.approvals}
        roles = set()
        for token in claimed:
            if token not in by_token:
                raise BadBinding("ReleasePrincipal: presented approval is not on record")
            roles.add(by_token[token])
        if not release_auth(roles, state.requestor_role):
            raise PolicyViolation("ReleasePrincipal: presented approvals do not authorize release")
        if not release_ready(state):
            raise NotEnabled("ReleasePrincipal: release predicate does not hold")
        principal = state.agreement.principal_terms.amount
        instructions = _move(state, InstructionKind.TRANSFER_PRINCIPAL, principal, action.payload["transfer_ref"])
        return {"principal_state": PrincipalState.EXECUTION_PENDING}, instructions

    def _h_submit_execution_evidence(self, state, action, now):
        return {"exec_evidence_ref": action.payload["exec_evidence_ref"]}, ()

    def _h_unwind_pre_execution(self, state, action, now):
        p = action.payload
        prefix = f"{state.job_id}.{state.seq}"  # of each default ref
        changes = {"unwound": True}
        instructions = ()
        if state.fee_locked and not state.fee_settled:
            changes["fee_disposition"] = "refund"
            fee = state.agreement.fee_terms.amount
            instructions += _move(state, InstructionKind.REFUND_FEE, fee, f"{prefix}.fee-refund")
        if _premium_held(state) and state.agreement.premium_refund_policy is PremiumRefundPolicy.REFUNDABLE:
            ref = p.get("premium_refund_ref", f"{prefix}.premium-refund")
            instructions += _move(state, InstructionKind.REFUND_PREMIUM, state.premium_quote, ref)
            changes["premium_refunded"] = True
        if _collateral_held(state):
            ref = p.get("collateral_unlock_ref", f"{prefix}.collateral-unlock")
            instructions += _move(state, InstructionKind.UNLOCK_COLLATERAL, state.posted_amount, ref)
            changes["collateral_settled"] = True
        return changes, instructions

    def _h_evaluate_outcome(self, state, action, now):
        outcome = action.payload["outcome"]
        if outcome not in ("pass", "fail"):
            raise PolicyViolation("EvaluateOutcome: outcome must be 'pass' or 'fail'")
        return {"outcome": outcome}, ()

    def _h_settle_collateral(self, state, action, now):
        disposition = action.payload["disposition"]
        amount = action.payload["amount"]
        if disposition not in ("slash", "unlock"):
            raise PolicyViolation("SettleCollateral: disposition must be 'slash' or 'unlock'")
        ref = action.payload["settlement_ref"]
        if disposition == "unlock":
            if state.agreement.collateral_policy is not CollateralPolicy.NO_SLASH and (
                state.claim is not None or _claim_open(state, now)
            ):
                raise PolicyViolation("SettleCollateral: cannot unlock while a claim is possible or pending")
            if amount != state.posted_amount:
                raise PolicyViolation("SettleCollateral: unlock must return the full posted amount")
            return {"collateral_settled": True}, _move(state, InstructionKind.UNLOCK_COLLATERAL, amount, ref)
        # slash path
        if state.outcome != "fail":
            raise PolicyViolation("SettleCollateral: slash requires a failing evaluation")
        if state.claim is None:
            raise PolicyViolation("SettleCollateral: slash requires a filed claim")
        if state.agreement.collateral_policy is CollateralPolicy.NO_SLASH:
            raise PolicyViolation("SettleCollateral: the agreement forbids slashing")
        _trigger, claimed_loss, _ev = state.claim
        expected_slash, _reimb = settle_claim(claimed_loss, state.posted_amount, state.agreement.coverage_limit)
        if amount != expected_slash:
            raise PolicyViolation("SettleCollateral: slash amount must equal min(collateral, loss)")
        slash = _move(state, InstructionKind.SLASH_COLLATERAL, amount, ref)
        unlock = _move(state, InstructionKind.UNLOCK_COLLATERAL, state.posted_amount - amount, f"{ref}.unlock")
        return {"collateral_settled": True, "slash_amount": amount}, slash + unlock

    def _h_file_claim(self, state, action, now):
        if not _claim_open(state, now):
            raise DeadlineExceeded("FileClaim: the claim window has closed")
        claim = (action.payload["trigger"], action.payload["claimed_loss"], action.payload["evidence_ref"])
        return {"claim": claim}, ()

    def _h_pay_claim(self, state, action, now):
        payout = action.payload["payout"]
        if payout != _covered_reimbursement(state):
            raise PolicyViolation("PayClaim: payout must equal the uncovered loss up to the limit")
        return {"claim_paid": True}, _move(state, InstructionKind.PAY_CLAIM, payout, action.payload["payout_ref"])

    # -- post-transition bookkeeping ------------------------------------------

    @staticmethod
    def _evaluation_ready(state: JobState) -> bool:
        if state.fee_state is not FeeState.FEE_DELIVERED:
            return False
        if state.fund_involving:
            return state.exec_evidence_ref is not None
        return True

    @staticmethod
    def _closeable(state: JobState, now: int) -> bool:
        # a covered failure with no claim filed waits for the claim window to lapse
        if state.outcome is None or not state.fee_settled or _collateral_held(state) or _claim_open(state, now):
            return False
        return state.claim is None or state.claim_paid or _covered_reimbursement(state) <= 0

    def _post_transition(self, state: JobState, now: int) -> None:
        """Take the steps that follow from a handler's changes, in place.

        ``state`` is the one ``apply`` is building and has not returned yet.
        A principal awaiting approval becomes releasable as soon as the
        release predicate holds.
        """
        fields_ = state.__dict__
        if state.principal_state is PrincipalState.APPROVAL_PENDING and release_ready(state):
            fields_["principal_state"] = PrincipalState.RELEASABLE
        if state.phase is Phase.TRANSACTION and self._evaluation_ready(state):
            fields_["phase"] = Phase.EVALUATION
        if state.phase is Phase.EVALUATION and self._closeable(state, now):
            fields_["phase"] = Phase.CLOSED

    # -- event construction -----------------------------------------------------

    @staticmethod
    def _event(state: JobState, action: Action, now: int, instructions) -> dict:
        return {
            "seq": state.seq,
            "ts": now,
            "job_id": state.job_id,
            "agreement_hash": state.draft_hash,
            "actor": {"id": action.sender.id, "role": action.sender.role.value},
            "kind": action.kind.value,
            "payload": action.payload,
            "signature": action.signature,
            "phase": state.phase.value if state.phase else None,
            "fee_state": state.fee_state.value,
            "principal_state": state.principal_state.value if state.principal_state else None,
            "instruction_refs": [instr.ref for instr in instructions],
        }


# every kind's handler is ``_h_<kind name>``; a missing one fails at import
_HANDLERS = {kind: getattr(SettlementMachine, f"_h_{kind.name.lower()}") for kind in ActionKind}


def decode_event(i: int, record) -> tuple[Action, int]:
    """The action logged event ``i`` records, and its timestamp.

    Raises PolicyViolation naming the event when the record is not an
    object with a known ``kind``, an ``actor`` object holding an id and a
    role, a ``payload`` and a ``ts``.
    """
    try:
        actor = record["actor"]
        action = Action(
            kind=ActionKind(record["kind"]),
            sender=PartyRef(actor["id"], Role(actor["role"])),
            payload=record["payload"],
            signature=record.get("signature"),
        )
        return action, record["ts"]
    except KeyError as exc:
        raise PolicyViolation(f"malformed event {i}: missing {exc}") from None
    except (TypeError, ValueError, InvalidAgreement) as exc:
        raise PolicyViolation(f"malformed event {i}: {exc}") from None


def replay(machine: SettlementMachine, events: list[dict], check=None) -> JobState:
    """Re-apply a logged action stream and return the reconstructed state.

    Raises TransitionError subclasses if the log is not a valid history,
    including PolicyViolation for a malformed record. ``check(i, state)``,
    when given, is called after event ``i`` is applied, with the state
    whose last log entry re-logs it; the caller compares that entry with
    the original for byte-level verification.
    """
    if not events:
        raise PolicyViolation("cannot replay an empty event log")
    try:
        state = new_job(events[0]["job_id"])
    except (KeyError, TypeError) as exc:
        raise PolicyViolation(f"malformed event 0: no job_id ({exc!r})") from None
    for i, record in enumerate(events):
        state, _ = machine.apply(state, *decode_event(i, record))
        if check is not None:
            check(i, state)
    return state
