"""Protocol-path episode runner.

The market simulator decides *what* happens in an episode (adoption,
collateral posting, override, execution outcome) from pre-drawn
randomness. This module turns one such decision vector into the full
action script, plays it through the settlement machine against a fresh
ledger, and reduces the resulting custody flows to episode economics.

The closed form of those economics lives in one place, the simulator's
vectorized ``market_sim._vector_economics``. ``check_episode`` plays an
episode through the machine and raises ``EngineInconsistency`` unless the
ledger gives that closed-form row on every field, which keeps the fast
vectorized path honest against the actual machine. Nothing here computes
the economics a second way.

All amounts are integer minor units.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import ACTION_SPECS, Action, ActionKind
from .agreement import (
    AssuranceMode,
    Deadlines,
    FeeTerms,
    Keyring,
    PartyRef,
    PrincipalTerms,
    Role,
    StructuredAgreement,
    canonical_hash,
)
from .errors import EngineInconsistency
from .ledger import InstructionKind, Ledger, collateral_vault, escrow, settle_claim, treasury, wallet
from .lifecycle import Phase, SettlementMachine, new_job

USER = "user-1"
MERCHANT = "merchant-1"
UNDERWRITER = "uw-1"
EVALUATOR = "eval-1"
SETTLEMENT = "settle-1"

_KEYRING = Keyring.demo([USER, MERCHANT, UNDERWRITER])
_MACHINE = SettlementMachine(_KEYRING)

_H = PartyRef(USER, Role.HUMAN_REQUESTOR)
_B = PartyRef(MERCHANT, Role.BUSINESS_AGENT)
_U = PartyRef(UNDERWRITER, Role.UNDERWRITER)
_E = PartyRef(EVALUATOR, Role.EVALUATOR)
_S = PartyRef(SETTLEMENT, Role.SETTLEMENT)

# the action kinds the scripts below send, as module names (see ``enums``)
_ACCEPT_REQUEST = ActionKind.ACCEPT_REQUEST
_EVALUATE_OUTCOME = ActionKind.EVALUATE_OUTCOME
_FILE_CLAIM = ActionKind.FILE_CLAIM
_LOCK_COLLATERAL = ActionKind.LOCK_COLLATERAL
_LOCK_FEE_ESCROW = ActionKind.LOCK_FEE_ESCROW
_OVERRIDE_DECISION = ActionKind.OVERRIDE_DECISION
_PAY_CLAIM = ActionKind.PAY_CLAIM
_PAY_PREMIUM = ActionKind.PAY_PREMIUM
_PROPOSE_AGREEMENT = ActionKind.PROPOSE_AGREEMENT
_REFUSE_COLLATERAL = ActionKind.REFUSE_COLLATERAL
_RELEASE_PRINCIPAL = ActionKind.RELEASE_PRINCIPAL
_REQUEST_UW = ActionKind.REQUEST_UW
_SETTLE_COLLATERAL = ActionKind.SETTLE_COLLATERAL
_SETTLE_FEE_ESCROW = ActionKind.SETTLE_FEE_ESCROW
_SIGN_AGREEMENT = ActionKind.SIGN_AGREEMENT
_SUBMIT_DELIVERABLE = ActionKind.SUBMIT_DELIVERABLE
_SUBMIT_EXECUTION_EVIDENCE = ActionKind.SUBMIT_EXECUTION_EVIDENCE
_SUBMIT_REQUEST = ActionKind.SUBMIT_REQUEST
_UNWIND_PRE_EXECUTION = ActionKind.UNWIND_PRE_EXECUTION
_UW_DECISION = ActionKind.UW_DECISION

# the kinds whose payload carries the agreement hash, per their spec
_BOUND_KINDS = frozenset(kind for kind, spec in ACTION_SPECS.items() if "agreement_hash" in spec.required)

# far past any scripted timestamp; the scripts below use t = 0, 1, 2, ...
_DEADLINES = Deadlines(delivery=10_000, claim=20_000, dispute=30_000)


@dataclass(frozen=True)
class EpisodePlan:
    """Decision vector for one episode, after all randomness is resolved.

    ``fail`` is the execution coin for the episode's purchase; it applies
    to the counterfactual (no protocol) world as well, so protected and
    unprotected runs of the same episode share their luck.
    """

    m_minor: int
    d_minor: int
    pi_minor: int
    adopt: bool
    post: bool
    override_proceed: bool
    fail: bool


@dataclass(frozen=True)
class EpisodeEconomics:
    executed: bool
    cancelled: bool
    failed: bool
    user_loss: int
    underwriter_delta: int


def ledger_economics(plan: EpisodePlan, job_id: str = "sim-job") -> EpisodeEconomics:
    """Run the adopted episode through the machine and read the ledger.

    Non-adopting episodes never touch the protocol: outside it the
    purchase simply runs, uncovered, and the treasury never moves.
    """
    if not plan.adopt:
        return EpisodeEconomics(True, False, plan.fail, plan.m_minor if plan.fail else 0, 0)

    m, d, pi = plan.m_minor, plan.d_minor, plan.pi_minor
    ledger = Ledger()
    ledger.open_account(wallet(USER), m + pi)
    ledger.open_account(wallet(MERCHANT), d)
    ledger.open_account(treasury(UNDERWRITER), 0)
    ledger.open_account(escrow(job_id), 0)
    ledger.open_account(collateral_vault(job_id), 0)
    supply = m + pi + d

    draft = StructuredAgreement(
        job_id=job_id,
        task_spec="execute one covered purchase",
        assurance_mode=AssuranceMode.FUND_INVOLVING,
        fee_terms=FeeTerms(0),
        principal_terms=PrincipalTerms(m, PartyRef(MERCHANT, Role.BUSINESS_AGENT)),
        acceptance_criteria="funds applied to the stated purchase",
        deadlines=_DEADLINES,
        coverage_limit=m,
    )
    a_hash = canonical_hash(draft)
    # every signed step and the release approval bind (party, job, a_hash),
    # so each party signs once per episode; the machine verifies every use,
    # and the keyring answers each verify from the token it remembers
    token = {party: _KEYRING.sign(party, job_id, a_hash) for party in (USER, MERCHANT, UNDERWRITER)}

    state = new_job(job_id)
    t = 0

    def step(kind: ActionKind, sender: PartyRef, signed: bool = False, **fields) -> None:
        """Apply ``kind`` with ``fields``; the payload binds to the job, and to
        the agreement exactly when the kind's spec requires it."""
        nonlocal state, t
        if kind in _BOUND_KINDS:
            payload = {"job_id": job_id, "agreement_hash": a_hash, **fields}
        else:
            payload = {"job_id": job_id, **fields}
        action = Action(kind=kind, sender=sender, payload=payload, signature=token[sender.id] if signed else None)
        state, instructions = _MACHINE.apply(state, action, t)
        t += 1
        for instruction in instructions:
            ledger.execute(instruction)

    step(
        _SUBMIT_REQUEST,
        _H,
        task_spec=draft.task_spec,
        fee_terms={"amount": 0, "custody": "escrow"},
        principal_terms={"amount": m, "destination": {"id": MERCHANT, "role": Role.BUSINESS_AGENT.value}},
    )
    step(_ACCEPT_REQUEST, _B, decision="accept")
    step(_PROPOSE_AGREEMENT, _B, agreement_draft=draft.to_dict())
    step(_SIGN_AGREEMENT, _H)
    step(_SIGN_AGREEMENT, _B)
    step(_LOCK_FEE_ESCROW, _H, signed=True, lock_ref=f"{job_id}.fee-lock")
    step(_REQUEST_UW, _B, coverage_request={"principal": m})
    step(_UW_DECISION, _U, signed=True, decision="approve", premium=pi, collateral_required=d)
    step(_PAY_PREMIUM, _H, signed=True, premium=pi, premium_ref=f"{job_id}.premium")

    covered = d == 0 or plan.post
    if covered:
        step(_LOCK_COLLATERAL, _B, signed=True, amount=d, collateral_ref=f"{job_id}.collateral")
    else:
        step(_REFUSE_COLLATERAL, _B, signed=True)
        step(_OVERRIDE_DECISION, _H, signed=True, decision="proceed" if plan.override_proceed else "cancel")
        if not plan.override_proceed:
            step(_UNWIND_PRE_EXECUTION, _S)
            if state.phase is not Phase.CANCELLED:
                raise EngineInconsistency("cancelled episode did not end in CANCELLED")
            if ledger.total_supply() != supply:
                raise EngineInconsistency("value leaked during cancellation")
            return EpisodeEconomics(
                executed=False,
                cancelled=True,
                failed=False,
                user_loss=0,
                underwriter_delta=ledger.balance(treasury(UNDERWRITER)),
            )

    step(_RELEASE_PRINCIPAL, _S, approvals=[token[UNDERWRITER]], transfer_ref=f"{job_id}.transfer")
    step(_SUBMIT_EXECUTION_EVIDENCE, _B, signed=True, exec_evidence_ref=f"{job_id}.evidence")
    step(_SUBMIT_DELIVERABLE, _B, signed=True, deliverable_ref=f"{job_id}.deliverable")

    outcome = "fail" if plan.fail else "pass"
    step(_EVALUATE_OUTCOME, _E, outcome=outcome)
    step(
        _SETTLE_FEE_ESCROW,
        _S,
        disposition="refund" if plan.fail else "release",
        settlement_ref=f"{job_id}.fee-settle",
    )

    collateral_settle = f"{job_id}.collateral-settle"
    if outcome == "pass":
        if covered and d > 0:
            step(_SETTLE_COLLATERAL, _S, disposition="unlock", amount=d, settlement_ref=collateral_settle)
    elif covered:
        step(
            _FILE_CLAIM,
            _H,
            trigger="execution_failure",
            claimed_loss=m,
            evidence_ref=f"{job_id}.claim-evidence",
        )
        # the agreement's coverage limit is the principal m
        slash, reimbursement = settle_claim(m, d, m)
        if d > 0:
            step(_SETTLE_COLLATERAL, _S, disposition="slash", amount=slash, settlement_ref=collateral_settle)
        if reimbursement > 0:
            step(_PAY_CLAIM, _S, payout=reimbursement, payout_ref=f"{job_id}.payout")

    if state.phase is not Phase.CLOSED:
        raise EngineInconsistency(f"episode ended in {state.phase} instead of CLOSED")
    if ledger.total_supply() != supply:
        raise EngineInconsistency("episode violated value conservation")
    if ledger.balance(escrow(job_id)) != 0 or ledger.balance(collateral_vault(job_id)) != 0:
        raise EngineInconsistency("job vaults were not emptied at close")

    slash_received = 0
    payout_received = 0
    for receipt in ledger.receipts():
        if receipt.kind is InstructionKind.SLASH_COLLATERAL:
            slash_received += receipt.amount
        elif receipt.kind is InstructionKind.PAY_CLAIM:
            payout_received += receipt.amount
    failed = plan.fail
    user_loss = m - slash_received - payout_received if failed else 0
    return EpisodeEconomics(
        executed=True,
        cancelled=False,
        failed=failed,
        user_loss=user_loss,
        underwriter_delta=ledger.balance(treasury(UNDERWRITER)),
    )


def check_episode(plan: EpisodePlan, expected: EpisodeEconomics, job_id: str = "sim-job") -> EpisodeEconomics:
    """Play the episode through the machine and insist the ledger gives ``expected`` exactly."""
    actual = ledger_economics(plan, job_id)
    if actual != expected:
        raise EngineInconsistency(
            f"{job_id}: ledger economics {actual} diverge from closed-form economics {expected}"
        )
    return actual
