"""Seeded corpus of job scripts for the kernel-replay workload.

Each job is an ``surety episode`` script (parties, endowments, actions)
plus one probe: an action that the machine must reject when it is applied
to the state reached after a prefix of the job's log. The corpus mixes
human and assistant requestors, fee-only and fund-involving jobs, and
every ending the machine supports, so that ApproveRelease, the assistant
gate, zero collateral, unwinds and rejections all run.

Agreement hashes and the approval tokens a ReleasePrincipal presents are
computed here with the program's own encoding and demo keyring, because
a script cannot ask the CLI to fill them in.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from surety.agreement import (
    AssuranceMode,
    CollateralPolicy,
    Deadlines,
    FeeTerms,
    Keyring,
    PartyRef,
    PremiumRefundPolicy,
    PrincipalTerms,
    Role,
    StructuredAgreement,
    canonical_hash,
)
from surety.ledger import settle_claim

# ending -> relative weight in the corpus
ENDINGS = {
    "covered_pass": 4,
    "covered_fail": 4,
    "zero_collateral": 2,
    "override_proceed": 3,
    "override_cancel": 2,
    "uw_reject": 1,
    "fee_only": 4,
    "request_rejected": 1,
    "negotiation_cancel": 1,
}

EVALUATOR = "eval-1"
SETTLEMENT = "settle-1"
_DEADLINES = Deadlines(delivery=1_000, claim=2_000, dispute=3_000)


@dataclass(frozen=True)
class Job:
    job_id: str
    ending: str
    script: str  # the episode script as JSON text
    parties: tuple[str, ...]
    endowments: dict
    final_phase: str
    actions: int  # length of the action list, so of a complete log
    probe_at: int  # events replayed before the probe is applied
    probe: dict  # action spec with an explicit signature
    probe_rejects_with: str  # TransitionError subclass the probe must raise


def _action(kind, sender, role, payload, signed=False):
    spec = {"kind": kind, "sender": {"id": sender, "role": role.value}, "payload": payload}
    if signed:
        spec["signature"] = "auto"
    return spec


def make_job(rng: random.Random, index: int) -> Job:
    """Build job ``index`` from the next draws of ``rng``."""
    ending = rng.choices(list(ENDINGS), weights=list(ENDINGS.values()))[0]
    job_id = f"job-{index:05d}"
    human = f"human-{rng.randrange(1000)}"
    assistant = f"assistant-{rng.randrange(1000)}" if rng.random() < 0.5 else None
    requestor = assistant or human
    req_role = Role.ASSISTANT_REQUESTOR if assistant else Role.HUMAN_REQUESTOR
    provider = f"merchant-{rng.randrange(1000)}"
    uw = f"uw-{rng.randrange(10)}"

    fund = ending not in ("fee_only", "request_rejected", "negotiation_cancel") or (
        ending != "fee_only" and rng.random() < 0.5
    )
    fee = 0 if rng.random() < 0.1 else rng.randint(1, 5_000)
    m = rng.randint(100, 200_000) if fund else 0
    d = 0 if ending == "zero_collateral" else (rng.randint(1, m) if fund else 0)
    pi = rng.randint(1, max(1, m // 5)) if fund else 0
    limit = rng.randint(m // 2, m) if fund else 0
    refundable = rng.random() < 0.5

    parties = {requestor: req_role.value}
    if assistant:
        parties[human] = Role.HUMAN_REQUESTOR.value
    parties.update(
        {
            provider: Role.BUSINESS_AGENT.value,
            uw: Role.UNDERWRITER.value,
            EVALUATOR: Role.EVALUATOR.value,
            SETTLEMENT: Role.SETTLEMENT.value,
        }
    )
    endowments = {f"wallet:{human}": fee + m + pi, f"wallet:{provider}": d, f"treasury:{uw}": 0}

    principal_terms = PrincipalTerms(m, PartyRef(provider, Role.BUSINESS_AGENT)) if fund else None
    draft = StructuredAgreement(
        job_id=job_id,
        task_spec=f"delegated task {index}",
        assurance_mode=AssuranceMode.FUND_INVOLVING if fund else AssuranceMode.FEE_ONLY,
        fee_terms=FeeTerms(fee),
        principal_terms=principal_terms,
        acceptance_criteria="deliverable matches the task spec",
        deadlines=_DEADLINES,
        premium_refund_policy=PremiumRefundPolicy.REFUNDABLE if refundable else PremiumRefundPolicy.NON_REFUNDABLE,
        coverage_limit=limit,
        collateral_policy=CollateralPolicy.SLASH_UP_TO_LOSS,
        override_allowed=ending != "uw_reject",
    )
    a_hash = canonical_hash(draft)
    keyring = Keyring.demo(list(parties))

    R, H, B, U = req_role, Role.HUMAN_REQUESTOR, Role.BUSINESS_AGENT, Role.UNDERWRITER
    S, E = Role.SETTLEMENT, Role.EVALUATOR
    auto = "auto"
    acts = []
    submit = {"job_id": job_id, "task_spec": draft.task_spec, "fee_terms": {"amount": fee, "custody": "escrow"}}
    if fund:
        submit["principal_terms"] = {"amount": m, "destination": {"id": provider, "role": B.value}}
    if assistant:
        submit["principal"] = human
    acts.append(_action("SubmitRequest", requestor, R, submit))
    final_phase = "CLOSED"
    lock_at = release_at = None

    if ending == "request_rejected":
        acts.append(_action("RejectRequest", provider, B, {"job_id": job_id, "decision": "reject", "reason": "busy"}))
        final_phase = "CANCELLED"
    else:
        acts.append(_action("AcceptRequest", provider, B, {"job_id": job_id, "decision": "accept"}))
        acts.append(_action("ProposeAgreement", provider, B, {"job_id": job_id, "agreement_draft": draft.to_dict()}))
        acts.append(_action("SignAgreement", requestor, R, {"job_id": job_id, "agreement_hash": auto}))
        if ending == "negotiation_cancel":
            acts.append(
                _action("CancelJob", requestor, R, {"job_id": job_id, "agreement_hash": auto, "reason": "changed mind"}, True)
            )
            final_phase = "CANCELLED"
        else:
            acts.append(_action("SignAgreement", provider, B, {"job_id": job_id, "agreement_hash": auto}))
            lock_at = len(acts)
            acts.append(
                _action("LockFeeEscrow", requestor, R, {"job_id": job_id, "agreement_hash": auto, "lock_ref": f"{job_id}.fee-lock"}, True)
            )

    bound = {"job_id": job_id, "agreement_hash": auto}
    approvals = [keyring.sign(uw, job_id, a_hash)]
    if fund and final_phase == "CLOSED":
        acts.append(_action("RequestUW", provider, B, {**bound, "coverage_request": {"principal": m}}))
        if ending == "uw_reject":
            acts.append(_action("UWDecision", uw, U, {**bound, "decision": "reject", "premium": 0}))
            acts.append(_action("UnwindPreExecution", SETTLEMENT, S, dict(bound)))
            final_phase = "CANCELLED"
        else:
            acts.append(
                _action("UWDecision", uw, U, {**bound, "decision": "approve", "premium": pi, "collateral_required": d}, True)
            )
            acts.append(_action("PayPremium", human, H, {**bound, "premium": pi, "premium_ref": f"{job_id}.premium"}, True))
            if ending.startswith("override"):
                acts.append(_action("RefuseCollateral", provider, B, dict(bound), True))
                decision = "proceed" if ending == "override_proceed" else "cancel"
                acts.append(_action("OverrideDecision", human, H, {**bound, "decision": decision}, True))
                if decision == "cancel":
                    acts.append(_action("UnwindPreExecution", SETTLEMENT, S, dict(bound)))
                    final_phase = "CANCELLED"
            else:
                acts.append(
                    _action("LockCollateral", provider, B, {**bound, "amount": d, "collateral_ref": f"{job_id}.collateral"}, True)
                )

    if fund and final_phase == "CLOSED":
        if assistant:
            # A and (U or H): the assistant's own approval is mandatory
            acts.append(_action("ApproveRelease", assistant, R, dict(bound), True))
            approvals.insert(0, keyring.sign(assistant, job_id, a_hash))
        release_at = len(acts)
        acts.append(
            _action("ReleasePrincipal", SETTLEMENT, S, {**bound, "approvals": approvals, "transfer_ref": f"{job_id}.transfer"})
        )
        acts.append(
            _action("SubmitExecutionEvidence", provider, B, {**bound, "exec_evidence_ref": f"{job_id}.evidence"}, True)
        )

    if final_phase == "CLOSED":
        fail = ending == "covered_fail" or (ending != "covered_pass" and rng.random() < 0.5)
        acts.append(_action("SubmitDeliverable", provider, B, {**bound, "deliverable_ref": f"{job_id}.deliverable"}, True))
        acts.append(_action("EvaluateOutcome", EVALUATOR, E, {**bound, "outcome": "fail" if fail else "pass"}))
        acts.append(
            _action(
                "SettleFeeEscrow",
                SETTLEMENT,
                S,
                {**bound, "disposition": "refund" if fail else "release", "settlement_ref": f"{job_id}.fee-settle"},
            )
        )
        covered = fund and not ending.startswith("override")
        settle = {**bound, "settlement_ref": f"{job_id}.collateral-settle"}
        if covered and not fail and d > 0:
            acts.append(_action("SettleCollateral", SETTLEMENT, S, {**settle, "disposition": "unlock", "amount": d}))
        elif covered and fail:
            acts.append(
                _action(
                    "FileClaim",
                    human,
                    H,
                    {**bound, "trigger": "execution_failure", "claimed_loss": m, "evidence_ref": f"{job_id}.claim"},
                )
            )
            slash, payout = settle_claim(m, d, limit)
            if d > 0:
                acts.append(_action("SettleCollateral", SETTLEMENT, S, {**settle, "disposition": "slash", "amount": slash}))
            if payout > 0:
                acts.append(
                    _action("PayClaim", SETTLEMENT, S, {**bound, "payout": payout, "payout_ref": f"{job_id}.payout"})
                )

    # the probe: an action the machine must refuse
    if assistant and release_at is not None:
        probe_at = release_at
        probe = _action(
            "ReleasePrincipal",
            SETTLEMENT,
            S,
            {"job_id": job_id, "agreement_hash": a_hash, "approvals": approvals[:1], "transfer_ref": f"{job_id}.probe"},
        )
        probe["signature"] = None
        rejects_with = "PolicyViolation"
    else:
        if lock_at is not None:
            probe_at, subject = lock_at, a_hash
            probe = _action("LockFeeEscrow", requestor, R, {"job_id": job_id, "agreement_hash": a_hash, "lock_ref": f"{job_id}.probe"})
        else:
            # still in REQUEST: no hash yet, so the token binds the empty subject
            probe_at, subject = 1, ""
            probe = _action("CancelJob", requestor, R, {"job_id": job_id, "agreement_hash": None, "reason": "probe"})
        if rng.random() < 0.5:
            probe["signature"] = "%064x" % rng.getrandbits(256)  # forged
        else:
            probe["signature"] = keyring.sign(requestor, f"{job_id}-other", subject)  # cross-job
        rejects_with = "BadBinding"

    script = {"job_id": job_id, "parties": parties, "endowments": endowments, "actions": acts}
    return Job(
        job_id=job_id,
        ending=ending,
        script=json.dumps(script),
        parties=tuple(parties),
        endowments=endowments,
        final_phase=final_phase,
        actions=len(acts),
        probe_at=probe_at,
        probe=probe,
        probe_rejects_with=rejects_with,
    )


def build_corpus(seed: int, n: int) -> list[Job]:
    """Generate ``n`` jobs from ``seed``."""
    rng = random.Random(seed)
    return [make_job(rng, i) for i in range(n)]
