"""Shared builders for the test suite: parties, agreements, and a job
driver that scripts actions against the machine and executes every
emitted instruction on a real ledger."""

from __future__ import annotations

from typing import Optional

from surety import (
    Action,
    ActionKind,
    AssuranceMode,
    CollateralPolicy,
    Deadlines,
    FeeTerms,
    Keyring,
    Ledger,
    PartyRef,
    PremiumRefundPolicy,
    PrincipalTerms,
    Role,
    SettlementMachine,
    StructuredAgreement,
    canonical_hash,
    new_job,
)
from surety.actions import ACTION_SPECS
from surety.lifecycle import subject_hash

HUMAN = "hana"
ASSISTANT = "aria"
MERCHANT = "shopbot"
UW = "uw-x"
EVALUATOR = "eval-x"
SETTLEMENT = "settle-x"

PARTY_ROLES = {
    HUMAN: Role.HUMAN_REQUESTOR,
    ASSISTANT: Role.ASSISTANT_REQUESTOR,
    MERCHANT: Role.BUSINESS_AGENT,
    UW: Role.UNDERWRITER,
    EVALUATOR: Role.EVALUATOR,
    SETTLEMENT: Role.SETTLEMENT,
}


def demo_keyring() -> Keyring:
    return Keyring.demo(list(PARTY_ROLES))


def build_agreement(
    job_id: str = "job-7",
    fee: int = 200,
    principal: Optional[int] = 1000,
    coverage_limit: Optional[int] = None,
    override_allowed: bool = True,
    refund_policy: PremiumRefundPolicy = PremiumRefundPolicy.REFUNDABLE,
    collateral_policy: CollateralPolicy = CollateralPolicy.SLASH_UP_TO_LOSS,
    deadlines: Deadlines = Deadlines(delivery=100, claim=200, dispute=300),
) -> StructuredAgreement:
    fund = principal is not None
    return StructuredAgreement(
        job_id=job_id,
        task_spec="procure one dataset license",
        assurance_mode=AssuranceMode.FUND_INVOLVING if fund else AssuranceMode.FEE_ONLY,
        fee_terms=FeeTerms(fee),
        principal_terms=PrincipalTerms(principal, PartyRef(MERCHANT, Role.BUSINESS_AGENT)) if fund else None,
        acceptance_criteria="license key delivered and valid",
        deadlines=deadlines,
        premium_refund_policy=refund_policy,
        coverage_limit=(principal if coverage_limit is None else coverage_limit) if fund else 0,
        collateral_policy=collateral_policy,
        override_allowed=override_allowed,
    )


class Driver:
    """Scripts one job and keeps machine state, ledger, and clock in sync."""

    def __init__(
        self,
        job_id: str = "job-7",
        requestor_role: Role = Role.HUMAN_REQUESTOR,
        agreement: Optional[StructuredAgreement] = None,
        premium: int = 20,
        collateral: int = 100,
        endowments: Optional[dict] = None,
    ) -> None:
        self.keyring = demo_keyring()
        self.machine = SettlementMachine(self.keyring)
        self.job_id = job_id
        self.state = new_job(job_id)
        self.t = 0
        self.requestor_role = requestor_role
        self.requestor_id = ASSISTANT if requestor_role is Role.ASSISTANT_REQUESTOR else HUMAN
        self.premium = premium
        self.collateral = collateral
        self.agreement = agreement if agreement is not None else build_agreement(job_id=job_id)
        self.agreement_hash = canonical_hash(self.agreement)
        self.ledger = Ledger()
        base = {
            f"wallet:{HUMAN}": 100_000,
            f"wallet:{MERCHANT}": 100_000,
            f"treasury:{UW}": 0,
            f"escrow:{job_id}": 0,
            f"collateral:{job_id}": 0,
        }
        if endowments:
            base.update(endowments)
        for account, balance in base.items():
            self.ledger.open_account(account, balance)
        self.receipts = []

    # -- low-level ------------------------------------------------------

    def current_hash(self) -> Optional[str]:
        return self.state.draft_hash

    def token(self, party_id: str) -> str:
        return self.keyring.sign(party_id, self.job_id, self.current_hash() or "")

    def act(
        self,
        kind: ActionKind,
        sender_id: str,
        payload: dict,
        signed: bool = False,
        signature: Optional[str] = None,
        now: Optional[int] = None,
        role: Optional[Role] = None,
    ):
        sender = PartyRef(sender_id, role if role is not None else PARTY_ROLES[sender_id])
        # "auto", as in episode scripts, stands for the hash this action binds to
        subject = subject_hash(self.state, ACTION_SPECS[kind].binding)
        if payload.get("agreement_hash") == "auto":
            payload = {**payload, "agreement_hash": subject}
        if signed and signature is None:
            signature = self.keyring.sign(sender_id, self.job_id, subject or "")
        action = Action(kind=kind, sender=sender, payload=payload, signature=signature)
        ts = self.t if now is None else now
        result = self.machine.apply(self.state, action, ts)
        self.state = result.state
        self.t = max(self.t, ts) + 1
        for instruction in result.instructions:
            self.receipts.append(self.ledger.execute(instruction))
        return result

    def payload(self, **extra) -> dict:
        return {"job_id": self.job_id, "agreement_hash": "auto", **extra}

    # -- single actions ----------------------------------------------------

    def submit_request(self, fee_only: bool = False):
        payload = {
            "job_id": self.job_id,
            "task_spec": self.agreement.task_spec,
            "fee_terms": {"amount": self.agreement.fee_terms.amount, "custody": "escrow"},
        }
        if self.agreement.principal_terms is not None and not fee_only:
            terms = self.agreement.principal_terms
            payload["principal_terms"] = {
                "amount": terms.amount,
                "destination": {"id": terms.destination.id, "role": terms.destination.role.value},
            }
        if self.requestor_role is Role.ASSISTANT_REQUESTOR:
            payload["principal"] = HUMAN
        return self.act(ActionKind.SUBMIT_REQUEST, self.requestor_id, payload)

    def accept(self):
        return self.act(ActionKind.ACCEPT_REQUEST, MERCHANT, {"job_id": self.job_id, "decision": "accept"})

    def reject(self):
        return self.act(ActionKind.REJECT_REQUEST, MERCHANT, {"job_id": self.job_id, "decision": "reject"})

    def propose(self, draft: Optional[StructuredAgreement] = None, sender: str = MERCHANT):
        draft = draft if draft is not None else self.agreement
        return self.act(
            ActionKind.PROPOSE_AGREEMENT, sender, {"job_id": self.job_id, "agreement_draft": draft.to_dict()}
        )

    def sign(self, party_id: str):
        return self.act(ActionKind.SIGN_AGREEMENT, party_id, self.payload())

    def cancel(self, sender_id: str, reason: str = "changed my mind"):
        return self.act(ActionKind.CANCEL_JOB, sender_id, self.payload(reason=reason), signed=True)

    def lock_fee(self, sender_id: Optional[str] = None):
        sender = HUMAN if sender_id is None else sender_id
        return self.act(
            ActionKind.LOCK_FEE_ESCROW, sender, self.payload(lock_ref=f"{self.job_id}.fee-lock"), signed=True
        )

    def deliver(self):
        return self.act(
            ActionKind.SUBMIT_DELIVERABLE,
            MERCHANT,
            self.payload(deliverable_ref=f"{self.job_id}.deliverable"),
            signed=True,
        )

    def request_uw(self):
        terms = self.agreement.principal_terms if self.agreement else None
        amount = terms.amount if terms else 0
        return self.act(
            ActionKind.REQUEST_UW,
            MERCHANT,
            self.payload(coverage_request={"principal": amount}),
        )

    def uw_decide(self, decision: str = "approve", premium: Optional[int] = None, collateral: Optional[int] = None, signed: bool = True):
        return self.act(
            ActionKind.UW_DECISION,
            UW,
            self.payload(
                decision=decision,
                premium=self.premium if premium is None else premium,
                collateral_required=self.collateral if collateral is None else collateral,
            ),
            signed=signed,
        )

    def pay_premium(self, amount: Optional[int] = None, now: Optional[int] = None):
        return self.act(
            ActionKind.PAY_PREMIUM,
            HUMAN,
            self.payload(premium=self.premium if amount is None else amount, premium_ref=f"{self.job_id}.premium"),
            signed=True,
            now=now,
        )

    def lock_collateral(self, amount: Optional[int] = None):
        return self.act(
            ActionKind.LOCK_COLLATERAL,
            MERCHANT,
            self.payload(
                amount=self.collateral if amount is None else amount,
                collateral_ref=f"{self.job_id}.collateral",
            ),
            signed=True,
        )

    def refuse_collateral(self):
        return self.act(ActionKind.REFUSE_COLLATERAL, MERCHANT, self.payload(), signed=True)

    def override(self, decision: str, now: Optional[int] = None):
        return self.act(ActionKind.OVERRIDE_DECISION, HUMAN, self.payload(decision=decision), signed=True, now=now)

    def approve_release(self, party_id: str):
        return self.act(ActionKind.APPROVE_RELEASE, party_id, self.payload(), signed=True)

    def release(self, tokens: Optional[list] = None):
        if tokens is None:
            tokens = [token for _role, _pid, token in sorted(self.state.approvals)]
        return self.act(
            ActionKind.RELEASE_PRINCIPAL,
            SETTLEMENT,
            self.payload(approvals=tokens, transfer_ref=f"{self.job_id}.transfer"),
        )

    def submit_evidence(self):
        return self.act(
            ActionKind.SUBMIT_EXECUTION_EVIDENCE,
            MERCHANT,
            self.payload(exec_evidence_ref=f"{self.job_id}.evidence"),
            signed=True,
        )

    def evaluate(self, outcome: str):
        return self.act(ActionKind.EVALUATE_OUTCOME, EVALUATOR, self.payload(outcome=outcome))

    def settle_fee(self, disposition: str):
        return self.act(
            ActionKind.SETTLE_FEE_ESCROW,
            SETTLEMENT,
            self.payload(disposition=disposition, settlement_ref=f"{self.job_id}.fee-settle"),
        )

    def file_claim(self, loss: Optional[int] = None, now: Optional[int] = None):
        if loss is None:
            terms = self.agreement.principal_terms if self.agreement else None
            loss = terms.amount if terms else 0
        amount = loss
        return self.act(
            ActionKind.FILE_CLAIM,
            HUMAN,
            self.payload(trigger="execution_failure", claimed_loss=amount, evidence_ref=f"{self.job_id}.claim-ev"),
            now=now,
        )

    def settle_collateral(self, disposition: str, amount: int, now: Optional[int] = None):
        return self.act(
            ActionKind.SETTLE_COLLATERAL,
            SETTLEMENT,
            self.payload(disposition=disposition, amount=amount, settlement_ref=f"{self.job_id}.coll-settle"),
            now=now,
        )

    def pay_claim(self, payout: int):
        return self.act(
            ActionKind.PAY_CLAIM,
            SETTLEMENT,
            self.payload(payout=payout, payout_ref=f"{self.job_id}.payout"),
        )

    def unwind(self):
        return self.act(ActionKind.UNWIND_PRE_EXECUTION, SETTLEMENT, self.payload())

    # -- macro paths -------------------------------------------------------

    def to_negotiation(self):
        self.submit_request()
        self.accept()
        return self

    def to_transaction(self):
        self.to_negotiation()
        self.propose()
        self.sign(self.requestor_id)
        self.sign(MERCHANT)
        return self

    def to_releasable(self):
        self.to_transaction()
        self.lock_fee()
        self.request_uw()
        self.uw_decide("approve")
        self.pay_premium()
        self.lock_collateral()
        return self

    def to_execution_pending(self):
        self.to_releasable()
        self.release()
        return self

    def to_evaluation(self):
        self.to_execution_pending()
        self.submit_evidence()
        self.deliver()
        return self

    def run_pass_path(self):
        self.to_evaluation()
        self.evaluate("pass")
        self.settle_fee("release")
        if self.state.posted_amount > 0:
            self.settle_collateral("unlock", self.state.posted_amount)
        return self

    def run_covered_fail_path(self):
        self.to_evaluation()
        self.evaluate("fail")
        self.settle_fee("refund")
        self.file_claim()
        principal = self.agreement.principal_terms.amount
        slash = min(self.state.posted_amount, principal)
        if self.state.posted_amount > 0:
            self.settle_collateral("slash", slash)
        reimbursement = min(principal - slash, self.agreement.coverage_limit)
        if reimbursement > 0:
            self.pay_claim(reimbursement)
        return self
