"""State machine semantics: transition tables, predicates, windows,
terminality, and replay determinism."""

import json
from dataclasses import FrozenInstanceError, fields, replace
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from surety import (
    Action,
    ActionKind,
    BadBinding,
    CollateralPolicy,
    DeadlineExceeded,
    FeeState,
    NotEnabled,
    Phase,
    PolicyViolation,
    JobState,
    Keyring,
    PartyRef,
    PremiumRefundPolicy,
    PrincipalState,
    Role,
    SettlementMachine,
    TransitionError,
    WrongSender,
    enabled_actions,
    new_job,
    release_auth,
    release_ready,
    replay,
)
from surety.actions import ACTION_SPECS, ActionSpec
from surety.ledger import _ENDPOINT_RULES, InstructionKind
from surety.lifecycle import _ACCOUNTS, _evolve, _move

from conftest import (
    ASSISTANT,
    EVALUATOR,
    HUMAN,
    MERCHANT,
    PARTY_ROLES,
    SETTLEMENT,
    UW,
    Driver,
    build_agreement,
    demo_keyring,
)

K = ActionKind


# -- golden paths -----------------------------------------------------------


def test_happy_path_pass_trace():
    d = Driver()
    d.submit_request()
    assert d.state.phase is Phase.REQUEST
    d.accept()
    assert d.state.phase is Phase.NEGOTIATION
    d.propose()
    d.sign(HUMAN)
    assert d.state.phase is Phase.NEGOTIATION
    d.sign(MERCHANT)
    assert d.state.phase is Phase.TRANSACTION
    assert d.state.fee_state is FeeState.FEE_AWAIT_LOCK
    assert d.state.principal_state is PrincipalState.UW_AWAIT_REQUEST

    d.lock_fee()
    assert d.state.fee_state is FeeState.FEE_ESCROW_LOCKED
    assert d.ledger.balance(f"escrow:{d.job_id}") == 200
    d.request_uw()
    assert d.state.principal_state is PrincipalState.UW_REVIEW
    d.uw_decide("approve")
    assert d.state.principal_state is PrincipalState.PREMIUM_PENDING
    d.pay_premium()
    assert d.state.principal_state is PrincipalState.COLLATERAL_REQUESTED
    assert d.ledger.balance(f"treasury:{UW}") == 20
    d.lock_collateral()
    # the underwriter's signed approval already satisfies the predicate
    # for a human-requestor job, so the track advances straight through
    assert d.state.principal_state is PrincipalState.RELEASABLE
    d.release()
    assert d.state.principal_state is PrincipalState.EXECUTION_PENDING
    d.submit_evidence()
    d.deliver()
    assert d.state.phase is Phase.EVALUATION

    d.evaluate("pass")
    d.settle_fee("release")
    d.settle_collateral("unlock", 100)
    assert d.state.phase is Phase.CLOSED
    # merchant: +fee +principal, collateral round-tripped
    assert d.ledger.balance(f"wallet:{MERCHANT}") == 100_000 + 200 + 1000
    assert d.ledger.balance(f"wallet:{HUMAN}") == 100_000 - 200 - 20 - 1000
    assert d.ledger.balance(f"escrow:{d.job_id}") == 0
    assert d.ledger.balance(f"collateral:{d.job_id}") == 0


def test_covered_failure_makes_user_whole():
    d = Driver()
    d.run_covered_fail_path()
    assert d.state.phase is Phase.CLOSED
    assert d.state.slash_amount == 100
    assert d.state.payout_amount == 900
    # fee refunded, premium spent, principal recovered via slash + payout
    assert d.ledger.balance(f"wallet:{HUMAN}") == 100_000 - 20
    # merchant kept the released principal but lost the collateral
    assert d.ledger.balance(f"wallet:{MERCHANT}") == 100_000 + 1000 - 100
    assert d.ledger.balance(f"treasury:{UW}") == 20 - 900


def test_fee_only_job_skips_the_principal_track():
    d = Driver(agreement=build_agreement(principal=None))
    d.to_transaction()
    assert d.state.principal_state is None
    d.lock_fee()
    d.deliver()
    assert d.state.phase is Phase.EVALUATION
    d.evaluate("pass")
    d.settle_fee("release")
    assert d.state.phase is Phase.CLOSED
    assert d.ledger.balance(f"wallet:{MERCHANT}") == 100_200


# -- transition table conformance ---------------------------------------------


def _unborn():
    return Driver()


def _request():
    d = Driver()
    d.submit_request()
    return d


def _negotiation_bare():
    return Driver().to_negotiation()


def _negotiation_draft():
    d = Driver().to_negotiation()
    d.propose()
    return d


def _txn_await_uwawait():
    return Driver().to_transaction()


def _txn_locked_review():
    d = Driver().to_transaction()
    d.lock_fee()
    d.request_uw()
    return d


def _txn_locked_premium():
    d = _txn_locked_review()
    d.uw_decide("approve")
    return d


def _txn_locked_collateral():
    d = _txn_locked_premium()
    d.pay_premium()
    return d


def _txn_locked_override():
    d = _txn_locked_collateral()
    d.refuse_collateral()
    return d


def _txn_locked_approval():
    # unsigned underwriter decision keeps the signature set empty, so the
    # track parks in APPROVAL_PENDING instead of advancing
    d = Driver().to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve", signed=False)
    d.pay_premium()
    d.lock_collateral()
    assert d.state.principal_state is PrincipalState.APPROVAL_PENDING
    return d


def _txn_locked_releasable():
    d = _txn_locked_collateral()
    d.lock_collateral()
    assert d.state.principal_state is PrincipalState.RELEASABLE
    return d


def _txn_locked_execution():
    d = _txn_locked_releasable()
    d.release()
    return d


def _txn_delivered_execution():
    d = _txn_locked_execution()
    d.deliver()
    assert d.state.phase is Phase.TRANSACTION
    return d


def _txn_feeonly_await():
    return Driver(agreement=build_agreement(principal=None)).to_transaction()


def _txn_feeonly_locked():
    d = _txn_feeonly_await()
    d.lock_fee()
    return d


def _evaluation_fresh():
    return Driver().to_evaluation()


def _evaluation_pass():
    d = Driver().to_evaluation()
    d.evaluate("pass")
    return d


def _evaluation_fail_covered():
    d = Driver().to_evaluation()
    d.evaluate("fail")
    return d


def _evaluation_claim_paid_pending():
    d = _evaluation_fail_covered()
    d.settle_fee("refund")
    d.file_claim()
    d.settle_collateral("slash", 100)
    assert d.state.phase is Phase.EVALUATION
    return d


def _cancelled():
    d = Driver()
    d.submit_request()
    d.accept()
    d.cancel(HUMAN)
    return d


def _cancelled_unwound():
    d = _cancelled()
    d.unwind()
    return d


def _closed():
    return Driver().run_pass_path()


# expected enabled kinds per compound state, written out from the
# transition tables rather than derived from the implementation
TABLE = [
    ("unborn", _unborn, {K.SUBMIT_REQUEST}),
    ("request", _request, {K.ACCEPT_REQUEST, K.REJECT_REQUEST, K.CANCEL_JOB}),
    ("negotiation/bare", _negotiation_bare, {K.PROPOSE_AGREEMENT, K.CANCEL_JOB}),
    ("negotiation/draft", _negotiation_draft, {K.PROPOSE_AGREEMENT, K.SIGN_AGREEMENT, K.CANCEL_JOB}),
    ("txn/await+uw_await", _txn_await_uwawait, {K.LOCK_FEE_ESCROW, K.REQUEST_UW, K.CANCEL_JOB}),
    ("txn/locked+review", _txn_locked_review, {K.SUBMIT_DELIVERABLE, K.UW_DECISION, K.CANCEL_JOB}),
    ("txn/locked+premium", _txn_locked_premium, {K.SUBMIT_DELIVERABLE, K.PAY_PREMIUM, K.CANCEL_JOB}),
    (
        "txn/locked+collateral",
        _txn_locked_collateral,
        {K.SUBMIT_DELIVERABLE, K.LOCK_COLLATERAL, K.REFUSE_COLLATERAL, K.CANCEL_JOB},
    ),
    ("txn/locked+override", _txn_locked_override, {K.SUBMIT_DELIVERABLE, K.OVERRIDE_DECISION, K.CANCEL_JOB}),
    ("txn/locked+approval", _txn_locked_approval, {K.SUBMIT_DELIVERABLE, K.APPROVE_RELEASE, K.CANCEL_JOB}),
    ("txn/locked+releasable", _txn_locked_releasable, {K.SUBMIT_DELIVERABLE, K.RELEASE_PRINCIPAL, K.CANCEL_JOB}),
    ("txn/locked+execution", _txn_locked_execution, {K.SUBMIT_DELIVERABLE, K.SUBMIT_EXECUTION_EVIDENCE}),
    ("txn/delivered+execution", _txn_delivered_execution, {K.SUBMIT_EXECUTION_EVIDENCE}),
    ("txn/fee-only await", _txn_feeonly_await, {K.LOCK_FEE_ESCROW, K.CANCEL_JOB}),
    ("txn/fee-only locked", _txn_feeonly_locked, {K.SUBMIT_DELIVERABLE, K.CANCEL_JOB}),
    ("evaluation/fresh", _evaluation_fresh, {K.EVALUATE_OUTCOME}),
    ("evaluation/pass", _evaluation_pass, {K.SETTLE_FEE_ESCROW, K.SETTLE_COLLATERAL}),
    (
        "evaluation/fail-covered",
        _evaluation_fail_covered,
        {K.SETTLE_FEE_ESCROW, K.SETTLE_COLLATERAL, K.FILE_CLAIM},
    ),
    ("evaluation/claim-payable", _evaluation_claim_paid_pending, {K.PAY_CLAIM}),
    ("cancelled", _cancelled, {K.UNWIND_PRE_EXECUTION}),
    ("cancelled/unwound", _cancelled_unwound, set()),
    ("closed", _closed, set()),
]


def _attempt(d: Driver, kind: ActionKind):
    """Apply one well-formed action of the given kind with its natural sender."""
    state = d.state
    posted = state.posted_amount
    if kind is K.SUBMIT_REQUEST:
        return d.submit_request()
    if kind is K.ACCEPT_REQUEST:
        return d.accept()
    if kind is K.REJECT_REQUEST:
        return d.reject()
    if kind is K.PROPOSE_AGREEMENT:
        return d.propose()
    if kind is K.SIGN_AGREEMENT:
        return d.sign(MERCHANT if state.provider_signed is False else HUMAN)
    if kind is K.CANCEL_JOB:
        return d.cancel(HUMAN)
    if kind is K.LOCK_FEE_ESCROW:
        return d.lock_fee()
    if kind is K.SUBMIT_DELIVERABLE:
        return d.deliver()
    if kind is K.SETTLE_FEE_ESCROW:
        return d.settle_fee("refund" if state.outcome == "fail" else "release")
    if kind is K.REQUEST_UW:
        return d.request_uw()
    if kind is K.UW_DECISION:
        return d.uw_decide("approve")
    if kind is K.PAY_PREMIUM:
        return d.pay_premium()
    if kind is K.LOCK_COLLATERAL:
        return d.lock_collateral()
    if kind is K.REFUSE_COLLATERAL:
        return d.refuse_collateral()
    if kind is K.OVERRIDE_DECISION:
        return d.override("proceed")
    if kind is K.APPROVE_RELEASE:
        return d.approve_release(HUMAN)
    if kind is K.RELEASE_PRINCIPAL:
        return d.release()
    if kind is K.SUBMIT_EXECUTION_EVIDENCE:
        return d.submit_evidence()
    if kind is K.UNWIND_PRE_EXECUTION:
        return d.unwind()
    if kind is K.EVALUATE_OUTCOME:
        return d.evaluate("pass")
    if kind is K.SETTLE_COLLATERAL:
        if state.outcome == "fail" and state.claim is not None:
            return d.settle_collateral("slash", min(posted, state.claim[1]))
        if state.outcome == "fail":
            # no claim on file: unlocking is only valid once the window lapses
            return d.settle_collateral("unlock", posted, now=state.agreement.deadlines.claim + 1)
        return d.settle_collateral("unlock", posted)
    if kind is K.FILE_CLAIM:
        return d.file_claim()
    if kind is K.PAY_CLAIM:
        loss = state.claim[1] if state.claim else 0
        limit = state.agreement.coverage_limit if state.agreement else 0
        return d.pay_claim(min(loss - state.slash_amount, limit) if state.claim else 0)
    raise AssertionError(f"unhandled kind {kind}")


def test_transition_table_conformance():
    for name, builder, expected in TABLE:
        reference = builder()
        assert enabled_actions(reference.state) == expected, name
        for kind in ActionKind:
            d = builder()
            if kind in expected:
                _attempt(d, kind)  # must be accepted
            else:
                with pytest.raises((NotEnabled, WrongSender)):
                    _attempt(d, kind)


def test_enabled_kinds_reject_wrong_role_senders():
    for name, builder, expected in TABLE:
        for kind in expected:
            d = builder()
            # the evaluator may only evaluate; everyone else is wrong for
            # everything else
            wrong = MERCHANT if kind is K.EVALUATE_OUTCOME else EVALUATOR
            with pytest.raises(WrongSender):
                d.act(kind, wrong, _payload_for(d, kind), signed=True)


def _payload_for(d: Driver, kind: ActionKind) -> dict:
    state = d.state
    base = {"job_id": d.job_id, "agreement_hash": d.current_hash()}
    extras = {
        K.SUBMIT_REQUEST: {"task_spec": "t", "fee_terms": {"amount": 0, "custody": "escrow"}},
        K.ACCEPT_REQUEST: {"decision": "accept"},
        K.REJECT_REQUEST: {"decision": "reject"},
        K.PROPOSE_AGREEMENT: {"agreement_draft": d.agreement.to_dict()},
        K.SIGN_AGREEMENT: {},
        K.CANCEL_JOB: {"reason": "r"},
        K.LOCK_FEE_ESCROW: {"lock_ref": "x.lock"},
        K.SUBMIT_DELIVERABLE: {"deliverable_ref": "x.d"},
        K.SETTLE_FEE_ESCROW: {"disposition": "release", "settlement_ref": "x.fs"},
        K.REQUEST_UW: {"coverage_request": {}},
        K.UW_DECISION: {"decision": "approve", "premium": 20},
        K.PAY_PREMIUM: {"premium": 20, "premium_ref": "x.p"},
        K.LOCK_COLLATERAL: {"amount": 100, "collateral_ref": "x.c"},
        K.REFUSE_COLLATERAL: {},
        K.OVERRIDE_DECISION: {"decision": "proceed"},
        K.APPROVE_RELEASE: {},
        K.RELEASE_PRINCIPAL: {"approvals": [], "transfer_ref": "x.t"},
        K.SUBMIT_EXECUTION_EVIDENCE: {"exec_evidence_ref": "x.e"},
        K.UNWIND_PRE_EXECUTION: {},
        K.EVALUATE_OUTCOME: {"outcome": "pass"},
        K.SETTLE_COLLATERAL: {"disposition": "unlock", "amount": state.posted_amount, "settlement_ref": "x.cs"},
        K.FILE_CLAIM: {"trigger": "execution_failure", "claimed_loss": 0, "evidence_ref": "x.ev"},
        K.PAY_CLAIM: {"payout": 0, "payout_ref": "x.po"},
    }
    payload = dict(base)
    if kind is K.SUBMIT_REQUEST:
        payload.pop("agreement_hash")
    if kind in (K.ACCEPT_REQUEST, K.REJECT_REQUEST, K.PROPOSE_AGREEMENT):
        payload.pop("agreement_hash")
    payload.update(extras[kind])
    return payload


# -- validation order ----------------------------------------------------------


def test_submit_request_on_born_job_is_not_enabled():
    d = Driver()
    d.submit_request()
    with pytest.raises(NotEnabled):
        d.submit_request()


def test_unknown_payload_field_beats_enablement():
    d = Driver()  # unborn: PayPremium is not enabled, but shape fails first
    with pytest.raises(PolicyViolation, match="missing payload fields"):
        d.act(K.PAY_PREMIUM, HUMAN, {"job_id": d.job_id}, signed=True)


@pytest.mark.parametrize("payload", [5, "job-7", [["job_id", "job-7"]], None])
def test_non_object_payload_is_a_policy_violation(payload):
    d = Driver()
    d.submit_request()
    state = d.state
    before = dict(state.__dict__)
    action = Action(kind=K.ACCEPT_REQUEST, sender=PartyRef(MERCHANT, Role.BUSINESS_AGENT), payload=payload)
    with pytest.raises(PolicyViolation, match="payload must be an object"):
        d.machine.apply(state, action, d.t)
    assert state.__dict__ == before


def test_wrong_sender_beats_bad_binding():
    d = Driver()
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    # merchant cannot pay the premium; the bogus signature is not even read
    with pytest.raises(WrongSender):
        d.act(
            K.PAY_PREMIUM,
            MERCHANT,
            {"job_id": d.job_id, "agreement_hash": d.current_hash(), "premium": 20, "premium_ref": "r"},
            signature="junk",
        )


def test_bad_binding_beats_deadline():
    d = Driver()
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    bogus = "0" * 64
    with pytest.raises(BadBinding):
        d.act(
            K.PAY_PREMIUM,
            HUMAN,
            {"job_id": d.job_id, "agreement_hash": bogus, "premium": 20, "premium_ref": "r"},
            signed=True,
            now=500,  # also past the deadline; binding is checked first
        )


def test_hash_mismatch_and_forged_tokens_rejected():
    d = Driver()
    d.to_transaction()
    with pytest.raises(BadBinding):
        d.act(
            K.LOCK_FEE_ESCROW,
            HUMAN,
            {"job_id": d.job_id, "agreement_hash": "f" * 64, "lock_ref": "r"},
            signed=True,
        )
    # valid hash, token minted by the wrong party
    with pytest.raises(BadBinding):
        d.act(
            K.LOCK_FEE_ESCROW,
            HUMAN,
            {"job_id": d.job_id, "agreement_hash": d.current_hash(), "lock_ref": "r"},
            signature=d.keyring.sign(MERCHANT, d.job_id, d.current_hash()),
        )
    with pytest.raises(PolicyViolation, match="signature required"):
        d.act(
            K.LOCK_FEE_ESCROW,
            HUMAN,
            {"job_id": d.job_id, "agreement_hash": d.current_hash(), "lock_ref": "r"},
        )


def test_timestamps_must_not_regress():
    d = Driver()
    d.submit_request()
    d.act(K.ACCEPT_REQUEST, MERCHANT, {"job_id": d.job_id, "decision": "accept"}, now=50)
    with pytest.raises(PolicyViolation, match="non-decreasing"):
        d.act(
            K.PROPOSE_AGREEMENT,
            MERCHANT,
            {"job_id": d.job_id, "agreement_draft": d.agreement.to_dict()},
            now=49,
        )


# -- negotiation ---------------------------------------------------------------


def test_duplicate_sign_is_idempotent_and_reproposal_resets():
    d = Driver().to_negotiation()
    d.propose()
    d.sign(HUMAN)
    d.sign(HUMAN)  # accepted no-op
    assert d.state.requestor_signed and not d.state.provider_signed
    assert d.state.phase is Phase.NEGOTIATION
    # a new draft voids the collected signature
    other = build_agreement(job_id=d.job_id, fee=300)
    d.propose(draft=other)
    assert not d.state.requestor_signed
    d.sign(HUMAN)
    d.sign(MERCHANT)
    assert d.state.phase is Phase.TRANSACTION
    assert d.state.agreement.fee_terms.amount == 300


def test_sign_against_stale_draft_hash_is_rejected():
    d = Driver().to_negotiation()
    d.propose()
    stale = d.current_hash()
    d.propose(draft=build_agreement(job_id=d.job_id, fee=300))
    with pytest.raises(BadBinding):
        d.act(K.SIGN_AGREEMENT, HUMAN, {"job_id": d.job_id, "agreement_hash": stale})


def test_signers_are_told_apart_by_seat_when_their_ids_match():
    # one party id holds both seats: the requestor's and the provider's
    d = Driver()
    d.submit_request()
    d.act(K.ACCEPT_REQUEST, HUMAN, {"job_id": d.job_id, "decision": "accept"}, role=Role.BUSINESS_AGENT)
    d.propose(sender=HUMAN)
    d.act(K.SIGN_AGREEMENT, HUMAN, d.payload(), role=Role.HUMAN_REQUESTOR)
    assert d.state.requestor_signed and not d.state.provider_signed
    d.act(K.SIGN_AGREEMENT, HUMAN, d.payload(), role=Role.BUSINESS_AGENT)
    assert d.state.phase is Phase.TRANSACTION


def test_negotiation_logs_the_draft_hash_before_any_agreement_is_bound():
    d = Driver().to_negotiation()
    d.propose()
    d.sign(HUMAN)
    assert d.state.phase is Phase.NEGOTIATION
    assert d.state.agreement_hash is None and d.state.draft_hash is not None
    assert d.state.log[-1]["agreement_hash"] == d.state.draft_hash
    d.sign(MERCHANT)
    assert d.state.agreement_hash == d.state.draft_hash == d.state.log[-1]["agreement_hash"]


def test_draft_for_other_job_rejected():
    d = Driver().to_negotiation()
    with pytest.raises(PolicyViolation):
        d.propose(draft=build_agreement(job_id="job-8"))


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"fee_terms": {"amount": 2**64, "custody": "escrow"}}, "u64 field out of range"),
        ({"task_spec": "\ud800"}, "surrogates not allowed"),
    ],
    ids=["fee-2^64", "lone-surrogate"],
)
def test_a_draft_with_no_canonical_hash_is_a_policy_violation(change, reason):
    d = Driver().to_negotiation()
    before = d.state
    payload = {"job_id": d.job_id, "agreement_draft": {**d.agreement.to_dict(), **change}}
    with pytest.raises(PolicyViolation, match=rf"^ProposeAgreement: invalid draft: .*{reason}"):
        d.act(K.PROPOSE_AGREEMENT, MERCHANT, payload)
    assert d.state is before and d.state == before


# -- cancellation windows --------------------------------------------------------


def test_cancel_windows():
    d = Driver()
    d.submit_request()
    d.cancel(HUMAN)  # REQUEST: fine, pre-draft token binds the empty hash
    assert d.state.phase is Phase.CANCELLED

    d = Driver().to_negotiation()
    d.cancel(MERCHANT)
    assert d.state.phase is Phase.CANCELLED

    d = Driver().to_transaction()
    d.lock_fee()
    d.cancel(HUMAN)
    assert d.state.phase is Phase.CANCELLED
    assert d.state.principal_state is PrincipalState.CANCELLED

    # after the deliverable, the fee is owed: no cancellation
    d = Driver().to_transaction()
    d.lock_fee()
    d.deliver()
    with pytest.raises(NotEnabled):
        d.cancel(HUMAN)

    # after release, the principal is out the door: no cancellation
    d = Driver().to_execution_pending()
    with pytest.raises(NotEnabled):
        d.cancel(HUMAN)

    d = Driver().run_pass_path()
    with pytest.raises(NotEnabled):
        d.cancel(HUMAN)


def test_unwind_after_a_fee_lock_records_the_fee_refund():
    d = Driver().to_transaction()
    d.lock_fee()
    d.cancel(HUMAN)
    assert d.state.fee_disposition is None and not d.state.fee_settled
    d.unwind()
    assert d.state.fee_disposition == "refund" and d.state.fee_settled


def test_unwind_before_any_lock_settles_no_fee():
    d = Driver().to_transaction()
    d.cancel(HUMAN)
    d.unwind()
    assert d.state.unwound
    assert d.state.fee_disposition is None and not d.state.fee_settled


def test_unwind_refunds_everything_refundable():
    d = Driver()
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    d.lock_collateral()
    d.cancel(HUMAN)
    d.unwind()
    assert d.ledger.balance(f"wallet:{HUMAN}") == 100_000
    assert d.ledger.balance(f"wallet:{MERCHANT}") == 100_000
    assert d.ledger.balance(f"treasury:{UW}") == 0
    # exactly once
    with pytest.raises(NotEnabled):
        d.unwind()


def test_unwind_honors_non_refundable_premium():
    agreement = build_agreement(refund_policy=PremiumRefundPolicy.NON_REFUNDABLE)
    d = Driver(agreement=agreement)
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    d.cancel(HUMAN)
    d.unwind()
    assert d.ledger.balance(f"treasury:{UW}") == 20
    assert d.ledger.balance(f"wallet:{HUMAN}") == 100_000 - 20


# -- underwriting track ------------------------------------------------------------


def test_uw_reject_with_override_goes_to_override_pending():
    d = Driver().to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("reject")
    assert d.state.principal_state is PrincipalState.OVERRIDE_PENDING
    assert not d.state.premium_paid
    d.override("proceed")
    assert d.state.override_ack and not d.state.premium_paid
    # a rejection carries no underwriter endorsement, so the human must
    # still vote before the principal can move
    assert d.state.principal_state is PrincipalState.APPROVAL_PENDING
    d.approve_release(HUMAN)
    assert d.state.principal_state is PrincipalState.RELEASABLE


def test_uw_reject_without_override_cancels():
    agreement = build_agreement(override_allowed=False)
    d = Driver(agreement=agreement)
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("reject")
    assert d.state.phase is Phase.CANCELLED
    assert d.state.principal_state is PrincipalState.CANCELLED


def test_second_uw_decision_not_enabled_and_other_underwriter_rejected():
    d = Driver().to_transaction()
    d.request_uw()
    d.uw_decide("approve")
    with pytest.raises(NotEnabled):
        d.uw_decide("approve")
    d2 = Driver().to_transaction()
    d2.request_uw()
    with pytest.raises(PolicyViolation):
        d2.uw_decide("maybe")


def test_quoted_amounts_must_match_exactly():
    d = Driver().to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    with pytest.raises(PolicyViolation):
        d.pay_premium(amount=19)
    d.pay_premium()
    with pytest.raises(PolicyViolation):
        d.lock_collateral(amount=99)
    d.lock_collateral()


def test_collateral_demand_cannot_exceed_principal():
    d = Driver().to_transaction()
    d.request_uw()
    with pytest.raises(PolicyViolation):
        d.uw_decide("approve", collateral=1001)


def test_premium_lapse_degrades_to_override():
    d = Driver().to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    with pytest.raises(DeadlineExceeded):
        d.pay_premium(now=150)  # delivery deadline is 100
    # the human may still explicitly proceed uncovered or cancel
    d.override("proceed", now=151)
    assert d.state.override_ack and not d.state.collateral_posted
    assert d.state.principal_state is PrincipalState.RELEASABLE
    assert d.ledger.balance(f"treasury:{UW}") == 0  # nothing was ever paid


def test_override_proceed_refunds_paid_premium_and_voids_coverage():
    d = Driver().to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    assert d.ledger.balance(f"treasury:{UW}") == 20
    d.refuse_collateral()
    d.override("proceed")
    assert d.ledger.balance(f"treasury:{UW}") == 0
    assert d.state.override_ack and not d.state.collateral_posted
    d.release()
    d.submit_evidence()
    d.deliver()
    d.evaluate("fail")
    d.settle_fee("refund")
    # coverage was voided, so no claim can be filed
    with pytest.raises(NotEnabled):
        d.file_claim()
    assert d.state.phase is Phase.CLOSED


def test_override_cancel_cancels():
    d = Driver().to_transaction()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    d.refuse_collateral()
    d.override("cancel")
    assert d.state.phase is Phase.CANCELLED
    d.unwind()
    assert d.ledger.balance(f"treasury:{UW}") == 0


# -- release predicate ---------------------------------------------------------------


def test_release_auth_truth_table():
    H, A, U = Role.HUMAN_REQUESTOR, Role.ASSISTANT_REQUESTOR, Role.UNDERWRITER
    # human-submitted job: assistant clause holds vacuously
    assert release_auth({H}, H) is True
    assert release_auth({U}, H) is True
    assert release_auth(set(), H) is False
    assert release_auth({A}, H) is False
    # assistant-submitted job: assistant signature is mandatory
    assert release_auth({A}, A) is False
    assert release_auth({A, U}, A) is True
    assert release_auth({A, H}, A) is True
    assert release_auth({U}, A) is False
    assert release_auth({H}, A) is False
    assert release_auth({A, H, U}, A) is True


def test_release_requires_authorization_and_coverage_or_override():
    # unsigned underwriter decision: no U token, release must wait for a vote
    d = Driver().to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve", signed=False)
    d.pay_premium()
    d.lock_collateral()
    assert d.state.principal_state is PrincipalState.APPROVAL_PENDING
    assert not release_ready(d.state)
    with pytest.raises(NotEnabled):
        d.release(tokens=[])
    d.approve_release(HUMAN)
    assert d.state.principal_state is PrincipalState.RELEASABLE
    assert release_ready(d.state)
    d.release()


def test_assistant_job_needs_assistant_plus_second_role():
    d = Driver(requestor_role=Role.ASSISTANT_REQUESTOR)
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve", signed=False)
    d.pay_premium()
    d.lock_collateral()
    assert d.state.principal_state is PrincipalState.APPROVAL_PENDING
    d.approve_release(ASSISTANT)
    # assistant alone is never sufficient
    assert d.state.principal_state is PrincipalState.APPROVAL_PENDING
    assert not release_ready(d.state)
    d.approve_release(HUMAN)
    assert d.state.principal_state is PrincipalState.RELEASABLE
    d.release()
    assert d.state.principal_state is PrincipalState.EXECUTION_PENDING


def test_release_with_insufficient_presented_tokens_rejected():
    d = Driver(requestor_role=Role.ASSISTANT_REQUESTOR)
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")  # signed: U on record
    d.pay_premium()
    d.lock_collateral()
    assert d.state.principal_state is PrincipalState.APPROVAL_PENDING  # A missing
    d.approve_release(ASSISTANT)
    assert d.state.principal_state is PrincipalState.RELEASABLE
    # presenting only the assistant's token is not enough even though the
    # full record would authorize the release
    a_token = d.keyring.sign(ASSISTANT, d.job_id, d.current_hash())
    with pytest.raises(PolicyViolation):
        d.release(tokens=[a_token])
    # a token never recorded is a binding failure
    with pytest.raises(BadBinding):
        d.release(tokens=["deadbeef"])
    d.release()


def test_duplicate_approvals_are_idempotent():
    d = Driver().to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve", signed=False)
    d.pay_premium()
    d.lock_collateral()
    d.approve_release(HUMAN)
    before = d.state.approvals
    # RELEASABLE accepts no further approvals; the table is strict
    with pytest.raises(NotEnabled):
        d.approve_release(HUMAN)
    assert d.state.approvals == before


def _sharing_secrets(d: Driver, party: str, with_party: str) -> Driver:
    """``d`` with ``party`` holding ``with_party``'s secret, so both sign the same tokens."""
    keyring = demo_keyring()
    d.keyring = Keyring({pid: keyring.secret(with_party if pid == party else pid) for pid in PARTY_ROLES})
    d.machine = SettlementMachine(d.keyring)
    return d


def test_an_approval_token_on_record_for_another_party_is_refused():
    # the human and the assistant hold one secret: the human's approval carries
    # the assistant's token, and ReleasePrincipal could not tell their roles apart
    d = _sharing_secrets(Driver(requestor_role=Role.ASSISTANT_REQUESTOR), HUMAN, ASSISTANT).to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve", signed=False)
    d.pay_premium()
    d.lock_collateral()
    d.approve_release(ASSISTANT)
    before = d.state
    with pytest.raises(BadBinding, match="ApproveRelease: approval token is already on record"):
        d.approve_release(HUMAN)
    assert d.state is before and len(before.approvals) == 1


def test_a_signed_uw_approval_token_on_record_for_another_party_is_refused():
    # the underwriter's signed approval is its release vote, so its token counts too
    d = _sharing_secrets(Driver(requestor_role=Role.ASSISTANT_REQUESTOR), HUMAN, UW).to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    d.lock_collateral()
    assert d.state.principal_state is PrincipalState.APPROVAL_PENDING  # A missing
    with pytest.raises(BadBinding, match="ApproveRelease: approval token is already on record"):
        d.approve_release(HUMAN)
    d.approve_release(ASSISTANT)
    d.release()
    assert d.state.principal_state is PrincipalState.EXECUTION_PENDING
    # the other order: a token on record before a signed UWDecision carries it
    d = _sharing_secrets(Driver(), UW, HUMAN).to_transaction()
    d.lock_fee()
    d.request_uw()
    token = d.keyring.sign(HUMAN, d.job_id, d.current_hash())
    d.state = _evolve(d.state, {"approvals": frozenset({(Role.HUMAN_REQUESTOR.value, HUMAN, token)})})
    with pytest.raises(BadBinding, match="UWDecision: approval token is already on record"):
        d.uw_decide("approve")
    d.uw_decide("approve", signed=False)


# -- evaluation and settlement ----------------------------------------------------


def test_fee_settlement_is_outcome_conditional_and_single_shot():
    d = Driver().to_evaluation()
    with pytest.raises(NotEnabled):
        d.settle_fee("release")  # no outcome yet
    d.evaluate("pass")
    with pytest.raises(PolicyViolation):
        d.settle_fee("refund")  # disposition contradicts the outcome
    d.settle_fee("release")
    with pytest.raises(NotEnabled):
        d.settle_fee("release")  # escrow already settled


def test_evaluation_is_single_shot():
    d = Driver().to_evaluation()
    d.evaluate("pass")
    with pytest.raises(NotEnabled):
        d.evaluate("fail")


def test_claim_window_and_late_unlock():
    d = Driver().to_evaluation()
    d.evaluate("fail")
    d.settle_fee("refund")
    with pytest.raises(DeadlineExceeded):
        d.file_claim(now=250)  # claim deadline is 200
    # collateral cannot unlock while the window is open and no claim exists
    with pytest.raises(PolicyViolation):
        d.settle_collateral("unlock", 100, now=150)
    d.settle_collateral("unlock", 100, now=251)
    assert d.state.phase is Phase.CLOSED


def test_slash_amount_is_pinned_and_remainder_unlocks():
    d = Driver(collateral=300)
    d.to_evaluation()
    d.evaluate("fail")
    d.settle_fee("refund")
    d.file_claim(loss=250)
    with pytest.raises(PolicyViolation):
        d.settle_collateral("slash", 300)  # must equal min(posted, loss)
    d.settle_collateral("slash", 250)
    # remainder went back to the merchant within the same settlement
    assert d.ledger.balance(f"collateral:{d.job_id}") == 0
    assert d.ledger.balance(f"wallet:{MERCHANT}") == 100_000 + 1000 - 250
    assert d.state.phase is Phase.CLOSED  # loss fully recovered, no payout due


def test_claim_payout_amount_is_pinned():
    d = Driver().to_evaluation()
    d.evaluate("fail")
    d.settle_fee("refund")
    d.file_claim()
    d.settle_collateral("slash", 100)
    with pytest.raises(PolicyViolation):
        d.pay_claim(901)
    d.pay_claim(900)
    assert d.state.phase is Phase.CLOSED


def test_no_slash_policy_unlocks_fully_and_pays_limit():
    agreement = build_agreement(collateral_policy=CollateralPolicy.NO_SLASH)
    d = Driver(agreement=agreement)
    d.to_evaluation()
    d.evaluate("fail")
    d.settle_fee("refund")
    d.file_claim()
    with pytest.raises(PolicyViolation):
        d.settle_collateral("slash", 100)
    d.settle_collateral("unlock", 100)
    d.pay_claim(1000)
    assert d.state.phase is Phase.CLOSED
    assert d.ledger.balance(f"wallet:{MERCHANT}") == 100_000 + 1000


def test_zero_amount_actions_emit_no_instructions():
    agreement = build_agreement(fee=0)
    d = Driver(agreement=agreement, premium=0, collateral=0)
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    d.lock_collateral()
    assert d.state.principal_state is PrincipalState.RELEASABLE
    assert d.receipts == []  # nothing has moved yet
    d.release()
    assert len(d.receipts) == 1  # only the principal transfer


@pytest.mark.parametrize("kind", list(InstructionKind))
def test_each_instruction_kind_moves_between_its_table_accounts_or_nothing(kind):
    d = Driver().to_transaction()
    d.request_uw()
    d.uw_decide()  # every party of a fund-involving job is now bound
    assert kind in _ACCOUNTS
    (instruction,) = _move(d.state, kind, 1, "ref-1")
    assert (instruction.kind, instruction.job_id, instruction.agreement_hash) == (kind, d.job_id, d.agreement_hash)
    assert (instruction.amount, instruction.ref) == (1, "ref-1")
    # LedgerInstruction checked the endpoint prefixes; the accounts are ones the job's ledger opened
    source_prefix, dest_prefix = _ENDPOINT_RULES[kind]
    assert instruction.source.startswith(source_prefix) and instruction.dest.startswith(dest_prefix)
    assert {instruction.source, instruction.dest} <= d.ledger.balances().keys()
    assert _move(d.state, kind, 0, "ref-0") == ()


def test_zero_collateral_covered_failure_pays_full_claim():
    agreement = build_agreement(fee=0)
    d = Driver(agreement=agreement, premium=0, collateral=0)
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    d.lock_collateral()
    d.release()
    d.submit_evidence()
    d.deliver()
    d.evaluate("fail")
    d.settle_fee("refund")
    d.file_claim()
    d.pay_claim(1000)  # no collateral stage needed
    assert d.state.phase is Phase.CLOSED
    assert d.ledger.balance(f"treasury:{UW}") == -1000  # book takes the hit
    assert d.ledger.balance(f"wallet:{HUMAN}") == 100_000


# -- terminality ------------------------------------------------------------------


def test_closed_accepts_nothing():
    d = Driver().run_pass_path()
    assert d.state.phase is Phase.CLOSED
    for kind in ActionKind:
        fresh = Driver().run_pass_path()
        with pytest.raises(TransitionError):
            _attempt(fresh, kind)


def test_cancelled_accepts_only_one_unwind():
    d = Driver()
    d.submit_request()
    d.accept()
    d.cancel(HUMAN)
    for kind in ActionKind:
        if kind is K.UNWIND_PRE_EXECUTION:
            continue
        fresh = Driver()
        fresh.submit_request()
        fresh.accept()
        fresh.cancel(HUMAN)
        with pytest.raises(TransitionError):
            _attempt(fresh, kind)
    d.unwind()
    with pytest.raises(NotEnabled):
        d.unwind()


def test_unwind_after_drafted_negotiation_cancel_binds_to_no_agreement():
    d = Driver().to_negotiation()
    d.propose()
    d.cancel(HUMAN)  # binds to the draft on the table
    assert d.state.agreement_hash is None and d.state.draft_hash is not None
    d.unwind()  # binds to the bound agreement, of which there is none
    assert d.state.phase is Phase.CANCELLED
    assert d.state.log[-1]["payload"]["agreement_hash"] is None
    with pytest.raises(NotEnabled):
        d.unwind()


# -- determinism and replay ----------------------------------------------------------


@pytest.mark.parametrize("path", ["pass", "fail", "cancel"])
def test_event_log_replay_reproduces_state(path):
    d = Driver()
    if path == "pass":
        d.run_pass_path()
    elif path == "fail":
        d.run_covered_fail_path()
    else:
        d.to_transaction()
        d.lock_fee()
        d.cancel(HUMAN)
        d.unwind()
    machine = SettlementMachine(demo_keyring())
    rebuilt = replay(machine, list(d.state.log))
    assert rebuilt == d.state
    original = [json.dumps(e, separators=(",", ":")) for e in d.state.log]
    replayed = [json.dumps(e, separators=(",", ":")) for e in rebuilt.log]
    assert original == replayed


def _drop(field):
    def corrupt(events):
        del events[1][field]

    return corrupt


def _set(**fields_):
    def corrupt(events):
        events[1].update(fields_)

    return corrupt


def _replace_record(events):
    events[1] = ["not", "an", "object"]


@pytest.mark.parametrize(
    "corrupt",
    [_drop("actor"), _drop("ts"), _set(actor=[HUMAN]), _set(kind="TeleportFunds"), _replace_record],
    ids=["no-actor", "no-ts", "actor-not-object", "unknown-kind", "not-an-object"],
)
def test_replay_malformed_record_is_a_policy_violation(corrupt):
    d = Driver().to_negotiation()
    events = [dict(event) for event in d.state.log]
    corrupt(events)
    with pytest.raises(PolicyViolation, match="^malformed event 1: "):
        replay(SettlementMachine(demo_keyring()), events)


def test_replay_first_record_without_job_id_is_a_policy_violation():
    with pytest.raises(PolicyViolation, match="^malformed event 0: "):
        replay(SettlementMachine(demo_keyring()), [{"kind": "SubmitRequest"}])


# -- one copy per step ---------------------------------------------------------------


class _CopyCheckingMachine(SettlementMachine):
    """Checks every step: the input state is never written, whether the step is
    accepted or, applied once more to its own result, rejected."""

    def __init__(self, keyring):
        super().__init__(keyring)
        self.accepted = self.rejected = 0

    def apply(self, state, action, now):
        before = dict(state.__dict__)
        result = super().apply(state, action, now)
        assert state.__dict__ == before
        self.accepted += 1

        new = result.state
        assert new.__dict__.keys() == {f.name for f in fields(JobState)}
        with pytest.raises(FrozenInstanceError):
            new.phase = None
        after = dict(new.__dict__)
        try:
            super().apply(new, action, now)
        except TransitionError:
            self.rejected += 1
        assert new.__dict__ == after
        return result


def _override_path(d):
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    d.refuse_collateral()
    d.override("proceed")
    d.release()
    d.submit_evidence()
    d.deliver()
    d.evaluate("fail")
    d.settle_fee("refund")


def _unwind_path(d):
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    d.lock_collateral()
    d.cancel(HUMAN)
    d.unwind()


@pytest.mark.parametrize(
    "script",
    [Driver.run_pass_path, Driver.run_covered_fail_path, _override_path, _unwind_path],
    ids=["happy-path", "covered-fail", "override", "unwind"],
)
def test_apply_never_writes_its_input_state(script):
    d = Driver()
    d.machine = _CopyCheckingMachine(d.keyring)
    script(d)
    assert d.state.phase in (Phase.CLOSED, Phase.CANCELLED)
    assert d.machine.accepted == d.state.seq
    assert d.machine.rejected > 0


def test_evolve_rejects_unknown_fields():
    state = new_job("job-7")
    with pytest.raises(TypeError, match="no_such_field"):
        _evolve(state, {"phase": Phase.REQUEST, "no_such_field": 1})
    assert _evolve(state, {"slash_amount": 3}) == JobState(job_id="job-7", slash_amount=3)


@pytest.mark.parametrize(
    "name", ["seq", "last_ts", "agreement_hash", "fee_settled", "uw_approved", "agreement", "posted_amount", "payout_amount"]
)
def test_evolve_rejects_derived_fields(name):
    with pytest.raises(TypeError, match=name):
        _evolve(new_job("job-7"), {name: 1})


def test_every_action_kind_has_one_handler_and_no_handler_is_orphaned():
    handlers = {name for name in vars(SettlementMachine) if name.startswith("_h_")}
    assert handlers == {f"_h_{kind.name.lower()}" for kind in ActionKind}


# -- the per-kind spec table -------------------------------------------------------


@pytest.mark.parametrize(
    "builder,kind,field,value",
    [
        (_txn_locked_releasable, K.RELEASE_PRINCIPAL, "approvals", [[1]]),
        (_txn_locked_releasable, K.RELEASE_PRINCIPAL, "approvals", [{"a": 1}]),
        (_txn_locked_releasable, K.RELEASE_PRINCIPAL, "transfer_ref", 7),
        (_txn_await_uwawait, K.LOCK_FEE_ESCROW, "lock_ref", ""),
    ],
    ids=["approval-list", "approval-object", "int-transfer-ref", "empty-lock-ref"],
)
def test_bad_payload_values_are_policy_violations(builder, kind, field, value):
    d = builder()
    state = d.state
    if kind is K.RELEASE_PRINCIPAL:
        tokens = [token for _role, _pid, token in sorted(state.approvals)]
        payload = _payload_for(d, kind) | {"approvals": tokens}
        sender, signature = PartyRef(SETTLEMENT, Role.SETTLEMENT), None
    else:
        payload = _payload_for(d, kind)
        sender, signature = PartyRef(HUMAN, Role.HUMAN_REQUESTOR), d.token(HUMAN)
    action = Action(kind=kind, sender=sender, payload={**payload, field: value}, signature=signature)
    before = dict(state.__dict__)
    assert kind in enabled_actions(state)
    with pytest.raises(PolicyViolation, match=field):
        d.machine.apply(state, action, d.t)
    assert state.__dict__ == before


_ODD_TERMS = {
    "fee-object": ("fee_terms must be an object", lambda a, t: {**t, "fee_terms": a.fee_terms}),
    "principal-object": ("principal_terms must be an object", lambda a, t: {**t, "principal_terms": a.principal_terms}),
    "fee-unknown-key": (
        r"unknown fee_terms fields: \['memo'\]",
        lambda a, t: {**t, "fee_terms": {**t["fee_terms"], "memo": "rush"}},
    ),
    "principal-unknown-key": (
        r"unknown principal_terms fields: \['memo'\]",
        lambda a, t: {**t, "principal_terms": {**t["principal_terms"], "memo": "rush"}},
    ),
}


@pytest.mark.parametrize(
    "kind, case",
    [(K.SUBMIT_REQUEST, case) for case in _ODD_TERMS]
    + [(K.PROPOSE_AGREEMENT, case) for case in _ODD_TERMS]
    + [(K.PROPOSE_AGREEMENT, "agreement-object")],
)
def test_payload_terms_are_json_objects_with_known_keys(kind, case):
    d = Driver()
    if kind is K.PROPOSE_AGREEMENT:
        d.submit_request()
        d.accept()
    agreement = d.agreement
    if case == "agreement-object":
        message, terms = "agreement must be an object", agreement
    else:
        message, change = _ODD_TERMS[case]
        terms = change(agreement, agreement.to_dict())
    if kind is K.SUBMIT_REQUEST:
        payload = {"job_id": d.job_id, "task_spec": agreement.task_spec}
        payload |= {name: terms[name] for name in ("fee_terms", "principal_terms")}
        sender = PartyRef(HUMAN, Role.HUMAN_REQUESTOR)
    else:
        payload = {"job_id": d.job_id, "agreement_draft": terms}
        sender = PartyRef(MERCHANT, Role.BUSINESS_AGENT)
    state = d.state
    before = dict(state.__dict__)
    with pytest.raises(PolicyViolation, match=f"^{kind.value}: .*{message}"):
        d.machine.apply(state, Action(kind=kind, sender=sender, payload=payload), d.t)
    assert state.__dict__ == before


_SENDERS = {
    K.SUBMIT_REQUEST: HUMAN,
    K.UW_DECISION: UW,
    K.PAY_PREMIUM: HUMAN,
    K.LOCK_COLLATERAL: MERCHANT,
    K.SETTLE_COLLATERAL: SETTLEMENT,
    K.FILE_CLAIM: HUMAN,
    K.PAY_CLAIM: SETTLEMENT,
}


def _signed_action(d, kind, overrides):
    """``kind``'s payload from ``_payload_for`` with ``overrides``, signed by its sender."""
    sender = _SENDERS[kind]
    return Action(
        kind=kind,
        sender=PartyRef(sender, PARTY_ROLES[sender]),
        payload={**_payload_for(d, kind), **overrides},
        signature=d.token(sender),
    )


def _quoted(premium):
    def build():
        d = Driver(premium=premium).to_transaction()
        d.lock_fee()
        d.request_uw()
        d.uw_decide("approve")
        return d

    return build


@pytest.mark.parametrize(
    "builder,kind,overrides,claimed_kind",
    [
        (_quoted(20), K.PAY_PREMIUM, {"premium": 20.0}, K.PAY_PREMIUM),
        (_quoted(1), K.PAY_PREMIUM, {"premium": True}, K.PAY_PREMIUM),
        (_txn_locked_collateral, K.LOCK_COLLATERAL, {"amount": 100.0}, K.LOCK_COLLATERAL),
        (_quoted(0), K.PAY_PREMIUM, {"premium": False}, K.PAY_PREMIUM),
        (_unborn, K.SUBMIT_REQUEST, {}, "SubmitRequest"),
        (_unborn, K.SUBMIT_REQUEST, {}, None),
        (_unborn, K.SUBMIT_REQUEST, {}, 3),
        (_unborn, K.SUBMIT_REQUEST, {}, [1]),
    ],
    ids=[
        "float-premium",
        "true-premium",
        "float-collateral",
        "false-premium",
        "str-kind",
        "none-kind",
        "int-kind",
        "list-kind",
    ],
)
def test_bad_amounts_and_kinds_are_policy_violations(builder, kind, overrides, claimed_kind):
    d = builder()
    state = d.state
    assert kind in enabled_actions(state)
    action = replace(_signed_action(d, kind, overrides), kind=claimed_kind)
    before = dict(state.__dict__)
    with pytest.raises(PolicyViolation, match="must be a non-negative integer|unknown action kind"):
        d.machine.apply(state, action, d.t)
    assert state.__dict__ == before


@cache
def _amount_driver(kind):
    """A job in which ``kind``, an action kind with amount fields, is enabled."""
    builders = {
        K.UW_DECISION: _txn_locked_review,
        K.PAY_PREMIUM: _txn_locked_premium,
        K.LOCK_COLLATERAL: _txn_locked_collateral,
        K.SETTLE_COLLATERAL: _evaluation_pass,
        K.FILE_CLAIM: _evaluation_fail_covered,
        K.PAY_CLAIM: _evaluation_claim_paid_pending,
    }
    return builders[kind]()


_AMOUNT_FIELDS = [(kind, name) for kind, spec in ACTION_SPECS.items() for name in spec.amounts]

_JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**6), max_value=10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# a whole float or a bool equal to what these jobs quote or owe (premium 20,
# collateral 100, payout 900) passes an equality check against the int
_NEAR_AMOUNTS = st.sampled_from([0.0, 1.0, 20.0, 100.0, 900.0, True, False])


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(_AMOUNT_FIELDS), value=_NEAR_AMOUNTS | _JSONISH)
@example(field=(K.PAY_PREMIUM, "premium"), value=20.0)
@example(field=(K.LOCK_COLLATERAL, "amount"), value=100.0)
@example(field=(K.PAY_CLAIM, "payout"), value=900.0)
def test_any_amount_value_is_accepted_or_a_transition_error(field, value):
    kind, name = field
    d = _amount_driver(kind)
    state = d.state
    assert kind in enabled_actions(state)
    before = dict(state.__dict__)
    try:
        d.machine.apply(state, _signed_action(d, kind, {name: value}), d.t)
    except TransitionError:
        pass
    assert state.__dict__ == before


def test_action_specs_hold_one_record_per_kind():
    assert list(ACTION_SPECS) == list(ActionKind)
    assert all(isinstance(spec, ActionSpec) for spec in ACTION_SPECS.values())


def _reference_check_sender(state, action):
    """The per-kind if-chain the spec table replaced, kept as the reference."""
    sender = action.sender
    kind = action.kind

    def must_be(*allowed):
        for pid, role in allowed:
            if pid is not None and sender.id == pid and sender.role is role:
                return
        raise WrongSender(f"{kind.value}: sender {sender.id!r}/{sender.role.value} not permitted")

    requestor = (state.requestor_id, state.requestor_role) if state.requestor_id else None
    human = (state.human_id, Role.HUMAN_REQUESTOR) if state.human_id else None
    provider = (state.provider_id, Role.BUSINESS_AGENT) if state.provider_id else None

    if kind is K.SUBMIT_REQUEST:
        if sender.role not in (Role.HUMAN_REQUESTOR, Role.ASSISTANT_REQUESTOR):
            raise WrongSender("SubmitRequest must come from the requestor side")
    elif kind in (K.ACCEPT_REQUEST, K.REJECT_REQUEST):
        if sender.role is not Role.BUSINESS_AGENT:
            raise WrongSender(f"{kind.value} must come from a business agent")
    elif kind in (K.PROPOSE_AGREEMENT, K.SIGN_AGREEMENT):
        must_be(*(p for p in (requestor, provider) if p))
    elif kind is K.CANCEL_JOB:
        must_be(*(p for p in (requestor, human, provider) if p))
    elif kind in (K.LOCK_FEE_ESCROW, K.FILE_CLAIM):
        must_be(*(p for p in (requestor, human) if p))
    elif kind in (
        K.SUBMIT_DELIVERABLE,
        K.REQUEST_UW,
        K.LOCK_COLLATERAL,
        K.REFUSE_COLLATERAL,
        K.SUBMIT_EXECUTION_EVIDENCE,
    ):
        must_be(*(p for p in (provider,) if p))
    elif kind in (K.SETTLE_FEE_ESCROW, K.RELEASE_PRINCIPAL, K.UNWIND_PRE_EXECUTION, K.SETTLE_COLLATERAL):
        if sender.role is not Role.SETTLEMENT:
            raise WrongSender(f"{kind.value} must come from the settlement layer")
    elif kind is K.UW_DECISION:
        if sender.role is not Role.UNDERWRITER:
            raise WrongSender("UWDecision must come from an underwriter")
        if state.underwriter_id is not None and sender.id != state.underwriter_id:
            raise WrongSender("a different underwriter already holds this job")
    elif kind in (K.PAY_PREMIUM, K.OVERRIDE_DECISION):
        must_be(*(p for p in (human,) if p))
    elif kind is K.APPROVE_RELEASE:
        allowed = [human] if human else []
        if state.requestor_role is Role.ASSISTANT_REQUESTOR and requestor:
            allowed.append(requestor)
        must_be(*allowed)
    elif kind is K.EVALUATE_OUTCOME:
        if sender.role is not Role.EVALUATOR:
            raise WrongSender("EvaluateOutcome must come from an evaluator")
    elif kind is K.PAY_CLAIM:
        if sender.role is Role.SETTLEMENT:
            return
        if sender.role is Role.UNDERWRITER and sender.id == state.underwriter_id:
            return
        raise WrongSender("PayClaim must come from the job's underwriter or the settlement layer")


class _RecordingDriver(Driver):
    """Keeps every state an action was applied to."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []

    def act(self, *args, **kwargs):
        self.seen.append(self.state)
        return super().act(*args, **kwargs)


def _assistant_covered_fail(d):
    d.to_transaction()
    d.lock_fee()
    d.request_uw()
    d.uw_decide("approve")
    d.pay_premium()
    d.lock_collateral()
    d.approve_release(ASSISTANT)
    d.release()
    d.submit_evidence()
    d.deliver()
    d.evaluate("fail")
    d.settle_fee("refund")
    d.file_claim()
    d.settle_collateral("slash", 100)
    d.pay_claim(900)


def _negotiation_cancel(d):
    d.to_negotiation()
    d.propose()
    d.cancel(MERCHANT)


def test_table_sender_check_matches_the_if_chain():
    states = [builder().state for _name, builder, _expected in TABLE]
    scripts = [Driver.run_pass_path, Driver.run_covered_fail_path, _override_path, _unwind_path, _negotiation_cancel]
    for role, script in [(Role.HUMAN_REQUESTOR, s) for s in scripts] + [(Role.ASSISTANT_REQUESTOR, _assistant_covered_fail)]:
        d = _RecordingDriver(requestor_role=role)
        script(d)
        states += d.seen + [d.state]

    covered = set()
    for state in states:
        for kind in enabled_actions(state):
            covered.add(kind)
            for party in PARTY_ROLES:
                for role in Role:
                    action = Action(kind=kind, sender=PartyRef(party, role), payload={})
                    try:
                        _reference_check_sender(state, action)
                        expected = "accepted"
                    except WrongSender:
                        expected = "WrongSender"
                    try:
                        SettlementMachine._check_sender(state, action, ACTION_SPECS[kind])
                        got = "accepted"
                    except WrongSender:
                        got = "WrongSender"
                    assert got == expected, (kind, party, role, state.phase, state.principal_state)
    assert covered == set(ActionKind)
