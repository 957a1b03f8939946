"""Exhaustive bounded model check of the settlement machine.

A breadth-first search in the manner of SPIN's and TLC's explicit-state
search (Holzmann; Lamport, *Specifying Systems*) visits every job state
that ``SettlementMachine.apply`` reaches from ``new_job`` over a small
canonical alphabet, and checks every state and every transition it finds.
A state is identified by all its fields but the log, with the last
timestamp kept; the draft enters through its hash and the bound agreement,
which is the draft, through whether it is bound.

The alphabet, one search per agreement configuration (68 of them):

* requestor: human or assistant; fee 0 or 50;
* fee-only, or fund-involving (principal 100) with every combination of
  override allowed or not, premium refundable or not, ``SLASH_UP_TO_LOSS``
  or ``NO_SLASH``, and a coverage limit of 100 or 60;
* underwriter approvals quoting a premium of 20 or 0 and a collateral
  demand of 30 or 0, signed or not, and a rejection;
* claims of 100 and 20, and every slash and payout the claim rule asks for
  under either, with and without the slash;
* every action at the job's last timestamp, at delivery deadline + 1 and
  at claim deadline + 1;
* genuine tokens; and, for every signed kind, a forged token (another
  party's key), a cross-job token, a non-ASCII token, and a genuine token
  over another agreement hash; a payload naming another job;
* drafts with no canonical hash (a fee of 2^64, a lone surrogate) and a
  draft for another job.

Checked in every reachable state, or on every transition into it:

* conservation over a shadow ledger, and custody as the state records it:
  escrow, collateral vault and treasury hold exactly what the state says;
  two paths to one state leave the same balances;
* the principal is released, or releasable, only under ``A and (U or H)``
  with coverage or an override, and never on the assistant alone (an
  independent form of the rule, not ``release_auth``);
* a CLOSED job holds nothing in escrow or in the collateral vault;
* an unwind returns everything refundable;
* no non-terminal state is stuck;
* replay identity: each logged event decodes to the action and timestamp
  applied, on top of the parent's log, and the longest final log of each
  configuration replays to its state;
* totality: nothing but a ``TransitionError`` escapes ``apply``, and a
  rejected action leaves the state equal to itself;
* each rule that ``lifecycle`` now writes once (``_claim_open``,
  ``_collateral_held``, ``_premium_held``, and ``premium_paid`` and
  ``collateral_posted`` read as coverage) equals every form it replaced,
  kept below as reference expressions, and the close decision, the
  evaluation enabled set and the unlock and claim deadlines behave as the
  replaced forms did.

Two reductions keep the search inside the Tier-1 budget; neither skips a
state:

* ``apply`` reads the last timestamp only to refuse an earlier ``now``.
  A state whose fields equal those of a state already expanded with an
  earlier last timestamp has a subset of that state's successors, so it is
  checked (custody, and that it is not stuck) but not expanded again.
* Stages 1-4 of ``apply`` read only the action, the enabled set, the
  seats and the agreement hashes. The actions that must be rejected there
  (every disabled kind, every forged variant) are applied once for each
  distinct combination of those.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product

from surety import (
    Action,
    ActionKind,
    BadBinding,
    CollateralPolicy,
    Deadlines,
    NotEnabled,
    PartyRef,
    Phase,
    PolicyViolation,
    PremiumRefundPolicy,
    PrincipalState,
    Role,
    SettlementMachine,
    TransitionError,
    canonical_hash,
    enabled_actions,
    new_job,
    replay,
)
from surety import lifecycle
from surety.actions import ACTION_SPECS, BindingSubject, SignatureRule
from surety.ledger import InstructionKind, collateral_vault, escrow, treasury, wallet
from surety.lifecycle import decode_event

from conftest import ASSISTANT, EVALUATOR, HUMAN, MERCHANT, SETTLEMENT, UW, build_agreement, demo_keyring

K = ActionKind
JOB, OTHER_JOB = "job-mc", "job-other"
DEADLINES = Deadlines(delivery=100, claim=200, dispute=300)
LATER = (DEADLINES.delivery + 1, DEADLINES.claim + 1)
PRINCIPAL, PREMIUMS, DEMANDS, LOSSES = 100, (20, 0), (30, 0), (100, 20)
ACCOUNTS = (wallet(HUMAN), wallet(MERCHANT), escrow(JOB), collateral_vault(JOB), treasury(UW))
OPENING = (10_000, 10_000, 0, 0, 0)
_HUMAN_WALLET, _MERCHANT_WALLET, _ESCROW, _VAULT, _TREASURY = range(len(ACCOUNTS))
_ACCOUNT_INDEX = {account: i for i, account in enumerate(ACCOUNTS)}

# reachable states over the alphabet above; a change to the machine that
# moves this number changes what some job can do
REACHABLE_STATES = 202_004


def configurations():
    for role, fee in product((Role.HUMAN_REQUESTOR, Role.ASSISTANT_REQUESTOR), (0, 50)):
        yield role, build_agreement(JOB, fee=fee, principal=None, deadlines=DEADLINES)
        for override, refund, policy, limit in product((True, False), PremiumRefundPolicy, CollateralPolicy, (100, 60)):
            yield role, build_agreement(JOB, fee, PRINCIPAL, limit, override, refund, policy, deadlines=DEADLINES)


# -- the forms the merged rules replaced ------------------------------------------


def ref_coverage_bound(s):
    return s.premium_quote is not None and s.premium_paid


def ref_coverage_in_force(s):
    return ref_coverage_bound(s) and s.collateral_posted and not s.override_ack


def ref_collateral_held(s):
    """The three spellings: ``enabled_actions``, ``_closeable``, the unwind handler."""
    return (
        s.fund_involving and s.posted_amount > 0 and not s.collateral_settled,
        s.posted_amount > 0 and not s.collateral_settled,
        s.collateral_posted and not s.collateral_settled and s.posted_amount > 0,
    )


def ref_premium_held(s):
    """The override-proceed and unwind handlers' form (the unwind adds the refund policy)."""
    return bool(s.premium_paid and not s.premium_refunded and s.premium_quote)


def ref_evaluation_flags(s):
    """``enabled_actions`` in EVALUATION once evaluated: SettleFeeEscrow,
    SettleCollateral, FileClaim, PayClaim."""
    fund, posted, claim = s.fund_involving, s.posted_amount, s.claim
    return (
        s.fee_disposition is None,
        fund and posted > 0 and not s.collateral_settled,
        fund and s.outcome == "fail" and ref_coverage_in_force(s) and claim is None,
        fund and claim is not None and not s.claim_paid and (posted == 0 or s.collateral_settled),
    )


def ref_claim_wait(s, now):
    """``_closeable``'s wait for the claim window, for a fund-involving job with no claim."""
    return s.outcome == "fail" and ref_coverage_in_force(s) and now <= s.agreement.deadlines.claim


def ref_unlock_blocked(s, now):
    """``_h_settle_collateral``'s unlock guard."""
    if s.outcome != "fail":
        return False
    no_slash = s.agreement.collateral_policy is CollateralPolicy.NO_SLASH
    window_lapsed = s.claim is None and now > s.agreement.deadlines.claim
    return not (no_slash or window_lapsed)


def ref_closeable(s, now):
    if s.outcome is None or s.fee_disposition is None:
        return False
    if s.fund_involving:
        if s.posted_amount > 0 and not s.collateral_settled:
            return False
        if s.claim is not None:
            if not s.claim_paid and min(s.claim[1] - s.slash_amount, s.agreement.coverage_limit) > 0:
                return False
        elif ref_claim_wait(s, now):
            return False
    return True


def ref_release_ok(s):
    """A and (U or H) over the roles on record, with coverage or an override."""
    roles = {role for role, _party, _token in s.approvals}
    a_ok = s.requestor_role is Role.HUMAN_REQUESTOR or Role.ASSISTANT_REQUESTOR.value in roles
    u_or_h = Role.UNDERWRITER.value in roles or Role.HUMAN_REQUESTOR.value in roles
    return a_ok and u_or_h and (ref_coverage_bound(s) or s.override_ack)


# -- the alphabet ------------------------------------------------------------------


class Alphabet:
    """Every action of one configuration, built once.

    ``genuine[subjects][kind]`` holds the actions of ``kind`` for a state
    whose (draft hash, agreement hash) is ``subjects``; the machine may
    accept or reject each. ``rejected[subjects][kind]`` holds
    (action, error) pairs that must raise that error whenever ``kind`` is
    enabled.
    """

    def __init__(self, role, agreement, keyring):
        self.role = role
        self.agreement = agreement
        self.keyring = keyring
        self.requestor = HUMAN if role is Role.HUMAN_REQUESTOR else ASSISTANT
        self.hash = canonical_hash(agreement)
        self.genuine, self.rejected = {}, {}
        for subjects in ((None, None), (self.hash, None), (self.hash, self.hash)):
            genuine = self._genuine(subjects)
            self.genuine[subjects] = genuine
            self.rejected[subjects] = self._rejected(subjects, genuine)

    def _action(self, subjects, kind, sender, role, signed=True, **fields):
        spec = ACTION_SPECS[kind]
        payload = {"job_id": JOB, **fields}
        subject = None
        if spec.binding is not BindingSubject.NONE:
            subject = subjects[0] if spec.binding is BindingSubject.DRAFT_OR_BOUND else subjects[1]
            payload["agreement_hash"] = subject
        token = None
        if signed and spec.signature is not SignatureRule.NONE:
            token = self.keyring.sign(sender, JOB, subject or "")
        return Action(kind, PartyRef(sender, role), payload, token)

    def _genuine(self, subjects):
        agreement, requestor, role = self.agreement, self.requestor, self.role
        H, A, B = Role.HUMAN_REQUESTOR, Role.ASSISTANT_REQUESTOR, Role.BUSINESS_AGENT
        S, U, E = Role.SETTLEMENT, Role.UNDERWRITER, Role.EVALUATOR

        def act(kind, sender, sender_role, **fields):
            return self._action(subjects, kind, sender, sender_role, **fields)

        request = {"task_spec": agreement.task_spec, "fee_terms": {"amount": agreement.fee_terms.amount, "custody": "escrow"}}
        if agreement.principal_terms is not None:
            request["principal_terms"] = {"amount": PRINCIPAL, "destination": {"id": MERCHANT, "role": B.value}}
        if role is A:
            request["principal"] = HUMAN
        cancellers = [(requestor, role), (MERCHANT, B)] + ([(HUMAN, H)] if role is A else [])
        approvers = [(HUMAN, H)] + ([(ASSISTANT, A)] if role is A else [])
        voters = (UW, HUMAN, ASSISTANT) if role is A else (UW, HUMAN)
        tokens = [self.keyring.sign(party, JOB, subjects[1] or "") for party in voters]
        slashes = {(loss, slash) for loss in LOSSES for slash in (0, min(DEMANDS[0], loss))}
        limit = agreement.coverage_limit
        return {
            K.SUBMIT_REQUEST: [act(K.SUBMIT_REQUEST, requestor, role, **request)],
            K.ACCEPT_REQUEST: [act(K.ACCEPT_REQUEST, MERCHANT, B, decision="accept")],
            K.REJECT_REQUEST: [act(K.REJECT_REQUEST, MERCHANT, B, decision="reject")],
            K.PROPOSE_AGREEMENT: [act(K.PROPOSE_AGREEMENT, MERCHANT, B, agreement_draft=agreement.to_dict())],
            K.SIGN_AGREEMENT: [act(K.SIGN_AGREEMENT, requestor, role), act(K.SIGN_AGREEMENT, MERCHANT, B)],
            K.CANCEL_JOB: [act(K.CANCEL_JOB, party, party_role, reason="r") for party, party_role in cancellers],
            K.LOCK_FEE_ESCROW: [act(K.LOCK_FEE_ESCROW, requestor, role, lock_ref="fee-lock")],
            K.SUBMIT_DELIVERABLE: [act(K.SUBMIT_DELIVERABLE, MERCHANT, B, deliverable_ref="deliverable")],
            K.SETTLE_FEE_ESCROW: [
                act(K.SETTLE_FEE_ESCROW, SETTLEMENT, S, disposition=d, settlement_ref="fee-settle")
                for d in ("release", "refund")
            ],
            K.REQUEST_UW: [act(K.REQUEST_UW, MERCHANT, B, coverage_request={"principal": PRINCIPAL})],
            K.UW_DECISION: [
                act(K.UW_DECISION, UW, U, signed=signed, decision="approve", premium=premium, collateral_required=demand)
                for premium, demand, signed in product(PREMIUMS, DEMANDS, (True, False))
            ]
            + [act(K.UW_DECISION, UW, U, signed=False, decision="reject", premium=0)],
            K.PAY_PREMIUM: [act(K.PAY_PREMIUM, HUMAN, H, premium=p, premium_ref="premium") for p in PREMIUMS],
            K.LOCK_COLLATERAL: [act(K.LOCK_COLLATERAL, MERCHANT, B, amount=d, collateral_ref="collateral") for d in DEMANDS],
            K.REFUSE_COLLATERAL: [act(K.REFUSE_COLLATERAL, MERCHANT, B)],
            K.OVERRIDE_DECISION: [act(K.OVERRIDE_DECISION, HUMAN, H, decision=d) for d in ("proceed", "cancel")],
            K.APPROVE_RELEASE: [act(K.APPROVE_RELEASE, party, party_role) for party, party_role in approvers],
            K.RELEASE_PRINCIPAL: [
                act(K.RELEASE_PRINCIPAL, SETTLEMENT, S, approvals=list(chosen), transfer_ref="transfer")
                for n in range(1, len(tokens) + 1)
                for chosen in combinations(tokens, n)
            ],
            K.SUBMIT_EXECUTION_EVIDENCE: [act(K.SUBMIT_EXECUTION_EVIDENCE, MERCHANT, B, exec_evidence_ref="evidence")],
            K.UNWIND_PRE_EXECUTION: [act(K.UNWIND_PRE_EXECUTION, SETTLEMENT, S)],
            K.EVALUATE_OUTCOME: [act(K.EVALUATE_OUTCOME, EVALUATOR, E, outcome=o) for o in ("pass", "fail")],
            K.SETTLE_COLLATERAL: [
                act(K.SETTLE_COLLATERAL, SETTLEMENT, S, disposition="unlock", amount=DEMANDS[0], settlement_ref="coll")
            ]
            + [
                act(K.SETTLE_COLLATERAL, SETTLEMENT, S, disposition="slash", amount=slash, settlement_ref="coll")
                for slash in sorted({slash for _loss, slash in slashes if slash})
            ],
            K.FILE_CLAIM: [
                act(K.FILE_CLAIM, HUMAN, H, trigger="execution_failure", claimed_loss=loss, evidence_ref="claim")
                for loss in LOSSES
            ],
            K.PAY_CLAIM: [
                act(K.PAY_CLAIM, SETTLEMENT, S, payout=payout, payout_ref="payout")
                for payout in sorted({min(loss - slash, limit) for loss, slash in slashes})
            ],
        }

    def _rejected(self, subjects, genuine):
        rejected = {kind: [] for kind in K}
        for kind, actions in genuine.items():
            spec, action = ACTION_SPECS[kind], actions[0]
            sender, payload = action.sender, action.payload
            subject = payload.get("agreement_hash") or ""
            if spec.signature is not SignatureRule.NONE:
                for token in (
                    self.keyring.sign(EVALUATOR, JOB, subject),
                    self.keyring.sign(sender.id, OTHER_JOB, subject),
                    "é" * 64,
                ):
                    rejected[kind].append((Action(kind, sender, payload, token), BadBinding))
            if spec.binding is not BindingSubject.NONE:
                other = "0" * 64
                token = self.keyring.sign(sender.id, JOB, other) if action.signature else None
                rejected[kind].append((Action(kind, sender, {**payload, "agreement_hash": other}, token), BadBinding))
            rejected[kind].append((Action(kind, sender, {**payload, "job_id": OTHER_JOB}, action.signature), PolicyViolation))
        draft = self.agreement.to_dict()
        for bad in (
            {**draft, "fee_terms": {"amount": 2**64, "custody": "escrow"}},
            {**draft, "task_spec": "\ud800"},
            {**draft, "job_id": OTHER_JOB},
        ):
            proposal = self._action(subjects, K.PROPOSE_AGREEMENT, MERCHANT, Role.BUSINESS_AGENT, agreement_draft=bad)
            rejected[K.PROPOSE_AGREEMENT].append((proposal, PolicyViolation))
        return rejected


# -- the search ---------------------------------------------------------------------

_KEY_FIELDS = tuple(name for name in new_job(JOB).__dict__ if name not in ("log", "draft", "agreement"))


def fields_key(state):
    d = state.__dict__
    return tuple([d[name] for name in _KEY_FIELDS]) + (d["agreement"] is not None,)


def _where(state, action=None, now=None):
    where = f"state {dict((k, v) for k, v in state.__dict__.items() if k != 'log')!r} (last ts {state.last_ts})"
    if action is not None:
        where = f"{action.kind.value} by {action.sender.id} {action.payload!r} at {now} in {where}"
    return where


def _is_terminal(state):
    return state.phase is Phase.CLOSED or (state.phase is Phase.CANCELLED and state.unwound)


class Search:
    """The breadth-first search over one configuration."""

    def __init__(self, role, agreement):
        self.keyring = demo_keyring()
        self.machine = SettlementMachine(self.keyring)
        self.alphabet = Alphabet(role, agreement, self.keyring)
        self.agreement = agreement
        self.fee = agreement.fee_terms.amount
        self.refundable = agreement.premium_refund_policy is PremiumRefundPolicy.REFUNDABLE
        self.calls = 0
        self.longest_final = None

    def run(self) -> int:
        start = new_job(JOB)
        seen = {(fields_key(start), start.last_ts)}
        # fields -> (least last timestamp expanded, balances, the times at which some action was accepted)
        expanded = {}
        groups = set()
        frontier = deque([(start, OPENING)])
        while frontier:
            state, balances = frontier.popleft()
            key, last = fields_key(state), state.last_ts
            twin = expanded.get(key)
            if twin is not None:
                if twin[1] != balances:
                    raise AssertionError(f"custody differs between two paths to {_where(state)}")
                if twin[0] <= last:
                    if not _is_terminal(state) and not any(now >= last for now in twin[2]):
                        raise AssertionError(f"stuck non-terminal {_where(state)}")
                    continue
            self.check_state(state, balances)
            accepted_at = self.expand(state, balances, seen, frontier)
            expanded[key] = (last, balances, accepted_at)
            if _is_terminal(state):
                if self.longest_final is None or state.seq > self.longest_final.seq:
                    self.longest_final = state
            elif not accepted_at:
                raise AssertionError(f"stuck non-terminal {_where(state)}")
            self.check_rejections(state, groups)
        if replay(self.machine, list(self.longest_final.log)) != self.longest_final:
            raise AssertionError(f"replay of the log does not give {_where(self.longest_final)}")
        return len(seen)

    def expand(self, state, balances, seen, frontier) -> set:
        """Apply every genuine action whose kind is enabled, at every time; return the times of acceptance."""
        genuine = self.alphabet.genuine[state.draft_hash, state.agreement_hash]
        first = max(state.last_ts, 0)
        times = (first,) + tuple(t for t in LATER if t > first)
        kinds = enabled_actions(state)
        if state.principal_state is PrincipalState.PREMIUM_PENDING:
            kinds = kinds | {K.OVERRIDE_DECISION}  # past the delivery deadline an unpaid quote escalates
        snapshot = dict(state.__dict__)
        apply = self.machine.apply
        accepted_at = set()
        for kind in kinds:
            for action in genuine[kind]:
                for now in times:
                    self.calls += 1
                    try:
                        result = apply(state, action, now)
                    except TransitionError:
                        self.check_refusal(state, action, now)
                        continue
                    except Exception as exc:
                        raise AssertionError(f"{type(exc).__name__}: {exc} escaped apply: {_where(state, action, now)}")
                    accepted_at.add(now)
                    new = result.state
                    new_balances = self.check_step(state, action, now, new, result.instructions, balances)
                    seen_key = (fields_key(new), now)
                    if seen_key not in seen:
                        seen.add(seen_key)
                        frontier.append((new, new_balances))
        if state.__dict__ != snapshot:
            raise AssertionError(f"apply wrote its input: {_where(state)}")
        return accepted_at

    def check_rejections(self, state, groups):
        """Every disabled kind raises NotEnabled; every must-reject variant of an
        enabled kind raises its error; once per distinct input of stages 1-4."""
        kinds = enabled_actions(state)
        lapse = state.principal_state is PrincipalState.PREMIUM_PENDING
        subjects = (state.draft_hash, state.agreement_hash)
        group = (kinds, lapse, subjects, state.requestor_id, state.provider_id, state.underwriter_id)
        if group in groups:
            return
        groups.add(group)
        first = max(state.last_ts, 0)
        snapshot = dict(state.__dict__)
        for kind in K:
            if kind in kinds:
                for action, error in self.alphabet.rejected[subjects][kind]:
                    self.expect(state, action, first, error)
            elif not (lapse and kind is K.OVERRIDE_DECISION):
                self.expect(state, self.alphabet.genuine[subjects][kind][0], first, NotEnabled)
        if state.__dict__ != snapshot:
            raise AssertionError(f"apply wrote its input: {_where(state)}")

    def expect(self, state, action, now, error):
        self.calls += 1
        try:
            self.machine.apply(state, action, now)
        except error:
            return
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__}: {exc}, not {error.__name__}: {_where(state, action, now)}")
        raise AssertionError(f"accepted, not {error.__name__}: {_where(state, action, now)}")

    def check_refusal(self, state, action, now):
        kind = action.kind
        if kind is K.SETTLE_COLLATERAL and action.payload["disposition"] == "unlock" and not ref_unlock_blocked(state, now):
            raise AssertionError(f"unlock refused where the replaced guard allowed it: {_where(state, action, now)}")
        if kind is K.FILE_CLAIM and now <= DEADLINES.claim:
            raise AssertionError(f"claim refused inside the claim window: {_where(state, action, now)}")

    def check_step(self, state, action, now, new, instructions, balances):
        """Check one accepted transition; return the shadow ledger after it."""
        kind = action.kind
        if new.log[:-1] != state.log or decode_event(state.seq, new.log[-1]) != (action, now):
            raise AssertionError(f"the event does not record the action applied: {_where(state, action, now)}")
        balances = list(balances)
        for instruction in instructions:
            if instruction.job_id != JOB or instruction.agreement_hash != self.alphabet.hash:
                raise AssertionError(f"{instruction} is not bound to the job's agreement: {_where(state, action, now)}")
            if instruction.kind is InstructionKind.TRANSFER_PRINCIPAL and not ref_release_ok(state):
                raise AssertionError(f"principal released without A and (U or H): {_where(state, action, now)}")
            balances[_ACCOUNT_INDEX[instruction.source]] -= instruction.amount
            balances[_ACCOUNT_INDEX[instruction.dest]] += instruction.amount
        balances = tuple(balances)
        if kind is K.SETTLE_COLLATERAL and action.payload["disposition"] == "unlock" and ref_unlock_blocked(state, now):
            raise AssertionError(f"unlock accepted where the replaced guard blocked it: {_where(state, action, now)}")
        if kind is K.FILE_CLAIM and now > DEADLINES.claim:
            raise AssertionError(f"claim accepted after the claim window: {_where(state, action, now)}")
        if kind is K.UNWIND_PRE_EXECUTION:
            kept = balances[_TREASURY]
            if (
                balances[_ESCROW]
                or balances[_VAULT]
                or (kept and self.refundable)
                or balances[_MERCHANT_WALLET] != OPENING[_MERCHANT_WALLET]
                or balances[_HUMAN_WALLET] != OPENING[_HUMAN_WALLET] - kept
            ):
                raise AssertionError(f"unwind kept something refundable: {balances}: {_where(state, action, now)}")
        if new.phase in (Phase.EVALUATION, Phase.CLOSED) and (new.phase is Phase.CLOSED) != ref_closeable(new, now):
            raise AssertionError(f"close decision differs from the replaced one: {_where(state, action, now)}")
        return balances

    def check_state(self, s, balances):
        if s.draft is not None and (s.draft != self.agreement or s.draft_hash != self.alphabet.hash):
            raise AssertionError(f"a draft other than the one proposed: {_where(s)}")
        if s.agreement is not None and s.agreement is not s.draft:
            raise AssertionError(f"the bound agreement is not the draft: {_where(s)}")

        if sum(balances) != sum(OPENING) or min(balances[:_TREASURY]) < 0:
            raise AssertionError(f"value not conserved: {balances}: {_where(s)}")
        escrowed = self.fee if s.fee_locked and s.fee_disposition is None else 0
        vaulted = 0 if s.collateral_settled else s.posted_amount
        premium = s.premium_quote if s.premium_paid and not s.premium_refunded else 0
        if (balances[_ESCROW], balances[_VAULT], balances[_TREASURY]) != (escrowed, vaulted, premium - s.payout_amount):
            raise AssertionError(f"custody does not match the state: {balances}: {_where(s)}")
        if s.phase is Phase.CLOSED and (balances[_ESCROW] or balances[_VAULT]):
            raise AssertionError(f"closed job holds funds: {_where(s)}")
        if s.principal_state in (PrincipalState.RELEASABLE, PrincipalState.EXECUTION_PENDING) and not ref_release_ok(s):
            raise AssertionError(f"releasable without A and (U or H): {_where(s)}")
        if s.claim_paid and s.payout_amount != min(s.claim[1] - s.slash_amount, s.agreement.coverage_limit):
            raise AssertionError(f"payout breaks the claim rule: {_where(s)}")

        # each merged rule equals every form it replaced
        if (s.premium_paid, s.collateral_posted) != (ref_coverage_bound(s), ref_coverage_in_force(s)):
            raise AssertionError(f"a coverage flag differs from its replaced form: {_where(s)}")
        held = lifecycle._collateral_held(s)
        if any(held != bool(form) for form in ref_collateral_held(s)):
            raise AssertionError(f"_collateral_held differs from a replaced form: {_where(s)}")
        if lifecycle._premium_held(s) != ref_premium_held(s):
            raise AssertionError(f"_premium_held differs from the replaced form: {_where(s)}")
        if s.phase is Phase.EVALUATION and s.outcome is not None:
            flags = ref_evaluation_flags(s)
            if lifecycle._claim_open(s) != flags[2] or enabled_actions(s) != lifecycle._EVALUATION[flags]:
                raise AssertionError(f"the evaluation enabled set differs from the replaced one: {_where(s)}")
        if s.fund_involving and s.outcome is not None:
            no_slash = s.agreement.collateral_policy is CollateralPolicy.NO_SLASH
            for now in (max(s.last_ts, 0),) + LATER:
                claim_open = lifecycle._claim_open(s, now)
                if s.claim is None and claim_open != ref_claim_wait(s, now):
                    raise AssertionError(f"_claim_open differs from _closeable's replaced wait at {now}: {_where(s)}")
                if held and (not no_slash and (s.claim is not None or claim_open)) != ref_unlock_blocked(s, now):
                    raise AssertionError(f"the unlock guard differs from the replaced one at {now}: {_where(s)}")


def test_every_reachable_state_keeps_the_invariants_and_the_replaced_rules():
    states = calls = 0
    for role, agreement in configurations():
        search = Search(role, agreement)
        states += search.run()
        calls += search.calls
    assert states == REACHABLE_STATES, f"{states} reachable states, {calls} apply calls"
