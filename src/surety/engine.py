"""Protocol-path episode runner.

The market simulator decides *what* happens in an episode (adoption,
collateral posting, override, execution outcome) from pre-drawn
randomness. This module turns one such decision vector into the full
action script, plays it through the settlement machine against a fresh
ledger, and reduces the resulting custody flows to episode economics.

An adopted episode is played in two parts. Its *opening*
(``open_episode``) is the ``JobState`` after the seven steps SubmitRequest
… RequestUW, which depend only on the job id and the principal and move
no value. Its *continuation*, UWDecision on, carries every cell-dependent
step and runs against the fresh ledger. A sweep plays each opening once
and continues it in every cell that checks the episode; ``ledger_economics``
plays both parts when it is given no opening, so a shared and an unshared
run apply the same actions. A step binds to the hash the machine checks
(``lifecycle.subject_hash``); every token comes from the engine's keyring,
which remembers it by its subject: one HMAC per party and opening.

The closed form of those economics lives in one place, the simulator's
vectorized ``market_sim._vector_economics``. ``check_episode`` plays an
episode through the machine and raises ``EngineInconsistency`` unless the
ledger gives that closed-form row on every field, which keeps the fast
vectorized path honest against the actual machine. Nothing here computes
the economics a second way: cancellation and failure are read off the
machine's final state, not the plan.

Where an episode's time goes (2-core VM, CPython 3.11.7): a continuation
of about nine steps takes about 90 us. About 70% of it is the
machine's steps (``lifecycle`` says where a step's time goes); about 2 us
a step is this module building the step's payload, token and ``Action``;
and about 6 us is the fresh ledger, executing the instructions and the
conservation and empty-vault checks, which sum the recovered amount from
the instructions as they are executed. An opening takes about 80 us, half
of it the draft's agreement work (building it, ``to_dict``, the machine's
``from_dict`` and the two canonical hashes). ``EpisodePlan`` and
``EpisodeEconomics`` write their instance dict once, so a sweep pays
about 0.5 us for each record of a checked episode.

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
from .lifecycle import JobState, Phase, SettlementMachine, new_job, subject_hash

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

# far past any scripted timestamp; the scripts below use t = 0, 1, 2, ...
_DEADLINES = Deadlines(delivery=10_000, claim=20_000, dispute=30_000)


@dataclass(frozen=True, init=False)
class EpisodePlan:
    """Decision vector for one episode, after all randomness is resolved.

    ``fail`` is the execution coin for the episode's purchase; it applies
    to the counterfactual (no protocol) world as well, so protected and
    unprotected runs of the same episode share their luck. A sweep builds
    one per checked episode, so ``__init__`` writes the instance dict once.
    """

    m_minor: int
    d_minor: int
    pi_minor: int
    adopt: bool
    post: bool
    override_proceed: bool
    fail: bool

    def __init__(self, m_minor, d_minor, pi_minor, adopt, post, override_proceed, fail) -> None:
        object.__setattr__(self, "__dict__", {
            "m_minor": m_minor, "d_minor": d_minor, "pi_minor": pi_minor, "adopt": adopt, "post": post,
            "override_proceed": override_proceed, "fail": fail,
        })


@dataclass(frozen=True, init=False)
class EpisodeEconomics:
    """What one episode did, read off the ledger or the closed form; built
    by one write of the instance dict, as ``EpisodePlan`` is."""

    executed: bool
    cancelled: bool
    failed: bool
    user_loss: int
    underwriter_delta: int

    def __init__(self, executed, cancelled, failed, user_loss, underwriter_delta) -> None:
        object.__setattr__(self, "__dict__", {
            "executed": executed, "cancelled": cancelled, "failed": failed, "user_loss": user_loss,
            "underwriter_delta": underwriter_delta,
        })


def _play(state: JobState, steps) -> tuple[JobState, list]:
    """Apply each ``(kind, sender, signed, fields)`` of ``steps`` in turn from
    ``state``, and return the final state with every ledger instruction the
    steps emitted.

    The payload binds to the job, and to the hash the machine checks for
    the kind (``subject_hash``) exactly when that hash is not None; a signed
    step's token binds the sender to the same (job, hash) subject. Step i
    of an episode runs at t = i, the state's sequence number; the machine
    never reads balances, so the caller may execute the instructions after
    the last step.
    """
    job_id = state.job_id
    instructions = []
    for kind, sender, signed, fields in steps:
        subject = subject_hash(state, ACTION_SPECS[kind].binding)
        if subject is None:
            payload = {"job_id": job_id, **fields}
        else:
            payload = {"job_id": job_id, "agreement_hash": subject, **fields}
        signature = _KEYRING.sign(sender.id, job_id, subject or "") if signed else None
        state, emitted = _MACHINE.apply(state, Action(kind, sender, payload, signature), state.seq)
        instructions += emitted
    return state, instructions


def open_episode(job_id: str, m_minor: int) -> JobState:
    """Play the opening of the adopted episode ``job_id`` with principal
    ``m_minor``, and return the state after RequestUW. The request states
    its terms as the draft's plain-data form does. States are frozen, so
    one opening serves any number of continuations."""
    draft = StructuredAgreement(
        job_id=job_id,
        task_spec="execute one covered purchase",
        assurance_mode=AssuranceMode.FUND_INVOLVING,
        fee_terms=FeeTerms(0),
        principal_terms=PrincipalTerms(m_minor, _B),
        acceptance_criteria="funds applied to the stated purchase",
        deadlines=_DEADLINES,
        coverage_limit=m_minor,
    )
    terms = draft.to_dict()
    request = {name: terms[name] for name in ("task_spec", "fee_terms", "principal_terms")}
    state, instructions = _play(new_job(job_id), (
        (ActionKind.SUBMIT_REQUEST, _H, False, request),
        (ActionKind.ACCEPT_REQUEST, _B, False, {"decision": "accept"}),
        (ActionKind.PROPOSE_AGREEMENT, _B, False, {"agreement_draft": terms}),
        (ActionKind.SIGN_AGREEMENT, _H, False, {}),
        (ActionKind.SIGN_AGREEMENT, _B, False, {}),
        (ActionKind.LOCK_FEE_ESCROW, _H, True, {"lock_ref": f"{job_id}.fee-lock"}),
        (ActionKind.REQUEST_UW, _B, False, {"coverage_request": {"principal": m_minor}}),
    ))
    if instructions:
        raise EngineInconsistency(f"{job_id}: the opening at m_minor={m_minor} moved value: {instructions}")
    if state.agreement_hash != canonical_hash(draft):
        raise EngineInconsistency(f"{job_id}: the opening at m_minor={m_minor} did not bind the engine's draft")
    return state


def _covered(plan: EpisodePlan) -> bool:
    return plan.d_minor == 0 or plan.post


def _continuation(opening: JobState, plan: EpisodePlan):
    """The cell-dependent steps of an adopted episode, UWDecision on, as
    ``(kind, sender, signed, fields)``."""
    job_id = opening.job_id
    m, d, pi = plan.m_minor, plan.d_minor, plan.pi_minor
    yield ActionKind.UW_DECISION, _U, True, {"decision": "approve", "premium": pi, "collateral_required": d}
    yield ActionKind.PAY_PREMIUM, _H, True, {"premium": pi, "premium_ref": f"{job_id}.premium"}
    if _covered(plan):
        yield ActionKind.LOCK_COLLATERAL, _B, True, {"amount": d, "collateral_ref": f"{job_id}.collateral"}
    else:
        yield ActionKind.REFUSE_COLLATERAL, _B, True, {}
        yield ActionKind.OVERRIDE_DECISION, _H, True, {"decision": "proceed" if plan.override_proceed else "cancel"}
        if not plan.override_proceed:
            yield ActionKind.UNWIND_PRE_EXECUTION, _S, False, {}
            return

    approvals = [_KEYRING.sign(UNDERWRITER, job_id, opening.draft_hash)]
    yield ActionKind.RELEASE_PRINCIPAL, _S, False, {"approvals": approvals, "transfer_ref": f"{job_id}.transfer"}
    yield ActionKind.SUBMIT_EXECUTION_EVIDENCE, _B, True, {"exec_evidence_ref": f"{job_id}.evidence"}
    yield ActionKind.SUBMIT_DELIVERABLE, _B, True, {"deliverable_ref": f"{job_id}.deliverable"}
    yield ActionKind.EVALUATE_OUTCOME, _E, False, {"outcome": "fail" if plan.fail else "pass"}
    yield ActionKind.SETTLE_FEE_ESCROW, _S, False, {
        "disposition": "refund" if plan.fail else "release", "settlement_ref": f"{job_id}.fee-settle",
    }

    collateral_settle = f"{job_id}.collateral-settle"
    if not plan.fail:
        if _covered(plan) and d > 0:
            yield ActionKind.SETTLE_COLLATERAL, _S, False, {
                "disposition": "unlock", "amount": d, "settlement_ref": collateral_settle,
            }
    elif _covered(plan):
        yield ActionKind.FILE_CLAIM, _H, False, {
            "trigger": "execution_failure", "claimed_loss": m, "evidence_ref": f"{job_id}.claim-evidence",
        }
        # the agreement's coverage limit is the principal m
        slash, reimbursement = settle_claim(m, d, m)
        if d > 0:
            yield ActionKind.SETTLE_COLLATERAL, _S, False, {
                "disposition": "slash", "amount": slash, "settlement_ref": collateral_settle,
            }
        if reimbursement > 0:
            yield ActionKind.PAY_CLAIM, _S, False, {"payout": reimbursement, "payout_ref": f"{job_id}.payout"}


def _inconsistent(job_id: str, plan: EpisodePlan, what: str) -> EngineInconsistency:
    """The error for episode ``job_id``; ``ledger_economics(plan, job_id)`` reproduces it."""
    return EngineInconsistency(f"{job_id}: {what}; {plan}")


def ledger_economics(plan: EpisodePlan, job_id: str = "sim-job", opening: JobState | None = None) -> EpisodeEconomics:
    """Run the adopted episode through the machine and read the ledger.

    The episode is its opening, played here unless ``opening`` (that of
    ``job_id`` at the plan's principal) is given, then its continuation
    against a fresh ledger. Whether it was cancelled or failed is read
    from the machine's final state, which must be CLOSED or CANCELLED.
    Non-adopting episodes never touch the protocol: outside it the
    purchase simply runs, uncovered, and the treasury never moves.
    """
    if not plan.adopt:
        return EpisodeEconomics(True, False, plan.fail, plan.m_minor if plan.fail else 0, 0)

    m, d, pi = plan.m_minor, plan.d_minor, plan.pi_minor
    if opening is None:
        opening = open_episode(job_id, m)
    elif (opening.job_id, opening.draft.principal_terms.amount) != (job_id, m):
        opened_at = opening.draft.principal_terms.amount
        raise _inconsistent(job_id, plan, f"continued the opening of {opening.job_id} at m_minor={opened_at}")
    ledger = Ledger()
    ledger.open_account(wallet(USER), m + pi)
    ledger.open_account(wallet(MERCHANT), d)
    ledger.open_account(treasury(UNDERWRITER), 0)
    ledger.open_account(escrow(job_id), 0)
    ledger.open_account(collateral_vault(job_id), 0)
    supply = m + pi + d

    state, instructions = _play(opening, _continuation(opening, plan))
    recovered = 0
    for instruction in instructions:
        ledger.execute(instruction)
        if instruction.kind is InstructionKind.SLASH_COLLATERAL or instruction.kind is InstructionKind.PAY_CLAIM:
            recovered += instruction.amount

    cancelled = state.phase is Phase.CANCELLED
    if not cancelled and state.phase is not Phase.CLOSED:
        raise _inconsistent(job_id, plan, f"episode ended in {state.phase}, neither CLOSED nor CANCELLED")
    if ledger.total_supply() != supply:
        raise _inconsistent(job_id, plan, "episode violated value conservation")
    if ledger.balance(escrow(job_id)) != 0 or ledger.balance(collateral_vault(job_id)) != 0:
        raise _inconsistent(job_id, plan, "job vaults were not emptied")

    failed = state.outcome == "fail"
    return EpisodeEconomics(
        executed=not cancelled,
        cancelled=cancelled,
        failed=failed,
        user_loss=m - recovered if failed else 0,
        underwriter_delta=ledger.balance(treasury(UNDERWRITER)),
    )


def check_episode(
    plan: EpisodePlan, expected: EpisodeEconomics, job_id: str = "sim-job", opening: JobState | None = None
) -> EpisodeEconomics:
    """Play the episode through the machine, continuing ``opening`` when given,
    and insist the ledger gives ``expected`` exactly."""
    actual = ledger_economics(plan, job_id, opening)
    if actual != expected:
        raise _inconsistent(job_id, plan, f"ledger economics {actual} diverge from closed-form economics {expected}")
    return actual
