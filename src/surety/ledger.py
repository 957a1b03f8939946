"""Conditional custody: wallets, vaults, instructions, receipts.

The ledger is a plain double-entry transfer book. Every instruction moves a
positive amount of minor units from one open account to another, so the sum
of all balances is invariant. The lifecycle machine emits instructions; it
never touches balances itself.

The receipt log is the executed instructions, in execution order: a
receipt is the instruction the ledger executed, and its sequence number is
its index in the log. ``replay_receipts`` rebuilds balances from it.

Account ids carry their custody role as a prefix. This module spells each
prefix once, and every other module names accounts through its four
account-name functions:

    wallet(party)            wallet:<party>       spendable party funds
    escrow(job_id)           escrow:<job_id>      fee escrow vault for one job
    collateral_vault(job_id) collateral:<job_id>  collateral vault for one job
    treasury(party)          treasury:<party>     underwriter treasury, doubles
                                                  as the payout vault

The treasury is the one account allowed to go negative, and only through
PayClaim: a reimbursement obligation is honored even when it makes the
underwriter insolvent, and the signed balance is what the simulator reads
as the wallet trajectory.

The claim rule is written once, in ``reimbursement``: a covered loss is
first met by the collateral slash actually applied, and what is left is
reimbursed up to the coverage limit. ``settle_claim`` pairs it with the
slash a slashing agreement applies, ``min(collateral, loss)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .enums import SuretyEnum
from .errors import InsufficientFunds, UnknownAccount


class InstructionKind(SuretyEnum):
    LOCK_FEE = "LockFee"
    RELEASE_FEE = "ReleaseFee"
    REFUND_FEE = "RefundFee"
    LOCK_COLLATERAL = "LockCollateral"
    UNLOCK_COLLATERAL = "UnlockCollateral"
    SLASH_COLLATERAL = "SlashCollateral"
    TRANSFER_PRINCIPAL = "TransferPrincipal"
    COLLECT_PREMIUM = "CollectPremium"
    REFUND_PREMIUM = "RefundPremium"
    PAY_CLAIM = "PayClaim"


_WALLET = "wallet:"
_ESCROW = "escrow:"
_COLLATERAL = "collateral:"
_TREASURY = "treasury:"


def wallet(party: str) -> str:
    return f"{_WALLET}{party}"


def escrow(job_id: str) -> str:
    return f"{_ESCROW}{job_id}"


def collateral_vault(job_id: str) -> str:
    return f"{_COLLATERAL}{job_id}"


def treasury(party: str) -> str:
    return f"{_TREASURY}{party}"


# (source prefix, destination prefix) each kind must respect; the vault side
# must additionally belong to the instruction's own job.
_ENDPOINT_RULES: dict[InstructionKind, tuple[str, str]] = {
    InstructionKind.LOCK_FEE: (_WALLET, _ESCROW),
    InstructionKind.RELEASE_FEE: (_ESCROW, _WALLET),
    InstructionKind.REFUND_FEE: (_ESCROW, _WALLET),
    InstructionKind.LOCK_COLLATERAL: (_WALLET, _COLLATERAL),
    InstructionKind.UNLOCK_COLLATERAL: (_COLLATERAL, _WALLET),
    InstructionKind.SLASH_COLLATERAL: (_COLLATERAL, _WALLET),
    InstructionKind.TRANSFER_PRINCIPAL: (_WALLET, _WALLET),
    InstructionKind.COLLECT_PREMIUM: (_WALLET, _TREASURY),
    InstructionKind.REFUND_PREMIUM: (_TREASURY, _WALLET),
    InstructionKind.PAY_CLAIM: (_TREASURY, _WALLET),
}

_JOB_VAULT_PREFIXES = (_ESCROW, _COLLATERAL)


@dataclass(frozen=True, init=False)
class LedgerInstruction:
    """One custody move, checked when it is built: a positive integer
    amount, endpoints with its kind's ``_ENDPOINT_RULES`` prefixes, a vault
    endpoint that is the job's own, and a non-empty ref.

    ``__init__`` writes the instance dict once, as ``Action`` does. No
    account prefix starts another, so an endpoint can name a job vault only
    on a side whose rule prefix is a vault's, and only that side is
    compared with the job's vault.
    """

    kind: InstructionKind
    job_id: str
    agreement_hash: str
    amount: int
    source: str
    dest: str
    ref: str

    def __init__(self, kind, job_id, agreement_hash, amount, source, dest, ref) -> None:
        object.__setattr__(self, "__dict__", {
            "kind": kind, "job_id": job_id, "agreement_hash": agreement_hash, "amount": amount,
            "source": source, "dest": dest, "ref": ref,
        })
        if isinstance(amount, bool) or not isinstance(amount, int):
            raise ValueError("instruction amount must be an integer of minor units")
        if amount <= 0:
            raise ValueError("instruction amount must be positive")
        src_prefix, dst_prefix = _ENDPOINT_RULES[kind]
        if not source.startswith(src_prefix):
            raise ValueError(f"{kind.value}: source must start with {src_prefix!r}")
        if not dest.startswith(dst_prefix):
            raise ValueError(f"{kind.value}: dest must start with {dst_prefix!r}")
        if src_prefix in _JOB_VAULT_PREFIXES and source != src_prefix + job_id:
            raise ValueError(f"{kind.value}: vault {source!r} is not this job's vault")
        if dst_prefix in _JOB_VAULT_PREFIXES and dest != dst_prefix + job_id:
            raise ValueError(f"{kind.value}: vault {dest!r} is not this job's vault")
        if not ref:
            raise ValueError("instruction ref must be non-empty")


class Ledger:
    """Single-writer transfer book; its receipt log is the executed instructions."""

    def __init__(self) -> None:
        self._balances: dict[str, int] = {}
        self._receipts: list[LedgerInstruction] = []
        self._refs: set[str] = set()
        self._slashed_by_job: dict[str, int] = {}
        self._locked_by_job: dict[str, int] = {}

    # -- accounts ----------------------------------------------------------

    def open_account(self, account: str, opening_balance: int = 0) -> None:
        if isinstance(opening_balance, bool) or not isinstance(opening_balance, int):
            raise ValueError("opening balance must be an integer")
        if opening_balance < 0:
            raise ValueError("opening balance must be non-negative")
        if account in self._balances:
            raise ValueError(f"account {account!r} already open")
        self._balances[account] = opening_balance

    def ensure_account(self, account: str) -> None:
        if account not in self._balances:
            self._balances[account] = 0

    def balance(self, account: str) -> int:
        try:
            return self._balances[account]
        except KeyError:
            raise UnknownAccount(account) from None

    def balances(self) -> dict[str, int]:
        return dict(self._balances)

    def total_supply(self) -> int:
        return sum(self._balances.values())

    # -- execution ----------------------------------------------------------

    def execute(self, instr: LedgerInstruction) -> LedgerInstruction:
        balances, kind, source, dest, amount = self._balances, instr.kind, instr.source, instr.dest, instr.amount
        if source not in balances:
            raise UnknownAccount(source)
        if dest not in balances:
            raise UnknownAccount(dest)
        if instr.ref in self._refs:
            raise ValueError(f"duplicate receipt ref {instr.ref!r}")
        src_balance = balances[source]
        overdraw_ok = kind is InstructionKind.PAY_CLAIM and source.startswith(_TREASURY)
        if src_balance < amount and not overdraw_ok:
            raise InsufficientFunds(f"{source} holds {src_balance}, instruction needs {amount}")
        if kind is InstructionKind.SLASH_COLLATERAL:
            # cumulative slash per job can never exceed what was locked
            slashed = self._slashed_by_job.get(instr.job_id, 0) + amount
            if slashed > self._locked_by_job.get(instr.job_id, 0):
                raise ValueError(f"slash for {instr.job_id!r} exceeds locked collateral")
            self._slashed_by_job[instr.job_id] = slashed
        if kind is InstructionKind.LOCK_COLLATERAL:
            self._locked_by_job[instr.job_id] = self._locked_by_job.get(instr.job_id, 0) + amount
        balances[source] = src_balance - amount
        balances[dest] += amount
        self._receipts.append(instr)
        self._refs.add(instr.ref)
        return instr

    def receipts(self) -> tuple[LedgerInstruction, ...]:
        return tuple(self._receipts)


def reimbursement(loss: int, slash: int, limit: int) -> int:
    """The claim rule: the covered loss left after the slash, up to the coverage limit."""
    return min(loss - slash, limit)


def settle_claim(loss: int, collateral: int, limit: int) -> tuple[int, int]:
    """Split a covered loss into a collateral slash and a reimbursement.

    Collateral is forfeited up to the realized loss, and ``reimbursement``
    covers the rest. The claimant receives slash + reimbursement.
    """
    if min(loss, collateral, limit) < 0:
        raise ValueError("settle_claim arguments must be non-negative")
    slash = min(collateral, loss)
    return slash, reimbursement(loss, slash, limit)


def replay_receipts(opening_balances: dict[str, int], receipts: Iterable[LedgerInstruction]) -> dict[str, int]:
    """Reconstruct closing balances from opening balances plus executed instructions."""
    balances = dict(opening_balances)
    for receipt in receipts:
        if receipt.source not in balances:
            raise UnknownAccount(receipt.source)
        if receipt.dest not in balances:
            raise UnknownAccount(receipt.dest)
        balances[receipt.source] -= receipt.amount
        balances[receipt.dest] += receipt.amount
    return balances
