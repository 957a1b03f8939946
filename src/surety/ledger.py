"""Conditional custody: wallets, vaults, instructions, receipts.

The ledger is a plain double-entry transfer book. Every instruction moves a
positive amount of minor units from one open account to another, so the sum
of all balances is invariant. The lifecycle machine emits instructions; it
never touches balances itself.

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


@dataclass(frozen=True)
class LedgerInstruction:
    kind: InstructionKind
    job_id: str
    agreement_hash: str
    amount: int
    source: str
    dest: str
    ref: str

    def __post_init__(self) -> None:
        if isinstance(self.amount, bool) or not isinstance(self.amount, int):
            raise ValueError("instruction amount must be an integer of minor units")
        if self.amount <= 0:
            raise ValueError("instruction amount must be positive")
        src_prefix, dst_prefix = _ENDPOINT_RULES[self.kind]
        if not self.source.startswith(src_prefix):
            raise ValueError(f"{self.kind.value}: source must start with {src_prefix!r}")
        if not self.dest.startswith(dst_prefix):
            raise ValueError(f"{self.kind.value}: dest must start with {dst_prefix!r}")
        for account in (self.source, self.dest):
            for prefix in _JOB_VAULT_PREFIXES:
                if account.startswith(prefix) and account != prefix + self.job_id:
                    raise ValueError(f"{self.kind.value}: vault {account!r} is not this job's vault")
        if not self.ref:
            raise ValueError("instruction ref must be non-empty")


@dataclass(frozen=True)
class Receipt:
    """Auditable record of one executed instruction.

    Receipts carry everything needed to replay the ledger: replaying the
    receipt stream against the opening balances reproduces the closing
    balances exactly.
    """

    seq: int
    ref: str
    kind: InstructionKind
    job_id: str
    agreement_hash: str
    amount: int
    source: str
    dest: str

    def to_record(self) -> dict:
        return {
            "seq": self.seq,
            "ref": self.ref,
            "kind": self.kind.value,
            "job_id": self.job_id,
            "agreement_hash": self.agreement_hash,
            "amount": self.amount,
            "source": self.source,
            "dest": self.dest,
        }


class Ledger:
    """Single-writer transfer book with receipt log."""

    def __init__(self) -> None:
        self._balances: dict[str, int] = {}
        self._receipts: list[Receipt] = []
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

    def execute(self, instr: LedgerInstruction) -> Receipt:
        if instr.source not in self._balances:
            raise UnknownAccount(instr.source)
        if instr.dest not in self._balances:
            raise UnknownAccount(instr.dest)
        if instr.ref in self._refs:
            raise ValueError(f"duplicate receipt ref {instr.ref!r}")
        src_balance = self._balances[instr.source]
        overdraw_ok = instr.kind is InstructionKind.PAY_CLAIM and instr.source.startswith(_TREASURY)
        if src_balance < instr.amount and not overdraw_ok:
            raise InsufficientFunds(
                f"{instr.source} holds {src_balance}, instruction needs {instr.amount}"
            )
        if instr.kind is InstructionKind.SLASH_COLLATERAL:
            # cumulative slash per job can never exceed what was locked
            slashed = self._slashed_by_job.get(instr.job_id, 0) + instr.amount
            if slashed > self._locked_by_job.get(instr.job_id, 0):
                raise ValueError(f"slash for {instr.job_id!r} exceeds locked collateral")
            self._slashed_by_job[instr.job_id] = slashed
        if instr.kind is InstructionKind.LOCK_COLLATERAL:
            self._locked_by_job[instr.job_id] = self._locked_by_job.get(instr.job_id, 0) + instr.amount
        self._balances[instr.source] = src_balance - instr.amount
        self._balances[instr.dest] += instr.amount
        receipt = Receipt(
            seq=len(self._receipts),
            ref=instr.ref,
            kind=instr.kind,
            job_id=instr.job_id,
            agreement_hash=instr.agreement_hash,
            amount=instr.amount,
            source=instr.source,
            dest=instr.dest,
        )
        self._receipts.append(receipt)
        self._refs.add(instr.ref)
        return receipt

    def receipts(self) -> tuple[Receipt, ...]:
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


def replay_receipts(opening_balances: dict[str, int], receipts: Iterable[Receipt]) -> dict[str, int]:
    """Reconstruct closing balances from opening balances plus receipts."""
    balances = dict(opening_balances)
    for receipt in receipts:
        if receipt.source not in balances:
            raise UnknownAccount(receipt.source)
        if receipt.dest not in balances:
            raise UnknownAccount(receipt.dest)
        balances[receipt.source] -= receipt.amount
        balances[receipt.dest] += receipt.amount
    return balances
