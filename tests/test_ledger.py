"""Custody ledger: conservation, receipts, bounds, the claim rule, and the
one owner of account names."""

import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import surety
from surety import (
    InstructionKind,
    InsufficientFunds,
    Ledger,
    LedgerInstruction,
    UnknownAccount,
    replay_receipts,
    settle_claim,
)
from surety.ledger import _ENDPOINT_RULES, reimbursement


def _instr(kind, amount, source, dest, ref, job_id="job-7"):
    return LedgerInstruction(
        kind=kind,
        job_id=job_id,
        agreement_hash="ab" * 32,
        amount=amount,
        source=source,
        dest=dest,
        ref=ref,
    )


def _fresh():
    ledger = Ledger()
    ledger.open_account("wallet:hana", 10_000)
    ledger.open_account("wallet:shopbot", 5_000)
    ledger.open_account("treasury:uw-x", 300)
    ledger.open_account("escrow:job-7", 0)
    ledger.open_account("collateral:job-7", 0)
    return ledger


def test_basic_flows_and_balances():
    ledger = _fresh()
    lock = _instr(InstructionKind.LOCK_FEE, 200, "wallet:hana", "escrow:job-7", "r1")
    release = _instr(InstructionKind.RELEASE_FEE, 200, "escrow:job-7", "wallet:shopbot", "r2")
    assert ledger.execute(lock) is lock
    assert ledger.execute(release) is release
    assert ledger.balance("wallet:hana") == 9_800
    assert ledger.balance("wallet:shopbot") == 5_200
    assert ledger.balance("escrow:job-7") == 0
    # the receipt log is the executed instructions in order; a receipt's sequence number is its index
    assert ledger.receipts() == (lock, release)


def test_instruction_validation():
    with pytest.raises(ValueError):
        _instr(InstructionKind.LOCK_FEE, 0, "wallet:a", "escrow:job-7", "r")
    with pytest.raises(ValueError):
        _instr(InstructionKind.LOCK_FEE, -5, "wallet:a", "escrow:job-7", "r")
    with pytest.raises(ValueError):
        _instr(InstructionKind.LOCK_FEE, 2.5, "wallet:a", "escrow:job-7", "r")
    with pytest.raises(ValueError):  # wrong endpoint prefixes
        _instr(InstructionKind.LOCK_FEE, 5, "escrow:job-7", "wallet:a", "r")
    with pytest.raises(ValueError):  # vault account must belong to the job
        _instr(InstructionKind.LOCK_FEE, 5, "wallet:a", "escrow:job-9", "r")
    with pytest.raises(ValueError):  # empty ref
        _instr(InstructionKind.LOCK_FEE, 5, "wallet:a", "escrow:job-7", "")


_VAULT_PREFIXES = ("escrow:", "collateral:")
_PREFIXES = ("wallet:", "treasury:") + _VAULT_PREFIXES


def _endpoint(prefix, job_id="job-7"):
    # a vault belongs to one job; a wallet or treasury to a party
    return prefix + (job_id if prefix in _VAULT_PREFIXES else "party")


@pytest.mark.parametrize("kind", list(_ENDPOINT_RULES))
def test_each_instruction_kind_refuses_what_its_endpoint_rule_forbids(kind):
    src_prefix, dst_prefix = _ENDPOINT_RULES[kind]
    source, dest = _endpoint(src_prefix), _endpoint(dst_prefix)
    # the job's own vaults, and the rule's prefixes, are accepted
    accepted = _instr(kind, 5, source, dest, "r")
    assert (accepted.source, accepted.dest, accepted.amount) == (source, dest, 5)
    for side in ("source", "dest"):
        rule = src_prefix if side == "source" else dst_prefix
        # another job's vault, whichever prefix it has, is refused on either side
        for vault in _VAULT_PREFIXES:
            endpoints = {"source": source, "dest": dest, side: _endpoint(vault, "job-9")}
            with pytest.raises(ValueError, match="not this job's vault" if vault == rule else "must start with"):
                _instr(kind, 5, endpoints["source"], endpoints["dest"], "r")
        # so is any prefix but the rule's
        for prefix in [p for p in _PREFIXES if p != rule] + ["nowhere:"]:
            endpoints = {"source": source, "dest": dest, side: _endpoint(prefix)}
            with pytest.raises(ValueError, match="must start with"):
                _instr(kind, 5, endpoints["source"], endpoints["dest"], "r")
    for amount in (0, -5, True, False, 2.5):
        with pytest.raises(ValueError, match="amount"):
            _instr(kind, amount, source, dest, "r")
    with pytest.raises(ValueError, match="ref"):
        _instr(kind, 5, source, dest, "")


def test_unknown_account_and_insufficient_funds():
    ledger = _fresh()
    with pytest.raises(UnknownAccount):
        ledger.execute(_instr(InstructionKind.LOCK_FEE, 10, "wallet:nobody", "escrow:job-7", "r1"))
    with pytest.raises(InsufficientFunds):
        ledger.execute(_instr(InstructionKind.LOCK_FEE, 10_001, "wallet:hana", "escrow:job-7", "r1"))


def test_duplicate_ref_rejected():
    ledger = _fresh()
    ledger.execute(_instr(InstructionKind.LOCK_FEE, 10, "wallet:hana", "escrow:job-7", "r1"))
    with pytest.raises(ValueError):
        ledger.execute(_instr(InstructionKind.REFUND_FEE, 10, "escrow:job-7", "wallet:hana", "r1"))


@pytest.mark.parametrize(
    "rejected, error, message",
    [
        (_instr(InstructionKind.LOCK_FEE, 10, "wallet:nobody", "escrow:job-7", "r9"), UnknownAccount, "wallet:nobody"),
        (_instr(InstructionKind.LOCK_FEE, 10_001, "wallet:hana", "escrow:job-7", "r9"), InsufficientFunds, "needs 10001"),
        (_instr(InstructionKind.REFUND_FEE, 10, "escrow:job-7", "wallet:hana", "r1"), ValueError, "duplicate"),
        # the vault holds 500, but only 100 of it was locked: the per-job slash bound trips
        (_instr(InstructionKind.SLASH_COLLATERAL, 101, "collateral:job-7", "wallet:hana", "r9"), ValueError, "exceeds"),
    ],
    ids=["unknown-account", "insufficient-funds", "duplicate-ref", "over-slash"],
)
def test_a_rejected_instruction_changes_nothing(rejected, error, message):
    ledger = Ledger()
    for account, balance in [
        ("wallet:hana", 10_000), ("wallet:shopbot", 5_000), ("escrow:job-7", 0), ("collateral:job-7", 400)
    ]:
        ledger.open_account(account, balance)
    executed = (
        _instr(InstructionKind.LOCK_FEE, 10, "wallet:hana", "escrow:job-7", "r1"),
        _instr(InstructionKind.LOCK_COLLATERAL, 100, "wallet:shopbot", "collateral:job-7", "r2"),
    )
    for instr in executed:
        ledger.execute(instr)
    balances = ledger.balances()
    with pytest.raises(error, match=message):
        ledger.execute(rejected)
    assert ledger.receipts() == executed
    assert ledger.balances() == balances


def test_claim_payout_may_overdraw_treasury_only():
    ledger = _fresh()
    receipt = ledger.execute(
        _instr(InstructionKind.PAY_CLAIM, 900, "treasury:uw-x", "wallet:hana", "r1")
    )
    assert receipt.amount == 900
    assert ledger.balance("treasury:uw-x") == -600
    # total supply is still conserved under the overdraft
    assert ledger.total_supply() == 10_000 + 5_000 + 300
    # the same overdraft is not available to other instruction kinds
    with pytest.raises(InsufficientFunds):
        ledger.execute(_instr(InstructionKind.REFUND_PREMIUM, 1, "treasury:uw-x", "wallet:hana", "r2"))


def test_slash_bounded_by_locked_collateral():
    ledger = _fresh()
    ledger.execute(_instr(InstructionKind.LOCK_COLLATERAL, 100, "wallet:shopbot", "collateral:job-7", "r1"))
    ledger.execute(_instr(InstructionKind.SLASH_COLLATERAL, 60, "collateral:job-7", "wallet:hana", "r2"))
    # the vault only ever holds what was locked, so over-slashing trips
    # either the balance check or the cumulative slash bound
    with pytest.raises((InsufficientFunds, ValueError)):
        ledger.execute(_instr(InstructionKind.SLASH_COLLATERAL, 41, "collateral:job-7", "wallet:hana", "r3"))
    ledger.execute(_instr(InstructionKind.SLASH_COLLATERAL, 40, "collateral:job-7", "wallet:hana", "r4"))


def test_conservation_under_random_instruction_stream():
    rng = random.Random(20_08)
    ledger = _fresh()
    supply = ledger.total_supply()
    executed = 0
    attempts = 0
    moves = [
        (InstructionKind.LOCK_FEE, "wallet:hana", "escrow:job-7"),
        (InstructionKind.RELEASE_FEE, "escrow:job-7", "wallet:shopbot"),
        (InstructionKind.REFUND_FEE, "escrow:job-7", "wallet:hana"),
        (InstructionKind.LOCK_COLLATERAL, "wallet:shopbot", "collateral:job-7"),
        (InstructionKind.UNLOCK_COLLATERAL, "collateral:job-7", "wallet:shopbot"),
        (InstructionKind.COLLECT_PREMIUM, "wallet:hana", "treasury:uw-x"),
        (InstructionKind.REFUND_PREMIUM, "treasury:uw-x", "wallet:hana"),
        (InstructionKind.TRANSFER_PRINCIPAL, "wallet:hana", "wallet:shopbot"),
        (InstructionKind.TRANSFER_PRINCIPAL, "wallet:shopbot", "wallet:hana"),
        (InstructionKind.PAY_CLAIM, "treasury:uw-x", "wallet:hana"),
    ]
    while attempts < 2_000:
        attempts += 1
        kind, source, dest = rng.choice(moves)
        amount = rng.randint(1, 500)
        try:
            ledger.execute(_instr(kind, amount, source, dest, f"ref-{attempts}"))
            executed += 1
        except InsufficientFunds:
            continue
        except ValueError:
            continue  # slash bound
        assert ledger.total_supply() == supply
    assert executed > 500


def test_receipt_replay_reconstructs_balances():
    rng = random.Random(7)
    ledger = _fresh()
    opening = ledger.balances()
    for i in range(400):
        amount = rng.randint(1, 50)
        try:
            ledger.execute(
                _instr(
                    rng.choice([InstructionKind.LOCK_FEE, InstructionKind.REFUND_FEE]),
                    amount,
                    *(("wallet:hana", "escrow:job-7") if i % 2 == 0 else ("escrow:job-7", "wallet:hana")),
                    f"ref-{i}",
                )
            )
        except (InsufficientFunds, ValueError):
            continue
    rebuilt = replay_receipts(opening, ledger.receipts())
    assert rebuilt == ledger.balances()


# -- the claim rule -----------------------------------------------------


@pytest.mark.parametrize(
    "loss,collateral,limit,expected",
    [
        (1000, 100, 1000, (100, 900)),  # slash first, reimburse the rest
        (0, 100, 1000, (0, 0)),  # no loss, nothing moves
        (1000, 1200, 1000, (1000, 0)),  # collateral covers everything
        (1000, 0, 1000, (0, 1000)),  # pure reimbursement
        (1000, 100, 500, (100, 500)),  # limit binds
        (50, 100, 1000, (50, 0)),  # partial slash consumes the loss
    ],
)
def test_settle_claim_examples(loss, collateral, limit, expected):
    assert settle_claim(loss, collateral, limit) == expected


def test_settle_claim_rejects_negative_inputs():
    with pytest.raises(ValueError):
        settle_claim(-1, 0, 0)
    with pytest.raises(ValueError):
        settle_claim(0, -1, 0)
    with pytest.raises(ValueError):
        settle_claim(0, 0, -1)


@given(
    loss=st.integers(min_value=0, max_value=10**9),
    collateral=st.integers(min_value=0, max_value=10**9),
    limit=st.integers(min_value=0, max_value=10**9),
)
def test_settle_claim_invariants(loss, collateral, limit):
    slash, reimbursed = settle_claim(loss, collateral, limit)
    assert 0 <= slash <= min(collateral, loss)
    assert 0 <= reimbursed <= limit
    assert reimbursed == reimbursement(loss, slash, limit)
    # the user never recovers more than the loss
    assert slash + reimbursed <= loss
    # full recovery whenever the limit covers the shortfall
    if limit >= loss - slash:
        assert slash + reimbursed == loss
    # under CollateralPolicy.NO_SLASH nothing is slashed and the limit alone binds
    assert reimbursement(loss, 0, limit) == min(loss, limit)


def test_only_the_ledger_spells_account_prefixes():
    sources = [path for path in Path(surety.__file__).parent.glob("*.py") if path.name != "ledger.py"]
    assert len(sources) > 1
    for source in sources:
        text = source.read_text(encoding="utf-8")
        for prefix in ("wallet:", "escrow:", "collateral:", "treasury:"):
            for literal in (f'"{prefix}', f"'{prefix}"):
                assert literal not in text, f"{source.name} spells {literal}...; name accounts through surety.ledger"
