"""Acceptance gate: eleven checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the lines as
they print. Each check collects its individual assertions first, prints
its verdict, and only then raises, so the verdict line always appears.
"""

import json
import random
import time

import numpy as np

from surety import (
    Action,
    ActionKind,
    CellParams,
    CollateralSchedule,
    InstructionKind,
    InsufficientFunds,
    Ledger,
    LedgerInstruction,
    PartyRef,
    PricingPolicy,
    RiskChannel,
    Role,
    SettlementMachine,
    SweepConfig,
    TransitionError,
    UserPolicy,
    estimate_risk,
    prepare_cell,
    price,
    reduce_draws,
    release_auth,
    release_ready,
    replay,
    replay_receipts,
    run_sweep,
    sigma_roles,
)
from surety.market_sim import _vector_economics

from conftest import ASSISTANT, EVALUATOR, HUMAN, MERCHANT, Driver, build_agreement, demo_keyring

K = ActionKind


def _verdict(n: int, label: str, failures: list) -> None:
    print(f"CRITERION {n:02d} {'FAIL' if failures else 'PASS'}: {label}")
    assert not failures, f"criterion {n}: {failures}"


# -- 1: transition table conformance ------------------------------------------


def test_criterion_01_transition_tables():
    from test_lifecycle import TABLE, _attempt
    from surety import NotEnabled, WrongSender, enabled_actions

    failures = []
    started = time.perf_counter()
    for name, builder, expected in TABLE:
        if enabled_actions(builder().state) != expected:
            failures.append(f"enabled set mismatch in {name}")
        for kind in ActionKind:
            d = builder()
            if kind in expected:
                try:
                    _attempt(d, kind)
                except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                    failures.append(f"{name}: {kind.value} unexpectedly rejected: {exc}")
            else:
                try:
                    _attempt(d, kind)
                    failures.append(f"{name}: {kind.value} unexpectedly accepted")
                except (NotEnabled, WrongSender):
                    pass
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{name}: {kind.value} rejected with wrong error: {exc}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"conformance sweep took {elapsed:.2f}s (budget 1s)")
    _verdict(1, "transition-table conformance under 1s", failures)


# -- 2: release gate safety ------------------------------------------------------


def _snapshot(requestor_role, stop: str, signed_uw: bool = True) -> Driver:
    d = Driver(requestor_role=requestor_role)
    d.to_transaction()
    d.lock_fee()
    if stop == "uw_review":
        d.request_uw()
        return d
    d.request_uw()
    d.uw_decide("approve", signed=signed_uw)
    if stop == "premium":
        return d
    d.pay_premium()
    if stop == "collateral":
        return d
    if stop == "override":
        d.refuse_collateral()
        return d
    d.lock_collateral()
    return d  # APPROVAL_PENDING or RELEASABLE depending on the tokens


def test_criterion_02_release_gate_safety():
    snapshots = [
        _snapshot(Role.HUMAN_REQUESTOR, "uw_review"),
        _snapshot(Role.HUMAN_REQUESTOR, "premium"),
        _snapshot(Role.HUMAN_REQUESTOR, "collateral"),
        _snapshot(Role.HUMAN_REQUESTOR, "override"),
        _snapshot(Role.HUMAN_REQUESTOR, "post", signed_uw=False),  # no tokens yet
        _snapshot(Role.HUMAN_REQUESTOR, "post", signed_uw=True),  # releasable
        _snapshot(Role.ASSISTANT_REQUESTOR, "post", signed_uw=False),
        _snapshot(Role.ASSISTANT_REQUESTOR, "post", signed_uw=True),  # U only
    ]
    # one more assistant job where only the assistant has approved
    d = _snapshot(Role.ASSISTANT_REQUESTOR, "post", signed_uw=False)
    d.approve_release(ASSISTANT)
    snapshots.append(d)

    pools = []
    for snap in snapshots:
        h = snap.current_hash()
        job = snap.job_id
        recorded = [tok for _r, _p, tok in sorted(snap.state.approvals)]
        forged = [
            snap.keyring.sign(EVALUATOR, job, h),
            snap.keyring.sign(HUMAN, job, "0" * 64),
            "deadbeef" * 8,
        ]
        aria_tok = snap.keyring.sign(ASSISTANT, job, h)
        hana_tok = snap.keyring.sign(HUMAN, job, h)

        def release(tokens):
            return Action(
                kind=K.RELEASE_PRINCIPAL,
                sender=PartyRef("settle-x", Role.SETTLEMENT),
                payload={"job_id": job, "agreement_hash": h, "approvals": list(tokens), "transfer_ref": f"{job}.t"},
            )

        def approve(pid, role, tok):
            return Action(
                kind=K.APPROVE_RELEASE,
                sender=PartyRef(pid, role),
                payload={"job_id": job, "agreement_hash": h},
                signature=tok,
            )

        pool = [
            approve(HUMAN, Role.HUMAN_REQUESTOR, hana_tok),
            approve(ASSISTANT, Role.ASSISTANT_REQUESTOR, aria_tok),
            approve(EVALUATOR, Role.EVALUATOR, forged[0]),
            approve(HUMAN, Role.HUMAN_REQUESTOR, forged[1]),
            release(recorded),
            release(recorded[:1]),
            release([]),
            release(forged[:1]),
            release(recorded + forged[2:]),
            release([aria_tok]),
            release([hana_tok]),
            Action(
                kind=K.LOCK_COLLATERAL,
                sender=PartyRef(MERCHANT, Role.BUSINESS_AGENT),
                payload={"job_id": job, "agreement_hash": h, "amount": 100, "collateral_ref": f"{job}.c"},
                signature=snap.keyring.sign(MERCHANT, job, h),
            ),
            Action(
                kind=K.OVERRIDE_DECISION,
                sender=PartyRef(HUMAN, Role.HUMAN_REQUESTOR),
                payload={"job_id": job, "agreement_hash": h, "decision": "proceed"},
                signature=hana_tok,
            ),
            Action(
                kind=K.PAY_PREMIUM,
                sender=PartyRef(HUMAN, Role.HUMAN_REQUESTOR),
                payload={"job_id": job, "agreement_hash": h, "premium": 20, "premium_ref": f"{job}.p"},
                signature=hana_tok,
            ),
        ]
        pools.append((snap.state, snap.machine, pool))

    rng = random.Random(20260818)
    sequences = 100_000
    accepted_releases = 0
    violations = []
    now = 50
    for _ in range(sequences):
        state, machine, pool = pools[rng.randrange(len(pools))]
        for _step in range(rng.randint(1, 3)):
            action = pool[rng.randrange(len(pool))]
            before = state
            try:
                state, _ = machine.apply(state, action, now)
            except TransitionError:
                continue
            if action.kind is K.RELEASE_PRINCIPAL:
                accepted_releases += 1
                roles = sigma_roles(before)
                if not release_ready(before):
                    violations.append("release accepted while release_ready was false")
                if not release_auth(roles, before.requestor_role):
                    violations.append("release accepted without a quorum")
                if before.requestor_role is Role.ASSISTANT_REQUESTOR and roles == {Role.ASSISTANT_REQUESTOR}:
                    violations.append("assistant job released on the assistant's signature alone")
                if violations:
                    break
        if violations:
            break

    failures = list(violations)
    if accepted_releases == 0:
        failures.append("fuzz never exercised an accepted release")
    _verdict(2, f"release gate safety over {sequences} random sequences "
                f"({accepted_releases} releases accepted)", failures)


# -- 3: ledger conservation --------------------------------------------------------


def test_criterion_03_ledger_conservation():
    ledger = Ledger()
    opening = {
        "wallet:u": 500_000,
        "wallet:m": 500_000,
        "treasury:x": 100_000,
        "escrow:job-a": 0,
        "collateral:job-a": 0,
    }
    for account, balance in opening.items():
        ledger.open_account(account, balance)
    supply = ledger.total_supply()

    endpoints = {
        InstructionKind.LOCK_FEE: ("wallet:u", "escrow:job-a"),
        InstructionKind.RELEASE_FEE: ("escrow:job-a", "wallet:m"),
        InstructionKind.REFUND_FEE: ("escrow:job-a", "wallet:u"),
        InstructionKind.LOCK_COLLATERAL: ("wallet:m", "collateral:job-a"),
        InstructionKind.UNLOCK_COLLATERAL: ("collateral:job-a", "wallet:m"),
        InstructionKind.SLASH_COLLATERAL: ("collateral:job-a", "wallet:u"),
        InstructionKind.TRANSFER_PRINCIPAL: ("wallet:u", "wallet:m"),
        InstructionKind.COLLECT_PREMIUM: ("wallet:u", "treasury:x"),
        InstructionKind.REFUND_PREMIUM: ("treasury:x", "wallet:u"),
        InstructionKind.PAY_CLAIM: ("treasury:x", "wallet:u"),
    }
    kinds = list(endpoints)
    rng = random.Random(91)
    failures = []
    executed = 0
    attempts = 0
    while executed < 100_000 and attempts < 500_000:
        attempts += 1
        kind = kinds[rng.randrange(len(kinds))]
        source, dest = endpoints[kind]
        instruction = LedgerInstruction(
            kind=kind,
            job_id="job-a",
            agreement_hash="a" * 64,
            amount=rng.randint(1, 400),
            source=source,
            dest=dest,
            ref=f"s{attempts}",
        )
        try:
            ledger.execute(instruction)
        except (ValueError, InsufficientFunds):
            continue  # underfunded or over-slashing draws are simply skipped
        executed += 1
        if ledger.total_supply() != supply:
            failures.append(f"supply drifted after {executed} instructions")
            break

    if executed < 100_000:
        failures.append(f"only {executed} instructions executed")
    rebuilt = replay_receipts(opening, ledger.receipts())
    if rebuilt != ledger.balances():
        failures.append("receipt replay does not reconstruct balances")
    _verdict(3, f"conservation across {executed} random instructions", failures)


# -- 4: determinism ------------------------------------------------------------------


def _random_job(seed: int):
    rng = random.Random(seed)
    role = Role.HUMAN_REQUESTOR if rng.random() < 0.7 else Role.ASSISTANT_REQUESTOR
    fund = rng.random() < 0.8
    fee = rng.choice([0, 50, 200, 350])
    principal = rng.randint(1, 5000) if fund else None
    premium_quote = rng.randint(0, 60)
    collateral_quote = rng.randint(0, principal) if fund else 0
    path = rng.choice(
        ["pass", "fail_claim", "fail_lapse", "cancel", "override_pass", "override_cancel", "uw_reject"]
        if fund
        else ["fee_pass", "fee_fail", "cancel"]
    )
    agreement = build_agreement(fee=fee, principal=principal)
    d = Driver(
        agreement=agreement,
        requestor_role=role,
        premium=premium_quote,
        collateral=collateral_quote,
    )

    def through_release():
        d.lock_fee()
        d.request_uw()
        d.uw_decide("approve")
        d.pay_premium()
        d.lock_collateral()
        if d.state.principal_state.value == "APPROVAL_PENDING":
            d.approve_release(ASSISTANT if role is Role.ASSISTANT_REQUESTOR else HUMAN)
        if d.state.principal_state.value == "APPROVAL_PENDING":
            d.approve_release(HUMAN)
        d.release()
        d.submit_evidence()
        d.deliver()

    if path == "cancel":
        d.to_transaction()
        if rng.random() < 0.5:
            d.lock_fee()
        d.cancel(HUMAN)
        d.unwind()
        return d
    d.to_transaction()
    if path == "fee_pass" or path == "fee_fail":
        d.lock_fee()
        d.deliver()
        d.evaluate("pass" if path == "fee_pass" else "fail")
        d.settle_fee("release" if path == "fee_pass" else "refund")
        return d
    if path == "uw_reject":
        d.lock_fee()
        d.request_uw()
        d.uw_decide("reject")
        d.override("cancel")
        d.unwind()
        return d
    if path in ("override_pass", "override_cancel"):
        d.lock_fee()
        d.request_uw()
        d.uw_decide("approve")
        d.pay_premium()
        d.refuse_collateral()
        if path == "override_cancel":
            d.override("cancel")
            d.unwind()
            return d
        d.override("proceed")
        if d.state.principal_state.value == "APPROVAL_PENDING":
            d.approve_release(ASSISTANT if role is Role.ASSISTANT_REQUESTOR else HUMAN)
        if d.state.principal_state.value == "APPROVAL_PENDING":
            d.approve_release(HUMAN)
        d.release()
        d.submit_evidence()
        d.deliver()
        d.evaluate("pass")
        d.settle_fee("release")
        return d
    through_release()
    if path == "pass":
        d.evaluate("pass")
        d.settle_fee("release")
        if collateral_quote:
            d.settle_collateral("unlock", collateral_quote)
        return d
    d.evaluate("fail")
    d.settle_fee("refund")
    if path == "fail_lapse":
        if collateral_quote:
            d.settle_collateral("unlock", collateral_quote, now=201)
        else:
            d.file_claim(now=150)
            d.pay_claim(min(principal, agreement.coverage_limit))
        return d
    # fail_claim
    loss = principal
    d.file_claim(loss=loss, now=150)
    slash = min(collateral_quote, loss)
    if collateral_quote:
        d.settle_collateral("slash", slash, now=151)
    payout = min(loss - slash, agreement.coverage_limit)
    if payout:
        d.pay_claim(payout)
    return d


def test_criterion_04_deterministic_replay():
    failures = []
    for seed in range(100):
        first = _random_job(seed)
        second = _random_job(seed)
        lines_a = [json.dumps(e, separators=(",", ":")) for e in first.state.log]
        lines_b = [json.dumps(e, separators=(",", ":")) for e in second.state.log]
        receipts_a = [json.dumps(r.to_record(), separators=(",", ":")) for r in first.receipts]
        receipts_b = [json.dumps(r.to_record(), separators=(",", ":")) for r in second.receipts]
        if lines_a != lines_b or receipts_a != receipts_b:
            failures.append(f"seed {seed}: re-run diverged")
            continue
        machine = SettlementMachine(demo_keyring())
        rebuilt = replay(machine, list(first.state.log))
        if rebuilt != first.state:
            failures.append(f"seed {seed}: replay state mismatch")
            continue
        lines_r = [json.dumps(e, separators=(",", ":")) for e in rebuilt.log]
        if lines_r != lines_a:
            failures.append(f"seed {seed}: replay log bytes differ")
    _verdict(4, "byte-for-byte determinism on 100 random jobs", failures)


# -- 5: running example ----------------------------------------------------------------


def test_criterion_05_running_example():
    failures = []

    d = Driver()  # $2.00 fee, $10 principal, $0.20 premium, $1 collateral
    d.run_pass_path()
    fee_receipts = [r for r in d.receipts if r.kind is InstructionKind.RELEASE_FEE]
    if [r.amount for r in fee_receipts] != [200]:
        failures.append("pass path: provider fee is not exactly $2.00")
    if d.state.phase.value != "CLOSED":
        failures.append("pass path did not close")
    if d.ledger.balance(f"wallet:{MERCHANT}") != 100_000 + 200 + 1000:
        failures.append("pass path: provider wallet is off")

    d = Driver()
    d.run_covered_fail_path()
    if d.state.slash_amount != 100:
        failures.append(f"covered failure slashed {d.state.slash_amount}, wanted $1.00")
    if d.state.payout_amount != 900:
        failures.append(f"covered failure paid {d.state.payout_amount}, wanted $9.00")
    if d.ledger.balance(f"wallet:{HUMAN}") != 100_000 - 20:
        failures.append("covered failure: user was not made whole net of premium")
    if d.state.phase.value != "CLOSED":
        failures.append("covered failure did not close")
    _verdict(5, "running example: $2.00 fee on pass; $1 slash + $9 reimbursement", failures)


# -- 6: pricing identities ----------------------------------------------------------------


def test_criterion_06_pricing_identities():
    failures = []
    for m in (0.10, 0.15, 0.20, 0.25, 0.35):
        for s in (5.0, 10.0, 20.0, 50.0):
            if abs(CollateralSchedule(midpoint=m, steepness=s).fraction(m) - 0.5) > 1e-12:
                failures.append(f"sigma({m}) != 0.5 at steepness {s}")

    p = np.linspace(0.0, 1.0, 101)
    if np.abs(estimate_risk(p, RiskChannel()) - p).max() > 0.0:
        failures.append("clean channel is not the identity")

    schedule = CollateralSchedule()
    for principal in (1.0, 10.0, 100.0, 5000.0):
        for lam in (0.0, 0.2, 1.0):
            d, pi = price(p, principal, schedule, PricingPolicy(load=lam))
            if (d < 0).any() or (d > principal).any():
                failures.append(f"collateral out of [0, {principal}] at load={lam}")
            fair = p * (principal - d)
            scale = np.maximum(np.abs(fair), 1.0)
            if (np.abs(pi / (1.0 + lam) - fair) / scale).max() > 1e-12:
                failures.append(f"actuarial identity broken at M={principal}, load={lam}")
    if float(price(0.0, 1000.0, schedule, PricingPolicy(load=1.0))[1]) != 0.0:
        failures.append("zero risk does not price to zero")
    _verdict(6, "pricing identities to 1e-12", failures)


# -- 7-9: sweep bands ----------------------------------------------------------------


def test_criterion_07_lambda_sweep_bands():
    result = run_sweep(SweepConfig())
    grid = [c.params.lam for c in result.cells]
    adoption = [c.adoption_rate for c in result.cells]
    lr = [c.loss_reduction_rate for c in result.cells]
    fr = [c.failure_reduction_rate for c in result.cells]
    wallet = [c.wallet_final_minor for c in result.cells]

    failures = []
    a0 = result.cell(lam=0.0).adoption_rate
    a1 = result.cell(lam=1.0).adoption_rate
    if not abs(a0 - 0.446) <= 0.05:
        failures.append(f"adoption at load 0 is {a0:.4f}, wanted 0.446 +/- 0.05")
    if not abs(a1 - 0.126) <= 0.05:
        failures.append(f"adoption at load 1.0 is {a1:.4f}, wanted 0.126 +/- 0.05")
    if any(adoption[i] < adoption[i + 1] for i in range(len(adoption) - 1)):
        failures.append("adoption is not weakly decreasing in the load")
    if not wallet[0] < 0:
        failures.append("treasury is not underwater at load 0")
    if any(w <= 0 for lam, w in zip(grid, wallet) if lam >= 0.1 - 1e-12):
        failures.append("treasury not positive for every load >= 0.1")
    if any(v <= 0 for v in lr):
        failures.append("loss reduction not positive at every load")
    if any(not 0.05 <= v <= 0.35 for v in fr):
        failures.append("failure reduction outside [0.05, 0.35] somewhere")
    lr1 = result.cell(lam=1.0).loss_reduction_rate
    if not abs(lr1 - 0.24) <= 0.10:
        failures.append(f"loss reduction at load 1.0 is {lr1:.4f}, wanted 0.24 +/- 0.10")
    lr0 = result.cell(lam=0.0).loss_reduction_rate
    if not abs(lr0 - 0.61) <= 0.10:
        failures.append(f"loss reduction at load 0 is {lr0:.4f}, wanted 0.61 +/- 0.10")
    _verdict(7, "load sweep bands", failures)


def test_criterion_08_fpfn_sweep_bands():
    result = run_sweep(SweepConfig(kind="fpfn"))
    failures = []
    a_blind = result.cell(fp=0.0, fn=1.0).adoption_rate
    if not abs(a_blind - 0.820) <= 0.05:
        failures.append(f"adoption at (0, 1.0) is {a_blind:.4f}, wanted 0.820 +/- 0.05")
    w00 = result.cell(fp=0.0, fn=0.0).wallet_final_minor
    w01 = result.cell(fp=0.0, fn=1.0).wallet_final_minor
    w11 = result.cell(fp=1.0, fn=1.0).wallet_final_minor
    if not w01 <= -10 * abs(w00):
        failures.append(f"blind-channel wallet {w01} is not <= -10x |{w00}|")
    if not w11 > w01:
        failures.append("over-flagging did not soften the blind-channel losses")
    positive = sum(1 for c in result.cells if c.loss_reduction_rate > 0)
    if positive < 0.9 * len(result.cells):
        failures.append(f"loss reduction positive on only {positive}/{len(result.cells)} cells")
    _verdict(8, "misclassification sweep bands", failures)


def test_criterion_09_sigmoid_sweep_bands():
    result = run_sweep(SweepConfig(kind="sigmoid"))
    failures = []
    a_soft = result.cell(midpoint=0.15, steepness=5.0).adoption_rate
    a_hard = result.cell(midpoint=0.35, steepness=50.0).adoption_rate
    if not abs(a_soft - 0.301) <= 0.05:
        failures.append(f"adoption at (0.15, 5) is {a_soft:.4f}, wanted 0.301 +/- 0.05")
    if not abs(a_hard - 0.106) <= 0.05:
        failures.append(f"adoption at (0.35, 50) is {a_hard:.4f}, wanted 0.106 +/- 0.05")
    if not a_soft > a_hard:
        failures.append("gentler schedule does not win on adoption")
    w_soft = result.cell(midpoint=0.35, steepness=5.0).wallet_final_minor
    w_hard = result.cell(midpoint=0.10, steepness=50.0).wallet_final_minor
    if not (w_soft > w_hard and w_soft > 0 and w_hard > 0):
        failures.append(f"wallet ordering broken: {w_soft} vs {w_hard}")
    fr_soft = result.cell(midpoint=0.10, steepness=5.0).failure_reduction_rate
    fr_hard = result.cell(midpoint=0.35, steepness=50.0).failure_reduction_rate
    if not fr_soft > fr_hard:
        failures.append("demanding schedule does not trade deterrence away")
    positive = sum(1 for c in result.cells if c.loss_reduction_rate > 0)
    if positive != len(result.cells):
        failures.append(f"loss reduction positive on only {positive}/20 cells")
    _verdict(9, "collateral schedule sweep bands", failures)


# -- 10: engine equivalence ----------------------------------------------------------------


def test_criterion_10_engine_oracle_equivalence():
    config = SweepConfig()
    equations = run_sweep(config, mode="equations")
    engine = run_sweep(config, mode="engine")
    failures = []
    for eq, en in zip(equations.cells, engine.cells):
        if eq != en:
            failures.append(f"cell lam={eq.params.lam}: engine metrics diverge")
    _verdict(10, "engine equals closed form on the full load sweep", failures)


# -- 11: brute-force oracle --------------------------------------------------------------


def test_criterion_11_toy_universe():
    failures = []
    n = 20_000
    rng = np.random.default_rng(7)
    for p_true, d_expect, pi_expect in ((0.1, 378, 62), (0.5, 971, 15)):
        draws = (
            np.full(n, 10.0),  # M
            np.full(n, p_true),  # p
            np.full(n, p_true),  # hist: perfect history
            np.zeros(n),  # eps: no estimation noise
            rng.random(n),  # mroll
            rng.random(n),  # oroll
            rng.random(n),  # froll
        )
        plan = prepare_cell(reduce_draws(draws, UserPolicy(alpha=1.0)), CellParams())
        if int(plan.d_minor[0]) != d_expect or int(plan.pi_minor[0]) != pi_expect:
            failures.append(
                f"p={p_true}: quote ({int(plan.d_minor[0])}, {int(plan.pi_minor[0])}), "
                f"wanted ({d_expect}, {pi_expect})"
            )
            continue
        if not plan.adopt.all():
            failures.append(f"p={p_true}: adoption is not universal in the toy universe")
            continue

        m = 1000
        post_p = 0.9 - 0.8 * (d_expect / m)
        exact = {
            "executed": post_p + (1.0 - post_p) * 0.5,
            "wallet": post_p * (pi_expect - p_true * (m - d_expect)),
            "user_loss": (1.0 - post_p) * 0.5 * p_true * m,
        }
        econ = _vector_economics(plan)
        observed = {
            "executed": econ["executed"].astype(float),
            "wallet": econ["wallet"].astype(float),
            "user_loss": econ["user_loss"].astype(float),
        }
        for name, series in observed.items():
            mean = series.mean()
            se = series.std(ddof=1) / np.sqrt(n)
            if abs(mean - exact[name]) > 3 * se + 1e-9:
                failures.append(
                    f"p={p_true}: {name} off by {abs(mean - exact[name]):.4f} "
                    f"(3 SE = {3 * se:.4f})"
                )
    _verdict(11, "Monte Carlo within 3 SE of enumerated expectations", failures)
