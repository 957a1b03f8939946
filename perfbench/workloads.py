"""The three benchmark workloads.

Each workload generates its inputs from the seed when it is built (that
is the set-up the benchmark times), then offers ``op(i)``: one timed call
into the program on input ``i``, returning the output and the work units
it did, and ``check(i, output)``: the output check, which returns None or
the reason the output is wrong. An optional ``stage(i)`` puts input ``i``
where ``op`` reads it, untimed. A closed loop with one caller drives
``op``; inputs are cycled by index, so input ``i`` is the same for every
run with the same seed.

* engine-sweep: the lambda grid with every episode played through the
  settlement machine, one process. Checked against equations mode.
* wide-sweep: the fp/fn grid in equations mode with two worker
  processes; numpy work, CRN draws and the pool dominate and the machine
  only runs the 32-episode cross-checks. Checked against one process.
* kernel-replay: a corpus of job scripts run through ``surety episode``,
  verified with ``surety replay``, plus one probe per job that the machine
  must reject. Checked by replaying every log against a ledger.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from surety import cli, lifecycle, market_sim
from surety.actions import Action, ActionKind
from surety.agreement import Keyring, PartyRef, Role
from surety.errors import TransitionError
from surety.ledger import Ledger

import corpus

# distinct seeded inputs per run; a run uses far fewer than this
SWEEP_INPUTS = 256
JOBS = 2_000


def _sweep_configs(seed: int, kind: str, episodes: int) -> list:
    rng = random.Random(seed)
    return [
        market_sim.SweepConfig(kind=kind, episodes=episodes, seed=rng.randrange(2**31))
        for _ in range(SWEEP_INPUTS)
    ]


class EngineSweep:
    """11-cell lambda grid, ``mode='engine'``, one process."""

    name = "engine-sweep"
    sweep = True

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.configs = _sweep_configs(seed, "lambda", 60 if tiny else 200)

    def op(self, i: int):
        config = self.configs[i % len(self.configs)]
        result = market_sim.run_sweep(config, mode="engine", jobs=1)
        return market_sim.render_csv(result), len(result.cells) * config.episodes

    def check(self, i: int, csv: str):
        config = self.configs[i % len(self.configs)]
        if csv != market_sim.render_csv(market_sim.run_sweep(config, mode="equations")):
            return f"seed {config.seed}: engine-mode CSV differs from the equations-mode CSV"
        return None


class WideSweep:
    """36-cell fp/fn grid, ``mode='equations'`` with the default cross-check,
    ``workers`` pool processes (2; 1 in the traced run, whose spans cannot
    come from pool workers)."""

    name = "wide-sweep"
    sweep = True

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.configs = _sweep_configs(seed, "fpfn", 2_000 if tiny else 300_000)
        self.workers = 2

    def op(self, i: int):
        config = self.configs[i % len(self.configs)]
        result = market_sim.run_sweep(config, mode="equations", jobs=self.workers)
        return market_sim.render_csv(result), len(result.cells) * config.episodes

    def check(self, i: int, csv: str):
        if self.workers == 1:
            return None  # the output is itself the one-process reference
        config = self.configs[i % len(self.configs)]
        if csv != market_sim.render_csv(market_sim.run_sweep(config, mode="equations", jobs=1)):
            return f"seed {config.seed}: CSV with {self.workers} workers differs from the one-process CSV"
        return None


def _action(spec: dict) -> Action:
    sender = spec["sender"]
    return Action(
        kind=ActionKind(spec["kind"]),
        sender=PartyRef(sender["id"], Role(sender["role"])),
        payload=spec["payload"],
        signature=spec.get("signature"),
    )


class KernelReplay:
    """Job scripts through ``surety episode --log`` and ``surety replay``,
    plus one must-reject probe per job applied with ``SettlementMachine.apply``.

    Every job reuses one script path and one log path: creating thousands
    of files makes this file system slower run after run, which would
    swamp the program's own time."""

    name = "kernel-replay"
    sweep = False

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.jobs = corpus.build_corpus(seed, 40 if tiny else JOBS)
        self.probes = [_action(job.probe) for job in self.jobs]
        workdir.mkdir(parents=True, exist_ok=True)
        self.script = str(workdir / "script.json")
        self.log = str(workdir / "events.jsonl")

    def stage(self, i: int) -> None:
        """Write job ``i``'s script where ``op`` reads it (not timed)."""
        with open(self.script, "w", encoding="utf-8") as fh:
            fh.write(self.jobs[i % len(self.jobs)].script)

    def op(self, i: int):
        n = i % len(self.jobs)
        job = self.jobs[n]
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            rc_episode = cli.main(["episode", self.script, "--log", self.log])
            rc_replay = cli.main(["replay", self.log])
        with open(self.log, encoding="utf-8") as fh:
            text = fh.read()
        events = [json.loads(line) for line in text.splitlines()[: job.probe_at]]
        machine = lifecycle.SettlementMachine(Keyring.demo(list(job.parties)))
        state = lifecycle.replay(machine, events)
        try:
            machine.apply(state, self.probes[n], job.probe_at)
            probe = "accepted"
        except TransitionError as exc:
            probe = type(exc).__name__
        return (rc_episode, rc_replay, probe, text), 1

    def check(self, i: int, output):
        job = self.jobs[i % len(self.jobs)]
        rc_episode, rc_replay, probe, text = output
        if (rc_episode, rc_replay) != (0, 0):
            return f"{job.job_id}: episode exited {rc_episode}, replay exited {rc_replay}"
        if probe != job.probe_rejects_with:
            return f"{job.job_id}: probe {job.probe['kind']} gave {probe}, expected {job.probe_rejects_with}"
        lines = text.splitlines()
        if len(lines) != job.actions:
            return f"{job.job_id}: log has {len(lines)} events for {job.actions} actions"
        ledger = Ledger()
        for account, balance in job.endowments.items():
            ledger.open_account(account, balance)
        supply = ledger.total_supply()
        machine = lifecycle.SettlementMachine(Keyring.demo(list(job.parties)))
        state = lifecycle.new_job(job.job_id)
        for seq, line in enumerate(lines):
            event = json.loads(line)
            state, instructions = machine.apply(state, _action({**event, "sender": event["actor"]}), event["ts"])
            for instruction in instructions:
                ledger.ensure_account(instruction.source)
                ledger.ensure_account(instruction.dest)
                ledger.execute(instruction)
            if json.dumps(state.log[-1], separators=(",", ":")) != line:
                return f"{job.job_id}: replay diverges from the log at seq {seq}"
            if ledger.total_supply() != supply:
                return f"{job.job_id}: value not conserved at seq {seq}"
        if state.phase.value != job.final_phase:
            return f"{job.job_id}: ended {state.phase.value}, expected {job.final_phase}"
        balances = ledger.balances()
        for vault in (f"escrow:{job.job_id}", f"collateral:{job.job_id}"):
            if balances.get(vault, 0) != 0:
                return f"{job.job_id}: {vault} holds {balances[vault]} at the end"
        return None


WORKLOADS = {w.name: w for w in (EngineSweep, WideSweep, KernelReplay)}
