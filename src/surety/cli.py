"""Command line front end.

Subcommands:

* ``sweep``     run a market sweep and write the CSV report
* ``episode``   drive one job through the machine from a JSON action script
* ``replay``    verify a JSONL event log byte-for-byte against the machine
* ``validate``  check a sweep config file and print its digest

Exit codes: 0 on success, 1 for usage errors, 2 for runtime failures
(invalid config, rejected action, replay divergence, degenerate metrics).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .actions import ACTION_SPECS, Action, ActionKind
from .agreement import Keyring, PartyRef, Role
from .errors import SuretyError
from .ledger import Ledger
from .lifecycle import SettlementMachine, decode_event, new_job, subject_hash
from .market_sim import SweepConfig, render_csv, run_sweep


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for runtime
    # failures, so usage problems exit 1 instead
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="surety", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sweep = sub.add_parser("sweep", help="run a market sweep and write CSV")
    p_sweep.add_argument("--kind", choices=("lambda", "fpfn", "sigmoid"), help="sweep axis")
    p_sweep.add_argument("--config", help="JSON config file")
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")
    p_sweep.add_argument("--seed", type=int, help="override the RNG seed")
    p_sweep.add_argument("--episodes", type=int, help="override episodes per cell")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_sweep.add_argument(
        "--mode",
        choices=("equations", "engine"),
        default="equations",
        help="equations: vectorized with spot checks; engine: every episode through the machine",
    )

    p_episode = sub.add_parser("episode", help="drive one job from a JSON action script")
    p_episode.add_argument("script", help="JSON file with parties, endowments, and actions")
    p_episode.add_argument("--log", help="write the event log as JSONL to this path")

    p_replay = sub.add_parser("replay", help="verify a JSONL event log against the machine")
    p_replay.add_argument("log", help="JSONL event log file")

    p_validate = sub.add_parser("validate", help="check a sweep config file")
    p_validate.add_argument("config", help="JSON config file")
    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SuretyError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SuretyError(f"{path} is not valid JSON: {exc}") from exc


def _effective_config(args) -> SweepConfig:
    data = _load_json(args.config) if args.config else {}
    try:
        config = SweepConfig.from_dict(data)
    except ValueError as exc:
        raise SuretyError(f"invalid config: {exc}") from exc
    overrides = {}
    if args.kind is not None:
        overrides["kind"] = args.kind
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if overrides:
        try:
            config = SweepConfig.from_dict({**config.to_dict(), **overrides})
        except ValueError as exc:
            raise SuretyError(f"invalid config: {exc}") from exc
    return config


def cmd_sweep(args) -> int:
    config = _effective_config(args)
    result = run_sweep(config, mode=args.mode, jobs=max(1, args.jobs))
    text = render_csv(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(result.cells)} cells to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _event_line(event: dict) -> str:
    return json.dumps(event, separators=(",", ":"))


def cmd_episode(args) -> int:
    script = _load_json(args.script)
    if not isinstance(script, dict):
        raise SuretyError("episode script must be a JSON object")
    for key in ("job_id", "parties", "actions"):
        if key not in script:
            raise SuretyError(f"episode script is missing {key!r}")
    job_id = script["job_id"]
    parties = script["parties"]
    if not isinstance(parties, dict) or not parties:
        raise SuretyError("parties must map party ids to roles")
    if not isinstance(script["actions"], list):
        raise SuretyError("actions must be a list")
    endowments = script.get("endowments") or {}
    if not isinstance(endowments, dict):
        raise SuretyError("endowments must map accounts to balances")
    keyring = Keyring.demo(list(parties))
    machine = SettlementMachine(keyring)

    ledger = Ledger()
    for account, balance in endowments.items():
        ledger.open_account(account, balance)

    state = new_job(job_id)
    ts = 0
    for i, spec in enumerate(script["actions"]):
        try:
            kind = ActionKind(spec["kind"])
            sender_spec = spec["sender"]
            sender = PartyRef(sender_spec["id"], Role(sender_spec["role"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SuretyError(f"action {i}: malformed: {exc}") from exc
        signature = spec.get("signature")
        ts = spec.get("ts", ts)
        payload = spec.get("payload", {})
        if not isinstance(payload, dict):
            raise SuretyError(f"action {i}: payload must be a JSON object")
        payload = dict(payload)
        # convenience: "auto" stands for the hash this action binds to, as the machine checks it
        subject = subject_hash(state, ACTION_SPECS[kind].binding)
        if payload.get("agreement_hash") == "auto":
            payload["agreement_hash"] = subject
        if signature == "auto":
            if not keyring.has(sender.id):
                raise SuretyError(f"action {i}: cannot sign for {sender.id!r}, which is not in parties")
            signature = keyring.sign(sender.id, job_id, subject or "")
        action = Action(kind=kind, sender=sender, payload=payload, signature=signature)
        state, instructions = machine.apply(state, action, ts)
        ts += 1
        parts = [
            f"[{state.seq - 1}] {kind.value} by {sender.id}",
            f"-> phase={state.phase.value if state.phase else '-'}",
            f"fee={state.fee_state.value}",
            f"principal={state.principal_state.value if state.principal_state else '-'}",
        ]
        print(" ".join(parts))
        for instruction in instructions:
            ledger.ensure_account(instruction.source)
            ledger.ensure_account(instruction.dest)
            receipt = ledger.execute(instruction)
            print(
                f"      {receipt.kind.value} {receipt.amount} "
                f"{receipt.source} -> {receipt.dest} (ref {receipt.ref})"
            )

    print(f"final phase: {state.phase.value if state.phase else '-'}")
    if ledger.balances():
        print("balances:")
        for account in sorted(ledger.balances()):
            print(f"  {account} = {ledger.balance(account)}")
    if args.log:
        text = "".join(_event_line(event) + "\n" for event in state.log)
        try:
            # overwrite in place and cut to length: a truncating open of an
            # existing file costs more than the whole write
            fd = os.open(args.log, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
                fh.truncate()
        except OSError as exc:
            raise SuretyError(f"cannot write {args.log}: {exc}") from exc
        print(f"event log written to {args.log}", file=sys.stderr)
    return 0


def cmd_replay(args) -> int:
    try:
        with open(args.log, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise SuretyError(f"cannot read {args.log}: {exc}") from exc
    if not lines:
        raise SuretyError("event log is empty")
    events = [json.loads(line) for line in lines]

    try:
        actor_ids = sorted({event["actor"]["id"] for event in events})
        job_id = events[0]["job_id"]
    except (KeyError, TypeError) as exc:
        raise SuretyError(
            f"malformed event log: events must be JSON objects with actor.id and job_id ({exc!r})"
        ) from exc
    if not all(isinstance(actor_id, str) for actor_id in actor_ids):
        raise SuretyError("malformed event log: every actor.id must be a string")
    machine = SettlementMachine(Keyring.demo(actor_ids))
    state = new_job(job_id)
    for i, event in enumerate(events):
        state, _ = machine.apply(state, *decode_event(i, event))
        replayed = _event_line(state.log[-1])
        if replayed != lines[i]:
            print(f"divergence at seq {i}:", file=sys.stderr)
            print(f"  logged:   {lines[i]}", file=sys.stderr)
            print(f"  replayed: {replayed}", file=sys.stderr)
            return 2
    print(f"replayed {len(events)} events byte-for-byte; final phase {state.phase.value}")
    return 0


def cmd_validate(args) -> int:
    data = _load_json(args.config)
    try:
        config = SweepConfig.from_dict(data)
    except ValueError as exc:
        raise SuretyError(f"invalid config: {exc}") from exc
    print(f"ok: kind={config.kind} episodes={config.episodes} seed={config.seed}")
    print(f"config_digest: sha256:{config.digest()}")
    return 0


_COMMANDS = {
    "sweep": cmd_sweep,
    "episode": cmd_episode,
    "replay": cmd_replay,
    "validate": cmd_validate,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SuretyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
