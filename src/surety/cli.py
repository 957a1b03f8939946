"""Command line front end.

Subcommands:

* ``sweep``     run a market sweep and write the CSV report
* ``episode``   drive one job through the machine from a JSON action script
* ``replay``    verify a JSONL event log byte-for-byte against the machine
* ``validate``  check a sweep config file and print its digest

Exit codes: 0 on success, 1 for usage errors, 2 for runtime failures
(invalid config, rejected action, replay divergence, degenerate metrics).

``episode`` writes its standard output once, when it ends: every step and
receipt line, the final phase and the balances, also when an action is
rejected; then ``main`` prints the ``error:`` line. Event lines are
compact JSON from one encoder made at import (``_event_line``), which
writes the log and renders the replay's byte check.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Optional

from .actions import ACTION_SPECS, Action, ActionKind
from .agreement import Keyring, PartyRef, Role
from .errors import SuretyError
from .ledger import Ledger
from .lifecycle import SettlementMachine, new_job, replay, subject_hash
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


def _write_text(path: str, render: Callable[[], str]) -> None:
    """Write ``render()`` to ``path``; a path that cannot be written is a runtime error.

    ``path`` is opened before ``render`` runs, so an unwritable path fails
    before any work. If ``render`` raises, an existing file keeps its bytes
    and a file this call created is removed. The file is overwritten in
    place and cut to length: a truncating open of an existing file costs
    more than the whole write.
    """
    existed = os.path.exists(path)
    try:
        fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise SuretyError(f"cannot write {path}: {exc}") from exc
    with fh:
        try:
            text = render()
        except BaseException:
            if not existed:
                os.remove(path)
            raise
        try:
            fh.write(text)
            fh.truncate()
        except OSError as exc:
            raise SuretyError(f"cannot write {path}: {exc}") from exc


def _config(data) -> SweepConfig:
    try:
        return SweepConfig.from_dict(data)
    except ValueError as exc:
        raise SuretyError(f"invalid config: {exc}") from exc


def _effective_config(args) -> SweepConfig:
    config = _config(_load_json(args.config) if args.config else {})
    overrides = {}
    if args.kind is not None:
        overrides["kind"] = args.kind
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if overrides:
        config = _config({**config.to_dict(), **overrides})
    return config


def cmd_sweep(args) -> int:
    config = _effective_config(args)

    def report() -> str:
        return render_csv(run_sweep(config, mode=args.mode, jobs=max(1, args.jobs)))

    if args.out:
        _write_text(args.out, report)
        print(f"wrote {len(config.cells())} cells to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(report())
    return 0


# one encoder for every event line: the log writer, the replay check and _first_difference
_event_line = json.JSONEncoder(separators=(",", ":")).encode


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
    out = []  # stdout, written once: also when an action is rejected
    try:
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
            phase, principal = state.phase, state.principal_state
            out.append(
                f"[{state.seq - 1}] {kind.value} by {sender.id} -> phase={phase.value if phase else '-'} "
                f"fee={state.fee_state.value} principal={principal.value if principal else '-'}\n"
            )
            for instruction in instructions:
                ledger.ensure_account(instruction.source)
                ledger.ensure_account(instruction.dest)
                ledger.execute(instruction)
                out.append(
                    f"      {instruction.kind.value} {instruction.amount} "
                    f"{instruction.source} -> {instruction.dest} (ref {instruction.ref})\n"
                )

        out.append(f"final phase: {state.phase.value if state.phase else '-'}\n")
        balances = ledger.balances()
        if balances:
            out.append("balances:\n")
            out.extend(f"  {account} = {balances[account]}\n" for account in sorted(balances))
    finally:
        sys.stdout.write("".join(out))
    if args.log:
        _write_text(args.log, lambda: "".join([_event_line(event) + "\n" for event in state.log]))
        print(f"event log written to {args.log}", file=sys.stderr)
    return 0


def _first_difference(logged: dict, replayed: dict) -> str:
    """Name the first field in which a logged event and its replay differ."""
    for key, value in replayed.items():
        if key not in logged:
            return f"field {key!r} is missing from the logged event"
        if logged[key] != value:
            return f"field {key!r} is {_event_line(logged[key])} in the log, {_event_line(value)} on replay"
    for key in logged:
        if key not in replayed:
            return f"field {key!r} is not in the replayed event"
    return "the events are equal as JSON values and differ only in bytes"


def cmd_replay(args) -> int:
    try:
        with open(args.log, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().split("\n") if line.strip()]
    except OSError as exc:
        raise SuretyError(f"cannot read {args.log}: {exc}") from exc
    events = [json.loads(line) for line in lines]

    try:
        actor_ids = sorted({event["actor"]["id"] for event in events})
    except (KeyError, TypeError) as exc:
        raise SuretyError(f"malformed event log: events must be JSON objects with an actor.id ({exc!r})") from exc
    if not all(isinstance(actor_id, str) for actor_id in actor_ids):
        raise SuretyError("malformed event log: every actor.id must be a string")

    def check(i: int, state) -> None:
        replayed = state.log[-1]
        if _event_line(replayed) != lines[i]:
            raise SuretyError(f"divergence at seq {i}: {_first_difference(events[i], replayed)}")

    state = replay(SettlementMachine(Keyring.demo(actor_ids)), events, check)
    print(f"replayed {len(events)} events byte-for-byte; final phase {state.phase.value}")
    return 0


def cmd_validate(args) -> int:
    config = _config(_load_json(args.config))
    print(f"ok: kind={config.kind} episodes={config.episodes} seed={config.seed}")
    print(f"config_digest: sha256:{config.digest()}")
    return 0


_COMMANDS = {
    "sweep": cmd_sweep,
    "episode": cmd_episode,
    "replay": cmd_replay,
    "validate": cmd_validate,
}


def _plain(*values) -> bool:
    return all(not value.startswith("-") for value in values)


# A second parse path, kept for speed: with it deleted, perfbench kernel-replay throughput
# fell to a median 0.91x, lower in 8 of 10 alternating 20 s pairs (CPython 3.11, 2-core VM).
# CHANGES.md has the runs.
def _job_command(argv: list) -> Optional[argparse.Namespace]:
    """The namespace of ``replay LOG``, ``episode SCRIPT`` or ``episode SCRIPT --log LOG``.

    None for any other argv, and for these shapes when a value starts with
    "-". argparse reads a value that does not start with "-" only as what
    its place makes it, the positional or the argument of ``--log``, so
    these argvs parse to the same namespace without it.
    """
    match argv:
        case ["replay", str(log)] if _plain(log):
            return argparse.Namespace(command="replay", log=log)
        case ["episode", str(script)] if _plain(script):
            return argparse.Namespace(command="episode", script=script, log=None)
        case ["episode", str(script), "--log", str(log)] if _plain(script, log):
            return argparse.Namespace(command="episode", script=script, log=log)
    return None


def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``; a scripted job's argv (``_job_command``) skips argparse.

    Every other argv takes the full parse, so every usage message and exit
    code comes from the same parser as before.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _job_command(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SuretyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
