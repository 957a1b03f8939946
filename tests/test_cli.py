"""End-to-end checks of the command line front end.

Everything drives ``surety.cli.main`` in process; two tests run the command
in a fresh interpreter, as ``python -m surety.cli`` and ``python -m surety``.
"""

import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from surety import DegenerateBaseline, Keyring, canonical_hash, market_sim
from surety.cli import _build_parser, _parse_args, main

from conftest import build_agreement


def _write(path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _episode_script(job_id: str = "job-9") -> dict:
    agreement = build_agreement(job_id=job_id)
    draft = agreement.to_dict()
    bound = canonical_hash(agreement)
    # the underwriter's signed approval doubles as its release vote
    u_token = Keyring.demo(["uw-x"]).sign("uw-x", job_id, bound)

    def act(kind, sender_id, role, payload, signature=None):
        return {
            "kind": kind,
            "sender": {"id": sender_id, "role": role},
            "payload": {"job_id": job_id, **payload},
            "signature": signature,
        }

    bound_payload = {"agreement_hash": "auto"}
    return {
        "job_id": job_id,
        "parties": {
            "hana": "human_requestor",
            "shopbot": "business_agent",
            "uw-x": "underwriter",
            "eval-x": "evaluator",
            "settle-x": "settlement",
        },
        "endowments": {
            f"escrow:{job_id}": 0,
            f"collateral:{job_id}": 0,
            "wallet:hana": 1220,
            "wallet:shopbot": 100,
            "treasury:uw-x": 0,
        },
        "actions": [
            act(
                "SubmitRequest",
                "hana",
                "human_requestor",
                {
                    "task_spec": draft["task_spec"],
                    "fee_terms": draft["fee_terms"],
                    "principal_terms": draft["principal_terms"],
                },
            ),
            act("AcceptRequest", "shopbot", "business_agent", {"decision": "accept"}),
            act("ProposeAgreement", "shopbot", "business_agent", {"agreement_draft": draft}),
            act("SignAgreement", "hana", "human_requestor", dict(bound_payload)),
            act("SignAgreement", "shopbot", "business_agent", dict(bound_payload)),
            act(
                "LockFeeEscrow",
                "hana",
                "human_requestor",
                {**bound_payload, "lock_ref": f"{job_id}.fee-lock"},
                "auto",
            ),
            act(
                "RequestUW",
                "shopbot",
                "business_agent",
                {**bound_payload, "coverage_request": {"principal": 1000}},
            ),
            act(
                "UWDecision",
                "uw-x",
                "underwriter",
                {**bound_payload, "decision": "approve", "premium": 20, "collateral_required": 100},
                "auto",
            ),
            act(
                "PayPremium",
                "hana",
                "human_requestor",
                {**bound_payload, "premium": 20, "premium_ref": f"{job_id}.premium"},
                "auto",
            ),
            act(
                "LockCollateral",
                "shopbot",
                "business_agent",
                {**bound_payload, "amount": 100, "collateral_ref": f"{job_id}.collateral"},
                "auto",
            ),
            act(
                "ReleasePrincipal",
                "settle-x",
                "settlement",
                {**bound_payload, "approvals": [u_token], "transfer_ref": f"{job_id}.transfer"},
            ),
            act(
                "SubmitExecutionEvidence",
                "shopbot",
                "business_agent",
                {**bound_payload, "exec_evidence_ref": f"{job_id}.evidence"},
                "auto",
            ),
            act(
                "SubmitDeliverable",
                "shopbot",
                "business_agent",
                {**bound_payload, "deliverable_ref": f"{job_id}.deliverable"},
                "auto",
            ),
            act("EvaluateOutcome", "eval-x", "evaluator", {**bound_payload, "outcome": "pass"}),
            act(
                "SettleFeeEscrow",
                "settle-x",
                "settlement",
                {**bound_payload, "disposition": "release", "settlement_ref": f"{job_id}.fee-settle"},
            ),
            act(
                "SettleCollateral",
                "settle-x",
                "settlement",
                {**bound_payload, "disposition": "unlock", "amount": 100, "settlement_ref": f"{job_id}.coll-settle"},
            ),
        ],
    }


def _covered_fail_script(job_id: str = "job-9") -> dict:
    """``_episode_script`` with a failing evaluation: the fee is refunded, the
    human claims the principal, the collateral is slashed and the rest paid."""
    script = _episode_script(job_id)
    *actions, evaluate, settle_fee, _unlock = script["actions"]
    evaluate["payload"]["outcome"] = "fail"
    settle_fee["payload"]["disposition"] = "refund"

    def act(kind, sender_id, role, **payload):
        return {
            "kind": kind,
            "sender": {"id": sender_id, "role": role},
            "payload": {"job_id": job_id, "agreement_hash": "auto", **payload},
        }

    script["actions"] = [
        *actions,
        evaluate,
        settle_fee,
        act("FileClaim", "hana", "human_requestor", trigger="execution_failure", claimed_loss=1000, evidence_ref="ev"),
        act("SettleCollateral", "settle-x", "settlement", disposition="slash", amount=100, settlement_ref="slash"),
        act("PayClaim", "settle-x", "settlement", payout=900, payout_ref="payout"),
    ]
    return script


# -- validate -----------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"kind": "lambda", "episodes": 50, "seed": 9})
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "ok: kind=lambda episodes=50 seed=9" in out
    assert "config_digest: sha256:" in out


def test_validate_rejects_unknown_field(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"episode": 50})
    assert main(["validate", cfg]) == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_validate_rejects_broken_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize(
    "value, reason",
    [("1e999", "inf is not a finite number"), ("NaN", "nan is not a finite number"), ("-5.0", "-5.0 is negative")],
)
def test_non_finite_or_negative_load_is_an_invalid_config(command, value, reason, tmp_path, capsys):
    # rejected before any draw: no numpy warning, one error line, exit 2
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"kind": "lambda", "episodes": 50, "lambda_grid": [{value}]}}', encoding="utf-8")
    argv = ["validate", str(path)] if command == "validate" else ["sweep", "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid config: lambda_grid: {reason}\n"


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize(
    "config, reason",
    [
        ({"kind": "fpfn", "fp_grid": [2.0]}, "false_positive must lie in [0, 1], got 2.0"),
        ({"kind": "sigmoid", "steepness_grid": [-1.0]}, "steepness must be positive"),
        ({"alpha": 0}, "alpha must be positive"),
        ({"kind": "lambda", "fp": 3.0}, "false_positive must lie in [0, 1], got 3.0"),
        ({"sigma_user": -0.1}, "sigma_user: -0.1 is negative"),
    ],
    ids=["fp-grid", "steepness-grid", "alpha", "fp", "sigma-user"],
)
def test_out_of_range_config_is_an_invalid_config(command, config, reason, tmp_path, capsys):
    # each range is checked by the object that owns it, before any draw
    cfg = _write(tmp_path / "cfg.json", {"episodes": 50, **config})
    argv = ["validate", cfg] if command == "validate" else ["sweep", "--config", cfg]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid config: {reason}\n"


def test_missing_file_is_a_runtime_error(capsys):
    assert main(["validate", "/no/such/file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


# -- usage errors -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["sweep", "--what"],
        ["sweep", "--kind", "delta"],
        ["replay"],
        [],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    capsys.readouterr()


def test_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


def _outcome(call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, or the namespace it returns as a dict."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(call(argv))
        except SystemExit as exc:
            result = None
            code = exc.code
    if result is not None:
        assert out.getvalue() == err.getvalue() == ""
        return result
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["episode"],
        ["episode", "a", "b"],
        ["episode", "--log"],
        ["episode", "--bogus", "a"],
        ["replay", "x", "--bogus"],
        ["replay", "--", "x", "y"],
        ["episode", "-h"],
        ["validate", "--help"],
        ["--help"],
        ["-h", "episode"],
        ["sweep", "--kind", "delta"],
        ["sweep", "--jobs", "two"],
    ],
)
def test_a_usage_error_or_help_prints_what_the_full_parser_prints(argv):
    expected = _outcome(_build_parser().parse_args, argv)
    assert expected[0] in (0, 1)
    assert _outcome(main, argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["episode", "s.json"],
        ["episode", "s.json", "--log", "l.jsonl"],
        ["episode", "--log=l.jsonl", "s.json"],
        ["episode", "--log", "l.jsonl", "s.json"],
        ["episode", "", "--log", "a b"],
        ["episode", "--", "-s.json"],
        ["replay", "l.jsonl"],
        ["replay", " -l.jsonl"],
        ["validate", "c.json"],
        ["sweep"],
        ["sweep", "--mode", "engine", "--jobs", "2", "--kind=fpfn", "--seed", "-3"],
    ],
)
def test_the_direct_parse_gives_the_full_parse_namespace(argv):
    assert _outcome(_parse_args, argv) == _outcome(_build_parser().parse_args, argv)


_WORDS = ["episode", "replay", "validate", "sweep", "--log", "--log=x", "--lo", "-h", "--", "-", "-1", "x", "", "a b", "é"]


@settings(max_examples=300, deadline=None)
@given(argv=st.lists(st.sampled_from(_WORDS), max_size=5))
def test_every_argv_parses_as_the_full_parser_parses_it(argv):
    assert _outcome(_parse_args, argv) == _outcome(_build_parser().parse_args, argv)


@pytest.mark.parametrize("usage_error_first", [True, False])
def test_repeated_main_calls_share_one_parser(usage_error_first, tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"kind": "lambda", "episodes": 50, "seed": 9})

    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "delta"])
        assert exc.value.code == 1
        return capsys.readouterr()

    def validate():
        assert main(["validate", cfg]) == 0
        return capsys.readouterr()

    calls = [usage_error, validate] if usage_error_first else [validate, usage_error]
    outputs = {call.__name__: call() for call in calls}
    assert "invalid choice: 'delta'" in outputs["usage_error"].err
    assert outputs["usage_error"].out == ""
    assert outputs["validate"].out.startswith("ok: kind=lambda episodes=50 seed=9\n")
    assert outputs["validate"].err == ""


# -- sweep ------------------------------------------------------------------------


@pytest.mark.parametrize("kind,cells", [("lambda", 11), ("fpfn", 36), ("sigmoid", 20)])
def test_sweep_row_counts(kind, cells, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["sweep", "--kind", kind, "--episodes", "150", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6 + cells
    assert f"# kind: {kind}" in lines
    assert f"wrote {cells} cells" in capsys.readouterr().err


def test_sweep_stdout_matches_file_and_repeats(tmp_path, capsys):
    cfg = _write(
        tmp_path / "cfg.json",
        {"kind": "lambda", "episodes": 200, "seed": 3, "lambda_grid": [0.0, 0.5]},
    )
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", cfg]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_sweep_cli_overrides_win_over_config(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {"kind": "fpfn", "episodes": 200, "seed": 3, "lambda_grid": [0.0, 0.5]},
    )
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", cfg, "--kind", "lambda", "--seed", "4", "--episodes", "180", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "# kind: lambda"
    assert lines[2] == "# seed: 4"
    assert lines[3] == "# episodes: 180"
    assert len(lines) == 6 + 2  # the config file's grid still applies


def test_sweep_out_to_an_unwritable_path_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # the path is checked before any cell runs
    def run_cell(*args, **kwargs):
        raise AssertionError("ran a cell before checking the output path")

    monkeypatch.setattr(market_sim, "run_cell", run_cell)
    out = tmp_path / "no-such-dir" / "report.csv"
    assert main(["sweep", "--episodes", "50", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}") and captured.err.count("\n") == 1


def test_failed_sweep_leaves_the_out_path_as_it_was(tmp_path, capsys, monkeypatch):
    def run_cell(*args, **kwargs):
        raise DegenerateBaseline("no counterfactual losses in this cell; reduction rates are undefined")

    monkeypatch.setattr(market_sim, "run_cell", run_cell)
    out, fresh = tmp_path / "report.csv", tmp_path / "fresh.csv"
    out.write_bytes(b"an earlier report\n")
    assert main(["sweep", "--episodes", "50", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no counterfactual losses in this cell; reduction rates are undefined\n"
    assert out.read_bytes() == b"an earlier report\n"
    # and a path that did not exist is not left behind as an empty file
    assert main(["sweep", "--episodes", "50", "--out", str(fresh)]) == 2
    assert not fresh.exists()


def test_sweep_engine_mode_writes_identical_report(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {"kind": "lambda", "episodes": 120, "seed": 3, "lambda_grid": [0.0, 0.5]},
    )
    eq, en = tmp_path / "eq.csv", tmp_path / "en.csv"
    assert main(["sweep", "--config", cfg, "--mode", "equations", "--out", str(eq)]) == 0
    assert main(["sweep", "--config", cfg, "--mode", "engine", "--out", str(en)]) == 0
    assert eq.read_bytes() == en.read_bytes()


# -- episode and replay --------------------------------------------------------------


def test_episode_runs_to_close_and_replays(tmp_path, capsys):
    script = _write(tmp_path / "script.json", _episode_script())
    log = tmp_path / "events.jsonl"
    assert main(["episode", script, "--log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "final phase: CLOSED" in out
    assert "balances:" in out
    # fee and principal both ended with the provider
    assert "wallet:shopbot = 1300" in out

    assert main(["replay", str(log)]) == 0
    out = capsys.readouterr().out
    assert "byte-for-byte" in out and "CLOSED" in out


def test_episode_log_replaces_a_longer_file_byte_for_byte(tmp_path, capsys):
    script = _write(tmp_path / "script.json", _episode_script())
    fresh, reused = tmp_path / "fresh.jsonl", tmp_path / "reused.jsonl"
    reused.write_text("x" * 100_000 + "\n", encoding="utf-8")
    assert main(["episode", script, "--log", str(fresh)]) == 0
    assert main(["episode", script, "--log", str(reused)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    capsys.readouterr()
    assert main(["episode", script, "--log", str(tmp_path / "no-such-dir" / "events.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_replay_flags_tampered_log(tmp_path, capsys):
    script = _write(tmp_path / "script.json", _episode_script())
    log = tmp_path / "events.jsonl"
    assert main(["episode", script, "--log", str(log)]) == 0
    capsys.readouterr()

    lines = log.read_text(encoding="utf-8").splitlines()
    last = json.loads(lines[-1])
    last["phase"] = "EVALUATION"  # the machine will recompute CLOSED
    lines[-1] = json.dumps(last, separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert main(["replay", str(log)]) == 2
    err = capsys.readouterr().err
    assert "divergence" in err
    # one error line that names the field, not two raw event lines
    assert err.startswith(f"error: divergence at seq {len(lines) - 1}: field 'phase'") and err.count("\n") == 1


def test_replay_names_an_extra_or_missing_field_or_a_bytes_only_difference(tmp_path, capsys):
    script = _write(tmp_path / "script.json", _episode_script())
    log = tmp_path / "events.jsonl"
    assert main(["episode", script, "--log", str(log)]) == 0
    capsys.readouterr()
    lines = log.read_text(encoding="utf-8").splitlines()

    def replay_with_last(event_line):
        log.write_text("\n".join(lines[:-1] + [event_line]) + "\n", encoding="utf-8")
        assert main(["replay", str(log)]) == 2
        return capsys.readouterr().err

    last = json.loads(lines[-1])
    assert "field 'extra' is not in the replayed event" in replay_with_last(json.dumps({**last, "extra": 1}))
    del last["phase"]
    assert "field 'phase' is missing from the logged event" in replay_with_last(json.dumps(last))
    # the same JSON value written with spaces after the separators
    assert "differ only in bytes" in replay_with_last(json.dumps(json.loads(lines[-1])))


def test_replay_rejects_empty_log(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    log.write_text("", encoding="utf-8")
    assert main(["replay", str(log)]) == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "first_line",
    [
        "[1,2]",
        '"an event"',
        '{"kind":"SubmitRequest","job_id":"job-9","payload":{},"ts":0}',
        '{"kind":"SubmitRequest","job_id":"job-9","actor":["h"],"payload":{},"ts":0}',
        '{"kind":"SubmitRequest","actor":{"id":"h","role":"human_requestor"},"payload":{},"ts":0}',
        '{"kind":"SubmitRequest","job_id":"job-9","actor":{"id":"h","role":"human_requestor"},"ts":0}',
    ],
    ids=["array", "string", "no-actor", "actor-not-object", "no-job-id", "no-payload"],
)
def test_replay_malformed_event_is_a_runtime_error(first_line, tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    log.write_text(first_line + "\n", encoding="utf-8")
    assert main(["replay", str(log)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: malformed") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["episode", "replay"])
def test_non_object_payload_is_a_runtime_error(command, tmp_path, capsys):
    if command == "episode":
        data = _episode_script()
        data["actions"][0]["payload"] = 5
        path = _write(tmp_path / "script.json", data)
    else:
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"kind":"SubmitRequest","job_id":"job-9","actor":{"id":"hana","role":"human_requestor"},'
            '"payload":5,"ts":0}\n',
            encoding="utf-8",
        )
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "payload must be" in err


def _bad_episode_script(case: str):
    data = _episode_script()
    if case == "string-script":
        return "job_id parties actions"
    if case == "int-actions":
        data["actions"] = 5
    elif case == "list-endowments":
        data["endowments"] = [1]
    elif case == "auto-signer-not-a-party":
        data["actions"][5]["sender"] = {"id": "mallory", "role": "human_requestor"}
    return data


@pytest.mark.parametrize(
    "command,case",
    [
        ("episode", "string-script"),
        ("episode", "int-actions"),
        ("episode", "list-endowments"),
        ("episode", "auto-signer-not-a-party"),
        ("replay", "int-actor-id"),
    ],
)
def test_bad_input_is_one_error_line_not_a_traceback(command, case, tmp_path, capsys):
    if command == "episode":
        path = _write(tmp_path / "script.json", _bad_episode_script(case))
    else:
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"kind":"SubmitRequest","job_id":"job-9","actor":{"id":5,"role":"human_requestor"},"payload":{},"ts":0}\n',
            encoding="utf-8",
        )
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_episode_script_validation(tmp_path, capsys):
    script = _write(tmp_path / "script.json", {"job_id": "j", "actions": []})
    assert main(["episode", script]) == 2
    assert "parties" in capsys.readouterr().err


def test_episode_auto_hash_unwinds_after_negotiation_cancel(tmp_path, capsys):
    # with a draft on the table and nothing bound, "auto" resolves per action:
    # the cancel binds to the draft, the unwind to the (absent) bound agreement
    data = _episode_script()
    job_id = data["job_id"]
    data["actions"] = data["actions"][:3] + [
        {
            "kind": "CancelJob",
            "sender": {"id": "hana", "role": "human_requestor"},
            "payload": {"job_id": job_id, "agreement_hash": "auto", "reason": "changed my mind"},
            "signature": "auto",
        },
        {
            "kind": "UnwindPreExecution",
            "sender": {"id": "settle-x", "role": "settlement"},
            "payload": {"job_id": job_id, "agreement_hash": "auto"},
        },
    ]
    log = tmp_path / "events.jsonl"
    assert main(["episode", _write(tmp_path / "script.json", data), "--log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "UnwindPreExecution by settle-x" in out
    assert "final phase: CANCELLED" in out
    assert main(["replay", str(log)]) == 0


def test_episode_rejected_action_exits_2(tmp_path, capsys):
    data = _episode_script()
    # skip straight to a transaction action: not enabled on a fresh job
    data["actions"] = data["actions"][5:6]
    script = _write(tmp_path / "script.json", data)
    assert main(["episode", script]) == 2
    assert "error:" in capsys.readouterr().err


# -- no input prints a traceback ---------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**70), max_value=2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def _document(draw, valid):
    """``valid`` with one to three values replaced or deleted, or arbitrary JSON."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            return draw(_JSON)
        if draw(st.booleans()):
            parent[key] = draw(_JSON)
        else:
            del parent[key]
    return doc


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory, and the event log of the valid episode script as parsed records."""
    path = tmp_path_factory.mktemp("no-traceback")
    script, log = path / "script.json", path / "events.jsonl"
    _write(script, _episode_script())
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["episode", str(script), "--log", str(log)]) == 0
    return path, [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_episode_never_prints_a_traceback(scratch, data):
    path, _ = scratch
    script = _write(path / "script.json", data.draw(_document(_episode_script())))
    rc, err = _run_quietly(["episode", script, "--log", str(path / "events.jsonl")])
    assert rc in (0, 2)
    assert rc == 0 or err.startswith("error:")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_replay_never_prints_a_traceback(scratch, data):
    path, events = scratch
    doc = data.draw(_document(events))
    lines = doc if isinstance(doc, list) else [doc]
    log = path / "replay.jsonl"
    log.write_text("".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines), encoding="utf-8")
    rc, err = _run_quietly(["replay", str(log)])
    assert rc in (0, 2)
    assert rc == 0 or err.startswith("error:")


# -- console script --------------------------------------------------------------


def test_console_script_entry_point(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"kind": "lambda", "episodes": 50})
    proc = subprocess.run(
        [sys.executable, "-m", "surety.cli", "validate", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "config_digest" in proc.stdout


def test_python_dash_m_surety_runs_from_a_checkout(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"kind": "lambda", "episodes": 50})
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "surety", "validate", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "config_digest" in proc.stdout


def _surety_in_a_fresh_interpreter(argv, hash_seed: int) -> bytes:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run([sys.executable, "-m", "surety", *argv], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # enum members hash by identity and strings by the seed, so no output
    # may follow the iteration order of a set of either
    script = _write(tmp_path / "script.json", _covered_fail_script())
    runs = []
    for hash_seed in (0, 4242):
        log = tmp_path / f"events-{hash_seed}.jsonl"
        episode = _surety_in_a_fresh_interpreter(["episode", script, "--log", str(log)], hash_seed)
        sweep = _surety_in_a_fresh_interpreter(["sweep", "--mode", "engine", "--episodes", "40"], hash_seed)
        runs.append((episode, log.read_bytes(), sweep))
    episode, _log, sweep = runs[0]
    assert b"final phase: CLOSED" in episode and b"PayClaim 900" in episode
    assert sum(not line.startswith(b"#") for line in sweep.splitlines()) == 12  # header and 11 cells
    assert runs[0] == runs[1]


def _one_party_two_seats_script(job_id: str = "job-9") -> dict:
    """An assistant job whose assistant names itself as the human principal, so
    both of its approvals carry one token; ReleasePrincipal then presents that
    token and the underwriter's."""
    script = _episode_script(job_id)
    script["parties"]["hana"] = "assistant_requestor"
    actions = script["actions"]
    submit = actions[0]
    submit["sender"]["role"] = "assistant_requestor"
    submit["payload"]["principal"] = "hana"
    for action in actions[3], actions[5]:  # the requestor's SignAgreement and LockFeeEscrow
        action["sender"]["role"] = "assistant_requestor"
    bound = canonical_hash(build_agreement(job_id=job_id))
    keyring = Keyring.demo(["hana", "uw-x"])
    release = actions[10]
    release["payload"]["approvals"] = [keyring.sign("hana", job_id, bound), keyring.sign("uw-x", job_id, bound)]
    approve = [
        {
            "kind": "ApproveRelease",
            "sender": {"id": "hana", "role": role},
            "payload": {"job_id": job_id, "agreement_hash": "auto"},
            "signature": "auto",
        }
        # the human first: with the underwriter's vote on record, the assistant's completes the predicate
        for role in ("human_requestor", "assistant_requestor")
    ]
    script["actions"] = [*actions[:10], *approve, *actions[10:]]
    return script


def test_an_approval_token_names_one_role_under_every_hash_seed(tmp_path):
    # the second approval reuses the first one's token, so it is refused
    # under every hash seed, not only under those that order the set one way
    script = _write(tmp_path / "script.json", _one_party_two_seats_script())
    src = Path(__file__).resolve().parents[1] / "src"
    runs = set()
    for hash_seed in (0, 1, 2, 4242):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(hash_seed)}
        proc = subprocess.run([sys.executable, "-m", "surety", "episode", script], capture_output=True, env=env)
        runs.add((proc.returncode, proc.stdout, proc.stderr))
    assert len(runs) == 1
    (returncode, stdout, stderr), = runs
    assert returncode == 2
    assert stdout.splitlines()[-1].startswith(b"[10] ApproveRelease by hana -> ")
    assert stderr == b"error: ApproveRelease: approval token is already on record for another role or party\n"
