"""The machine's step stream, pinned.

Every ``SettlementMachine.apply`` that returns is recorded, in order: the
event line it logged (``cli._event_line`` of ``state.log[-1]``) and each
ledger instruction it emitted, as (kind value, job, hash, amount, source,
dest, ref). The records cover one small engine-mode sweep of each kind,
in one process, and ``episode`` plus ``replay`` of every
``tests/cli_golden`` script. One sha256 over them is pinned: a faster
step must emit the same events and the same custody moves, in the same
order, as the step it replaces.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from surety import cli, lifecycle
from surety.market_sim import SweepConfig, run_sweep

GOLDEN = Path(__file__).resolve().parent / "cli_golden"

SWEEPS = (
    {"kind": "lambda", "episodes": 100, "seed": 11, "lambda_grid": [0.0, 0.4, 1.0]},
    {"kind": "fpfn", "episodes": 100, "seed": 11, "fp_grid": [0.0, 0.6], "fn_grid": [0.2]},
    {"kind": "sigmoid", "episodes": 100, "seed": 11, "midpoint_grid": [0.1, 0.25], "steepness_grid": [20.0]},
)

# recorded at the parent of the cheaper step, before any of it was written
STEPS = 3_859
DIGEST = "9fa2b9463a21719f9cb020922e19ba541d0c24d43f61445d94a9c7e3114532db"


def _record(records: list):
    real = lifecycle.SettlementMachine.apply

    def apply(self, state, action, now):
        result = real(self, state, action, now)
        records.append(cli._event_line(result.state.log[-1]))
        for i in result.instructions:
            records.append(repr((i.kind.value, i.job_id, i.agreement_hash, i.amount, i.source, i.dest, i.ref)))
        return result

    return apply


def test_the_step_stream_of_sweeps_and_golden_scripts_is_pinned(monkeypatch, tmp_path):
    records: list = []
    monkeypatch.setattr(lifecycle.SettlementMachine, "apply", _record(records))
    for data in SWEEPS:
        run_sweep(SweepConfig.from_dict(data), mode="engine")
    monkeypatch.chdir(tmp_path)
    for script in sorted(GOLDEN.glob("*.json")):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(["episode", str(script), "--log", "events.jsonl"])
            cli.main(["replay", "events.jsonl"])
    steps = sum(1 for record in records if record.startswith("{"))
    digest = hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()
    assert (steps, digest) == (STEPS, DIGEST)
