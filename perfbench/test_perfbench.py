"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from surety import cli, market_sim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _command(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_metrics_the_command_prints():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_and_passes_its_checks(workload, trace):
    done = _command(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _command("engine-sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_corpus_covers_every_ending_role_and_probe():
    jobs = corpus.build_corpus(3, 300)
    assert {job.ending for job in jobs} == set(corpus.ENDINGS)
    roles = {json.loads(job.script)["actions"][0]["sender"]["role"] for job in jobs}
    assert roles == {"human_requestor", "assistant_requestor"}
    probes = {(job.probe["kind"], job.probe_rejects_with) for job in jobs}
    assert {("ReleasePrincipal", "PolicyViolation"), ("LockFeeEscrow", "BadBinding"),
            ("CancelJob", "BadBinding")} <= probes


def test_corrupted_log_counts_as_failed(tmp_path, monkeypatch):
    bench = workloads.KernelReplay(5, True, tmp_path)
    real_main = cli.main

    def corrupting_main(argv):
        rc = real_main(argv)
        if argv[0] == "episode":
            log = Path(argv[argv.index("--log") + 1])
            log.write_text(log.read_text().replace('"phase":"REQUEST"', '"phase":"CLOSED"', 1))
        return rc

    monkeypatch.setattr(cli, "main", corrupting_main)
    assert run.run_pass(bench, count=4).failed == 4


def test_tampered_csv_counts_as_failed_and_fails_the_command(monkeypatch, capsys):
    real_run_sweep = market_sim.run_sweep

    def tampered_run_sweep(config, mode="equations", **kwargs):
        result = real_run_sweep(config, mode=mode, **kwargs)
        if mode == "engine":
            first = dataclasses.replace(result.cells[0], wallet_final_minor=result.cells[0].wallet_final_minor + 1)
            result = dataclasses.replace(result, cells=(first,) + result.cells[1:])
        return result

    monkeypatch.setattr(market_sim, "run_sweep", tampered_run_sweep)
    rc = run.main(["--workload", "engine-sweep", "--seed", "7", "--seconds", "0.5", "--trace", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_tracer_restores_the_program_and_derives_self_time():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _n, _t in tracing._TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        config = market_sim.SweepConfig(episodes=60, lambda_grid=(0.0,))
        tracer.span(tracing.ROOT, lambda: market_sim.render_csv(market_sim.run_sweep(config)))
    finally:
        tracer.uninstall()
    assert {(o, a): o.__dict__[a] for o, a in originals} == originals
    names = [span[0] for span in tracer.spans]
    assert {"market_sim.run_cell", "engine.check_episode", "lifecycle.apply", "ledger.execute"} <= set(names)
    metrics = tracing.layer_metrics(tracer.spans, 2, 1, 60)
    assert list(metrics) == list(tracing.PER_LAYER_UNITS)
    assert metrics["market_sim.run_cell.calls"] == 1
    assert metrics["market_sim.cross_check.episodes"] == 32
    assert metrics["trace.overhead_share"] == 1.0
    assert 0 <= metrics["trace.unattributed_share"] < 1
