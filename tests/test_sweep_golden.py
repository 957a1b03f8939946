"""Golden bytes of the sweep CSVs.

``cli_golden`` pins what the CLI prints; this pins what a sweep renders.
For five configurations, three in equations mode and two played through
the settlement machine in engine mode, the test pins the sha256 of
``render_csv(run_sweep(config, mode))``. A change to the draws, the
pricing, the economics or the CSV layout moves a hash.
"""

from __future__ import annotations

import hashlib

import pytest

from surety.market_sim import SweepConfig, render_csv, run_sweep

# (config, mode) -> sha256 of the rendered CSV
PINS = [
    (SweepConfig(kind="lambda"), "equations", "094346a9af9136b509548456e05235ee6489396642111c9dbd6fdc9e553cae79"),
    (
        SweepConfig(kind="fpfn", episodes=300_000),
        "equations",
        "7605d9658a21a0942264be95a8bc0dc87aa286b6cf783bf7944810ec46dbec4b",
    ),
    (SweepConfig(kind="sigmoid"), "equations", "5f86e887bce02c3d0fc16544ae23a339268b5732e286533746331225a0c85d18"),
    (
        SweepConfig(kind="lambda", episodes=300, seed=5),
        "engine",
        "e8e4c82bcd61e91b2fc47eb5d248ca922a5a3cd77c10b4b75cc95062b886c40e",
    ),
    (
        SweepConfig(kind="fpfn", episodes=100, seed=7),
        "engine",
        "77eddc3de686bac87372e72c9483fb10bb33e9e92d47bf1da952f0aaf06c8544",
    ),
]


@pytest.mark.parametrize(
    "config, mode, digest",
    PINS,
    ids=[f"{config.kind}-{mode}-{config.episodes}-seed{config.seed}" for config, mode, _ in PINS],
)
def test_sweep_csv_bytes_are_pinned(config, mode, digest):
    csv = render_csv(run_sweep(config, mode))
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest
