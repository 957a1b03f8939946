"""Golden bytes of ``surety episode`` and ``surety replay``.

Each script in ``cli_golden/`` is one corpus job: every ending the
benchmark corpus has, under a human and under an assistant requestor,
plus ``rejected-midway``, whose PayPremium pays the wrong amount. For
each script the test pins the exit codes of ``episode --log`` and of
``replay`` on that log, and the sha256 of their stdout and stderr and of
the log bytes. The commands run in a scratch working directory with a
relative log path, so the stderr line that names the log is the same on
every machine.
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from surety.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden"
LOG = "events.jsonl"


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def golden_record(script: Path) -> dict:
    """Run ``episode --log`` and ``replay`` on ``script`` in the current directory."""
    rc_episode, episode_out, episode_err = _run(["episode", str(script), "--log", LOG])
    log = Path(LOG).read_bytes() if os.path.exists(LOG) else None
    rc_replay, replay_out, replay_err = _run(["replay", LOG])
    return {
        "episode": [rc_episode, _sha(episode_out), _sha(episode_err)],
        "log": None if log is None else _sha(log),
        "replay": [rc_replay, _sha(replay_out), _sha(replay_err)],
    }


EMPTY = _sha("")
LOGGED = _sha(f"event log written to {LOG}\n")

# script name -> {"episode"/"replay": [exit code, sha256 of stdout, of stderr], "log": sha256 or None},
# recorded before the one-write episode output and the direct subcommand parse
PINS = {
    "covered-fail-assistant": {
        "episode": [0, "f1579012ca388e4041090d6c22651e238e0b23ef28a86e51f48409ce05bd41cb", LOGGED],
        "log": "e441d6b5f5b53068c77003eaa6d3bc8f027dca0e00516aab1d561493cecd36da",
        "replay": [0, "22e897f25d791a1173285db994c67e19e01046758d35c8e173449ef7d7fe7855", EMPTY],
    },
    "covered-fail-human": {
        "episode": [0, "b2e6494d445e418760b9720176c0d4f4226a9bde043a56803c4a1e42077077a4", LOGGED],
        "log": "666c09d85092fd3e4edfd88803f4939b291deb8fbb59222f67feef732c2b14e9",
        "replay": [0, "f8ea0083b5fc784c23de165b6bcc8212ab445b01b1c3ac8772bc75d544cb49a3", EMPTY],
    },
    "covered-pass-assistant": {
        "episode": [0, "d4c4396fb2831abb5f062d6089e946d2eea2cf4c6373e87edc914b1b87b5827b", LOGGED],
        "log": "9c7f35da52616d591eb1afc25a1bea19a098c116d55cbe3a9144bbce025015b3",
        "replay": [0, "3ac7d98e09bba5101e0f9241fdad06c3eb9b4bb8585aeae1435084f04b8ca8be", EMPTY],
    },
    "covered-pass-human": {
        "episode": [0, "6977dea569470b79f63cb69b74476b66f8c4c3910dede015f75af51a317cc123", LOGGED],
        "log": "8766aee7dcf0d3eeb673cefbab07d93fdd3411fa5cf39ba306fe3f96b7b83c5c",
        "replay": [0, "45ded5955d22b96d0ee30a9a2798747fccfc4799acb65500394ca135e28cfa06", EMPTY],
    },
    "fee-only-assistant": {
        "episode": [0, "a5f431af87a503836a2910ae64d2f89f3be17c99da22d7a4677e285e91e0de6a", LOGGED],
        "log": "8637ae40f2fadda665b0ead584ad03063b619972ba4ab626841ae8b9552c3549",
        "replay": [0, "2836a3e9be13a6a511206fa758992abfb7b2b02f440b9741f0d9da57ab428c76", EMPTY],
    },
    "fee-only-human": {
        "episode": [0, "07165c895e7241d8ea73e1c07c6bbe2eb24fb4fabcff40b5129e0e0340fc5356", LOGGED],
        "log": "605069898df9741d1139ef384b0fcb4e4dfbcc9605b7ac3bf79f4d57a5201965",
        "replay": [0, "2836a3e9be13a6a511206fa758992abfb7b2b02f440b9741f0d9da57ab428c76", EMPTY],
    },
    "negotiation-cancel-assistant": {
        "episode": [0, "befd2d28103449a8ef0dfb8062f2044e6f0cb9ad0b1bc5b0711018187bf3c61e", LOGGED],
        "log": "ad596311127033d3ddf3b58f65d0d0f1ea5ade48c52e30f4388553c6bf32ffb2",
        "replay": [0, "286ef36eb571ad7c8dac21373dd056a5361e6e3d15dc093c1a96c59c8b9f0104", EMPTY],
    },
    "negotiation-cancel-human": {
        "episode": [0, "b7dba46e42919ddb9d20b7e7d8aedede6b938e2e516c1fe25c16c5cd36d65c55", LOGGED],
        "log": "48fc2ee00a78fa528433616672e8d4ab16a33d6b7b7aa6c5c9e372b62e5e2fac",
        "replay": [0, "286ef36eb571ad7c8dac21373dd056a5361e6e3d15dc093c1a96c59c8b9f0104", EMPTY],
    },
    "override-cancel-assistant": {
        "episode": [0, "d89d9d53f43b4fe3a3c2c8aec6e257500a3f9578a4c765729331a34737d0ada6", LOGGED],
        "log": "34a550934cfb68296941de34883ba222f7407118d34eeabf6422a88ce538db72",
        "replay": [0, "ef1135709f1b387e19384b7a9edc547ddbd116d8d5d5aa55e0bcdfa92080b707", EMPTY],
    },
    "override-cancel-human": {
        "episode": [0, "6fc3005721ff4b8c13e13349137d0fa64530458991f11e5defd949bbbef04024", LOGGED],
        "log": "a1b72271a401387250bccd8ebc2a033d6a9563e2001640e8fddca49951a6abcd",
        "replay": [0, "ef1135709f1b387e19384b7a9edc547ddbd116d8d5d5aa55e0bcdfa92080b707", EMPTY],
    },
    "override-proceed-assistant": {
        "episode": [0, "f5e5807e7c992d85bbd187e59335890354bb57b49f63426e6da74a78db4865e6", LOGGED],
        "log": "0be04aff892f341fe37111342f16d2630452a8b658b2e2ecf87d7143cfef4b4a",
        "replay": [0, "3ac7d98e09bba5101e0f9241fdad06c3eb9b4bb8585aeae1435084f04b8ca8be", EMPTY],
    },
    "override-proceed-human": {
        "episode": [0, "ebd793a21900b0935bbb5bafe5c53785b46945cc1c754a44d3898f7789287d06", LOGGED],
        "log": "f046edac9525c631edb30e1158c0cc31474b1c036ed29d98edee8d3b6e82e3cd",
        "replay": [0, "45ded5955d22b96d0ee30a9a2798747fccfc4799acb65500394ca135e28cfa06", EMPTY],
    },
    "rejected-midway": {
        "episode": [
            2,
            "bc1331c8d59249f3b34effa78cf22c8c184185eed374efdfba4b4e55b273154c",
            "f4f85f2f3b6c5235163857beb419dc6d75bb8bc3dba930ff64976384e0bcfd8d",
        ],
        "log": None,
        "replay": [2, EMPTY, "97d889219f8896474cef254564d151357a6cd9dc30fb24ac6449aaabee164f16"],
    },
    "request-rejected-assistant": {
        "episode": [0, "c9dacd5e4489e73b18e58086b7c335288e7480aad1a8915bf4b504801a583c96", LOGGED],
        "log": "d36d07b0596576edd53bb46077b120769ea7504c74dfd77f296676200f19210f",
        "replay": [0, "f2d47e109d629c78f2cedb6a264180cc7ba79d4dd4fcef4bd6eb6aef6c5aa146", EMPTY],
    },
    "request-rejected-human": {
        "episode": [0, "06d787370eb27e34c47481b30be43b8ff936b646d96833b208e03dec4bd736bd", LOGGED],
        "log": "0f0013ff7a9ca6be1e444494f2eac097a207c61a5dfaa5a9e9ea36d5b07ca92b",
        "replay": [0, "f2d47e109d629c78f2cedb6a264180cc7ba79d4dd4fcef4bd6eb6aef6c5aa146", EMPTY],
    },
    "uw-reject-assistant": {
        "episode": [0, "0c2dd0b44d116085740d25ac95f543d1160a3d711d67e5495b572a2bd251f752", LOGGED],
        "log": "52899da39d41734a8009576d8b77b55a4a3ee7f3d69c6b457583855a0381547c",
        "replay": [0, "453b50cc7eeaa7083dc2ae694ae546eb4bb1ba217a2fe5da28e240134574e5a0", EMPTY],
    },
    "uw-reject-human": {
        "episode": [0, "3a99db47e6634f0e49b81929a2c921f39a5314806af130d40dd5ea35ff41b25e", LOGGED],
        "log": "e7299e239439a46f522220825a0b91359b4a7cdd3515f3a630baf7dcd5ff3fad",
        "replay": [0, "453b50cc7eeaa7083dc2ae694ae546eb4bb1ba217a2fe5da28e240134574e5a0", EMPTY],
    },
    "zero-collateral-assistant": {
        "episode": [0, "18cb7360cf71e9b5f3e06ff493e42eb5f3fc8ad07bce3122d60689c93b222903", LOGGED],
        "log": "46d75ade4af2222289e84914e0111c9f09302a80c798046f6187a105b938d4de",
        "replay": [0, "45ded5955d22b96d0ee30a9a2798747fccfc4799acb65500394ca135e28cfa06", EMPTY],
    },
    "zero-collateral-human": {
        "episode": [0, "14405b693dc117030a95f9575258900cade9fdaec987c8fef9bb8607670acc2c", LOGGED],
        "log": "496eb982ce8640830ec71f96353659cbbcd3cdf41ca20767fa39d13b38d611ce",
        "replay": [0, "38a4dd8390f63d5341e944a759d9882d5e9940bb8414f77646ec2d9062c1ac1c", EMPTY],
    },
}


def test_every_golden_script_is_pinned():
    assert sorted(PINS) == sorted(path.stem for path in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_cli_bytes_are_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert golden_record(GOLDEN / f"{name}.json") == PINS[name]


def test_a_rejected_action_prints_every_earlier_line_before_the_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        rc = main(["episode", str(GOLDEN / "rejected-midway.json"), "--log", LOG])
    lines = sink.getvalue().splitlines()
    assert rc == 2
    assert lines[-1] == "error: PayPremium: amount does not match the quoted premium"
    assert lines[-2].startswith("[7] UWDecision by uw-5 ")
    assert not os.path.exists(LOG)


def test_the_log_line_follows_every_stdout_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        assert main(["episode", str(GOLDEN / "covered-fail-assistant.json"), "--log", LOG]) == 0
    lines = sink.getvalue().splitlines()
    assert lines[-1] == f"event log written to {LOG}"
    assert lines[-2].startswith("  wallet:")
