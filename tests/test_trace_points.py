"""The benchmark's tracer wraps named attributes of the program; each must
still be defined where the tracer looks it up, or every traced run fails."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_point_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # Tracer.install reads owner.__dict__[attr], so an inherited or moved name is missing
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _name, _tag in tracing._TARGETS if attr not in owner.__dict__
    ]
    assert len(tracing._TARGETS) > 0
    assert missing == []
