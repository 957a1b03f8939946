"""Span tracing around the program's public functions.

The tracer replaces each function under the name its caller looks up
(``market_sim.check_episode``, ``SettlementMachine.apply`` on the class,
...) with a wrapper that records a span: name, start, end, parent span,
the run id of the benchmark operation it belongs to, a tag (action kind,
episode branch, exit code) and an outcome. Spans stay in memory until
``write`` dumps them; ``layer_metrics`` derives self time (span minus its
child spans) and the per-layer metrics from them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

from surety import actions, agreement, cli, engine, ledger, lifecycle, market_sim, underwriting
from surety.errors import TransitionError

ROOT = "bench.op"
BRANCHES = ("covered_pass", "covered_fail", "zero_collateral", "override_proceed", "override_cancel")
ACTION_KINDS = tuple(kind.value for kind in actions.ActionKind)

# per-layer metric -> unit; the order is the order of BENCHMARK.json
PER_LAYER_UNITS = {
    "lifecycle.apply.calls": "count",
    "lifecycle.apply.self_s": "s",
    "lifecycle.apply.us_p50": "us",
    "lifecycle.apply.us_p99": "us",
    "lifecycle.apply.rejected": "count",
    **{f"lifecycle.apply.us_p50.{kind}": "us" for kind in ACTION_KINDS},
    "lifecycle.replay.events": "count",
    "lifecycle.replay.self_s": "s",
    "ledger.execute.calls": "count",
    "ledger.execute.self_s": "s",
    "ledger.execute.us_p50": "us",
    "agreement.canonical_hash.calls": "count",
    "agreement.canonical_hash.us_p50": "us",
    "agreement.keyring_sign.calls": "count",
    "agreement.keyring_verify.calls": "count",
    "agreement.keyring_verify.us_p50": "us",
    "actions.validate_shape.calls": "count",
    "actions.validate_shape.us_p50": "us",
    "engine.check_episode.calls": "count",
    "engine.check_episode.self_s": "s",
    **{f"engine.episode.ms_p50.{branch}": "ms" for branch in BRANCHES},
    "engine.machine_share": "ratio",
    **{f"market_sim.{fn}.{stat}": unit for fn in ("draw_episodes", "prepare_cell", "run_cell", "render_csv")
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "market_sim.cross_check.episodes": "count",
    "underwriting.estimate_risk.self_s": "s",
    "underwriting.collateral_fraction.self_s": "s",
    "cli.episode.ms_p50": "ms",
    "cli.episode.self_s": "s",
    "cli.replay.ms_p50": "ms",
    "cli.replay.self_s": "s",
    "cli.exit_nonzero": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


def _branch(plan) -> str:
    if not plan.adopt:
        return "not_adopted"
    if plan.d_minor == 0:
        return "zero_collateral"
    if plan.post:
        return "covered_fail" if plan.fail else "covered_pass"
    return "override_proceed" if plan.override_proceed else "override_cancel"


# (owner, attribute, span name, tag of the call from its positional arguments)
_TARGETS = (
    (lifecycle.SettlementMachine, "apply", "lifecycle.apply", lambda a: a[2].kind.value),
    (lifecycle, "replay", "lifecycle.replay", lambda a: len(a[1])),
    (ledger.Ledger, "execute", "ledger.execute", None),
    (lifecycle, "canonical_hash", "agreement.canonical_hash", None),
    (engine, "canonical_hash", "agreement.canonical_hash", None),
    (agreement.Keyring, "sign", "agreement.keyring_sign", None),
    (agreement.Keyring, "verify", "agreement.keyring_verify", None),
    (actions.Action, "validate_shape", "actions.validate_shape", None),
    (market_sim, "check_episode", "engine.check_episode", lambda a: _branch(a[0])),
    (market_sim, "draw_episodes", "market_sim.draw_episodes", None),
    (market_sim, "prepare_cell", "market_sim.prepare_cell", None),
    (market_sim, "run_cell", "market_sim.run_cell", None),
    (market_sim, "render_csv", "market_sim.render_csv", None),
    (market_sim, "estimate_risk", "underwriting.estimate_risk", None),
    (underwriting.CollateralSchedule, "fraction", "underwriting.collateral_fraction", None),
    (cli, "main", None, None),  # named cli.<subcommand> per call
)


class Tracer:
    """Records spans while installed; ``run_id`` is set by the caller."""

    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index, run id, tag, outcome]
        self.spans: list[list] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name, fn, args=(), kwargs=None, tag=None):
        """Run ``fn(*args, **kwargs)`` inside a span; the outcome is the return value
        for ``cli.*`` spans, 'rejected' for a TransitionError and the
        exception class name for anything else."""
        index = len(self.spans)
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self.run_id, tag, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        except TransitionError:
            record[6] = "rejected"
            raise
        except BaseException as exc:
            record[6] = type(exc).__name__
            raise
        else:
            if name.startswith("cli."):
                record[6] = result
            return result
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def install(self) -> None:
        for owner, attr, name, tag_of in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, tag_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, tag_of):
        def wrapper(*args, **kwargs):
            span_name = name or f"cli.{args[0][0]}"
            return self.span(span_name, original, args, kwargs, tag_of(args) if tag_of else None)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans, traced_ns: int, untraced_ns: int, episodes: int) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    ``traced_ns`` and ``untraced_ns`` are the summed operation times of
    the traced pass and of the untraced pass over the same inputs;
    ``episodes`` is the number of sweep episodes the traced pass ran.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _run, _tag, _out in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    dur = defaultdict(list)  # name -> inclusive durations in ns
    self_ns = defaultdict(int)
    by_tag = defaultdict(list)  # (name, tag) -> inclusive durations in ns
    rejected = nonzero = replay_events = cross_checks = 0
    for i, (name, start, end, parent, _run, tag, outcome) in enumerate(spans):
        d = end - start
        dur[name].append(d)
        self_ns[name] += d - child_ns[i]
        if tag is not None:
            by_tag[name, tag].append(d)
        if name == "lifecycle.apply" and outcome == "rejected":
            rejected += 1
        elif name == "lifecycle.replay":
            replay_events += tag
        elif name.startswith("cli.") and outcome != 0:
            nonzero += 1
        elif name == "engine.check_episode" and parent >= 0 and spans[parent][0] == "market_sim.run_cell":
            cross_checks += 1

    def calls(name):
        return len(dur[name])

    def self_s(name):
        return self_ns[name] / 1e9

    def p(name, q, scale):
        return percentile(dur[name], q) / scale

    m = {
        "lifecycle.apply.calls": calls("lifecycle.apply"),
        "lifecycle.apply.self_s": self_s("lifecycle.apply"),
        "lifecycle.apply.us_p50": p("lifecycle.apply", 0.5, 1e3),
        "lifecycle.apply.us_p99": p("lifecycle.apply", 0.99, 1e3),
        "lifecycle.apply.rejected": rejected,
    }
    for kind in ACTION_KINDS:
        m[f"lifecycle.apply.us_p50.{kind}"] = percentile(by_tag["lifecycle.apply", kind], 0.5) / 1e3
    m["lifecycle.replay.events"] = replay_events
    m["lifecycle.replay.self_s"] = self_s("lifecycle.replay")
    m["ledger.execute.calls"] = calls("ledger.execute")
    m["ledger.execute.self_s"] = self_s("ledger.execute")
    m["ledger.execute.us_p50"] = p("ledger.execute", 0.5, 1e3)
    m["agreement.canonical_hash.calls"] = calls("agreement.canonical_hash")
    m["agreement.canonical_hash.us_p50"] = p("agreement.canonical_hash", 0.5, 1e3)
    m["agreement.keyring_sign.calls"] = calls("agreement.keyring_sign")
    m["agreement.keyring_verify.calls"] = calls("agreement.keyring_verify")
    m["agreement.keyring_verify.us_p50"] = p("agreement.keyring_verify", 0.5, 1e3)
    m["actions.validate_shape.calls"] = calls("actions.validate_shape")
    m["actions.validate_shape.us_p50"] = p("actions.validate_shape", 0.5, 1e3)
    m["engine.check_episode.calls"] = calls("engine.check_episode")
    m["engine.check_episode.self_s"] = self_s("engine.check_episode")
    for branch in BRANCHES:
        m[f"engine.episode.ms_p50.{branch}"] = percentile(by_tag["engine.check_episode", branch], 0.5) / 1e6
    machine = sum(len(by_tag["engine.check_episode", b]) for b in BRANCHES)
    m["engine.machine_share"] = machine / episodes if episodes else 0.0
    for fn in ("draw_episodes", "prepare_cell", "run_cell", "render_csv"):
        m[f"market_sim.{fn}.calls"] = calls(f"market_sim.{fn}")
        m[f"market_sim.{fn}.self_s"] = self_s(f"market_sim.{fn}")
    m["market_sim.cross_check.episodes"] = cross_checks
    m["underwriting.estimate_risk.self_s"] = self_s("underwriting.estimate_risk")
    m["underwriting.collateral_fraction.self_s"] = self_s("underwriting.collateral_fraction")
    for sub in ("episode", "replay"):
        m[f"cli.{sub}.ms_p50"] = p(f"cli.{sub}", 0.5, 1e6)
        m[f"cli.{sub}.self_s"] = self_s(f"cli.{sub}")
    m["cli.exit_nonzero"] = nonzero
    m["trace.overhead_share"] = (traced_ns - untraced_ns) / untraced_ns if untraced_ns else 0.0
    root_ns = sum(dur[ROOT])
    m["trace.unattributed_share"] = self_ns[ROOT] / root_ns if root_ns else 0.0
    return m
