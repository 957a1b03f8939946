"""Monte Carlo market of one-shot delegated purchases.

Each episode is one consumer deciding whether to route a purchase of size
M through the covered settlement protocol. The consumer sees a noisy
failure estimate, the underwriter prices the true risk through an
optional classification channel, the merchant decides whether the
collateral demand is worth posting, and a shared failure coin resolves
both the protected and the unprotected (counterfactual) run of the same
episode. Non-adopting consumers transact directly and never touch the
protocol.

Episode economics have one closed form, ``_vector_economics``. A cell is
evaluated in blocks of ``_BLOCK`` consecutive episodes, sized so that a
block's temporaries stay in a core's L2 cache: each block is quoted
(``prepare_cell``), reduced to its economics and cross-checked, and only
exact integer totals (adopters, user loss, failures, book wallet) outlive
it. The metrics, and so the CSV bytes, do not depend on the block size.
Two execution modes produce identical results by construction, because
they differ only in how many rows are checked against the settlement
machine:

* ``equations``: the first ``_CROSS_CHECK`` episodes of the cell are
  played through the real machine (every run, not just tests).
* ``engine``: every episode is played through the machine against a
  fresh ledger.

Either way ``engine.check_episode`` compares the ledger with the row on
all five ``EpisodeEconomics`` fields and raises ``EngineInconsistency``
on any disagreement; nothing computes the economics twice.

An adopted episode's first seven protocol steps (its opening,
``engine.open_episode``) depend only on its job id and principal, so
every cell that checks the episode continues one opening instead of
replaying them. Each process draws the block once and runs its cells
chunk by chunk, every cell on one chunk before the next; a chunk keeps
the openings its cells share and drops them with itself. In engine mode
a chunk is ``_CROSS_CHECK`` episodes, so at most that many openings are
alive; equations mode checks only the first ``_CROSS_CHECK`` episodes,
so its one chunk is the whole block. Each chunk's ``CellMetrics`` are
integer totals, and they add exactly.

All money becomes integer minor units (cents, round half up) the moment
it is quoted, so both modes do exact integer arithmetic on identical
amounts and "identical" means equality, not tolerance.

Common random numbers: one draw set per sweep, shared by every cell, so
that moving along a sweep axis changes decisions only through prices.
Whatever no cell parameter can move (quantized principal, the consumer's
side of the adoption test, override and failure coins, counterfactual
totals) is computed once per draw set as ``CellInvariants``,
and cells are evaluated on those invariants only. ``draw_episodes`` reduces
each raw draw column to them as soon as it is drawn (``reduce_draws``), so
the raw columns are never all held at once.

A ``CellParams`` makes and keeps the pricing objects that own its ranges,
so no out-of-range cell reaches a draw.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Iterable, Iterator

import numpy as np

from .engine import EpisodeEconomics, EpisodePlan, check_episode, open_episode
from .errors import DegenerateBaseline
from .lifecycle import JobState
from .underwriting import CollateralSchedule, PricingPolicy, RiskChannel, estimate_risk, price

# population and policy defaults; see the pricing module for schedule defaults
DEFAULT_EPISODES = 5000
DEFAULT_SEED = 201
DEFAULT_ALPHA = 0.35
DEFAULT_SIGMA_USER = 0.125
HISTORY_SAMPLES = 100

LAMBDA_GRID: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(11))
FPFN_GRID: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
MIDPOINT_GRID: tuple[float, ...] = (0.10, 0.15, 0.20, 0.25, 0.35)
STEEPNESS_GRID: tuple[float, ...] = (5.0, 10.0, 20.0, 50.0)
# the schedule-shape sweep keeps a modest loading so wallet comparisons
# are made on a book that is not exactly actuarially break-even
SIGMOID_LAM = 0.2

SWEEP_KINDS = ("lambda", "fpfn", "sigmoid")
_GRIDS = ("lambda_grid", "fp_grid", "fn_grid", "midpoint_grid", "steepness_grid")
# the longest draw column numpy can make
_MAX_EPISODES = int(np.iinfo(np.intp).max)


# -- behavioral policies ----------------------------------------------------


@dataclass(frozen=True)
class UserPolicy:
    """Consumer adoption rule: route through the protocol when the
    perceived value of protection alpha * M * p_user strictly exceeds the
    quoted premium."""

    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not float(self.alpha) > 0.0:
            raise ValueError("alpha must be positive")

    def willingness(self, m_minor, p_user):
        """Perceived value of protection, the left side of the adoption test."""
        return self.alpha * np.asarray(m_minor) * np.asarray(p_user)


def user_estimate(hist, eps):
    """The consumer's failure estimate: observed frequency plus noise,
    clipped into [0, 1]."""
    return np.clip(np.asarray(hist, dtype=float) + np.asarray(eps, dtype=float), 0.0, 1.0)


def merchant_posts(d_minor, m_minor, mroll):
    """Merchant posting rule: willingness falls linearly in the demanded
    collateral fraction, from 0.9 at zero demand to 0.1 at full demand."""
    frac = np.asarray(d_minor) / np.asarray(m_minor)
    return np.asarray(mroll) < (0.9 - 0.8 * frac)


# -- draws ---------------------------------------------------------------


def _round_half_up(x) -> np.ndarray:
    return np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)


# episodes per block of a cell: a block's float64 column is 128 KiB, so
# the temporaries of one block stay in a core's L2 cache
_BLOCK = 16_384
# episodes at the head of each equations-mode cell that the machine replays,
# and the episodes per chunk of an engine-mode sweep (see _run_group)
_CROSS_CHECK = 32


@dataclass(frozen=True)
class CellInvariants:
    """The part of a draw block's cell plans that no cell parameter moves.

    ``draw_episodes`` makes it from the seed and the consumer policy, once
    per process that runs cells (``_run_group``). Of the raw draws it keeps
    only what a cell still reads: ``p`` for the risk estimate and ``mroll``
    for merchant posting. ``m_minor`` is the one principal column; numpy turns
    it into float64 exactly (every amount is below 2^53) where a formula asks.
    ``cf_loss_total`` and ``cf_fail_count`` are the counterfactual
    (no protocol) loss and failure totals every cell divides by; the
    views that ``split`` yields carry the whole draw block's totals, and
    each knows the draw index of its first episode, ``start``.

    An adopted episode's opening (``engine.open_episode``, the ``JobState``
    after its first seven steps) depends on its job id and principal only,
    so it is a cell invariant too: ``opening`` plays it on first use and
    keeps it for as long as the view lives.
    """

    p: np.ndarray
    mroll: np.ndarray
    m_minor: np.ndarray
    willingness: np.ndarray
    override_proceed: np.ndarray
    fail: np.ndarray
    cf_loss_total: int
    cf_fail_count: int
    start: int = 0
    openings: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # CellParams -> (CellPlan, closed-form economics) of these episodes, as _quote makes them
    quotes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.m_minor.shape[0]

    def split(self, size: int) -> Iterator["CellInvariants"]:
        """Views of ``size`` consecutive episodes each, in order; the last
        holds the rest, and at most ``size`` episodes are their own one view.
        A view's columns and quotes are views of these, its ``start`` is
        absolute, and its openings are its own."""
        if self.n <= size:
            yield self
            return
        columns = {name: value for name, value in vars(self).items() if isinstance(value, np.ndarray)}
        for begin in range(0, self.n, size):
            rows = slice(begin, begin + size)
            view = replace(self, start=self.start + begin, **{name: column[rows] for name, column in columns.items()})
            for params, (plan, econ) in self.quotes.items():
                view.quotes[params] = (
                    replace(plan, **{f.name: getattr(plan, f.name)[rows] for f in fields(plan)}),
                    {name: column[rows] for name, column in econ.items()},
                )
            yield view

    def opening(self, job_id: str, m_minor: int) -> JobState:
        """The opening of adopted episode ``job_id``, played once per view."""
        opening = self.openings.get(job_id)
        if opening is None:
            opening = self.openings[job_id] = open_episode(job_id, m_minor)
        return opening


def reduce_draws(columns: Iterable[np.ndarray], policy: UserPolicy) -> CellInvariants:
    """The cell invariants of raw draw columns in ``draw_episodes``' order:
    M, p, hist, eps, mroll, oroll, froll. Each column is reduced as soon as
    it arrives, so lazy ``columns`` never have all seven alive at once."""
    columns = iter(columns)
    m_minor = np.maximum(_round_half_up(next(columns) * 100.0), 1)
    p = next(columns)
    # hist, then eps: both are dropped once the consumer's estimate is made
    willingness = policy.willingness(m_minor, user_estimate(next(columns), next(columns)))
    mroll = next(columns)
    override_proceed = next(columns) < 0.5
    fail = next(columns) < p
    return CellInvariants(
        p=p,
        mroll=mroll,
        m_minor=m_minor,
        willingness=willingness,
        override_proceed=override_proceed,
        fail=fail,
        cf_loss_total=int(m_minor[fail].sum()),
        cf_fail_count=int(np.count_nonzero(fail)),
    )


def draw_episodes(
    seed: int, n: int = DEFAULT_EPISODES, sigma_user: float = DEFAULT_SIGMA_USER, policy: UserPolicy = UserPolicy()
) -> CellInvariants:
    """Draw one CRN block and reduce it, column by column, to its cell invariants.

    The raw columns, in draw order: M, purchase size in dollars,
    LogNormal(4.0, 1.2) on the underlying normal, so median ~= $54.6.
    p: true failure probability, Beta(1.5, 8.5). hist: the consumer's
    observed failure frequency over HISTORY_SAMPLES comparable purchases.
    eps: consumer estimation noise. mroll/oroll/froll: uniform coins for
    merchant posting, human override, and execution failure. The draw
    order is part of the reproducibility contract; do not reorder.
    """

    def columns() -> Iterator[np.ndarray]:
        rng = np.random.default_rng(seed)
        yield rng.lognormal(4.0, 1.2, n)
        p = rng.beta(1.5, 8.5, n)
        yield p
        yield rng.binomial(HISTORY_SAMPLES, p, n) / HISTORY_SAMPLES
        yield rng.normal(0.0, sigma_user, n)
        yield rng.random(n)
        yield rng.random(n)
        yield rng.random(n)

    return reduce_draws(columns(), policy)


# -- per-cell preparation -----------------------------------------------------


@dataclass(frozen=True)
class CellParams:
    lam: float = 0.0
    fp: float = 0.0
    fn: float = 0.0
    midpoint: float = 0.15
    steepness: float = 10.0

    # made by __post_init__; each checks the range it owns
    channel: RiskChannel = field(init=False, repr=False, compare=False)
    schedule: CollateralSchedule = field(init=False, repr=False, compare=False)
    pricing: PricingPolicy = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "channel", RiskChannel(self.fp, self.fn))
        object.__setattr__(self, "schedule", CollateralSchedule(self.midpoint, self.steepness))
        object.__setattr__(self, "pricing", PricingPolicy(self.lam))


@dataclass(frozen=True)
class CellPlan:
    """All episode decisions of one cell, resolved and quantized."""

    m_minor: np.ndarray
    d_minor: np.ndarray
    pi_minor: np.ndarray
    adopt: np.ndarray
    post: np.ndarray
    override_proceed: np.ndarray
    fail: np.ndarray

    def episodes(self, k: int) -> Iterator[EpisodePlan]:
        """The first ``k`` episodes; a CellPlan's fields are EpisodePlan's, in order."""
        return map(EpisodePlan, *(getattr(self, f.name)[:k].tolist() for f in fields(self)))


def prepare_cell(base: CellInvariants, params: CellParams) -> CellPlan:
    """Quote every episode and resolve every decision, vectorized.

    The quote is ``underwriting.price``, the same formula a single job is
    priced with, at the cell's loading. Quantization happens here, once:
    both execution modes consume these integer amounts and boolean
    decisions, so they cannot drift apart on floating-point details.
    ``base`` comes from ``draw_episodes`` or ``reduce_draws``, which fix
    the consumer policy: a consumer adopts when the willingness it holds
    strictly exceeds the quoted premium.
    """
    p_hat = estimate_risk(base.p, params.channel)
    demand, premium = price(p_hat, base.m_minor, params.schedule, params.pricing)
    d_minor = np.minimum(_round_half_up(demand), base.m_minor)
    pi_minor = _round_half_up(premium)
    return CellPlan(
        m_minor=base.m_minor,
        d_minor=d_minor,
        pi_minor=pi_minor,
        adopt=base.willingness > pi_minor,
        post=merchant_posts(d_minor, base.m_minor, base.mroll),
        override_proceed=base.override_proceed,
        fail=base.fail,
    )


# -- cell execution ------------------------------------------------------------


@dataclass(frozen=True)
class CellMetrics:
    """A cell's exact integer totals over ``episodes`` episodes, and the
    three rates they give.

    ``cf_loss_total`` and ``cf_fail_count`` are the whole draw block's
    counterfactual totals, which every view of the block carries, so the
    metrics of consecutive views of one block add (``+``) to the block's.
    """

    params: CellParams
    episodes: int
    adopted: int
    user_loss: int
    failed: int
    wallet_final_minor: int
    cf_loss_total: int
    cf_fail_count: int

    @property
    def adoption_rate(self) -> float:
        return self.adopted / self.episodes

    @property
    def loss_reduction_rate(self) -> float:
        return 1.0 - self.user_loss / self.cf_loss_total

    @property
    def failure_reduction_rate(self) -> float:
        return 1.0 - self.failed / self.cf_fail_count

    def __add__(self, later: "CellMetrics") -> "CellMetrics":
        """These metrics followed by ``later``'s, of the next view of the same cell and block."""
        totals = ("episodes", "adopted", "user_loss", "failed", "wallet_final_minor")
        return replace(self, **{name: getattr(self, name) + getattr(later, name) for name in totals})


def _vector_economics(plan: CellPlan) -> dict:
    """The closed form of every episode's economics in the cell, one array per column."""
    covered = plan.adopt & ((plan.d_minor == 0) | plan.post)
    cancelled = plan.adopt & ~covered & ~plan.override_proceed
    executed = ~cancelled
    failed = executed & plan.fail
    # a covered failure is made whole (slash d plus payout m - d), so only
    # uncovered failures lose, and the book pays m - d on covered ones
    user_loss = plan.m_minor * (failed & ~covered)
    wallet = (plan.pi_minor - (plan.m_minor - plan.d_minor) * plan.fail) * covered
    return {
        "covered": covered,
        "cancelled": cancelled,
        "executed": executed,
        "failed": failed,
        "user_loss": user_loss,
        "wallet": wallet,
    }


# the _vector_economics columns that make up an EpisodeEconomics, in field order
_ECONOMICS_COLUMNS = ("executed", "cancelled", "failed", "user_loss", "wallet")


def _quote(block: CellInvariants, params: CellParams) -> tuple[CellPlan, dict]:
    """The cell's plan over ``block`` and its closed-form economics."""
    plan = prepare_cell(block, params)
    return plan, _vector_economics(plan)


def run_cell(
    base: CellInvariants,
    params: CellParams,
    mode: str = "equations",
) -> CellMetrics:
    """Run one parameter cell over ``base``, the ``CellInvariants`` of a draw
    block or of a view of one.

    The cell is evaluated ``_BLOCK`` episodes at a time: each block is
    quoted, reduced to its closed-form economics and cross-checked, and
    only its totals are kept. Every total is an integer, so the metrics
    do not depend on the block size, and those of consecutive views add.

    In equations mode the episodes with draw index below ``_CROSS_CHECK``
    are played through the settlement machine; in engine mode every
    episode runs through it. Either way the ledger must give the episode's
    closed-form row exactly, or ``check_episode`` raises EngineInconsistency.
    An adopted episode continues the opening ``base`` holds for it. A block
    whose quote for the cell ``base`` holds (``CellInvariants.quotes``) is
    not quoted again.
    """
    if mode not in ("equations", "engine"):
        raise ValueError(f"unknown mode {mode!r}")
    checked_below = base.start + base.n if mode == "engine" else _CROSS_CHECK
    adopted = user_loss = failed = wallet = 0
    for block in base.split(_BLOCK):
        plan, econ = block.quotes.get(params) or _quote(block, params)
        k = min(max(checked_below - block.start, 0), block.n)
        rows = map(EpisodeEconomics, *(econ[name][:k].tolist() for name in _ECONOMICS_COLUMNS))
        for i, (episode, expected) in enumerate(zip(plan.episodes(k), rows), block.start):
            job_id = f"sim-{i}"
            opening = base.opening(job_id, episode.m_minor) if episode.adopt else None
            check_episode(episode, expected, job_id, opening=opening)
        adopted += int(np.count_nonzero(plan.adopt))
        user_loss += int(econ["user_loss"].sum())
        failed += int(np.count_nonzero(econ["failed"]))
        wallet += int(econ["wallet"].sum())
    if base.cf_loss_total == 0 or base.cf_fail_count == 0:
        raise DegenerateBaseline(
            "no counterfactual losses in this cell; reduction rates are undefined"
        )
    return CellMetrics(params, base.n, adopted, user_loss, failed, wallet, base.cf_loss_total, base.cf_fail_count)


# -- sweeps ---------------------------------------------------------------------


# the object that owns each ranged field's range (a midpoint need only be
# finite); SweepConfig makes one from every scalar and every grid entry,
# swept or not, so a config that builds has only cells that build
_OWNERS = {
    "alpha": UserPolicy,
    **dict.fromkeys(("steepness", "steepness_grid"), lambda v: CollateralSchedule(steepness=v)),
    **dict.fromkeys(("lam", "sigmoid_lam", "lambda_grid"), PricingPolicy),
    **dict.fromkeys(("fp", "fp_grid"), lambda v: RiskChannel(false_positive=v)),
    **dict.fromkeys(("fn", "fn_grid"), lambda v: RiskChannel(false_negative=v)),
}


@dataclass(frozen=True)
class SweepConfig:
    """Effective sweep configuration; every field has a default, a JSON
    config file may override any subset, and the CLI may override seed,
    episode count, and kind on top of that."""

    kind: str = "lambda"
    episodes: int = DEFAULT_EPISODES
    seed: int = DEFAULT_SEED
    alpha: float = DEFAULT_ALPHA
    sigma_user: float = DEFAULT_SIGMA_USER
    midpoint: float = 0.15
    steepness: float = 10.0
    lam: float = 0.0
    fp: float = 0.0
    fn: float = 0.0
    lambda_grid: tuple[float, ...] = LAMBDA_GRID
    fp_grid: tuple[float, ...] = FPFN_GRID
    fn_grid: tuple[float, ...] = FPFN_GRID
    midpoint_grid: tuple[float, ...] = MIDPOINT_GRID
    steepness_grid: tuple[float, ...] = STEEPNESS_GRID
    sigmoid_lam: float = SIGMOID_LAM

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"kind must be one of {SWEEP_KINDS}, got {self.kind!r}")
        if isinstance(self.episodes, bool) or not isinstance(self.episodes, int) or self.episodes < 1:
            raise ValueError("episodes must be a positive integer")
        if self.episodes > _MAX_EPISODES:
            raise ValueError(f"episodes: {self.episodes} is more than an array can hold")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        for name in ("alpha", "sigma_user", "midpoint", "steepness", "lam", "fp", "fn", "sigmoid_lam", *_GRIDS):
            value = getattr(self, name)
            owner = _OWNERS.get(name)
            for v in value if name in _GRIDS else (value,):
                # NaN, the infinities and an int too large for a float fail the range test
                if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
                    raise ValueError(f"{name}: {v!r} is not a finite number")
                if owner is not None:
                    try:
                        owner(v)
                    except ValueError as exc:
                        # "load" is no config field, so a load's message names the field
                        raise ValueError(f"{name}: {exc}" if owner is PricingPolicy else str(exc)) from None
            # the checked values as floats, so 1 and 1.0 give one config and one digest
            object.__setattr__(self, name, tuple(map(float, value)) if name in _GRIDS else float(value))
        if self.sigma_user < 0:
            raise ValueError(f"sigma_user: {self.sigma_user!r} is negative")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """The config a JSON object describes."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for grid in _GRIDS:
            if grid in data and (not isinstance(data[grid], (list, tuple)) or not data[grid]):
                raise ValueError(f"{grid} must be a non-empty array")
        return cls(**data)

    def to_dict(self) -> dict:
        """Every field in declaration order, with the grids as lists."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**data, **{grid: list(data[grid]) for grid in _GRIDS}}

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def cells(self) -> list[CellParams]:
        base = CellParams(
            lam=self.lam,
            fp=self.fp,
            fn=self.fn,
            midpoint=self.midpoint,
            steepness=self.steepness,
        )
        if self.kind == "lambda":
            return [replace(base, lam=lam) for lam in self.lambda_grid]
        if self.kind == "fpfn":
            return [
                replace(base, fp=fp, fn=fn)
                for fp in self.fp_grid
                for fn in self.fn_grid
            ]
        return [
            replace(base, lam=self.sigmoid_lam, midpoint=m, steepness=s)
            for m in self.midpoint_grid
            for s in self.steepness_grid
        ]


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[CellMetrics, ...]

    def cell(self, **filters) -> CellMetrics:
        """Single-cell lookup by parameter value, e.g. cell(lam=0.3)."""
        matches = [
            c
            for c in self.cells
            if all(
                abs(getattr(c.params, key) - value) < 1e-12 for key, value in filters.items()
            )
        ]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} cells match {filters}")
        return matches[0]


def _run_group(config: SweepConfig, mode: str, cells: list[CellParams]) -> list[CellMetrics]:
    """Draw the configured block and run ``cells`` over it, in their order.

    Equations mode checks only the first ``_CROSS_CHECK`` episodes, so each
    cell runs over the whole block. Engine mode checks every episode, and
    takes the block chunk by chunk of ``_CROSS_CHECK`` episodes, every cell
    on one chunk before the next, so the openings a chunk plays serve all
    its cells and then go with it: at most ``_CROSS_CHECK`` are alive. Each
    cell is quoted once per window of chunks, not once per chunk, and the
    window holds ``_BLOCK`` quoted episodes over all the cells.
    """
    base = draw_episodes(config.seed, config.episodes, config.sigma_user, UserPolicy(config.alpha))
    if mode != "engine":
        return [run_cell(base, params, mode) for params in cells]
    window = max(_BLOCK // (_CROSS_CHECK * len(cells)), 1) * _CROSS_CHECK
    rows = []
    for part in base.split(window):
        part.quotes.update((params, _quote(part, params)) for params in cells)
        rows += [[run_cell(chunk, params, mode) for params in cells] for chunk in part.split(_CROSS_CHECK)]
    return [sum(later, first) for first, *later in zip(*rows)]


def run_sweep(config: SweepConfig, mode: str = "equations", jobs: int = 1) -> SweepResult:
    """Run every cell of the configured sweep over one shared draw block.

    The one-process sweep is one ``_run_group`` of all the cells. With
    ``jobs > 1`` the cells are dealt, interleaved, into one group per
    worker, at most one worker per cell, and each worker runs its group
    the same way: it draws the block from the seed rather than receiving
    the arrays. Results keep the cell order.
    """
    cells = config.cells()
    workers = min(jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(partial(_run_group, config, mode), [cells[g::workers] for g in range(workers)]))
    else:
        groups = [_run_group(config, mode, cells)]
    results: list = [None] * len(cells)
    for g, group in enumerate(groups):
        results[g :: len(groups)] = group
    return SweepResult(config=config, cells=tuple(results))


# -- report writing ----------------------------------------------------------

CSV_COLUMNS = (
    "sweep",
    "lam",
    "fp",
    "fn",
    "m",
    "s",
    "adoption_rate",
    "loss_reduction_rate",
    "failure_reduction_rate",
    "wallet_final",
    "episodes",
    "seed",
)


def _fmt_param(value: float) -> str:
    f = float(value)
    return str(int(f)) if f == int(f) else repr(f)


def render_csv(result: SweepResult) -> str:
    """Render a sweep as CSV with a commented metadata header.

    The output is byte-reproducible: same config, same bytes.
    """
    config = result.config
    out = io.StringIO()
    out.write("# settlement market sweep\n")
    out.write(f"# kind: {config.kind}\n")
    out.write(f"# seed: {config.seed}\n")
    out.write(f"# episodes: {config.episodes}\n")
    out.write(f"# config_digest: sha256:{config.digest()}\n")
    out.write(",".join(CSV_COLUMNS) + "\n")
    for cell in result.cells:
        p = cell.params
        row = (
            config.kind,
            _fmt_param(p.lam),
            _fmt_param(p.fp),
            _fmt_param(p.fn),
            _fmt_param(p.midpoint),
            _fmt_param(p.steepness),
            f"{cell.adoption_rate:.6f}",
            f"{cell.loss_reduction_rate:.6f}",
            f"{cell.failure_reduction_rate:.6f}",
            f"{cell.wallet_final_minor / 100.0:.2f}",
            str(cell.episodes),
            str(config.seed),
        )
        out.write(",".join(row) + "\n")
    return out.getvalue()
