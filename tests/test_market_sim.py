"""Market simulation: draws, behavioral rules, quantized quoting, cell
metrics, sweep plumbing, and the CSV report."""

import pickle
import tracemalloc
import weakref
from dataclasses import fields, replace
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from surety import (
    CellInvariants,
    CellMetrics,
    CellParams,
    CollateralSchedule,
    DegenerateBaseline,
    EngineInconsistency,
    Keyring,
    PricingPolicy,
    RiskChannel,
    SettlementMachine,
    SweepConfig,
    UserPolicy,
    draw_episodes,
    merchant_posts,
    prepare_cell,
    reduce_draws,
    render_csv,
    run_cell,
    run_sweep,
    user_estimate,
)
from surety import agreement, engine, market_sim
from surety.market_sim import _vector_economics


def _manual_draws(M, p, hist=None, eps=None, mroll=None, oroll=None, froll=None) -> tuple:
    """Hand-built raw columns in draw order; a cell runs on ``reduce_draws(draws, policy)``."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]

    def arr(v, default):
        if v is None:
            return np.full(n, default, dtype=float)
        return np.asarray(v, dtype=float)

    return (
        M,
        arr(p, 0.0),
        arr(hist if hist is not None else p, 0.0),
        arr(eps, 0.0),
        arr(mroll, 0.0),
        arr(oroll, 1.0),
        arr(froll, 1.0),
    )


# -- behavioral rules -------------------------------------------------------


def test_user_estimate_is_history_plus_noise_clipped():
    est = user_estimate([0.15, 0.9, 0.05], [0.0, 0.3, -0.2])
    assert est.tolist() == [0.15, 1.0, 0.0]


def test_adoption_requires_strictly_positive_surplus():
    # $10 at p = 0.1 is quoted 62 cents; 1.0 * 1000 * 0.062 is 62.0 exactly,
    # so the first consumer's surplus is zero and the second's one cent
    draws = _manual_draws(M=[10.0, 10.0], p=[0.1, 0.1], hist=[0.062, 0.063])
    plan = prepare_cell(reduce_draws(draws, UserPolicy(alpha=1.0)), CellParams())
    assert plan.pi_minor.tolist() == [62, 62]
    assert UserPolicy(alpha=1.0).willingness(plan.m_minor, [0.062, 0.063]).tolist() == [62.0, 63.0]
    assert plan.adopt.tolist() == [False, True]


def test_merchant_posting_threshold():
    # demand of half the principal: posting probability is exactly 0.5
    assert bool(merchant_posts(500, 1000, 0.499))
    assert not bool(merchant_posts(500, 1000, 0.501))
    # no demand: 0.9; full demand: 0.1
    assert bool(merchant_posts(0, 1000, 0.899))
    assert not bool(merchant_posts(0, 1000, 0.9))
    assert bool(merchant_posts(1000, 1000, 0.099))
    assert not bool(merchant_posts(1000, 1000, 0.1))


def test_alpha_must_be_positive():
    with pytest.raises(ValueError):
        UserPolicy(alpha=0.0)


# -- draws --------------------------------------------------------------------


def _columns(base: CellInvariants) -> dict:
    # what the draws give: not the view's position in the block, nor the openings it has played or the cells quoted
    return {f.name: getattr(base, f.name) for f in fields(base) if f.name not in ("start", "openings", "quotes")}


def _same_invariants(a: CellInvariants, b: CellInvariants) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(_columns(a).values(), _columns(b).values()))


def test_draws_are_seed_deterministic():
    a = draw_episodes(201, 256)
    b = draw_episodes(201, 256)
    c = draw_episodes(202, 256)
    for name, column in _columns(a).items():
        assert np.array_equal(column, getattr(b, name)), name
        assert not np.array_equal(column, getattr(c, name)), name


def test_draw_shapes_and_ranges():
    d = draw_episodes(7, 512)
    assert d.n == 512
    assert all(len(column) == 512 for column in _columns(d).values() if isinstance(column, np.ndarray))
    assert (d.m_minor >= 1).all()
    assert ((d.p >= 0) & (d.p <= 1)).all()
    assert ((d.mroll >= 0) & (d.mroll < 1)).all()
    assert (d.willingness >= 0).all()
    # history is a frequency over a fixed number of samples: with no noise
    # and alpha = 1 the willingness is principal * hist
    h = draw_episodes(7, 512, sigma_user=0.0, policy=UserPolicy(alpha=1.0))
    frequency = h.willingness / h.m_minor * market_sim.HISTORY_SAMPLES
    assert np.allclose(frequency, np.round(frequency))


def test_draw_order_is_the_documented_one():
    # two reordered draws would stay seed-deterministic; only the order
    # written out here keeps the sweeps reproducible
    seed, n, sigma_user, policy = 23, 300, 0.2, UserPolicy(alpha=0.7)
    rng = np.random.default_rng(seed)
    M = rng.lognormal(4.0, 1.2, n)
    p = rng.beta(1.5, 8.5, n)
    hist = rng.binomial(market_sim.HISTORY_SAMPLES, p, n) / market_sim.HISTORY_SAMPLES
    eps = rng.normal(0.0, sigma_user, n)
    mroll = rng.random(n)
    oroll = rng.random(n)
    froll = rng.random(n)
    expected = reduce_draws([M, p, hist, eps, mroll, oroll, froll], policy)
    assert _same_invariants(draw_episodes(seed, n, sigma_user, policy), expected)


def test_draws_are_reduced_as_they_are_drawn():
    # the raw columns are never all alive at once: the peak stays within
    # two float64 columns of the invariants that are kept
    n = 100_000
    draw_episodes(1, 16)  # one-off allocations of a first call are not the draw's
    tracemalloc.start()
    try:
        base = draw_episodes(5, n)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(column.nbytes for column in _columns(base).values() if isinstance(column, np.ndarray))
    assert peak - kept <= 2 * 8 * n


# -- quoting -------------------------------------------------------------------


def test_quantized_quotes_on_ten_dollar_principal():
    draws = _manual_draws(M=[10.0, 10.0], p=[0.1, 0.5])
    plan = prepare_cell(reduce_draws(draws, UserPolicy(alpha=1.0)), CellParams())
    assert plan.m_minor.tolist() == [1000, 1000]
    assert plan.d_minor.tolist() == [378, 971]
    assert plan.pi_minor.tolist() == [62, 15]


def test_collateral_is_capped_at_principal():
    draws = _manual_draws(M=[0.01], p=[0.99])
    plan = prepare_cell(reduce_draws(draws, UserPolicy()), CellParams())
    assert plan.m_minor.tolist() == [1]
    assert plan.d_minor[0] <= plan.m_minor[0]


def test_tiny_purchases_round_to_at_least_one_cent():
    draws = _manual_draws(M=[0.001], p=[0.2])
    plan = prepare_cell(reduce_draws(draws, UserPolicy()), CellParams())
    assert plan.m_minor.tolist() == [1]


_LOADS = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
_RATES = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    episodes=st.integers(min_value=1, max_value=500),
    alpha=st.floats(min_value=0.01, max_value=3.0),
    sigma_user=st.floats(min_value=0.0, max_value=0.5),
    lams=st.lists(_LOADS, min_size=2, max_size=8),
    fp=_RATES,
    fn=_RATES,
)
@example(
    seed=31, episodes=600, alpha=0.35, sigma_user=0.125,
    lams=[round(0.1 * i, 1) for i in range(11)], fp=0.0, fn=0.0,
)
def test_loading_weakly_raises_premiums_and_thins_adoption(seed, episodes, alpha, sigma_user, lams, fp, fn):
    # metamorphic relations over common random numbers: along the load
    # axis each episode keeps its collateral demand and the merchant's
    # answer, while its premium can only rise and its adoption only end
    base = draw_episodes(seed, episodes, sigma_user, UserPolicy(alpha))
    plans = [prepare_cell(base, CellParams(lam=lam, fp=fp, fn=fn)) for lam in sorted(lams)]
    for before, after in zip(plans, plans[1:]):
        assert (after.pi_minor >= before.pi_minor).all()
        assert not (after.adopt & ~before.adopt).any()
        assert np.array_equal(after.d_minor, before.d_minor)
        assert np.array_equal(after.post, before.post)
        assert after.adopt.mean() <= before.adopt.mean()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    episodes=st.integers(min_value=1, max_value=500),
    alpha=st.floats(min_value=0.01, max_value=3.0),
    sigma_user=st.floats(min_value=0.0, max_value=0.5),
    fps=st.lists(_RATES, min_size=2, max_size=6),
    fns=st.lists(_RATES, min_size=2, max_size=6),
)
@example(
    seed=31, episodes=600, alpha=0.35, sigma_user=0.125,
    fps=list(market_sim.FPFN_GRID), fns=list(market_sim.FPFN_GRID),
)
def test_collateral_demand_rises_with_false_positives_and_falls_with_false_negatives(
    seed, episodes, alpha, sigma_user, fps, fns
):
    # p_hat = p (1 - fn) + (1 - p) fp and the schedule is monotone, so over
    # common random numbers each episode's demand moves one way along each
    # axis, and the merchant can only stop posting as the demand rises
    base = draw_episodes(seed, episodes, sigma_user, UserPolicy(alpha))
    plans = {(fp, fn): prepare_cell(base, CellParams(fp=fp, fn=fn)) for fp in fps for fn in fns}
    along_fp = [[(fp, fn) for fp in sorted(fps)] for fn in fns]
    against_fn = [[(fp, fn) for fn in sorted(fns, reverse=True)] for fp in fps]
    for axis in along_fp + against_fn:
        for lo, hi in pairwise(plans[key] for key in axis):
            assert (hi.d_minor >= lo.d_minor).all()
            assert not (hi.post & ~lo.post).any()


# -- episode and cell execution -------------------------------------------------


def _invariants(seed, episodes):
    return draw_episodes(seed, episodes)


def test_run_cell_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_cell(_invariants(1, 4), CellParams(), mode="oracle")


def test_run_cell_engine_matches_equations_exactly(monkeypatch):
    monkeypatch.setattr(market_sim, "_CROSS_CHECK", 0)
    base = _invariants(17, 64)
    params = CellParams(lam=0.2)
    eq = run_cell(base, params, mode="equations")
    en = run_cell(base, params, mode="engine")
    assert eq == en


def test_run_cell_full_cross_check():
    run_cell(_invariants(19, 40), CellParams(), mode="engine")


def test_vector_economics_on_every_branch():
    # not adopting; zero collateral passing and failing; covered passing
    # and failing; collateral refused with override proceed and cancel
    draws = _manual_draws(
        M=[10.0, 0.01, 0.01, 10.0, 10.0, 10.0, 10.0],
        p=[0.1] * 7,
        hist=[0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
        mroll=[0.0, 0.0, 0.0, 0.0, 0.0, 0.99, 0.99],
        oroll=[1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0],
        froll=[0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    )
    base = reduce_draws(draws, UserPolicy(alpha=1.0))
    plan = prepare_cell(base, CellParams())
    assert plan.d_minor.tolist() == [378, 0, 0, 378, 378, 378, 378]
    assert plan.pi_minor.tolist() == [62, 0, 0, 62, 62, 62, 62]
    econ = _vector_economics(plan)
    assert econ["covered"].tolist() == [False, True, True, True, True, False, False]
    assert econ["cancelled"].tolist() == [False] * 6 + [True]
    assert econ["failed"].tolist() == [True, False, True, False, True, True, False]
    assert econ["user_loss"].tolist() == [1000, 0, 0, 0, 0, 1000, 0]
    assert econ["wallet"].tolist() == [0, 0, -1, 62, 62 - (1000 - 378), 0, 0]
    # and the machine agrees on every one of them
    run_cell(base, CellParams(), mode="engine")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    episodes=st.integers(min_value=1, max_value=500),
    lam=_LOADS,
    fp=_RATES,
    fn=_RATES,
)
def test_vector_economics_invariants(seed, episodes, lam, fp, fn):
    plan = prepare_cell(_invariants(seed, episodes), CellParams(lam=lam, fp=fp, fn=fn))
    econ = _vector_economics(plan)
    # a cancelled episode neither executes, fails nor loses
    assert not (econ["cancelled"] & (econ["executed"] | econ["failed"] | (econ["user_loss"] != 0))).any()
    assert ((0 <= econ["user_loss"]) & (econ["user_loss"] <= plan.m_minor)).all()
    # a consumer who stays outside the protocol never moves the treasury
    assert (econ["wallet"][~plan.adopt] == 0).all()


def _pays_out_m(econ, plan):
    # the book pays the whole principal on a covered failure, ignoring the slash
    return {**econ, "wallet": np.where(econ["covered"] & plan.fail, plan.pi_minor - plan.m_minor, econ["wallet"])}


def _executes_everything(econ, plan):
    return {**econ, "executed": np.ones_like(econ["executed"])}


@pytest.mark.parametrize("mutate", [_pays_out_m, _executes_everything])
@pytest.mark.parametrize("mode, cross_check", [("engine", 32), ("equations", 200)])
def test_mutated_closed_form_is_caught_by_the_machine(monkeypatch, mutate, mode, cross_check):
    monkeypatch.setattr(market_sim, "_CROSS_CHECK", cross_check)
    real = market_sim._vector_economics
    monkeypatch.setattr(market_sim, "_vector_economics", lambda plan: mutate(real(plan), plan))
    with pytest.raises(EngineInconsistency):
        run_cell(_invariants(19, 200), CellParams(), mode=mode)


# -- block-wise evaluation -----------------------------------------------------------


def _whole_cell(base, params):
    """The cell's metrics from one plan over every episode, or "degenerate"."""
    plan = prepare_cell(base, params)
    econ = _vector_economics(plan)
    if base.cf_loss_total == 0 or base.cf_fail_count == 0:
        return "degenerate"
    return CellMetrics(
        params=params,
        episodes=base.n,
        adopted=int(np.count_nonzero(plan.adopt)),
        user_loss=int(econ["user_loss"].sum()),
        failed=int(np.count_nonzero(econ["failed"])),
        wallet_final_minor=int(econ["wallet"].sum()),
        cf_loss_total=base.cf_loss_total,
        cf_fail_count=base.cf_fail_count,
    )


def _record_calls(monkeypatch, name, log):
    real = getattr(market_sim, name)

    def recorded(*args, **kwargs):
        log.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(market_sim, name, recorded)


@pytest.mark.parametrize("episodes", [5, 7, 21, 30])
@pytest.mark.parametrize(
    "mode, cross_check",
    [("equations", 0), ("equations", 3), ("equations", 10), ("equations", 32), ("equations", 40), ("engine", 32)],
)
def test_run_cell_in_blocks_equals_one_whole_plan(monkeypatch, episodes, mode, cross_check):
    # below, equal to, a multiple of and not a multiple of the block size
    monkeypatch.setattr(market_sim, "_BLOCK", 7)
    monkeypatch.setattr(market_sim, "_CROSS_CHECK", cross_check)
    params = CellParams(lam=0.1, fp=0.2, fn=0.3)
    base = _invariants(18, episodes)
    expected = _whole_cell(base, params)
    prepared, checked = [], []
    _record_calls(monkeypatch, "prepare_cell", prepared)
    _record_calls(monkeypatch, "check_episode", checked)
    if expected == "degenerate":
        with pytest.raises(DegenerateBaseline, match="no counterfactual losses"):
            run_cell(base, params, mode=mode)
    else:
        assert run_cell(base, params, mode=mode) == expected
    assert len(prepared) == -(-episodes // 7)
    assert [job_id for _plan, _row, job_id in checked] == [
        f"sim-{i}" for i in range(episodes if mode == "engine" else min(cross_check, episodes))
    ]


def test_run_cell_over_several_full_blocks_equals_one_whole_plan():
    base = _invariants(18, 2 * market_sim._BLOCK + 1000)
    params = CellParams(fp=0.4, fn=0.2)
    assert run_cell(base, params) == _whole_cell(base, params)


@pytest.mark.parametrize(
    "mode, cross_check, raises",
    [("equations", 30, True), ("equations", 10, True), ("engine", 32, True), ("equations", 9, False)],
)
def test_doctored_row_in_a_later_block_names_its_episode(monkeypatch, mode, cross_check, raises):
    monkeypatch.setattr(market_sim, "_BLOCK", 7)
    monkeypatch.setattr(market_sim, "_CROSS_CHECK", cross_check)
    real = market_sim._vector_economics
    blocks = []

    def doctored(plan):
        econ = real(plan)
        blocks.append(plan)
        if len(blocks) == 2:
            econ["user_loss"][2] += 1  # episode 7 + 2
        return econ

    monkeypatch.setattr(market_sim, "_vector_economics", doctored)
    if raises:
        with pytest.raises(EngineInconsistency, match=r"^sim-9: "):
            run_cell(_invariants(18, 30), CellParams(), mode=mode)
    else:
        run_cell(_invariants(18, 30), CellParams(), mode=mode)


def test_degenerate_baseline_raises(monkeypatch):
    # nothing ever fails: reduction rates have no denominator
    base = reduce_draws(_manual_draws(M=[10.0] * 8, p=[0.1] * 8, froll=[1.0] * 8), UserPolicy())
    monkeypatch.setattr(market_sim, "_CROSS_CHECK", 0)
    with pytest.raises(DegenerateBaseline):
        run_cell(base, CellParams())
    monkeypatch.setattr(market_sim, "_BLOCK", 3)
    with pytest.raises(DegenerateBaseline, match="no counterfactual losses in this cell"):
        run_cell(base, CellParams(), mode="engine")


# -- sweep configuration ----------------------------------------------------------


def test_config_round_trip_and_digest(monkeypatch):
    config = SweepConfig(kind="fpfn", episodes=100, seed=5)
    again = SweepConfig.from_dict(config.to_dict())
    assert again == config
    assert again.digest() == config.digest()
    assert SweepConfig(kind="fpfn", episodes=101, seed=5).digest() != config.digest()
    # integer grid entries become floats however the config is built
    direct = SweepConfig(lambda_grid=(0, 1))
    assert all(type(lam) is float for lam in direct.lambda_grid)
    assert direct == SweepConfig(lambda_grid=(0.0, 1.0))
    assert direct.digest() == SweepConfig(lambda_grid=(0.0, 1.0)).digest()
    # and so do integer scalars
    scalar = SweepConfig.from_dict({"alpha": 1, "episodes": 300})
    assert type(scalar.alpha) is float
    assert scalar == SweepConfig.from_dict({"alpha": 1.0, "episodes": 300})
    assert scalar.digest() == SweepConfig.from_dict({"alpha": 1.0, "episodes": 300}).digest()
    # from_dict builds the config once, so each range check runs once
    built = []
    real = SweepConfig.__post_init__
    monkeypatch.setattr(SweepConfig, "__post_init__", lambda self: built.append(real(self)))
    SweepConfig.from_dict({"kind": "fpfn", "episodes": 100, "lambda_grid": [0, 0.5, 1]})
    assert len(built) == 1


def test_config_rejects_unknown_fields_and_bad_values():
    with pytest.raises(ValueError, match="unknown config fields"):
        SweepConfig.from_dict({"episode": 10})
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"kind": "gamma"})
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"episodes": 0})
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"episodes": True})
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"lambda_grid": []})
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"lambda_grid": 0.5})
    with pytest.raises(ValueError):
        SweepConfig.from_dict(["kind", "lambda"])
    # every float must be finite, and no load may be negative
    for bad in (
        {"alpha": float("inf")},
        {"fp": float("nan")},
        {"steepness": "10"},
        {"fn_grid": [0.0, float("-inf")]},
        {"midpoint_grid": [None]},
        {"lam": -0.1},
        {"sigmoid_lam": -1},
        {"lambda_grid": [0.0, -5.0]},
    ):
        with pytest.raises(ValueError):
            SweepConfig.from_dict(bad)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(data=st.dictionaries(st.sampled_from([f.name for f in fields(SweepConfig)]), _JSON))
@example(data={"lam": 10**400})
@example(data={"midpoint_grid": [10**400]})
def test_config_from_any_json_values_raises_only_value_error(data):
    try:
        config = SweepConfig.from_dict(data)
    except ValueError:
        return
    # what validates is a config of finite numbers, with its grids as floats
    assert all(type(v) is float for grid in market_sim._GRIDS for v in getattr(config, grid))


@pytest.mark.parametrize(
    "params, message",
    [
        ({"fp": 2.0}, r"false_positive must lie in \[0, 1\], got 2.0"),
        ({"steepness": 0.0}, "steepness must be positive"),
        ({"lam": -0.1}, "load must be non-negative"),
    ],
)
def test_out_of_range_cell_cannot_be_made(params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CellParams(**params)


def test_cell_keeps_its_pricing_objects_out_of_equality():
    cell = CellParams(lam=0.2, fp=0.1, fn=0.3, midpoint=0.25, steepness=5.0)
    assert (cell.channel, cell.schedule, cell.pricing) == (
        RiskChannel(0.1, 0.3), CollateralSchedule(0.25, 5.0), PricingPolicy(0.2)
    )
    assert repr(cell) == "CellParams(lam=0.2, fp=0.1, fn=0.3, midpoint=0.25, steepness=5.0)"
    again = pickle.loads(pickle.dumps(cell))
    assert again == cell and hash(again) == hash(cell) and again.pricing == cell.pricing
    moved = replace(cell, lam=0.5)
    assert moved != cell and moved.pricing == PricingPolicy(0.5) and moved.channel == cell.channel


def test_directly_built_config_fails_before_any_draw(monkeypatch):
    def draw(*args):
        raise AssertionError("drew episodes for an out-of-range cell")

    monkeypatch.setattr(market_sim, "draw_episodes", draw)
    # the config itself cannot be built, swept grid or not
    for kind in ("fpfn", "lambda"):
        with pytest.raises(ValueError, match=r"false_positive must lie in \[0, 1\], got 2.0"):
            run_sweep(SweepConfig(kind=kind, fp_grid=(2.0,)))


def test_cell_enumeration_counts():
    assert len(SweepConfig(kind="lambda").cells()) == 11
    assert len(SweepConfig(kind="fpfn").cells()) == 36
    assert len(SweepConfig(kind="sigmoid").cells()) == 20
    # the sigmoid sweep prices with its own fixed load
    assert all(c.lam == 0.2 for c in SweepConfig(kind="sigmoid").cells())


def test_sweep_lookup_and_parallel_equivalence(monkeypatch):
    # pool workers fork from this process, so they see the patched count
    monkeypatch.setattr(market_sim, "_CROSS_CHECK", 4)
    config = SweepConfig.from_dict(
        {"kind": "lambda", "episodes": 300, "seed": 11, "lambda_grid": [0.0, 0.3]}
    )
    serial = run_sweep(config)
    parallel = run_sweep(config, jobs=2)
    assert serial.cells == parallel.cells
    assert serial.cell(lam=0.3).params.lam == 0.3
    with pytest.raises(KeyError):
        serial.cell(lam=0.7)


@pytest.mark.parametrize("mode", ["equations", "engine"])
@pytest.mark.parametrize(
    "grid, jobs",
    [
        pytest.param({"kind": "lambda", "lambda_grid": [0.0, 0.3, 0.6]}, 2, id="lambda"),
        pytest.param({"kind": "fpfn", "fp_grid": [0.0, 0.5], "fn_grid": [0.1, 0.6]}, 2, id="fpfn"),
        pytest.param(
            {"kind": "sigmoid", "midpoint_grid": [0.1, 0.25], "steepness_grid": [5.0, 20.0]}, 2, id="sigmoid"
        ),
        # five cells dealt to three workers, over five chunks in engine mode
        pytest.param(
            {"kind": "lambda", "lambda_grid": [0.0, 0.25, 0.5, 0.75, 1.0], "episodes": 150},
            3,
            id="five-cells-three-jobs",
        ),
    ],
)
def test_parallel_sweep_equals_serial_for_every_kind(grid, jobs, mode):
    episodes = 60 if mode == "engine" else 400
    config = SweepConfig.from_dict({"episodes": episodes, "seed": 29, **grid})
    parallel = run_sweep(config, mode=mode, jobs=jobs)
    assert [cell.params for cell in parallel.cells] == config.cells()
    assert parallel == run_sweep(config, mode=mode)


def test_engine_sweep_keeps_one_chunk_of_openings_alive(monkeypatch):
    opened, alive, peak = [], [0], [0]
    real = market_sim.open_episode

    def counted(job_id, m_minor):
        opening = real(job_id, m_minor)
        opened.append(job_id)
        alive[0] += 1
        peak[0] = max(peak[0], alive[0])
        weakref.finalize(opening, lambda: alive.__setitem__(0, alive[0] - 1))
        return opening

    monkeypatch.setattr(market_sim, "open_episode", counted)
    chunk = market_sim._CROSS_CHECK
    config = SweepConfig.from_dict(
        {"kind": "lambda", "episodes": 4 * chunk + 5, "seed": 29, "lambda_grid": [0.0, 0.5, 1.0]}
    )
    run_sweep(config, mode="engine")
    # openings from every chunk, each played once for all three cells
    assert {int(job_id[4:]) // chunk for job_id in opened} == set(range(5))
    assert len(set(opened)) == len(opened)
    assert peak[0] <= chunk and alive[0] == 0


def test_engine_sweep_computes_each_token_once(monkeypatch):
    # a keyring of the test's own, so no earlier sweep has filled its memo
    ring = Keyring.demo([engine.USER, engine.MERCHANT, engine.UNDERWRITER])
    monkeypatch.setattr(engine, "_KEYRING", ring)
    monkeypatch.setattr(engine, "_MACHINE", SettlementMachine(ring))
    openings, computed = [], []
    real_open, real_token = market_sim.open_episode, agreement._token

    def opened(job_id, m_minor):
        openings.append(real_open(job_id, m_minor))
        return openings[-1]

    def token(keyed, job_id, agreement_hash):
        computed.append((keyed, job_id, agreement_hash))
        return real_token(keyed, job_id, agreement_hash)

    monkeypatch.setattr(market_sim, "open_episode", opened)
    monkeypatch.setattr(agreement, "_token", token)
    chunk = market_sim._CROSS_CHECK
    config = SweepConfig.from_dict(
        {"kind": "lambda", "episodes": 3 * chunk + 5, "seed": 31, "lambda_grid": [0.0, 0.5, 1.0]}
    )
    run_sweep(config, mode="engine")
    assert {int(state.job_id[4:]) // chunk for state in openings} == set(range(4))
    # one HMAC per (party, job, hash) subject: three parties sign each opening's draft
    assert len(set(computed)) == len(computed)
    assert len({keyed for keyed, _job, _hash in computed}) == 3
    assert sorted((job, ah) for _keyed, job, ah in computed) == sorted(
        (state.job_id, state.draft_hash) for state in openings for _party in range(3)
    )


def test_cell_metrics_of_consecutive_views_add_to_the_whole():
    base = _invariants(18, 100)
    params = CellParams(lam=0.1, fp=0.2, fn=0.3)
    first, second, third = base.split(40)
    assert (first.start, second.start, third.start, third.n) == (0, 40, 80, 20)
    whole = run_cell(base, params, mode="engine")
    assert run_cell(first, params, mode="engine") + run_cell(second, params, mode="engine") + run_cell(
        third, params, mode="engine"
    ) == whole
    assert whole.adoption_rate == whole.adopted / 100
    assert whole.loss_reduction_rate == 1.0 - whole.user_loss / base.cf_loss_total
    assert whole.failure_reduction_rate == 1.0 - whole.failed / base.cf_fail_count


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the pool size and runs
    the cell groups in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_is_capped_at_the_cell_count(monkeypatch):
    monkeypatch.setattr(market_sim, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    config = SweepConfig.from_dict({"kind": "lambda", "episodes": 200, "seed": 5, "lambda_grid": [0.0, 0.5, 1.0]})
    assert run_sweep(config, jobs=64) == run_sweep(config)
    assert _InlinePool.sizes == [3]
    # a single cell runs in process, whatever --jobs says
    single = SweepConfig.from_dict({**config.to_dict(), "lambda_grid": [0.5]})
    run_sweep(single, jobs=8)
    assert _InlinePool.sizes == [3]


# -- report ----------------------------------------------------------------------


def test_csv_is_byte_reproducible_with_documented_shape(monkeypatch):
    monkeypatch.setattr(market_sim, "_CROSS_CHECK", 2)
    config = SweepConfig.from_dict(
        {"kind": "lambda", "episodes": 200, "seed": 3, "lambda_grid": [0.0, 0.5, 1.0]}
    )
    first = render_csv(run_sweep(config))
    second = render_csv(run_sweep(config))
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "# settlement market sweep"
    assert lines[1] == "# kind: lambda"
    assert lines[2] == "# seed: 3"
    assert lines[3] == "# episodes: 200"
    assert lines[4] == f"# config_digest: sha256:{config.digest()}"
    assert lines[5] == (
        "sweep,lam,fp,fn,m,s,adoption_rate,loss_reduction_rate,"
        "failure_reduction_rate,wallet_final,episodes,seed"
    )
    assert len(lines) == 6 + 3
    for row in lines[6:]:
        fields = row.split(",")
        assert len(fields) == 12
        assert fields[0] == "lambda"
        assert fields[-2:] == ["200", "3"]
