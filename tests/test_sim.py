import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ricmerge.e2model import KpiDemand
from ricmerge.merge import (
    Fold,
    MergeState,
    PlanClass,
    StreamSpec,
    TransmissionPlan,
)
from ricmerge.sim import Batching, SimConfig, SimReport, _union_ticks, run

from helpers import staleness_oracle


def reference_run(plans, demands, cfg):
    """Tick-by-tick reference for ``run``, over plans rather than classes:
    walks every stream tick and every consumer tick below the horizon,
    O(streams x horizon / period)."""
    plans = list(plans)
    served = {}
    for plan in plans:
        for xapp, index in plan.fanout.items():
            stream = plan.streams[index]
            key = (stream.node, stream.kpi, xapp)
            if key in served:
                raise ValueError("xApp served twice")
            served[key] = stream
    pairs = [(d, served[d.node, d.kpi, d.xapp]) for d in demands]
    streams = [s for plan in plans for s in plan.streams]
    for stream in streams:
        if stream.period_ms > cfg.horizon_ms:
            raise ValueError("horizon shorter than stream period")

    horizon = cfg.horizon_ms
    messages = samples = bytes_sent = 0
    samples_per_instant = {}
    for stream in sorted(streams, key=lambda s: (s.node, s.kpi, s.period_ms)):
        ticks = (horizon - 1) // stream.period_ms + 1
        samples += ticks
        if cfg.batching is Batching.PER_STREAM:
            messages += ticks
            bytes_sent += ticks * (cfg.header_bytes + cfg.bytes_per_sample)
        else:
            for t in range(0, horizon, stream.period_ms):
                key = (t, stream.node)
                samples_per_instant[key] = samples_per_instant.get(key, 0) + 1
    if cfg.batching is Batching.PER_NODE_PERIOD:
        messages = len(samples_per_instant)
        bytes_sent = messages * cfg.header_bytes + samples * cfg.bytes_per_sample

    staleness = {}
    for demand, stream in pairs:
        period = stream.period_ms
        worst = staleness.get(demand.xapp, 0)
        for tick in range(0, horizon, demand.period_ms):
            newest_sample = (tick // period) * period
            worst = max(worst, tick - newest_sample)
        staleness[demand.xapp] = worst
    return SimReport(messages, samples, bytes_sent, staleness)


def single_plan(node, kpi, period, xapps):
    return TransmissionPlan((StreamSpec(node, kpi, period),), {x: 0 for x in xapps})


def plan_classes(plans):
    """Each plan as a class of one group, its xApps ranked in fan-out order."""
    classes = []
    for plan in plans:
        xapps = tuple(plan.fanout)
        feeds = tuple(
            tuple(r for r, x in enumerate(xapps) if plan.fanout[x] == i)
            for i in range(len(plan.streams))
        )
        periods = tuple(s.period_ms for s in plan.streams)
        first = plan.streams[0]
        classes.append(PlanClass(Fold(periods, feeds), [(first.node, first.kpi, xapps)]))
    return classes


def demand_classes(demands):
    """One stream per demand, as the no-dedup mode lays them out: one class
    per period."""
    periods = sorted({d.period_ms for d in demands})
    return [
        PlanClass(
            Fold((p,), ((0,),)),
            [(d.node, d.kpi, (d.xapp,)) for d in demands if d.period_ms == p],
        )
        for p in periods
    ]


def uniform_setup(nodes, kpis, period=10):
    """One xApp subscribing every KPI of every node at one period, as
    classes and demands."""
    demands = [
        KpiDemand(0, node, f"KPI{k:04d}", period) for node in range(nodes) for k in range(kpis)
    ]
    return demand_classes(demands), demands


class TestRun:
    def test_single_stream_sample_count(self):
        rows, demands = uniform_setup(1, 1)
        report = run(rows, demands, SimConfig(horizon_ms=1000))
        assert report.samples_sent == 100

    def test_default_traffic_calibration(self):
        rows, demands = uniform_setup(26, 7)
        report = run(rows, demands, SimConfig(horizon_ms=1000))
        assert report.bytes_sent == 26 * 100 * 7 * 1000
        # one batched message per node per instant
        assert report.messages_sent == 26 * 100

    def test_duplicate_streams_serve_each_xapp_fresh(self):
        plans = [
            TransmissionPlan(
                (StreamSpec(0, "a", 10), StreamSpec(0, "a", 15)), {1: 0, 2: 1}
            )
        ]
        demands = [KpiDemand(1, 0, "a", 10), KpiDemand(2, 0, "a", 15)]
        report = run(plan_classes(plans), demands, SimConfig(horizon_ms=30))
        assert report.per_xapp_max_staleness == {1: 0, 2: 0}

    def test_horizon_shorter_than_period_rejected(self):
        rows, demands = uniform_setup(1, 1, period=50)
        with pytest.raises(ValueError):
            run(rows, demands, SimConfig(horizon_ms=40))

    def test_unserved_demand_rejected(self):
        rows, _ = uniform_setup(1, 1)
        orphan = [KpiDemand(9, 0, "missing", 10)]
        with pytest.raises(ValueError):
            run(rows, orphan, SimConfig(horizon_ms=100))

    def test_xapp_served_twice_rejected(self):
        classes = demand_classes([KpiDemand(1, 0, "a", 10), KpiDemand(1, 0, "a", 20)])
        with pytest.raises(ValueError, match="served twice"):
            run(classes, [KpiDemand(1, 0, "a", 10)], SimConfig(horizon_ms=100))

    def test_tolerated_slow_consumer_staleness_measured(self):
        state = MergeState()
        state.add_demand(KpiDemand(1, 0, "a", 10))
        state.add_demand(KpiDemand(2, 0, "a", 15, 6))
        plan = state.plan_for(0, "a")
        assert [s.period_ms for s in plan.streams] == [10]
        demands = [KpiDemand(1, 0, "a", 10), KpiDemand(2, 0, "a", 15, 6)]
        report = run(state.classes(), demands, SimConfig(horizon_ms=300))
        assert report.per_xapp_max_staleness[2] == 5
        assert report.per_xapp_max_staleness[2] < 6
        assert report.per_xapp_max_staleness[1] == 0

    def test_bytes_linear_in_nodes_and_kpis(self):
        cfg = SimConfig(horizon_ms=1000)
        base = run(*uniform_setup(1, 7), cfg).bytes_sent
        for nodes in (2, 5, 13, 26):
            scaled = run(*uniform_setup(nodes, 7), cfg).bytes_sent
            assert abs(scaled - nodes * base) / (nodes * base) < 1e-9
        base = run(*uniform_setup(4, 1), cfg).bytes_sent
        for kpis in (2, 10, 40, 80):
            scaled = run(*uniform_setup(4, kpis), cfg).bytes_sent
            assert abs(scaled - kpis * base) / (kpis * base) < 1e-9

    def test_deterministic_reports(self):
        rows, demands = uniform_setup(3, 4)
        cfg = SimConfig(horizon_ms=500, header_bytes=20)
        assert run(rows, demands, cfg) == run(rows, demands, cfg)

    def test_exact_duplicate_streams_accumulate_counts(self):
        # Two xApps transmitted separately at identical (node, kpi, period):
        # the totals count both streams.
        plans = [single_plan(0, "a", 10, [1]), single_plan(0, "a", 10, [2])]
        demands = [KpiDemand(1, 0, "a", 10), KpiDemand(2, 0, "a", 10)]
        report = run(plan_classes(plans), demands, SimConfig(horizon_ms=100))
        assert report.samples_sent == 20
        # batching packs the two coincident samples into one message
        assert report.messages_sent == 10
        assert report.bytes_sent == 20 * 1000

    def test_per_stream_batching_bytes(self):
        rows, demands = uniform_setup(2, 3)
        cfg = SimConfig(horizon_ms=100, header_bytes=40, batching=Batching.PER_STREAM)
        report = run(rows, demands, cfg)
        assert report.messages_sent == 2 * 3 * 10
        assert report.bytes_sent == report.messages_sent * (40 + 1000)

    def test_per_node_batching_shares_header(self):
        rows, demands = uniform_setup(2, 3)
        cfg = SimConfig(horizon_ms=100, header_bytes=40)
        report = run(rows, demands, cfg)
        assert report.messages_sent == 2 * 10
        assert report.bytes_sent == 2 * 10 * 40 + report.samples_sent * 1000

    def test_batched_instants_merge_across_periods(self):
        plans = [
            TransmissionPlan(
                (StreamSpec(0, "a", 10), StreamSpec(0, "a", 15)), {1: 0, 2: 1}
            )
        ]
        demands = [KpiDemand(1, 0, "a", 10), KpiDemand(2, 0, "a", 15)]
        report = run(plan_classes(plans), demands, SimConfig(horizon_ms=30, header_bytes=1))
        # instants 0,10,15,20 with 0 shared by both streams
        assert report.messages_sent == 4
        assert report.samples_sent == 5


class TestStalenessOracle:
    # Frozen values: ticks 0,15 -> ages 0,5; ticks 0,10,20 -> ages 0,4,2.
    @pytest.mark.parametrize(
        "sample,consume,expected", [(10, 15, 5), (10, 20, 0), (6, 10, 4)]
    )
    def test_frozen_values(self, sample, consume, expected):
        assert staleness_oracle(sample, consume) == expected


@settings(deadline=None)  # horizons up to several lcm multiples
@given(st.integers(2, 200), st.integers(2, 200), st.integers(1, 400), st.integers(1, 4))
def test_tolerated_merge_never_exceeds_declared_tolerance(ti, tj, tolerance, multiple):
    state = MergeState()
    state.add_demand(KpiDemand(1, 0, "a", ti))
    state.add_demand(KpiDemand(2, 0, "a", tj, tolerance))
    plan = state.plan_for(0, "a")
    if len(plan.streams) != 1 or tj % plan.streams[0].period_ms == 0:
        return  # not the tolerance-gated sharing path
    demands = [KpiDemand(1, 0, "a", ti), KpiDemand(2, 0, "a", tj, tolerance)]
    horizon = math.lcm(ti, tj) * multiple
    report = run(state.classes(), demands, SimConfig(horizon_ms=horizon))
    assert report.per_xapp_max_staleness[2] < tolerance


@given(st.integers(1, 60), st.integers(1, 60))
def test_counts_over_one_hyperperiod_match_pairwise_counts(ti, tj):
    hyper = math.lcm(ti, tj)
    cfg = SimConfig(horizon_ms=hyper)
    for period in (math.gcd(ti, tj), ti, tj):
        plans = [single_plan(0, "m", period, [1])]
        report = run(plan_classes(plans), [KpiDemand(1, 0, "m", period)], cfg)
        assert report.samples_sent == hyper // period


MAX_HORIZON = 5000


@st.composite
def layouts(draw):
    """Random demands over several nodes, KPIs and xApps, laid out either
    by the merge engine or as one stream per demand (exact duplicates):
    as plans for the reference, and as classes for ``run``."""
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2), st.sampled_from("abc")),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    periods = st.one_of(st.sampled_from([5, 10, 15, 20, 30, 60]), st.integers(1, 60))
    tolerances = st.one_of(st.none(), st.integers(1, 60))
    demands = [
        KpiDemand(xapp, node, kpi, draw(periods), draw(tolerances))
        for xapp, node, kpi in keys
    ]
    if draw(st.booleans()):
        state = MergeState()
        state.add_demands(demands)
        return list(state.plans().values()), state.classes(), demands
    plans = [single_plan(d.node, d.kpi, d.period_ms, [d.xapp]) for d in demands]
    return plans, demand_classes(demands), demands


@st.composite
def horizons(draw, plans, demands):
    """Horizons shorter than, equal to, or off a multiple of the hyperperiod."""
    stream_periods = [s.period_ms for p in plans for s in p.streams]
    longest = max(stream_periods)
    hyper = math.lcm(*stream_periods, *(d.period_ms for d in demands))
    kind = draw(st.sampled_from(["short", "equal", "offset"]))
    if kind == "short" and hyper > longest:
        return draw(st.integers(longest, min(hyper - 1, MAX_HORIZON)))
    if kind == "equal" and hyper <= MAX_HORIZON:
        return hyper
    if kind == "offset" and 1 < hyper <= MAX_HORIZON // 2:
        repeats = draw(st.integers(1, MAX_HORIZON // hyper - 1))
        return repeats * hyper + draw(st.integers(1, hyper - 1))
    return draw(st.integers(longest, MAX_HORIZON))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_matches_tick_reference(data):
    plans, classes, demands = data.draw(layouts())
    cfg = SimConfig(
        horizon_ms=data.draw(horizons(plans, demands)),
        header_bytes=data.draw(st.integers(0, 200)),
        bytes_per_sample=data.draw(st.integers(1, 2000)),
        batching=data.draw(st.sampled_from(Batching)),
    )
    expected = reference_run(plans, demands, cfg)
    assert run(classes, demands, cfg) == expected


def test_staleness_oracle_matches_closed_form():
    for s in range(1, 61):
        for c in range(1, 61):
            assert staleness_oracle(s, c) == s - math.gcd(s, c), (s, c)


class TestHyperperiodLongerThanHorizon:
    def test_coprime_periods_on_one_node(self):
        # lcm(7, 11, ..., 31) is about 6.7e9 ms; only the horizon is walked.
        periods = [7, 11, 13, 17, 19, 23, 29, 31]
        assert math.lcm(*periods) > 6 * 10**9
        plans = [single_plan(0, f"K{p}", p, [1]) for p in periods]
        demands = [KpiDemand(1, 0, f"K{p}", p) for p in periods]
        cfg = SimConfig(horizon_ms=1000)
        tracemalloc.start()
        try:
            report = run(plan_classes(plans), demands, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        expected = reference_run(plans, demands, cfg)
        assert report.messages_sent == expected.messages_sent
        assert report == expected

    def test_consumer_stream_lcm_beyond_horizon(self):
        plans = [single_plan(0, "a", 997, [1])]
        demands = [KpiDemand(1, 0, "a", 991)]
        cfg = SimConfig(horizon_ms=1000)
        report = run(plan_classes(plans), demands, cfg)
        # consumer ticks 0 and 991 see the t = 0 sample only
        assert report.per_xapp_max_staleness == {1: 991}
        assert report == reference_run(plans, demands, cfg)


class TestUnionTicks:
    @given(
        st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True),
        st.integers(1, 500),
    )
    def test_matches_brute_force(self, periods, horizon):
        expected = sum(1 for t in range(horizon) if any(t % p == 0 for p in periods))
        assert _union_ticks(periods, horizon) == expected

    def test_long_horizon_keeps_no_grid(self):
        # t = 0, 5016 multiples of 9967, 5013 of 9973, none of both below
        # the horizon: 10,030 instants, counted without a per-instant grid.
        tracemalloc.start()
        try:
            count = _union_ticks((9967, 9973), 50_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 10_030
        assert peak < 1 << 20
