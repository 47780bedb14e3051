"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS] line (visible with ``pytest -s`` or in the
captured output section); a failing assertion marks the criterion red.
"""

import math
import random
import time
from pathlib import Path

import pytest

from ricmerge.e2model import (
    KpiDemand,
    SubscriptionItem,
    SubscriptionRequest,
    decompose,
)
from ricmerge.merge import (
    DecisionKind,
    Fold,
    MergeState,
    PlanClass,
    admit,
    max_staleness,
)
from ricmerge.power import PowerModel
from ricmerge.scenario import (
    DedupMode,
    ScenarioSpec,
    SweepAxis,
    compare,
    load_config,
    sweep,
)
from ricmerge.sim import SimConfig, _ticks, run as sim_run
from ricmerge.wire import Broker, Indication, NodeEmulator, XAppClient, encode

from helpers import groups, rows_by_mode, staleness_oracle

MODEL = PowerModel()
SIM = SimConfig(horizon_ms=10)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SCENARIOS = {
    "small": (10, 20),
    "medium": (100, 50),
    "large": (300, 100),
}


def scenario_rate(name):
    nodes, kpis = SCENARIOS[name]
    return nodes * kpis * 100.0  # samples/s at the 10 ms default period


def merged_row(nodes, kpis, redundancy, seed):
    """The per-KPI merge row of ``compare`` on a uniform 10 ms deployment."""
    rows = compare(ScenarioSpec(nodes, kpis, 10, redundancy, seed=seed), MODEL, SIM)
    return rows_by_mode(rows)[DedupMode.PER_KPI_MERGE]


def test_criterion_1_power_savings_reproduction():
    assert MODEL.ric_static_watts == 34.5
    assert MODEL.watts_per_sample_rate == pytest.approx(4.674e-4, rel=1e-12)

    # The merged row's gross is the deployment's duplicate-free draw, and
    # its saving is taken against the no-dedup rate.
    small = merged_row(*SCENARIOS["small"], 0.9, seed=1)
    medium_low = merged_row(*SCENARIOS["medium"], 0.1, seed=2)
    medium_high = merged_row(*SCENARIOS["medium"], 0.9, seed=2)
    large_low = merged_row(*SCENARIOS["large"], 0.1, seed=3)
    large_high = merged_row(*SCENARIOS["large"], 0.9, seed=3)

    assert small.gross_watts == pytest.approx(43.8, abs=0.2)
    assert small.saved_watts == pytest.approx(8.4, abs=0.2)
    assert small.saved_pct == pytest.approx(19.2, abs=1.0)
    assert medium_high.gross_watts == pytest.approx(268.2, abs=1.0)
    assert medium_low.saved_watts == pytest.approx(23.4, abs=0.5)
    assert medium_high.saved_watts == pytest.approx(210.0, abs=2.0)
    assert large_high.gross_watts >= 1400
    assert large_low.saved_watts >= 140
    assert large_high.saved_watts >= 1200
    assert 87 <= large_high.saved_pct <= 89

    print(
        f"\n[PASS] criterion 1: savings reproduction (small {small.saved_watts:.2f} W/"
        f"{small.saved_pct:.2f}%, medium {medium_low.saved_watts:.2f}/"
        f"{medium_high.saved_watts:.2f} W, large {large_low.saved_watts:.2f}/"
        f"{large_high.saved_watts:.2f} W at {large_high.saved_pct:.2f}%)"
    )


def projection(config, axis, value):
    """The gross watts ``sweep`` reports at one point of ``config``'s axis."""
    spec, model, sim_cfg = load_config(str(CONFIGS / config))
    (row,) = sweep(spec, model, sim_cfg, axis, [value])
    return row.gross_watts


def test_criterion_2_power_projections():
    at_60_nodes = projection("node_sweep.cfg", SweepAxis.NODES, 60)
    at_80_kpis = projection("kpi_sweep.cfg", SweepAxis.KPIS, 80)
    assert abs(at_60_nodes - 55) / 55 < 0.10
    assert abs(at_80_kpis - 50) / 50 < 0.10
    print(
        f"\n[PASS] criterion 2: projections 60 nodes -> {at_60_nodes:.2f} W, "
        f"80 KPIs -> {at_80_kpis:.2f} W"
    )


def uniform_layout(nodes, kpis, period=10):
    """xApp 0 on every KPI of every node at one period: one class of
    one-stream groups, and the demands."""
    groups, demands = [], []
    for node in range(nodes):
        for k in range(kpis):
            kpi = f"KPI{k:04d}"
            groups.append((node, kpi, (0,)))
            demands.append(KpiDemand(0, node, kpi, period))
    return [PlanClass(Fold((period,), ((0,),)), groups)], demands


def bytes_per_sec(nodes, kpis):
    cfg = SimConfig(horizon_ms=1000)
    report = sim_run(*uniform_layout(nodes, kpis), cfg)
    return report.bytes_sent * 1000.0 / cfg.horizon_ms


def test_criterion_3_traffic_calibration_and_linearity():
    experiment_1 = bytes_per_sec(26, 7)
    experiment_2 = bytes_per_sec(4, 80)
    assert abs(experiment_1 - 15e6) / 15e6 <= 0.25
    assert abs(experiment_2 - 35e6) / 35e6 <= 0.25

    node_base = bytes_per_sec(1, 7)
    for nodes in (2, 9, 26, 41):
        assert abs(bytes_per_sec(nodes, 7) - nodes * node_base) / (nodes * node_base) < 1e-9
    kpi_base = bytes_per_sec(4, 1)
    for kpis in (2, 17, 48, 80):
        assert abs(bytes_per_sec(4, kpis) - kpis * kpi_base) / (kpis * kpi_base) < 1e-9

    print(
        f"\n[PASS] criterion 3: traffic {experiment_1/1e6:.1f} MB/s (26x7) and "
        f"{experiment_2/1e6:.1f} MB/s (4x80), linear in nodes and KPIs"
    )


def test_criterion_4_staleness_bound_matches_bruteforce_oracle():
    started = time.perf_counter()
    for ti in range(1, 201):
        for tj in range(1, 201):
            assert max_staleness(ti, tj) == staleness_oracle(min(ti, tj), max(ti, tj))
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    print(
        f"\n[PASS] criterion 4: staleness bound equals brute-force oracle for all "
        f"40000 period pairs in {elapsed:.1f} s"
    )


def enumerated_ticks(window_ms, period_ms):
    """Size of the emission-tick enumeration 0, T, 2T, ... in [0, window)."""
    return len(range(0, window_ms, period_ms))


def test_criterion_5_sample_counts_match_enumeration():
    for ti in range(1, 201):
        for tj in range(ti, 201):
            lcm, gcd = math.lcm(ti, tj), math.gcd(ti, tj)
            merged, first, second = (_ticks(period, lcm) for period in (gcd, ti, tj))
            assert (merged, first, second) == (
                enumerated_ticks(lcm, gcd),
                enumerated_ticks(lcm, ti),
                enumerated_ticks(lcm, tj),
            )
            if ti % tj and tj % ti:
                assert merged >= first + second
                di, dj = [KpiDemand(0, 0, "a", ti)], [KpiDemand(1, 0, "a", tj)]
                assert admit(ti, di, tj, dj)[0] is DecisionKind.DUPLICATE
                assert admit(tj, dj, ti, di)[0] is DecisionKind.DUPLICATE
    # Literal walk over the tick grids for windows small enough to afford it.
    for ti in range(1, 41):
        for tj in range(ti, 41):
            lcm = math.lcm(ti, tj)
            for period in (math.gcd(ti, tj), ti, tj):
                assert enumerated_ticks(lcm, period) == sum(
                    1 for _ in range(0, lcm, period)
                )
    print(
        "\n[PASS] criterion 5: sample counts equal enumerated ticks for all pairs; "
        "two non-divisible demands always duplicate (never gcd-merge)"
    )


def test_criterion_6_branch_coverage():
    state = MergeState()
    for xapp, period in enumerate([2, 3, 4]):
        state.add_demand(KpiDemand(xapp, 0, "a", period))
    plan = state.plan_for(0, "a")
    assert [s.period_ms for s in plan.streams] == [1]
    assert set(plan.fanout) == {0, 1, 2}

    d10, d15_tol6 = KpiDemand(1, 0, "a", 10), KpiDemand(2, 0, "a", 15, 6)
    assert admit(10, [d10], 15, [d15_tol6]) == (DecisionKind.MIN_PERIOD, 10)
    assert max_staleness(10, 15) == 5

    state = MergeState()
    state.add_demand(KpiDemand(1, 0, "a", 10))
    state.add_demand(KpiDemand(2, 0, "a", 15, 6))
    plan = state.plan_for(0, "a")
    assert [s.period_ms for s in plan.streams] == [10]
    demands = [KpiDemand(1, 0, "a", 10), KpiDemand(2, 0, "a", 15, 6)]
    report = sim_run(state.classes(), demands, SimConfig(horizon_ms=300))
    assert report.per_xapp_max_staleness[2] == 5
    assert report.per_xapp_max_staleness[2] < 6
    print(
        "\n[PASS] criterion 6: 2/3/4 ms demands gcd-merge to one 1 ms stream; "
        "tolerated (10, 15) pair shares 10 ms with measured staleness 5 < 6 ms"
    )


def test_criterion_7_whole_request_baseline_gap():
    spec = ScenarioSpec(10, 20, 10, 0.9, seed=1)
    by_mode = rows_by_mode(compare(spec, MODEL, SIM))
    whole = by_mode[DedupMode.WHOLE_REQUEST]
    merged = by_mode[DedupMode.PER_KPI_MERGE]
    assert whole.saved_watts == 0.0
    ideal = MODEL.watts_per_sample_rate * 0.9 * scenario_rate("small")
    assert merged.saved_watts == pytest.approx(ideal, rel=1e-12)
    print(
        f"\n[PASS] criterion 7: duplicates hidden in differing requests save "
        f"{whole.saved_watts:.1f} W under whole-request hashing vs "
        f"{merged.saved_watts:.2f} W (= ideal) under per-KPI merging"
    )


def test_criterion_8_merge_engine_properties():
    state = MergeState()
    request_demands = decompose(
        SubscriptionRequest(1, 0, (SubscriptionItem("a", 10), SubscriptionItem("b", 20)))
    )
    for demand in request_demands:
        state.add_demand(demand)
    snapshot = state.plans()
    for demand in request_demands:  # resubmitting the same request
        assert state.add_demand(demand) == []
    assert state.plans() == snapshot

    state = MergeState()
    state.add_demand(KpiDemand(1, 0, "a", 10))
    state.add_demand(KpiDemand(2, 0, "a", 15, 7))
    before = state.plan_for(0, "a")
    state.remove_demand(2, 0, "a")
    state.add_demand(KpiDemand(2, 0, "a", 15, 7))
    assert state.plan_for(0, "a") == before

    rng = random.Random(20260809)
    cases = 10_000
    for _ in range(cases):
        demands = [
            KpiDemand(x, 0, "a", rng.randint(1, 24), rng.choice([None, rng.randint(1, 16)]))
            for x in range(rng.randint(1, 5))
        ]
        order = demands[:]
        rng.shuffle(order)
        forward, shuffled = MergeState(), MergeState()
        for state, sequence in ((forward, demands), (shuffled, order)):
            for d in sequence:
                before = state.plan_for(0, "a")
                periods = tuple(s.period_ms for s in before.streams) if before else ()
                touches = state.add_demand(d)
                assert touches == [((0, "a"), periods, groups(state)[0, "a"])], sequence
        assert forward.plan_for(0, "a") == shuffled.plan_for(0, "a")
    print(
        f"\n[PASS] criterion 8: idempotent resubscription, remove-then-add restore, "
        f"and insertion-order insensitivity over {cases} randomized demand sets, "
        f"each add touching its group once, from its streams before to the group after"
    )


def test_criterion_9_live_mode_integration():
    period_ms = 100
    kpi = "KPI0000"
    broker = Broker()
    broker.start()
    host, port = broker.address
    node = NodeEmulator(host, port, node_id=1)
    node.start()
    first = XAppClient(host, port, 10)
    second = XAppClient(host, port, 11)
    first.connect()
    second.connect()
    try:
        items = (SubscriptionItem(kpi, period_ms),)
        assert first.subscribe(1, items).accepted
        assert second.subscribe(1, items).accepted
        # The node logs each emission before sending it, so every emission
        # from index `cut` on was sent after the second subscription took
        # effect; earlier ones may have been routed to the first xApp only.
        cut = len(node.emit_times)

        deadline = time.monotonic() + 5
        while node.first_emit_monotonic is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert node.first_emit_monotonic is not None
        assert node.active_streams() == {(kpi, period_ms)}
        assert broker.plan_streams(1) == {(kpi, period_ms)}

        time.sleep(10.0)
        node.stop()  # freeze the emission window, then drain
        stopped_at = time.monotonic()
        emitted = list(node.emit_times)
        assert len(emitted) == node.emitted_messages
        deadline = time.monotonic() + 5
        while (
            first.received_messages < len(emitted)
            or not second.emit_times
            or second.emit_times[-1] != emitted[-1]
        ) and time.monotonic() < deadline:
            time.sleep(0.01)

        # The first xApp gets every emission; the second a gap-free,
        # duplicate-free suffix that holds every emission after its accept.
        assert list(first.emit_times) == emitted
        missed = len(emitted) - len(second.emit_times)
        assert 0 <= missed <= cut
        assert list(second.emit_times) == emitted[missed:]
        assert first.samples_per_kpi[kpi] == len(emitted)
        assert second.samples_per_kpi[kpi] == len(emitted) - missed

        window_ms = int((stopped_at - node.first_emit_monotonic) * 1000)
        assert window_ms >= 10_000
        expected_messages = (window_ms - 1) // period_ms + 1  # sim tick count
        frame_bytes = len(encode(Indication(1, 0, period_ms, ((kpi, 0),))))
        traffic = broker.node_traffic[1]
        assert abs(traffic.messages - expected_messages) <= 2
        assert abs(traffic.bytes - expected_messages * frame_bytes) <= 2 * frame_bytes
        print(
            f"\n[PASS] criterion 9: one node stream for two identical subscriptions, "
            f"{len(emitted)} indications fanned out to both clients ({missed} before "
            f"the second accept missed by it), live bytes "
            f"{traffic.bytes} within 2 message periods of predicted "
            f"{expected_messages * frame_bytes} over {window_ms} ms"
        )
    finally:
        first.close()
        second.close()
        node.stop()
        broker.stop()
