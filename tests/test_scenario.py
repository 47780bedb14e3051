import collections
import functools
import gc
import itertools
import pathlib
import random
import tracemalloc
from dataclasses import replace

import pytest

from ricmerge import scenario, wire
from ricmerge.e2model import (
    SubscriptionItem,
    SubscriptionRequest,
    decompose,
    request_fingerprint,
)
from ricmerge.merge import Fold, PlanClass, classes_sample_rate
from ricmerge.power import PowerModel
from ricmerge.scenario import (
    MODE_ORDER,
    SWEEP_AXES,
    ConfigError,
    DedupMode,
    ScenarioSpec,
    SensitivityPolicy,
    SweepAxis,
    build,
    compare,
    load_config,
    load_power,
    load_subscribe,
    rows_to_csv,
    rows_to_json,
    sweep,
)
from ricmerge.sim import Batching, SimConfig, run as sim_run

from helpers import rows_by_mode

MODEL = PowerModel()
SIM = SimConfig(horizon_ms=100)
CONFIGS = pathlib.Path(__file__).parents[1] / "configs"


def content_bytes(request):
    """A request's node and items as subscribe-frame bytes under one fixed
    sender: the byte identity that whole-request dedup stands for."""
    return wire.encode(wire.Subscribe(0, request.node, request.items))


class TestBuild:
    def test_no_redundancy_one_demand_per_stream(self):
        requests = build(ScenarioSpec(10, 20, redundancy_fraction=0.0, seed=1))
        demands = [d for r in requests for d in decompose(r)]
        assert len(requests) == 10
        assert len(demands) == 200
        assert len({(d.node, d.kpi) for d in demands}) == 200

    def test_half_redundancy_adds_duplicates(self):
        requests = build(ScenarioSpec(10, 20, redundancy_fraction=0.5, seed=1))
        demands = [d for r in requests for d in decompose(r)]
        assert len(demands) == 300
        base = {(d.node, d.kpi): d for d in demands if d.xapp == 0}
        duplicates = [d for d in demands if d.xapp == 1]
        assert len(duplicates) == 100
        for d in duplicates:
            assert base[(d.node, d.kpi)].period_ms == d.period_ms

    def test_same_seed_is_deterministic(self):
        spec = ScenarioSpec(5, 8, redundancy_fraction=0.4, seed=42)
        assert build(spec) == build(spec)

    def test_different_seed_changes_selection(self):
        a = build(ScenarioSpec(5, 8, redundancy_fraction=0.4, seed=1))
        b = build(ScenarioSpec(5, 8, redundancy_fraction=0.4, seed=2))
        assert a != b

    def test_duplicates_hide_inside_differing_requests(self):
        requests = build(ScenarioSpec(10, 20, redundancy_fraction=0.9, seed=3))
        prints = {}
        for request in requests:
            prints.setdefault(content_bytes(request), []).append(request)
        assert all(len(group) == 1 for group in prints.values())

    def test_period_mix_draws_from_weights(self):
        spec = ScenarioSpec(
            4, 10, period_mix=((10, 0.5), (20, 0.5)), redundancy_fraction=0.0, seed=9
        )
        periods = {d.period_ms for r in build(spec) for d in decompose(r)}
        assert periods == {10, 20}

    def test_sensitivity_policy_applied(self):
        spec = ScenarioSpec(
            2, 3, redundancy_fraction=0.5, seed=1,
            sensitivity=SensitivityPolicy(fixed_ms=7),
        )
        demands = [d for r in build(spec) for d in decompose(r)]
        assert all(d.sensitivity_ms == 7 for d in demands)

    def test_per_xapp_sensitivity(self):
        spec = ScenarioSpec(
            2, 3, redundancy_fraction=0.5, seed=1,
            sensitivity=SensitivityPolicy(per_xapp=((1, 9),)),
        )
        demands = [d for r in build(spec) for d in decompose(r)]
        assert all(d.sensitivity_ms == 9 for d in demands if d.xapp == 1)
        assert all(d.sensitivity_ms is None for d in demands if d.xapp == 0)

    def test_full_redundancy_duplicates_every_stream(self):
        requests = build(ScenarioSpec(5, 4, redundancy_fraction=1.0, seed=8))
        demands = [d for r in requests for d in decompose(r)]
        assert len([d for d in demands if d.xapp == 1]) == 20
        prints = {request_fingerprint(r) for r in requests}
        assert len(prints) == len(requests)  # reversal keeps keys distinct

    def test_items_are_shared_across_nodes(self):
        spec = ScenarioSpec(
            6, 5, redundancy_fraction=0.5, period_mix=((10, 0.5), (20, 0.5)), seed=2,
            sensitivity=SensitivityPolicy(per_xapp=((1, 9),)),
        )
        items = [item for r in build(spec) for item in r.items]
        assert len(items) == 45
        assert len({id(item) for item in items}) == len(set(items))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScenarioSpec(1, 1, period_mix=((10, 0.5), (20, 0.4)))


def reference_build(spec):
    """``scenario.build`` as it was when it kept a table of periods keyed
    by (node, KPI) and shuffled a pool of (node, KPI) tuples."""
    rng = random.Random(spec.seed)
    kpis = [scenario._kpi_name(k) for k in range(spec.kpis_per_node)]
    item = functools.cache(SubscriptionItem)

    periods = {}
    for node in range(spec.nodes):
        for kpi in kpis:
            if spec.period_mix is None:
                periods[(node, kpi)] = spec.period_ms
            else:
                choices, weights = zip(*spec.period_mix)
                periods[(node, kpi)] = rng.choices(choices, weights)[0]

    requests = []
    base_tolerance = spec.sensitivity.tolerance_for(scenario.BASE_XAPP)
    for node in range(spec.nodes):
        items = tuple(item(kpi, periods[(node, kpi)], base_tolerance) for kpi in kpis)
        requests.append(SubscriptionRequest(scenario.BASE_XAPP, node, items))

    total = spec.nodes * spec.kpis_per_node
    wanted = round(spec.redundancy_fraction * total)
    if wanted == 0:
        return requests
    cap = spec.kpis_per_node - 1 if spec.kpis_per_node > 1 else 1
    pool = [(node, kpi) for node in range(spec.nodes) for kpi in kpis]
    rng.shuffle(pool)
    taken_per_node = [0] * spec.nodes
    duplicated = []
    overflow = []
    for node, kpi in pool:
        if taken_per_node[node] < cap:
            taken_per_node[node] += 1
            duplicated.append((node, kpi))
        else:
            overflow.append((node, kpi))
    duplicated = (duplicated + overflow)[:wanted]

    dup_tolerance = spec.sensitivity.tolerance_for(scenario.DUPLICATE_XAPP)
    dup_by_node = {}
    for node, kpi in duplicated:
        dup_by_node.setdefault(node, []).append(kpi)
    for node in sorted(dup_by_node):
        chosen = sorted(dup_by_node[node], reverse=True)
        items = tuple(item(kpi, periods[(node, kpi)], dup_tolerance) for kpi in chosen)
        requests.append(SubscriptionRequest(scenario.DUPLICATE_XAPP, node, items))
    return requests


def _build_corpus():
    """Specs that reach both the one-KPI-per-node cap and the overflow
    past it, with and without a period mix, plus one node whose KPI names
    stop sorting in index order (``KPI10000`` < ``KPI1001``)."""
    tolerance = SensitivityPolicy(per_xapp=((1, 25),))
    mixed = ((10, 0.4), (20, 0.3), (30, 0.2), (50, 0.1))
    for nodes, kpis, redundancy, mix, seed in itertools.product(
        (1, 3, 12),
        (1, 2, 8, 101),
        (0, 0.05, 0.37, 0.6, 0.9, 1.0),
        (None, mixed, ((7, 0.5), (13, 0.5))),
        (0, 6),
    ):
        yield ScenarioSpec(nodes, kpis, redundancy_fraction=redundancy, period_mix=mix,
                           sensitivity=tolerance, seed=seed)
    yield ScenarioSpec(1, 10_001, redundancy_fraction=0.5, sensitivity=tolerance, seed=6)


def test_build_matches_reference_build():
    overflowed = 0
    for spec in _build_corpus():
        requests = build(spec)
        # Dataclass equality compares the xApp, the node and every item field.
        assert requests == reference_build(spec), spec
        duplicates = [r for r in requests if r.xapp == scenario.DUPLICATE_XAPP]
        overflowed += any(len(r.items) == spec.kpis_per_node > 1 for r in duplicates)
    assert overflowed > 0


def test_build_keeps_no_table_per_node_and_kpi():
    """Beyond the requests it returns, building ``large.cfg``'s 57,000
    demands allocates well under the 6.8 MB that a (node, KPI) period
    table and a pool of (node, KPI) tuples took."""
    spec = ScenarioSpec(300, 100, redundancy_fraction=0.9, seed=3)
    tracemalloc.start()
    try:
        requests = build(spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(requests) == 600
    assert peak - kept < 1_000_000


@pytest.mark.parametrize(
    "policy",
    [SensitivityPolicy(), SensitivityPolicy(fixed_ms=25), SensitivityPolicy(per_xapp=((1, 25),))],
)
@pytest.mark.parametrize("mix", [None, ((10, 0.4), (20, 0.3), (30, 0.2), (50, 0.1))])
def test_smaller_node_counts_are_prefixes(mix, policy):
    """What a nodes sweep relies on: xApp 0's requests for n nodes are the
    first n of any larger scenario's, so a scenario without duplicates
    is exactly that prefix."""
    undup = 0
    for redundancy in (0.0, 0.05, 0.4):
        spec = ScenarioSpec(1, 5, redundancy_fraction=redundancy, period_mix=mix,
                            sensitivity=policy, seed=6)
        each = [build(replace(spec, nodes=n)) for n in range(1, 13)]
        for n, smaller in enumerate(each, 1):
            assert {r.xapp for r in smaller[n:]} <= {scenario.DUPLICATE_XAPP}
            for larger in each[n - 1:]:
                assert smaller[:n] == larger[:n]
                if len(smaller) == n:
                    assert smaller == larger[:n]
            undup += len(smaller) == n
    # Redundancy 0.05 leaves the smallest counts without duplicates, and
    # redundancy 0.4 leaves none.
    assert 12 < undup < 36


class TestCollectorPause:
    """``_tally`` measures with the cyclic collector paused and gives it
    back as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled, monkeypatch):
        during = []
        monkeypatch.setattr(
            scenario, "sim_run", lambda *args: during.append(gc.isenabled()) or sim_run(*args)
        )
        requests = build(ScenarioSpec(3, 4, redundancy_fraction=0.5, seed=1))
        too_long = build(ScenarioSpec(2, 2, period_ms=200))
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            scenario._tally(requests, SIM)
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="shorter than stream period"):
                scenario._tally(too_long, SIM)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert during and not any(during)

    def test_no_cyclic_garbage_left_behind(self):
        spec, model, sim_cfg = load_config(str(CONFIGS / "mixed.cfg"))
        gc.collect()
        compare(spec, model, sim_cfg)
        assert gc.collect() == 0


class TestCompare:
    def test_small_deployment_headline_numbers(self):
        by_mode = rows_by_mode(compare(ScenarioSpec(10, 20, 10, 0.9, seed=1), MODEL, SIM))
        merge = by_mode[DedupMode.PER_KPI_MERGE]
        assert merge.gross_watts == pytest.approx(43.8, abs=0.2)
        assert merge.saved_watts == pytest.approx(8.4, abs=0.2)
        assert merge.saved_pct == pytest.approx(19.2, abs=1)
        assert merge.streams == 200

    def test_whole_request_hashing_misses_partial_overlap(self):
        by_mode = rows_by_mode(compare(ScenarioSpec(10, 20, 10, 0.9, seed=1), MODEL, SIM))
        whole = by_mode[DedupMode.WHOLE_REQUEST]
        assert whole.saved_watts == 0
        assert whole.streams == by_mode[DedupMode.NO_DEDUP].streams

    def test_whole_request_catches_fully_identical_requests(self):
        # One KPI per node: the duplicating request cannot differ.
        by_mode = rows_by_mode(compare(ScenarioSpec(4, 1, 10, 0.5, seed=1), MODEL, SIM))
        whole = by_mode[DedupMode.WHOLE_REQUEST]
        merge = by_mode[DedupMode.PER_KPI_MERGE]
        assert whole.saved_watts == pytest.approx(merge.saved_watts)

    def test_rates_ordered_across_modes(self):
        rows = compare(ScenarioSpec(7, 9, 10, 0.3, seed=5), MODEL, SIM)
        rates = {r.mode: r.sample_rate for r in rows}
        assert (
            rates[DedupMode.PER_KPI_MERGE]
            <= rates[DedupMode.WHOLE_REQUEST]
            <= rates[DedupMode.NO_DEDUP]
        )

    def test_rate_order_violation_raises(self, monkeypatch):
        original = scenario._mode_layout

        def inflated_merge(mode, *args):
            rows, rate = original(mode, *args)
            if mode is DedupMode.PER_KPI_MERGE:
                rate += 1
            return rows, rate

        monkeypatch.setattr(scenario, "_mode_layout", inflated_merge)
        spec = ScenarioSpec(2, 2, 10, 0.0, seed=1)
        with pytest.raises(RuntimeError, match="sample rates out of order") as err:
            compare(spec, MODEL, SIM)
        message = str(err.value)
        for mode in ("per_kpi_merge 401", "whole_request 400", "no_dedup 400"):
            assert mode in message

    def test_merge_saves_exactly_the_duplicated_rate(self):
        spec = ScenarioSpec(10, 20, 10, 0.9, seed=6)
        by_mode = rows_by_mode(compare(spec, MODEL, SIM))
        merge = by_mode[DedupMode.PER_KPI_MERGE]
        ideal = MODEL.watts_per_sample_rate * 0.9 * (10 * 20 * 100)
        assert merge.saved_watts == pytest.approx(ideal, rel=1e-12)

    def test_one_plan_per_distinct_merged_shape(self, plans_built, specs_built, changes_built):
        """Only the merge engine builds plans, one per distinct (period,
        tolerance) shape of a (node, KPI) group, to validate its fold. The
        only streams built are those plans' own, and the engine's plan
        edit, which nobody reads, builds no change."""
        spec = ScenarioSpec(
            12,
            15,
            redundancy_fraction=0.6,
            period_mix=((10, 0.4), (15, 0.3), (40, 0.3)),
            sensitivity=SensitivityPolicy(per_xapp=((1, 8),)),
            seed=4,
        )
        groups = {}
        for d in sorted(
            (d for r in build(spec) for d in decompose(r)), key=lambda d: (d.period_ms, d.xapp)
        ):
            groups.setdefault((d.node, d.kpi), []).append((d.period_ms, d.sensitivity_ms))
        shapes = {tuple(shape) for shape in groups.values()}
        assert len(shapes) == 6  # three periods, each alone or duplicated
        compare(spec, MODEL, SIM)
        assert len(plans_built) == len(shapes)
        built_for = {(p.streams[0].node, p.streams[0].kpi) for p in plans_built}
        assert {tuple(groups[key]) for key in built_for} == shapes
        assert specs_built == [s for plan in plans_built for s in plan.streams]
        assert changes_built == []

    def test_deterministic_per_seed(self):
        spec = ScenarioSpec(6, 6, 10, 0.5, seed=11)
        a = rows_to_csv(compare(spec, MODEL, SIM))
        b = rows_to_csv(compare(spec, MODEL, SIM))
        assert a == b


def reference_tally(requests, sim_cfg):
    """The tally of ``requests`` in one piece: every mode measured over
    every demand at once."""
    demands = [d for r in requests for d in decompose(r)]
    return [scenario._measure(mode, requests, demands, sim_cfg) for mode in MODE_ORDER]


def _outcome(tally, requests, sim_cfg):
    """A tally's totals, or the type and message of what it raised."""
    try:
        return tally(requests, sim_cfg)
    except Exception as exc:
        return type(exc), str(exc)


def _tally_corpus(count=40, seed=15):
    """Seeded scenarios of 1-8 nodes and 1-6 KPIs, with sim configs; some
    horizons are shorter than one of the mixed periods."""
    rng = random.Random(seed)
    mixes = (None, ((10, 0.5), (20, 0.5)), ((10, 0.4), (15, 0.3), (40, 0.2), (200, 0.1)))
    policies = (
        SensitivityPolicy(),
        SensitivityPolicy(per_xapp=((1, 8),)),
        SensitivityPolicy(per_xapp=((0, 30), (1, 3))),
    )
    cases = []
    for _ in range(count):
        spec = ScenarioSpec(
            nodes=rng.randint(1, 8),
            kpis_per_node=rng.randint(1, 6),
            redundancy_fraction=rng.choice((0.0, 1.0, round(rng.random(), 2))),
            period_mix=rng.choice(mixes),
            sensitivity=rng.choice(policies),
            seed=rng.randrange(1000),
        )
        sim_cfg = SimConfig(
            horizon_ms=rng.choice((100, 1000)),
            header_bytes=rng.choice((0, 12)),
            batching=rng.choice(list(Batching)),
        )
        cases.append((build(spec), sim_cfg))
    return cases


def _single_kpi(*items):
    """One request per item, xApp ids in item order, all for KPI ``a`` on node 0."""
    return [SubscriptionRequest(xapp, 0, (item,)) for xapp, item in enumerate(items)]


# ``build`` gives every duplicate its baseline period, so no generated
# scenario retimes a stream. These cases reach the tolerance branch (10 ms
# and 15 ms with tolerance 6 share the 10 ms stream) and the gcd branch
# (2, 3 and 4 ms share one 1 ms stream).
RETIMED_CASES = [
    (_single_kpi(SubscriptionItem("a", 10), SubscriptionItem("a", 15, 6)), SIM),
    (
        _single_kpi(*(SubscriptionItem("a", period) for period in (2, 3, 4))),
        SimConfig(horizon_ms=100, header_bytes=12, batching=Batching.PER_STREAM),
    ),
]

TALLY_CORPUS = _tally_corpus() + RETIMED_CASES


def test_retimed_cases_merge_below_whole_request():
    for requests, sim_cfg in RETIMED_CASES:
        rates = dict(zip(MODE_ORDER, (t[0] for t in reference_tally(requests, sim_cfg))))
        assert rates[DedupMode.PER_KPI_MERGE] < rates[DedupMode.WHOLE_REQUEST]


# Reference baselines: the two layouts as they stood when each mode had
# its own row builder. Kept as the oracle for the one request rule.


def reference_stream_classes(rows):
    by_fold = {}
    for node, kpi, period, xapps in rows:
        by_fold.setdefault((period, len(xapps)), []).append((node, kpi, xapps))
    return [
        PlanClass(Fold((period,), (tuple(range(fed)),)), groups)
        for (period, fed), groups in by_fold.items()
    ]


def reference_whole_request_rows(requests):
    groups = {}
    for request in requests:
        groups.setdefault(content_bytes(request), []).append(request)
    for members in groups.values():
        keeper = members[0]
        xapps = tuple(sorted({m.xapp for m in members}))
        for item in keeper.items:
            yield keeper.node, item.kpi, item.period_ms, xapps


def streams_of(classes):
    """Every stream of ``classes`` as (node, KPI, period, xApps fed)."""
    return collections.Counter(
        (node, kpi, period, tuple(xapps[rank] for rank in ranks))
        for fold, groups in classes
        for node, kpi, xapps in groups
        for period, ranks in zip(fold.periods, fold.feeds)
    )


def test_baselines_match_reference_layouts():
    shared = 0
    for requests, _ in TALLY_CORPUS:
        demands = [d for r in requests for d in decompose(r)]
        references = {
            DedupMode.NO_DEDUP: reference_stream_classes(
                (d.node, d.kpi, d.period_ms, (d.xapp,)) for d in demands
            ),
            DedupMode.WHOLE_REQUEST: reference_stream_classes(
                reference_whole_request_rows(requests)
            ),
        }
        for mode, reference in references.items():
            classes, rate = scenario._mode_layout(mode, requests, demands)
            assert streams_of(classes) == streams_of(reference), mode
            assert rate == classes_sample_rate(reference)
        sent = [streams_of(reference).total() for reference in references.values()]
        shared += sent[1] < sent[0]
    # The corpus reaches requests that whole-request dedup shares.
    assert shared > 0


class TestTally:
    @pytest.mark.parametrize("budget", [1, 7, scenario._TALLY_DEMANDS, "above"])
    def test_batches_add_up_to_the_whole_set(self, monkeypatch, budget):
        outcomes = []
        for requests, sim_cfg in TALLY_CORPUS:
            demand_count = sum(len(r.items) for r in requests)
            limit = demand_count + 1 if budget == "above" else budget
            monkeypatch.setattr(scenario, "_TALLY_DEMANDS", limit)
            expected = _outcome(reference_tally, requests, sim_cfg)
            assert _outcome(scenario._tally, requests, sim_cfg) == expected
            outcomes.append(expected)
        # The corpus reaches both the totals and the horizon error.
        assert {type(o) for o in outcomes} == {list, tuple}

    @pytest.mark.parametrize("budget", [1, 10])
    def test_batches_hold_whole_nodes_up_to_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(scenario, "_TALLY_DEMANDS", budget)
        seen = []
        original = scenario._mode_layout

        def recorded(mode, requests, demands):
            seen.append((mode, requests, demands))
            return original(mode, requests, demands)

        monkeypatch.setattr(scenario, "_mode_layout", recorded)
        requests = build(replace(MIXED, nodes=7, redundancy_fraction=0.4))
        scenario._tally(requests, SIM)
        assert [mode for mode, _, _ in seen] == list(MODE_ORDER) * (len(seen) // 3)
        batches = [(batch, demands) for mode, batch, demands in seen if mode is MODE_ORDER[0]]
        nodes = [sorted({d.node for d in demands}) for _, demands in batches]
        assert sum(nodes, []) == list(range(7))
        if budget == 1:
            assert all(len(batch_nodes) == 1 for batch_nodes in nodes)
        for batch, demands in batches:
            # Every request of the batch's nodes, each node's in list order.
            order = dict.fromkeys(d.node for d in demands)
            assert batch == [r for node in order for r in requests if r.node == node]
            assert [d for r in batch for d in decompose(r)] == demands
        for _, demands in batches[:-1]:
            last = demands[-1].node
            assert len(demands) >= budget > len([d for d in demands if d.node != last])


def _compare_each_point(spec, axis, values):
    """The sweep's rows as one ``compare`` per point would give them."""
    field, kind, _, _, every_mode = SWEEP_AXES[axis]
    rows = []
    for value in values:
        rows += [
            replace(row, sweep_value=float(value))
            for row in compare(replace(spec, **{field: kind(value)}), MODEL, SIM)
            if every_mode or row.mode is spec.mode
        ]
    return rows


MIXED = ScenarioSpec(
    1,
    6,
    period_mix=((10, 0.4), (15, 0.3), (40, 0.3)),
    sensitivity=SensitivityPolicy(per_xapp=((1, 8),)),
    seed=4,
)


def count_measures(monkeypatch):
    """The mode of each ``scenario._measure`` call, as a list that grows."""
    measured, measure = [], scenario._measure
    monkeypatch.setattr(scenario, "_measure", lambda *a: measured.append(a[0]) or measure(*a))
    return measured


# Redundancy 0 and one period in most draws, so node contents repeat.
REPEATING = ScenarioSpec(1, 1, period_mix=((10, 0.8), (20, 0.1), (40, 0.1)), seed=3)


class TestSweep:
    @pytest.mark.parametrize(
        "spec, axis, values",
        [
            (MIXED, SweepAxis.NODES, list(range(1, 13))),
            (MIXED, SweepAxis.NODES, [5, 2, 7, 7, 9, 1]),
            (replace(MIXED, redundancy_fraction=0.4), SweepAxis.NODES, [5, 2, 7, 7, 9, 1]),
            (replace(MIXED, redundancy_fraction=0.4), SweepAxis.NODES, list(range(1, 9))),
            # Point 2 adds node 1 and a duplicate on node 0, which point 1 had.
            (replace(MIXED, kpis_per_node=1, redundancy_fraction=0.4), SweepAxis.NODES, [1, 2]),
            (replace(MIXED, nodes=3), SweepAxis.KPIS, [4, 1, 6, 6, 9]),
            (replace(MIXED, nodes=4), SweepAxis.REDUNDANCY, [0.0, 0.5, 0.2, 0.2, 1.0]),
            # Points 3 and 4 carry a duplicate; the others do not.
            (
                replace(MIXED, kpis_per_node=1, redundancy_fraction=0.2),
                SweepAxis.NODES,
                [1, 2, 3, 2, 1, 4],
            ),
            # Point 7 adds nodes 2-6, whose content equals nodes 0-4 of point 5.
            (REPEATING, SweepAxis.NODES, [5, 2, 7, 7, 9, 1]),
        ],
    )
    def test_rows_equal_each_points_compare(self, spec, axis, values):
        rows = sweep(spec, MODEL, SIM, axis, values)
        assert rows_to_csv(rows) == rows_to_csv(_compare_each_point(spec, axis, values))

    def test_node_points_decompose_only_the_requests_they_add(self, monkeypatch):
        requests = []
        monkeypatch.setattr(scenario, "decompose", lambda r: requests.append(r) or decompose(r))
        values = list(range(1, 13))
        sweep(MIXED, MODEL, SIM, SweepAxis.NODES, values)
        assert len(requests) == len(values)
        # With duplicates every point lists the duplicating requests after
        # all the baseline ones, so no point extends the one before it.
        requests.clear()
        redundant = replace(MIXED, redundancy_fraction=0.4)
        sweep(redundant, MODEL, SIM, SweepAxis.NODES, values)
        each_point = [build(replace(redundant, nodes=n)) for n in values]
        assert all(len(point) > n for n, point in zip(values, each_point))
        assert len(requests) == sum(map(len, each_point))

    @pytest.mark.parametrize("values, requests", [(None, 60), ([5, 2, 7, 7, 9, 1], 9)])
    def test_node_sweep_builds_each_node_once(self, monkeypatch, values, requests):
        built = []
        monkeypatch.setattr(
            scenario, "SubscriptionRequest", lambda *a: built.append(a) or SubscriptionRequest(*a)
        )
        rows = sweep(MIXED, MODEL, SIM, SweepAxis.NODES, values)
        assert len(rows) == len(values or SWEEP_AXES[SweepAxis.NODES].grid)
        assert len(built) == requests

    def test_node_sweep_measures_alike_nodes_once(self, monkeypatch):
        measured = count_measures(monkeypatch)
        spec, model, sim_cfg = load_config(str(CONFIGS / "node_sweep.cfg"))
        rows = sweep(spec, model, sim_cfg, SweepAxis.NODES)
        assert len(rows) == 60
        # One measurement per mode, not one per mode and point (180).
        assert measured == list(MODE_ORDER)

    @pytest.mark.parametrize("kpis", [1, 2])
    def test_node_sweep_measures_each_distinct_slice_once(self, monkeypatch, kpis):
        spec = replace(REPEATING, kpis_per_node=kpis)
        contents = {(r.xapp, r.items) for r in build(replace(spec, nodes=60))}
        assert 1 < len(contents) < 60
        measured = count_measures(monkeypatch)
        sweep(spec, MODEL, SIM, SweepAxis.NODES)
        assert len(measured) == len(MODE_ORDER) * len(contents)

    def test_errors_stay_at_the_point_that_raises_them(self, monkeypatch):
        spec = ScenarioSpec(1, 2, period_mix=((10, 0.9), (20, 0.07), (200, 0.03)), seed=0)
        message = "horizon 100 ms shorter than stream period 200 ms (8:KPI0001)"
        for nodes in range(1, 9):
            compare(replace(spec, nodes=nodes), MODEL, SIM)
        with pytest.raises(ValueError) as at_compare:
            compare(replace(spec, nodes=9), MODEL, SIM)
        assert str(at_compare.value) == message
        built, measured = [], []
        monkeypatch.setattr(
            scenario, "SubscriptionRequest", lambda *a: built.append(a[1]) or SubscriptionRequest(*a)
        )
        monkeypatch.setattr(scenario, "decompose", lambda r: measured.append(r.node) or decompose(r))
        with pytest.raises(ValueError) as at_sweep:
            sweep(spec, MODEL, SIM, SweepAxis.NODES, list(range(1, 20)))
        assert str(at_sweep.value) == message
        # Nothing past the point that raises is built, and only the first
        # node of each distinct content is measured: nodes 1-4 and 6-7
        # repeat node 0, node 5 is new and node 8 raises.
        assert built == list(range(9))
        assert measured == [0, 5, 8]

    def test_redundancy_axis_emits_all_modes(self):
        spec = ScenarioSpec(3, 4, 10, 0.0, seed=2)
        rows = sweep(spec, MODEL, SIM, SweepAxis.REDUNDANCY, [0.0, 0.5])
        assert len(rows) == 6
        assert rows[0].sweep_value == 0.0 and rows[-1].sweep_value == 0.5

    def test_node_axis_emits_projection_rows(self):
        spec = ScenarioSpec(1, 7, 10, 0.0, seed=2)
        rows = sweep(spec, MODEL, SIM, SweepAxis.NODES, list(range(1, 61)))
        assert len(rows) == 60
        assert rows[-1].gross_watts == pytest.approx(54.13, abs=0.01)
        watts = [r.gross_watts for r in rows]
        assert watts == sorted(watts)

    def test_kpi_axis_final_projection(self):
        spec = ScenarioSpec(4, 1, 10, 0.0, seed=2)
        rows = sweep(spec, MODEL, SIM, SweepAxis.KPIS, [1, 40, 80])
        assert rows[-1].gross_watts == pytest.approx(49.46, abs=0.01)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep(ScenarioSpec(1, 1), MODEL, SIM, SweepAxis.NODES, [])

    def test_integer_axes_reject_values_that_are_not_whole(self):
        for axis in (SweepAxis.NODES, SweepAxis.KPIS):
            with pytest.raises(ValueError, match="whole numbers only: 1.5"):
                sweep(ScenarioSpec(1, 1), MODEL, SIM, axis, [1.0, 1.5, 2.0])

    def test_redundancy_sweep_savings_grow_to_the_ideal_endpoint(self):
        spec = ScenarioSpec(10, 20, 10, 0.0, seed=1)
        values = [round(0.1 * i, 1) for i in range(10)]
        rows = sweep(spec, MODEL, SIM, SweepAxis.REDUNDANCY, values)
        merged = [r for r in rows if r.mode is DedupMode.PER_KPI_MERGE]
        saved = [r.saved_watts for r in merged]
        assert saved == sorted(saved)
        assert saved[0] == 0.0
        assert saved[-1] == pytest.approx(8.4132, abs=1e-4)
        assert all(r.gross_watts == pytest.approx(43.848, abs=1e-3) for r in merged)


class TestRendering:
    def test_csv_header_and_shape(self):
        rows = compare(ScenarioSpec(2, 2, 10, 0.5, seed=1), MODEL, SIM)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "sweep_value,mode,streams,sample_rate,bytes_per_sec,"
            "gross_watts,saved_watts,saved_pct"
        )
        assert len(lines) == 4
        assert lines[1].startswith("0.5,no_dedup,")

    def test_json_mirrors_csv_fields(self):
        import json

        rows = compare(ScenarioSpec(2, 2, 10, 0.0, seed=1), MODEL, SIM)
        doc = json.loads(rows_to_json(rows))
        assert len(doc) == 3
        assert set(doc[0]) == {
            "sweep_value", "mode", "streams", "sample_rate",
            "bytes_per_sec", "gross_watts", "saved_watts", "saved_pct",
        }


class TestConfig:
    def test_full_config_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "[scenario]\n"
            "nodes = 4\n"
            "kpis_per_node = 3\n"
            "period_ms = 20\n"
            "redundancy_fraction = 0.25\n"
            "seed = 17\n"
            "mode = no_dedup\n"
            "period_mix = 10:0.5, 20:0.5\n"
            "sensitivity = fixed:6\n"
            "[power]\n"
            "ric_static_watts = 40\n"
            "watts_per_sample_rate = 1e-3\n"
            "[sim]\n"
            "horizon_ms = 200\n"
            "header_bytes = 12\n"
            "bytes_per_sample = 800\n"
            "batching = per_stream\n"
        )
        spec, model, sim_cfg = load_config(str(path))
        assert spec.nodes == 4 and spec.kpis_per_node == 3
        assert spec.period_mix == ((10, 0.5), (20, 0.5))
        assert spec.sensitivity.fixed_ms == 6
        assert spec.mode is DedupMode.NO_DEDUP
        assert model.ric_static_watts == 40
        assert sim_cfg.batching is Batching.PER_STREAM
        assert sim_cfg.header_bytes == 12

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text("[scenario]\nnodes = 2\nkpis_per_node = 5\n")
        spec, model, sim_cfg = load_config(str(path))
        assert spec.period_ms == 10 and spec.seed == 0
        assert spec.mode is DedupMode.PER_KPI_MERGE
        assert model.ric_static_watts == 34.5
        assert sim_cfg.horizon_ms == 1000

    def test_missing_file_raises_config_error(self):
        for loader in (load_config, load_subscribe):
            with pytest.raises(ConfigError, match="cannot read"):
                loader("/nonexistent/scenario.cfg")

    def test_unparsable_file_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nodes = 1\n")  # no section header
        for loader in (load_config, load_subscribe):
            with pytest.raises(ConfigError, match="cannot parse"):
                loader(str(path))

    def test_missing_section_raises(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[power]\nric_static_watts = 34.5\n")
        for loader in (load_config, load_subscribe):
            with pytest.raises(ConfigError, match="missing"):
                loader(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("[scenario]\nnodes = 1\nkpis_per_node = 1\n[sim]\nhorizon = 20\n")
        with pytest.raises(ConfigError, match=r"'horizon' in \[sim\]"):
            load_config(str(path))

    def test_cpu_static_watts_is_an_unknown_key(self, tmp_path):
        path = tmp_path / "cpu.cfg"
        path.write_text(
            "[scenario]\nnodes = 1\nkpis_per_node = 1\n[power]\ncpu_static_watts = 28.0\n"
        )
        with pytest.raises(ConfigError, match=r"unknown key 'cpu_static_watts' in \[power\]"):
            load_config(str(path))

    def test_load_power_reads_the_power_section_alone(self, tmp_path):
        path = tmp_path / "power.cfg"
        path.write_text("[power]\nric_static_watts = 40\nwatts_per_sample_rate = 1e-3\n")
        assert load_power(str(path)) == PowerModel(40, 1e-3)
        # A [scenario] section is not read, so one without nodes is no error.
        path.write_text("[scenario]\nkpis_per_node = 1\n")
        assert load_power(str(path)) == PowerModel()
        path.write_text("[power]\nric_static_watts = -1\n")
        with pytest.raises(ConfigError, match="power.cfg: invalid config: ric_static_watts must be >= 0"):
            load_power(str(path))

    def test_percent_sign_raises_config_error(self, tmp_path):
        path = tmp_path / "percent.cfg"
        path.write_text("[scenario]\nnodes = 1%\nkpis_per_node = 1\n")
        with pytest.raises(ConfigError, match="invalid config: '%'"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "line, cause",
        [
            ("period_mix = 10:1.5,20:-0.5", "weight must be finite and >= 0: -0.5"),
            ("period_mix = 10:nan,20:1.0", "weight must be finite and >= 0: nan"),
            ("period_mix = 10:inf,20:1.0", "weight must be finite and >= 0: inf"),
            ("period_mix = 0:1.0", r"period out of range \[1, 3600000\] ms: 0"),
            ("period_mix = 10:0.5,3600001:0.5", "period out of range .* ms: 3600001"),
            ("period_ms = 0", "period out of range .* ms: 0"),
            ("period_ms = -10", "period out of range .* ms: -10"),
        ],
    )
    def test_bad_periods_and_weights_name_the_file(self, tmp_path, line, cause):
        path = tmp_path / "mix.cfg"
        path.write_text(f"[scenario]\nnodes = 1\nkpis_per_node = 1\n{line}\n")
        with pytest.raises(ConfigError, match=f"mix.cfg: invalid config: .*{cause}"):
            load_config(str(path))

    def test_zero_weight_and_period_bounds_are_accepted(self, tmp_path):
        path = tmp_path / "mix.cfg"
        path.write_text(
            "[scenario]\nnodes = 1\nkpis_per_node = 1\nperiod_ms = 3600000\n"
            "period_mix = 1:0.0,3600000:1.0\n"
        )
        spec, _, _ = load_config(str(path))
        assert spec.period_mix == ((1, 0.0), (3600000, 1.0))

    @pytest.mark.parametrize(
        "policy, cause",
        [
            ("per_xapp:1=-3", "staleness tolerance must be >= 1 ms: -3"),
            ("fixed:0", "staleness tolerance must be >= 1 ms: 0"),
            ("per_xapp:1=3,1=5", "xApp 1 has more than one tolerance"),
            ("per_xapp:-1=3", "xApp id must be non-negative: -1"),
            ("per_xapp:1", "bad sensitivity entry '1'$"),
            ("fixed:", "bad sensitivity entry 'fixed:'$"),
            ("per_xapp:a=3", "bad sensitivity entry 'a=3'$"),
        ],
    )
    def test_bad_sensitivity_names_the_file(self, tmp_path, policy, cause):
        path = tmp_path / "tolerance.cfg"
        path.write_text(f"[scenario]\nnodes = 1\nkpis_per_node = 1\nsensitivity = {policy}\n")
        with pytest.raises(ConfigError, match=f"tolerance.cfg: invalid config: {cause}"):
            load_config(str(path))

    def test_missing_nodes_is_named(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("[scenario]\nkpis_per_node = 1\n")
        with pytest.raises(ConfigError, match="'nodes'"):
            load_config(str(path))

    def test_readme_example_loads(self, tmp_path):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        spec, model, sim_cfg = load_config(str(path))
        assert (spec.nodes, spec.kpis_per_node, spec.mode) == (10, 20, DedupMode.PER_KPI_MERGE)
        assert model == PowerModel(34.5, 4.674e-4)
        assert sim_cfg.batching is Batching.PER_NODE_PERIOD

    def test_bad_mode_raises(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nnodes = 1\nkpis_per_node = 1\nmode = magic\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_subscribe_file_must_be_a_valid_request(self, tmp_path):
        path = tmp_path / "subscribe.cfg"
        for body, reason in (
            ("items = KPI0000:10, KPI0000:20\n", "duplicate KPI"),
            ("items = KPI0000:10\nperiod_ms = 10\n", r"'period_ms' in \[subscribe\]"),
        ):
            path.write_text("[subscribe]\nxapp = 3\nnode = 1\n" + body)
            with pytest.raises(ConfigError, match=reason):
                load_subscribe(str(path))

    def test_subscribe_file(self, tmp_path):
        path = tmp_path / "subscribe.cfg"
        path.write_text(
            "[subscribe]\nxapp = 3\nnode = 1\nitems = KPI0000:10, KPI0001:20:5\n"
        )
        xapp, node, items = load_subscribe(str(path))
        assert (xapp, node) == (3, 1)
        assert [(i.kpi, i.period_ms, i.sensitivity_ms) for i in items] == [
            ("KPI0000", 10, None),
            ("KPI0001", 20, 5),
        ]
