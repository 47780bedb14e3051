import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ricmerge import merge
from ricmerge.e2model import KpiDemand
from ricmerge.merge import (
    ChangeAction,
    DecisionKind,
    DuplicateDemandError,
    Fold,
    MergeDecision,
    MergeState,
    PlanClass,
    PlanEdit,
    SampleCounts,
    StreamChange,
    StreamSpec,
    TransmissionPlan,
    UnknownDemandError,
    _Stream,
    classes_sample_rate,
    decide_pair,
    fed_at,
    max_staleness,
    sample_counts,
)
from ricmerge.sim import staleness_oracle


def count_ticks(window_ms, period_ms):
    """Emission instants 0, T, 2T, ... inside [0, window)."""
    return sum(1 for _ in range(0, window_ms, period_ms))


class TestMaxStaleness:
    def test_divisible_periods_have_none(self):
        assert max_staleness(10, 20) == 0

    # Expected values frozen from the brute-force oracle:
    # ticks 0,15 at periods (10,15) age 0,5; ticks 0,10,20 at (6,10) age 0,4,2.
    @pytest.mark.parametrize("ti,tj,expected", [(10, 15, 5), (6, 10, 4)])
    def test_frozen_oracle_values(self, ti, tj, expected):
        assert staleness_oracle(min(ti, tj), max(ti, tj)) == expected
        assert max_staleness(ti, tj) == expected

    def test_matches_oracle_small_range(self):
        for ti in range(1, 61):
            for tj in range(1, 61):
                assert max_staleness(ti, tj) == staleness_oracle(min(ti, tj), max(ti, tj))

    @given(st.integers(1, 1000), st.integers(1, 1000))
    def test_matches_oracle_up_to_one_second(self, ti, tj):
        assert max_staleness(ti, tj) == staleness_oracle(min(ti, tj), max(ti, tj))


class TestSampleCounts:
    # Frozen from tick enumeration in [0, 30) at 5/10/15 and [0, 12) at 2/4/6.
    @pytest.mark.parametrize(
        "ti,tj,expected",
        [(10, 15, (6, 3, 2)), (10, 10, (1, 1, 1)), (4, 6, (6, 3, 2))],
    )
    def test_frozen_enumeration_values(self, ti, tj, expected):
        lcm, gcd = math.lcm(ti, tj), math.gcd(ti, tj)
        enumerated = (count_ticks(lcm, gcd), count_ticks(lcm, ti), count_ticks(lcm, tj))
        assert enumerated == expected
        assert sample_counts(ti, tj) == SampleCounts(*expected)

    def test_matches_enumeration_small_range(self):
        for ti in range(1, 41):
            for tj in range(1, 41):
                lcm, gcd = math.lcm(ti, tj), math.gcd(ti, tj)
                assert sample_counts(ti, tj) == (
                    count_ticks(lcm, gcd),
                    count_ticks(lcm, ti),
                    count_ticks(lcm, tj),
                )


class TestDecidePair:
    def test_divisible_shares_faster_stream(self):
        decision = decide_pair((10, None), (20, None))
        assert decision.kind is DecisionKind.MIN_PERIOD
        assert decision.chosen_period_ms == 10

    def test_tolerated_staleness_shares_faster_stream(self):
        decision = decide_pair((10, None), (15, 6))
        assert decision.kind is DecisionKind.MIN_PERIOD
        assert decision.chosen_period_ms == 10
        assert decision.staleness_ms == 5

    def test_strict_tolerance_comparison_falls_through(self):
        decision = decide_pair((10, None), (15, 5))
        assert decision.kind is DecisionKind.DUPLICATE
        assert decision.chosen_period_ms is None
        assert decision.staleness_ms == 5
        assert decision.counts == SampleCounts(6, 3, 2)

    def test_equal_periods_dedup(self):
        decision = decide_pair((10, None), (10, None))
        assert decision.kind is DecisionKind.DEDUP
        assert decision.chosen_period_ms == 10

    def test_slower_existing_side_uses_its_own_tolerance(self):
        assert decide_pair((15, 6), (10, None)).kind is DecisionKind.MIN_PERIOD
        assert decide_pair((15, None), (10, 6)).kind is DecisionKind.DUPLICATE

    def test_two_demands_never_gcd_merge(self):
        for ti in range(1, 81):
            for tj in range(1, 81):
                decision = decide_pair((ti, None), (tj, None))
                assert decision.kind is not DecisionKind.GCD_MERGE
                if decision.counts is not None:
                    merged, first, second = decision.counts
                    assert merged >= first + second

    @given(st.integers(1, 10_000), st.integers(1, 10_000))
    def test_decision_invariants(self, ti, tj):
        decision = decide_pair((ti, None), (tj, None))
        if decision.kind is DecisionKind.MIN_PERIOD:
            assert decision.chosen_period_ms == min(ti, tj)
        if decision.kind is DecisionKind.DEDUP:
            assert decision.chosen_period_ms == ti == tj


def demand(xapp, period, sens=None, node=0, kpi="a"):
    return KpiDemand(xapp, node, kpi, period, sens)


def plan_periods(state, node=0, kpi="a"):
    plan = state.plan_for(node, kpi)
    return [] if plan is None else [s.period_ms for s in plan.streams]


class TestMergeState:
    def test_single_demand_single_stream(self):
        state = MergeState()
        changes = state.add_demand(demand(1, 10))
        assert [(c.action, c.stream.period_ms) for c in changes] == [
            (ChangeAction.ADDED, 10)
        ]
        plan = state.plan_for(0, "a")
        assert plan.fanout == {1: 0}

    def test_divisible_demand_joins_existing_stream(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        changes = state.add_demand(demand(2, 20))
        assert changes == []
        plan = state.plan_for(0, "a")
        assert [s.period_ms for s in plan.streams] == [10]
        assert plan.fanout == {1: 0, 2: 0}

    def test_untolerated_demand_gets_own_stream(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        state.add_demand(demand(2, 15))
        plan = state.plan_for(0, "a")
        assert [s.period_ms for s in plan.streams] == [10, 15]
        assert plan.fanout == {1: 0, 2: 1}

    def test_remove_keeps_other_subscribers_stream(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        state.add_demand(demand(2, 20))
        changes = state.remove_demand(2, 0, "a")
        assert changes == []
        assert plan_periods(state) == [10]
        assert state.plan_for(0, "a").fanout == {1: 0}

    def test_remove_last_demand_removes_plan(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        changes = state.remove_demand(1, 0, "a")
        assert [(c.action, c.stream.period_ms) for c in changes] == [
            (ChangeAction.REMOVED, 10)
        ]
        assert state.plan_for(0, "a") is None

    def test_remove_then_add_restores_plan(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        state.add_demand(demand(2, 15))
        state.remove_demand(2, 0, "a")
        reference = MergeState()
        reference.add_demand(demand(1, 10))
        assert state.plan_for(0, "a") == reference.plan_for(0, "a")

    def test_resubscription_is_a_noop(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        before = state.plan_for(0, "a")
        assert state.add_demand(demand(1, 10)) == []
        assert state.plan_for(0, "a") == before

    def test_conflicting_duplicate_rejected(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        with pytest.raises(DuplicateDemandError):
            state.add_demand(demand(1, 20))

    def test_batch_insert_is_atomic(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        with pytest.raises(DuplicateDemandError):
            state.add_demands([demand(2, 10, kpi="b"), demand(1, 20)])
        assert state.plan_for(0, "b") is None
        assert state.demand_count() == 1
        with pytest.raises(DuplicateDemandError):
            state.add_demands([demand(3, 10, kpi="c"), demand(3, 20, kpi="c")])
        assert state.plan_for(0, "c") is None

    def test_batch_insert_recomputes_each_key_once(self):
        state = MergeState()
        changes = state.add_demands(
            [demand(1, 10), demand(2, 20), demand(3, 10, kpi="b")]
        )
        assert {(c.action, c.stream.kpi) for c in changes} == {
            (ChangeAction.ADDED, "a"),
            (ChangeAction.ADDED, "b"),
        }
        assert state.demand_count() == 3

    def test_unknown_removal_rejected(self):
        state = MergeState()
        with pytest.raises(UnknownDemandError):
            state.remove_demand(1, 0, "a")

    def test_three_demand_fold_merges_at_gcd(self):
        state = MergeState()
        for xapp, period in enumerate([2, 3, 4]):
            state.add_demand(demand(xapp, period))
        plan = state.plan_for(0, "a")
        assert [s.period_ms for s in plan.streams] == [1]
        assert set(plan.fanout) == {0, 1, 2}

    def test_retime_removes_the_old_streams_then_adds_the_new(self):
        state = MergeState()
        state.add_demand(demand(1, 2))
        state.add_demand(demand(2, 3))
        changes = state.add_demand(demand(3, 4))
        # {2, 3} ms collapse to one 1 ms stream.
        assert [(c.action, c.stream.period_ms) for c in changes] == [
            (ChangeAction.REMOVED, 2),
            (ChangeAction.REMOVED, 3),
            (ChangeAction.ADDED, 1),
        ]

    def test_total_sample_rate(self):
        state = MergeState()
        assert state.total_sample_rate() == 0
        state.add_demand(demand(1, 10))
        assert state.total_sample_rate() == 100
        state.add_demand(demand(2, 15))
        assert float(state.total_sample_rate()) == pytest.approx(166.67, abs=0.01)

    def test_plan_for_follows_the_group(self, plans_built):
        state = MergeState()
        state.add_demands([demand(1, 10), demand(2, 15, kpi="b"), demand(3, 10, kpi="c")])
        # One plan per new shape validates it; "c" shares the shape of "a".
        assert [p.streams[0].kpi for p in plans_built] == ["a", "b"]
        plan_a = TransmissionPlan((StreamSpec(0, "a", 10),), {1: 0})
        plan_b = TransmissionPlan((StreamSpec(0, "b", 15),), {2: 0})
        plan_c = TransmissionPlan((StreamSpec(0, "c", 10),), {3: 0})
        assert state.plan_for(0, "a") == plan_a and state.plan_for(0, "c") == plan_c
        assert state.plans() == {(0, "a"): plan_a, (0, "b"): plan_b, (0, "c"): plan_c}
        state.add_demand(demand(4, 30, kpi="b"))
        assert state.add_demand(demand(1, 10)) == []
        assert state.plan_for(0, "a") == plan_a and state.plan_for(0, "c") == plan_c
        built = len(plans_built)
        state.add_demand(demand(5, 20))
        assert len(plans_built) == built + 1
        assert state.plan_for(0, "a").fanout == {1: 0, 5: 0}
        state.remove_demand(5, 0, "a")
        assert state.plan_for(0, "a") == plan_a
        state.remove_demand(3, 0, "c")
        assert state.plan_for(0, "c") is None and (0, "c") not in state.plans()

    def test_groups_is_a_copy_of_the_plan_state(self, plans_built):
        state = MergeState()
        state.add_demands([demand(1, 10), demand(2, 20), demand(3, 15, kpi="b")])
        built = len(plans_built)
        groups = state.groups()
        assert groups == {
            (0, "a"): (Fold((10,), ((0, 1),)), (1, 2)),
            (0, "b"): (Fold((15,), ((0,),)), (3,)),
        }
        assert len(plans_built) == built
        groups.clear()
        assert state.plan_for(0, "b").fanout == {3: 0}

    def test_plans_are_insertion_order_insensitive(self):
        rng = random.Random(7)
        for _ in range(300):
            demands = [
                demand(x, rng.randint(1, 30), rng.choice([None, rng.randint(1, 20)]))
                for x in range(rng.randint(1, 6))
            ]
            forward, backward = MergeState(), MergeState()
            for d in demands:
                forward.add_demand(d)
            for d in reversed(demands):
                backward.add_demand(d)
            assert forward.plan_for(0, "a") == backward.plan_for(0, "a")


class TestPlanEdit:
    def test_equals_the_equivalent_list(self):
        state = MergeState()
        state.add_demands([demand(1, 2), demand(2, 3)])
        edit = state.add_demand(demand(3, 4))
        want = [
            StreamChange(ChangeAction.REMOVED, StreamSpec(0, "a", 2)),
            StreamChange(ChangeAction.REMOVED, StreamSpec(0, "a", 3)),
            StreamChange(ChangeAction.ADDED, StreamSpec(0, "a", 1)),
        ]
        assert isinstance(edit, PlanEdit)
        assert edit == want and want == edit and edit == tuple(want)
        assert edit != want[:2] and edit != want[::-1] and edit != "abc"
        assert state.add_demand(demand(4, 8)) == []

    def test_len_indexing_and_iteration_agree(self):
        state = MergeState()
        edit = state.add_demands([demand(3, 20, kpi="b"), demand(2, 15), demand(1, 10)])
        listed = list(edit)
        # Groups in key order, each group's streams ascending.
        assert [(c.stream.kpi, c.stream.period_ms) for c in listed] == [
            ("a", 10), ("a", 15), ("b", 20)
        ]
        assert list(edit) == listed
        assert len(edit) == len(listed)
        assert [edit[i] for i in range(len(edit))] == listed
        assert edit[-1] is listed[-1] and edit[1:] == listed[1:]

    def test_bulk_insert_builds_no_change_until_read(
        self, plans_built, specs_built, changes_built
    ):
        state = MergeState()
        edit = state.add_demands(
            demand(xapp, period, node=node, kpi=kpi)
            for node in range(50)
            for kpi, periods in (("a", (10, 20)), ("b", (10, 15)))
            for xapp, period in enumerate(periods)
        )
        # Only the plan validating each of the two shapes built streams.
        assert len(plans_built) == 2
        assert specs_built == [s for plan in plans_built for s in plan.streams]
        assert changes_built == []
        validating = len(specs_built)
        assert len(edit) == 150
        assert changes_built == list(edit) == list(edit)
        assert [c.stream for c in changes_built] == specs_built[validating:]

    def test_remove_xapp_edits_each_group_in_turn(self):
        demands = [demand(x, p, kpi=k) for k in "ba" for x, p in ((1, 10), (2, 15))]
        state, alone = MergeState(), MergeState()
        state.add_demands(demands)
        alone.add_demands(demands)
        edit = state.remove_xapp(2)
        # The groups in the order they were first inserted: "b", then "a".
        assert edit == [*alone.remove_demand(2, 0, "b"), *alone.remove_demand(2, 0, "a")]
        assert [c.action for c in edit] == [ChangeAction.REMOVED] * 2
        assert state.plans() == alone.plans()


demand_sets = st.lists(
    st.tuples(st.integers(1, 50), st.none() | st.integers(1, 40)),
    min_size=1,
    max_size=6,
)


def build_state(spec_list):
    state = MergeState()
    for xapp, (period, sens) in enumerate(spec_list):
        state.add_demand(demand(xapp, period, sens))
    return state


@given(demand_sets)
def test_plan_never_worse_than_one_stream_per_demand(spec_list):
    state = build_state(spec_list)
    plan = state.plan_for(0, "a")
    hyper = math.lcm(*[p for p, _ in spec_list])
    plan_cost = sum(hyper // s.period_ms for s in plan.streams)
    baseline_cost = sum(hyper // p for p, _ in spec_list)
    assert plan_cost <= baseline_cost
    # Equality exactly when nothing could be shared.
    assert (plan_cost == baseline_cost) == (len(plan.streams) == len(spec_list))


@given(demand_sets)
def test_every_assignment_divides_or_is_tolerated(spec_list):
    state = build_state(spec_list)
    plan = state.plan_for(0, "a")
    for xapp, (period, sens) in enumerate(spec_list):
        stream_period = plan.stream_for(xapp).period_ms
        if period % stream_period == 0:
            continue
        assert sens is not None
        assert staleness_oracle(stream_period, period) < sens


@given(demand_sets)
def test_dividing_streams_deliver_zero_staleness(spec_list):
    state = build_state(spec_list)
    plan = state.plan_for(0, "a")
    for xapp, (period, _) in enumerate(spec_list):
        stream_period = plan.stream_for(xapp).period_ms
        if period % stream_period == 0:
            assert staleness_oracle(stream_period, period) == 0


class TestTransmissionPlan:
    def test_requires_a_stream(self):
        with pytest.raises(ValueError):
            TransmissionPlan((), {})

    def test_rejects_equal_periods(self):
        streams = (StreamSpec(0, "a", 10), StreamSpec(0, "a", 10))
        with pytest.raises(ValueError):
            TransmissionPlan(streams, {1: 0, 2: 1})

    def test_rejects_unserved_stream(self):
        streams = (StreamSpec(0, "a", 10), StreamSpec(0, "a", 15))
        with pytest.raises(ValueError):
            TransmissionPlan(streams, {1: 0})

    def test_rejects_mixed_keys(self):
        streams = (StreamSpec(0, "a", 10), StreamSpec(0, "b", 15))
        with pytest.raises(ValueError):
            TransmissionPlan(streams, {1: 0, 2: 1})

    @pytest.mark.parametrize("fanout", [{1: -1}, {1: 0, 2: -1}, {1: 0, 2: 2}])
    def test_rejects_fanout_index_out_of_range(self, fanout):
        streams = (StreamSpec(0, "a", 10), StreamSpec(0, "a", 15))
        with pytest.raises(ValueError, match="reference only existing streams"):
            TransmissionPlan(streams, fanout)

    def test_engine_plan_serves_each_xapp_once(self):
        state = MergeState()
        for xapp, period in [(4, 15), (1, 10), (3, 20), (2, 15), (0, 7)]:
            state.add_demand(demand(xapp, period))
        plan = state.plan_for(0, "a")
        # 10, 15, 15 and 20 ms gcd-merge to 5 ms; 7 ms stays apart.
        assert plan.streams == (StreamSpec(0, "a", 5), StreamSpec(0, "a", 7))
        assert sorted(plan.fanout.items()) == [(0, 1), (1, 0), (2, 0), (3, 0), (4, 0)]
        assert {x: plan.stream_for(x).period_ms for x in range(5)} == {
            0: 7, 1: 5, 2: 5, 3: 5, 4: 5
        }
        group = state.groups()[0, "a"]
        for stream in plan.streams:
            fed = fed_at(group, stream.period_ms)
            assert sorted(fed) == sorted(x for x in plan.fanout if plan.stream_for(x) == stream)
        assert fed_at(group, 10) == ()

    def test_sample_rate_helper(self):
        one_stream = PlanClass(Fold((10,), ((0,),)), [(0, "a", (1,)), (0, "b", (1,))])
        two_streams = PlanClass(Fold((4, 6), ((1,), (0,))), [(1, "a", (1, 2))])
        # 2 x 100 + 250 + 1000 / 6 samples per second
        assert classes_sample_rate([one_stream, two_streams]) == Fraction(1850, 3)


# Reference engine: the fold and the pairwise rule as they stood when the
# decision order was written out three times. Kept as the oracle that the
# single admission rule must reproduce plan for plan.


def reference_decide_pair(existing, incoming):
    ti, si = existing
    tj, sj = incoming
    if ti == tj:
        return MergeDecision(DecisionKind.DEDUP, ti)
    if ti % tj == 0 or tj % ti == 0:
        return MergeDecision(DecisionKind.MIN_PERIOD, min(ti, tj))
    staleness = max_staleness(ti, tj)
    slow_sensitivity = si if ti > tj else sj
    if slow_sensitivity is not None and staleness < slow_sensitivity:
        return MergeDecision(DecisionKind.MIN_PERIOD, min(ti, tj), staleness)
    counts = sample_counts(ti, tj)
    if counts.merged < counts.first + counts.second:
        return MergeDecision(DecisionKind.GCD_MERGE, math.gcd(ti, tj), staleness, counts)
    return MergeDecision(DecisionKind.DUPLICATE, None, staleness, counts)


def reference_effective_sensitivity(stream, candidate_period_ms):
    tolerances = []
    for member in stream.members:
        if member.period_ms > candidate_period_ms:
            if member.sensitivity_ms is None:
                return None
            tolerances.append(member.sensitivity_ms)
    return min(tolerances) if tolerances else None


def reference_split_cost(periods, hyperperiod):
    return sum(hyperperiod // p for p in periods)


def reference_try_join(stream, demand):
    period, requested = stream.period_ms, demand.period_ms
    joined = False
    if requested % period == 0:
        joined = True
    elif period % requested == 0:
        stream.period_ms = requested
        joined = True
    else:
        if requested > period:
            tolerance = demand.sensitivity_ms
            retime_to = None
        else:
            tolerance = reference_effective_sensitivity(stream, requested)
            retime_to = requested
        if tolerance is not None and max_staleness(period, requested) < tolerance:
            if retime_to is not None:
                stream.period_ms = retime_to
            joined = True
        else:
            merged_period = math.gcd(period, requested)
            member_periods = [m.period_ms for m in stream.members] + [requested]
            hyper = math.lcm(*member_periods)
            if hyper // merged_period < reference_split_cost(member_periods, hyper):
                stream.period_ms = merged_period
                joined = True
    if joined:
        stream.members.append(demand)
    return joined


def reference_try_consolidate(fast, slow):
    p_fast, p_slow = fast.period_ms, slow.period_ms
    merged_period = None
    if p_slow % p_fast == 0:
        merged_period = p_fast
    else:
        tolerance = reference_effective_sensitivity(slow, p_fast)
        if tolerance is not None and max_staleness(p_fast, p_slow) < tolerance:
            merged_period = p_fast
        else:
            gcd = math.gcd(p_fast, p_slow)
            member_periods = [m.period_ms for m in fast.members + slow.members]
            hyper = math.lcm(*member_periods)
            if hyper // gcd < reference_split_cost(member_periods, hyper):
                merged_period = gcd
    if merged_period is None:
        return False
    fast.period_ms = merged_period
    fast.members.extend(slow.members)
    return True


def reference_build_streams(demands):
    if len(demands) == 1:
        return [_Stream(demands[0].period_ms, [demands[0]])]
    streams = []
    for d in sorted(demands, key=lambda d: (d.period_ms, d.xapp)):
        streams.sort(key=_Stream.sort_key)
        if not any(reference_try_join(stream, d) for stream in streams):
            streams.append(_Stream(d.period_ms, [d]))
    merged = True
    while merged:
        merged = False
        streams.sort(key=_Stream.sort_key)
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                if reference_try_consolidate(streams[i], streams[j]):
                    del streams[j]
                    merged = True
                    break
            if merged:
                break
    streams.sort(key=_Stream.sort_key)
    return streams


def churn_ops(rng):
    """A random add/remove sequence over two (node, KPI) groups. Half the
    sequences draw periods from 1-12 ms, where gcd merges are common."""
    top = rng.choice([12, 100])
    ops, active = [], {}
    for _ in range(rng.randint(1, 24)):
        if active and rng.random() < 0.3:
            ops.append(("remove", active.pop(rng.choice(sorted(active)))))
            continue
        kpi = rng.choice("ab")
        xapp = rng.choice([x for x in range(24) if (x, kpi) not in active])
        sens = rng.choice([None, None, rng.randint(1, 30)])
        active[xapp, kpi] = demand(xapp, rng.randint(1, top), sens, kpi=kpi)
        ops.append(("add", active[xapp, kpi]))
    return ops


def reference_diff(old, new):
    """The plan edit between two plans of one group, read from their streams:
    vanished streams, then new ones, each in plan order."""
    before = old.streams if old else ()
    after = new.streams if new else ()
    return [StreamChange(ChangeAction.REMOVED, s) for s in before if s not in after] + [
        StreamChange(ChangeAction.ADDED, s) for s in after if s not in before
    ]


def replay(ops):
    """StreamChange list and all plans after each op."""
    state, trace = MergeState(), []
    for action, d in ops:
        if action == "add":
            changes = state.add_demand(d)
        else:
            changes = state.remove_demand(d.xapp, d.node, d.kpi)
        trace.append((action, changes, state.plans()))
    return trace


def test_decide_pair_matches_reference():
    tolerances = [None, 2, 6, 20]
    for ti in range(1, 41):
        for tj in range(1, 41):
            for si in tolerances:
                for sj in tolerances:
                    pair = ((ti, si), (tj, sj))
                    assert decide_pair(*pair) == reference_decide_pair(*pair), pair


def test_engine_matches_reference_fold():
    corpus = [churn_ops(random.Random(seed)) for seed in range(600)]
    with mock.patch.object(merge, "_build_streams", reference_build_streams):
        expected = [replay(ops) for ops in corpus]
    gcd_streams = tolerated = removal_retimes = 0
    for ops, want in zip(corpus, expected):
        got = replay(ops)
        assert got == want, ops
        requested, before = {}, {}
        for (action, d), (_, changes, plans) in zip(ops, got):
            key = (d.node, d.kpi)
            assert changes == reference_diff(before.get(key), plans.get(key)), ops
            before = plans
            if action == "add":
                requested[d.xapp, d.kpi] = d.period_ms
            else:
                actions = {c.action for c in changes}
                removal_retimes += {ChangeAction.ADDED, ChangeAction.REMOVED} <= actions
            for (_, kpi), plan in plans.items():
                periods = {requested[x, kpi] for x in plan.fanout}
                gcd_streams += sum(s.period_ms not in periods for s in plan.streams)
                tolerated += sum(
                    requested[x, kpi] % plan.stream_for(x).period_ms != 0
                    for x in plan.fanout
                )
    # The corpus must reach every branch of the rule, removals included.
    assert gcd_streams > 20 and tolerated > 20 and removal_retimes > 20


def shape_groups(rng, groups):
    """Demands for ``groups`` (node, KPI) groups whose (period, tolerance)
    shapes repeat: a few period lists, each with several tolerance draws.
    Each group takes one shape and gives it fresh xApp ids in random
    order, so ids and fold ranks disagree."""
    shapes = []
    for _ in range(6):
        top = rng.choice([12, 100])
        periods = [rng.randint(1, top) for _ in range(rng.randint(1, 9))]
        for _ in range(3):
            tolerances = [rng.choice([None, None, rng.randint(1, 30)]) for _ in periods]
            shapes.append(list(zip(periods, tolerances)))
    by_group = {}
    for index in range(groups):
        node, kpi = divmod(index, 2)
        shape = rng.choice(shapes)
        xapps = rng.sample(range(1000), len(shape))
        by_group[node, "ab"[kpi]] = [
            demand(x, period, sens, node=node, kpi="ab"[kpi])
            for x, (period, sens) in zip(xapps, shape)
        ]
    return by_group


def fold_shape(demands):
    ordered = sorted(demands, key=lambda d: (d.period_ms, d.xapp))
    return tuple((d.period_ms, d.sensitivity_ms) for d in ordered)


def test_bulk_insert_matches_one_group_per_state(plans_built):
    """Groups that share a shape reuse one fold per bulk insert; plans,
    feeds and changes equal inserting each group alone, and each fan-out
    lists xApps in the order they joined the reference fold's streams."""
    rng = random.Random(29)
    by_group = shape_groups(rng, 400)
    halves = ({}, {})
    for key, demands in by_group.items():
        cut = rng.randint(0, len(demands) - 1)
        halves[0][key], halves[1][key] = demands[:cut], demands[cut:]

    bulk, got_changes, folds = MergeState(), [], 0
    inserted = {key: [] for key in by_group}
    for half in halves:
        mixed = [d for demands in half.values() for d in demands]
        rng.shuffle(mixed)
        built = len(plans_built)
        with mock.patch.object(merge, "_build_streams", wraps=merge._build_streams) as fold:
            got_changes.append(bulk.add_demands(mixed))
        touched = [key for key, demands in half.items() if demands]
        for key in touched:
            inserted[key] += half[key]
        # One fold, validated by one plan, per distinct shape among the
        # groups this insert touched.
        assert fold.call_count == len({fold_shape(inserted[key]) for key in touched})
        assert len(plans_built) - built == fold.call_count
        folds += fold.call_count
    assert folds < len(by_group)

    want_changes, want_plans = ([], []), {}
    gcd_streams = tolerated = divisible = split = 0
    for key in sorted(by_group):
        alone = MergeState()
        for step, half in enumerate(halves):
            want_changes[step].extend(alone.add_demands(half[key]))
        want, got = alone.plan_for(*key), bulk.plan_for(*key)
        want_plans[key] = want
        assert got == want, key
        streams = reference_build_streams(by_group[key])
        assert list(got.fanout.items()) == [
            (m.xapp, i) for i, stream in enumerate(streams) for m in stream.members
        ]
        requested = {d.xapp: d.period_ms for d in by_group[key]}
        split += len(want.streams) > 1
        gcd_streams += sum(s.period_ms not in requested.values() for s in want.streams)
        for xapp, period in requested.items():
            stream_period = want.stream_for(xapp).period_ms
            tolerated += period % stream_period != 0
            divisible += period != stream_period and period % stream_period == 0
    assert got_changes == list(want_changes)
    assert bulk.plans() == want_plans
    # The corpus must reach every branch of the rule.
    assert gcd_streams > 20 and tolerated > 20 and divisible > 20 and split > 20
