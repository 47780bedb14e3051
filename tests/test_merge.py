import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ricmerge import merge
from ricmerge.e2model import KpiDemand
from ricmerge.merge import (
    DecisionKind,
    DuplicateDemandError,
    Fold,
    MergeState,
    PlanClass,
    StreamSpec,
    TransmissionPlan,
    UnknownDemandError,
    admit,
    classes_sample_rate,
    fed_at,
    max_staleness,
)

from helpers import churn_ops, groups, plan_diff, staleness_oracle


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


def admit_pair(existing, incoming):
    """:func:`admit` over two single-demand sides, each a (period, tolerance)."""
    (ti, si), (tj, sj) = existing, incoming
    return admit(ti, [KpiDemand(0, 0, "a", ti, si)], tj, [KpiDemand(1, 0, "a", tj, sj)])


class TestDecidePair:
    def test_divisible_shares_faster_stream(self):
        assert admit_pair((10, None), (20, None)) == (DecisionKind.MIN_PERIOD, 10)

    def test_tolerated_staleness_shares_faster_stream(self):
        assert admit_pair((10, None), (15, 6)) == (DecisionKind.MIN_PERIOD, 10)
        assert max_staleness(10, 15) == 5

    def test_strict_tolerance_comparison_falls_through(self):
        assert admit_pair((10, None), (15, 5)) == (DecisionKind.DUPLICATE, None)
        assert max_staleness(10, 15) == 5

    def test_equal_periods_dedup(self):
        assert admit_pair((10, None), (10, None)) == (DecisionKind.DEDUP, 10)

    def test_slower_existing_side_uses_its_own_tolerance(self):
        assert admit_pair((15, 6), (10, None))[0] is DecisionKind.MIN_PERIOD
        assert admit_pair((15, None), (10, 6))[0] is DecisionKind.DUPLICATE

    def test_two_demands_never_gcd_merge(self):
        for ti in range(1, 81):
            for tj in range(1, 81):
                kind, _ = admit_pair((ti, None), (tj, None))
                assert kind is not DecisionKind.GCD_MERGE
                if kind is DecisionKind.DUPLICATE:
                    hyper = math.lcm(ti, tj)
                    assert hyper // math.gcd(ti, tj) >= hyper // ti + hyper // tj

    @given(st.integers(1, 10_000), st.integers(1, 10_000))
    def test_decision_invariants(self, ti, tj):
        kind, period = admit_pair((ti, None), (tj, None))
        if kind is DecisionKind.MIN_PERIOD:
            assert period == min(ti, tj)
        if kind is DecisionKind.DEDUP:
            assert period == ti == tj


def demand(xapp, period, sens=None, node=0, kpi="a"):
    return KpiDemand(xapp, node, kpi, period, sens)


def plan_periods(state, node=0, kpi="a"):
    plan = state.plan_for(node, kpi)
    return [] if plan is None else [s.period_ms for s in plan.streams]


def touch_periods(touches):
    """Each touch as (key, stream periods before, stream periods after)."""
    return [(key, before, group[0].periods if group else ()) for key, before, group in touches]


class TestMergeState:
    def test_single_demand_single_stream(self):
        state = MergeState()
        touches = state.add_demand(demand(1, 10))
        assert touch_periods(touches) == [((0, "a"), (), (10,))]
        plan = state.plan_for(0, "a")
        assert plan.fanout == {1: 0}

    def test_divisible_demand_joins_existing_stream(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        touches = state.add_demand(demand(2, 20))
        assert touch_periods(touches) == [((0, "a"), (10,), (10,))]
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
        touches = state.remove_demand(2, 0, "a")
        assert touch_periods(touches) == [((0, "a"), (10,), (10,))]
        assert plan_periods(state) == [10]
        assert state.plan_for(0, "a").fanout == {1: 0}

    def test_remove_last_demand_removes_plan(self):
        state = MergeState()
        state.add_demand(demand(1, 10))
        assert state.remove_demand(1, 0, "a") == [((0, "a"), (10,), None)]
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
        assert len(state.demands()) == 1
        with pytest.raises(DuplicateDemandError):
            state.add_demands([demand(3, 10, kpi="c"), demand(3, 20, kpi="c")])
        assert state.plan_for(0, "c") is None

    def test_batch_insert_recomputes_each_key_once(self):
        state = MergeState()
        touches = state.add_demands(
            [demand(3, 10, kpi="b"), demand(1, 10), demand(2, 20)]
        )
        assert touch_periods(touches) == [((0, "a"), (), (10,)), ((0, "b"), (), (10,))]
        assert len(state.demands()) == 3

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
        before = state.plan_for(0, "a")
        touches = state.add_demand(demand(3, 4))
        # {2, 3} ms collapse to one 1 ms stream.
        assert touch_periods(touches) == [((0, "a"), (2, 3), (1,))]
        assert plan_diff(before, state.plan_for(0, "a")) == (
            [StreamSpec(0, "a", 2), StreamSpec(0, "a", 3)],
            [StreamSpec(0, "a", 1)],
        )

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

    def test_classes_hold_each_group_by_its_fold(self, plans_built):
        state = MergeState()
        state.add_demands(
            [demand(1, 10), demand(2, 20), demand(3, 15, kpi="b"), demand(4, 10, node=1)]
        )
        state.add_demand(demand(5, 20, node=1))
        built = len(plans_built)
        assert state.classes() == [
            PlanClass(Fold((10,), ((0, 1),)), [(0, "a", (1, 2)), (1, "a", (4, 5))]),
            PlanClass(Fold((15,), ((0,),)), [(0, "b", (3,))]),
        ]
        assert groups(state) == {
            (0, "a"): (Fold((10,), ((0, 1),)), (1, 2)),
            (0, "b"): (Fold((15,), ((0,),)), (3,)),
            (1, "a"): (Fold((10,), ((0, 1),)), (4, 5)),
        }
        assert len(plans_built) == built

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
    """A mutation returns its touches: for each group it touched, the key,
    the stream periods before and the group after (None once empty)."""

    def test_equals_the_equivalent_list(self):
        state = MergeState()
        state.add_demands([demand(1, 2), demand(2, 3)])
        touches = state.add_demand(demand(3, 4))
        assert touches == [((0, "a"), (2, 3), (Fold((1,), ((0, 2, 1),)), (1, 2, 3)))]
        assert touches == [((0, "a"), (2, 3), groups(state)[0, "a"])]
        # A stream kept at its period is touched, not edited.
        assert touch_periods(state.add_demand(demand(4, 8))) == [((0, "a"), (1,), (1,))]

    def test_bulk_insert_touches_each_group_once_in_key_order(self, plans_built, specs_built):
        state = MergeState()
        touches = state.add_demands(
            demand(xapp, period, node=node, kpi=kpi)
            for node in reversed(range(50))
            for kpi, periods in (("b", (10, 15)), ("a", (10, 20)))
            for xapp, period in enumerate(periods)
        )
        # Only the plan validating each of the two shapes built streams.
        assert len(plans_built) == 2
        assert specs_built == [s for plan in plans_built for s in plan.streams]
        # Groups in key order, each group's streams ascending.
        assert touch_periods(touches) == [
            ((node, kpi), (), periods)
            for node in range(50)
            for kpi, periods in (("a", (10,)), ("b", (10, 15)))
        ]
        assert touches == [(key, (), group) for key, group in sorted(groups(state).items())]

    def test_remove_xapp_edits_each_group_in_turn(self):
        demands = [demand(x, p, kpi=k) for k in "ba" for x, p in ((1, 10), (2, 15))]
        state, alone = MergeState(), MergeState()
        state.add_demands(demands)
        alone.add_demands(demands)
        touches = state.remove_xapp(2)
        # The groups in the order they were first inserted: "b", then "a".
        assert touches == [*alone.remove_demand(2, 0, "b"), *alone.remove_demand(2, 0, "a")]
        assert touch_periods(touches) == [((0, "b"), (10, 15), (10,)), ((0, "a"), (10, 15), (10,))]
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
        stream_period = plan.streams[plan.fanout[xapp]].period_ms
        if period % stream_period == 0:
            continue
        assert sens is not None
        assert staleness_oracle(stream_period, period) < sens


@given(demand_sets)
def test_dividing_streams_deliver_zero_staleness(spec_list):
    state = build_state(spec_list)
    plan = state.plan_for(0, "a")
    for xapp, (period, _) in enumerate(spec_list):
        stream_period = plan.streams[plan.fanout[xapp]].period_ms
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
        assert {x: plan.streams[plan.fanout[x]].period_ms for x in range(5)} == {
            0: 7, 1: 5, 2: 5, 3: 5, 4: 5
        }
        group = groups(state)[0, "a"]
        for stream in plan.streams:
            fed = fed_at(group, stream.period_ms)
            fanned = [x for x, i in plan.fanout.items() if plan.streams[i] == stream]
            assert sorted(fed) == sorted(fanned)
        assert fed_at(group, 10) == ()

    def test_sample_rate_helper(self):
        one_stream = PlanClass(Fold((10,), ((0,),)), [(0, "a", (1,)), (0, "b", (1,))])
        two_streams = PlanClass(Fold((4, 6), ((1,), (0,))), [(1, "a", (1, 2))])
        # 2 x 100 + 250 + 1000 / 6 samples per second
        assert classes_sample_rate([one_stream, two_streams]) == Fraction(1850, 3)


# Reference engine: the fold and the pairwise rule as they stood when the
# decision order was written out three times. Kept as the oracle that the
# single admission rule must reproduce plan for plan.


@dataclass
class ReferenceStream:
    period_ms: int
    members: list = field(default_factory=list)

    def sort_key(self):
        anchor = min((m.period_ms, m.xapp) for m in self.members)
        return (self.period_ms, *anchor)


def reference_decide_pair(existing, incoming):
    ti, si = existing
    tj, sj = incoming
    if ti == tj:
        return DecisionKind.DEDUP, ti
    if ti % tj == 0 or tj % ti == 0:
        return DecisionKind.MIN_PERIOD, min(ti, tj)
    slow_sensitivity = si if ti > tj else sj
    if slow_sensitivity is not None and max_staleness(ti, tj) < slow_sensitivity:
        return DecisionKind.MIN_PERIOD, min(ti, tj)
    hyper, gcd = math.lcm(ti, tj), math.gcd(ti, tj)
    if hyper // gcd < hyper // ti + hyper // tj:
        return DecisionKind.GCD_MERGE, gcd
    return DecisionKind.DUPLICATE, None


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
        return [ReferenceStream(demands[0].period_ms, [demands[0]])]
    streams = []
    for d in sorted(demands, key=lambda d: (d.period_ms, d.xapp)):
        streams.sort(key=ReferenceStream.sort_key)
        if not any(reference_try_join(stream, d) for stream in streams):
            streams.append(ReferenceStream(d.period_ms, [d]))
    merged = True
    while merged:
        merged = False
        streams.sort(key=ReferenceStream.sort_key)
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                if reference_try_consolidate(streams[i], streams[j]):
                    del streams[j]
                    merged = True
                    break
            if merged:
                break
    streams.sort(key=ReferenceStream.sort_key)
    return streams


def replay(ops):
    """Each op's touches, and all plans and groups after it."""
    state, trace = MergeState(), []
    for action, d in ops:
        if action == "add":
            touches = state.add_demand(d)
        else:
            touches = state.remove_demand(d.xapp, d.node, d.kpi)
        trace.append((action, touches, state.plans(), groups(state)))
    return trace


def test_decide_pair_matches_reference():
    tolerances = [None, 2, 6, 20]
    for ti in range(1, 41):
        for tj in range(1, 41):
            for si in tolerances:
                for sj in tolerances:
                    pair = ((ti, si), (tj, sj))
                    assert admit_pair(*pair) == reference_decide_pair(*pair), pair


def test_engine_matches_reference_fold():
    corpus = [churn_ops(random.Random(seed)) for seed in range(600)]
    with mock.patch.object(merge, "_build_streams", reference_build_streams):
        expected = [replay(ops) for ops in corpus]
    gcd_streams = tolerated = removal_retimes = 0
    for ops, want in zip(corpus, expected):
        got = replay(ops)
        assert got == want, ops
        requested, before = {}, {}
        for (action, d), (_, touches, plans, after) in zip(ops, got):
            key = (d.node, d.kpi)
            old = before.get(key)
            periods = tuple(s.period_ms for s in old.streams) if old else ()
            # One touch: the group's streams before the op and the group after it.
            assert touches == [(key, periods, after.get(key))], ops
            before = plans
            if action == "add":
                requested[d.xapp, d.kpi] = d.period_ms
            else:
                gone, new = plan_diff(old, plans.get(key))
                removal_retimes += bool(gone and new)
            for (_, kpi), plan in plans.items():
                periods = {requested[x, kpi] for x in plan.fanout}
                gcd_streams += sum(s.period_ms not in periods for s in plan.streams)
                tolerated += sum(
                    requested[x, kpi] % plan.streams[plan.fanout[x]].period_ms != 0
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
    feeds and touches equal inserting each group alone, and each fan-out
    lists xApps in the order they joined the reference fold's streams."""
    rng = random.Random(29)
    by_group = shape_groups(rng, 400)
    halves = ({}, {})
    for key, demands in by_group.items():
        cut = rng.randint(0, len(demands) - 1)
        halves[0][key], halves[1][key] = demands[:cut], demands[cut:]

    bulk, got_touches, folds = MergeState(), [], 0
    inserted = {key: [] for key in by_group}
    for half in halves:
        mixed = [d for demands in half.values() for d in demands]
        rng.shuffle(mixed)
        built = len(plans_built)
        with mock.patch.object(merge, "_build_streams", wraps=merge._build_streams) as fold:
            got_touches.append(bulk.add_demands(mixed))
        touched = [key for key, demands in half.items() if demands]
        for key in touched:
            inserted[key] += half[key]
        # One fold, validated by one plan, per distinct shape among the
        # groups this insert touched.
        assert fold.call_count == len({fold_shape(inserted[key]) for key in touched})
        assert len(plans_built) - built == fold.call_count
        folds += fold.call_count
    assert folds < len(by_group)

    want_touches, want_plans = ([], []), {}
    gcd_streams = tolerated = divisible = split = 0
    for key in sorted(by_group):
        alone = MergeState()
        for step, half in enumerate(halves):
            want_touches[step].extend(alone.add_demands(half[key]))
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
            stream_period = want.streams[want.fanout[xapp]].period_ms
            tolerated += period % stream_period != 0
            divisible += period != stream_period and period % stream_period == 0
    assert got_touches == list(want_touches)
    assert bulk.plans() == want_plans
    # The corpus must reach every branch of the rule.
    assert gcd_streams > 20 and tolerated > 20 and divisible > 20 and split > 20


# One op of a bookkeeping script: ("add", xApp, group, period, tolerance),
# ("remove", xApp, group) or ("remove_xapp", xApp). Removals of demands
# the state does not hold are skipped.
bookkeeping_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 4),
            st.integers(0, 2),
            st.sampled_from([2, 3, 4, 6, 10, 15]),
            st.none() | st.integers(1, 8),
        ),
        st.tuples(st.just("remove"), st.integers(0, 4), st.integers(0, 2)),
        st.tuples(st.just("remove_xapp"), st.integers(0, 4)),
    ),
    max_size=30,
)


@settings(max_examples=300)
@given(bookkeeping_ops)
def test_fold_table_follows_every_op(ops):
    """The state's fold table is exact after every op: the running rate
    equals the rate read from ``classes()``, the groups equal a bulk
    rebuild, every group of one shape holds the same fold object however
    it was added, and the table keeps a fold exactly while a group holds it."""
    state, active = MergeState(), {}
    for op in ops:
        if op[0] == "add":
            _, xapp, group, period, tolerance = op
            d = demand(xapp, period, tolerance, node=group)
            if (xapp, group) in active and active[xapp, group] != d:
                continue
            active[xapp, group] = d
            state.add_demand(d)
        elif op[0] == "remove":
            _, xapp, group = op
            if active.pop((xapp, group), None) is None:
                continue
            state.remove_demand(xapp, group, "a")
        else:
            state.remove_xapp(op[1])
            active = {k: d for k, d in active.items() if k[0] != op[1]}

        assert state.total_sample_rate() == classes_sample_rate(state.classes())
        bulk = MergeState()
        bulk.add_demands(state.demands())
        assert groups(state) == groups(bulk)
        assert sorted(map(repr, state.demands())) == sorted(map(repr, active.values()))
        # Fold identity is what the table shares, so read the groups it holds.
        fold_of_shape = {}
        for (node, _), (fold, _) in state._groups.items():
            shape = fold_shape([d for (_, g), d in active.items() if g == node])
            assert fold_of_shape.setdefault(shape, fold) is fold
        held = {id(h.fold): h.holders for h in state._shapes.values()}
        holders = {}
        for fold, _ in state._groups.values():
            holders[id(fold)] = holders.get(id(fold), 0) + 1
        assert held == holders
        assert state._held.keys() == held.keys()


def test_equal_shapes_share_one_fold_across_calls():
    state = MergeState()
    for node in range(3):
        state.add_demand(demand(1, 10, node=node))
        state.add_demand(demand(2, 15, 6, node=node))
    folds = [fold for fold, _ in state._groups.values()]
    assert folds[0] is folds[1] is folds[2]
    state.remove_xapp(2)
    state.remove_demand(1, 0, "a")
    state.remove_demand(1, 1, "a")
    assert [h.holders for h in state._shapes.values()] == [1]
    state.remove_demand(1, 2, "a")
    assert state._shapes == {} and state._held == {} and state._keys == {}
