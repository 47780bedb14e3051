"""Per-(node, KPI) subscription merge engine.

For every (E2 node, KPI) pair the engine keeps the set of active xApp
demands and derives a transmission plan: which physical report streams
the node must emit, and which stream feeds each xApp. Whether two sides
(a stream and a demand, or two streams) can share one stream is decided
by :func:`admit`, the only place that holds the decision order:

1. identical periods share one stream (dedup);
2. divisible periods share the faster stream, which the slower consumer
   reads with zero staleness;
3. non-divisible periods may still share the faster stream when the
   slower side declared a staleness tolerance that exceeds the
   worst-case sample age;
4. otherwise one merged stream at the gcd of the periods is chosen when
   it needs fewer samples per hyperperiod than serving every involved
   xApp at its own period, and failing that both streams are kept
   (duplicate transmission).

With exactly two demands the gcd option never wins: for periods g*a and
g*b with coprime a, b >= 2 the merged stream needs a*b samples against
a+b for the pair, and a*b >= a+b. It becomes profitable only once three
or more demands accumulate on a stream, which is why plans are rebuilt
from the full demand set (including a stream consolidation pass) rather
than patched incrementally. Within one bulk insert, groups of the same
(period, tolerance) shape share one fold.

The engine keeps each group as its shape's :class:`Fold` plus its xApp
ids in rank order, and nothing else: that pair is the only plan state.
A fold is validated once, through the :class:`TransmissionPlan` of the
first group that has it, which is then dropped; a caller that asks for
a plan gets one built from the fold. :meth:`MergeState.classes` hands
the simulator each fold with the groups that share it, and the live
broker keeps :meth:`MergeState.groups` as its routing snapshot and fans
indications out through :func:`fed_at`.

Every mutation returns the plan edit it caused as a :class:`PlanEdit`, a
sequence of :class:`StreamChange` items: for each touched group in turn,
the streams the node must stop (REMOVED), then those it must start
(ADDED). A retimed stream is one of each. The edit keeps only each
group's stream periods before and after, and builds its changes when
first read, so a caller that drops it, as ``scenario.compare`` does,
builds none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Protocol, Sequence

from .e2model import E2NodeId, KpiDemand, KpiId, XAppId


class DuplicateDemandError(ValueError):
    """An active demand already exists for this (xApp, node, KPI)."""


class UnknownDemandError(LookupError):
    """No active demand exists for this (xApp, node, KPI)."""


class DecisionKind(str, Enum):
    DEDUP = "dedup"
    MIN_PERIOD = "min_period"
    GCD_MERGE = "gcd_merge"
    DUPLICATE = "duplicate"


class SampleCounts(NamedTuple):
    """Samples per hyperperiod: one merged stream at the gcd versus one
    stream at each of the two periods."""

    merged: int
    first: int
    second: int


def classes_sample_rate(classes: Iterable["PlanClass"]) -> Fraction:
    """Exact samples per second of every stream of every group of ``classes``."""
    by_period: dict[int, int] = {}
    for fold, groups in classes:
        for period in fold.periods:
            by_period[period] = by_period.get(period, 0) + len(groups)
    rate = Fraction(0)
    for period, count in by_period.items():
        rate += Fraction(1000 * count, period)
    return rate


def max_staleness(ti_ms: int, tj_ms: int) -> int:
    """Worst-case sample age seen by the slower consumer when the KPI is
    sampled at the faster period, both phase-aligned at t=0.

    Equals min(ti, tj) - gcd(ti, tj).
    """
    return min(ti_ms, tj_ms) - math.gcd(ti_ms, tj_ms)


def sample_counts(ti_ms: int, tj_ms: int) -> SampleCounts:
    """Exact sample counts over one hyperperiod lcm(ti, tj)."""
    lcm = math.lcm(ti_ms, tj_ms)
    gcd = math.gcd(ti_ms, tj_ms)
    return SampleCounts(lcm // gcd, lcm // ti_ms, lcm // tj_ms)


class _Member(Protocol):
    """What :func:`admit` reads of a demand."""

    period_ms: int
    sensitivity_ms: int | None


class _Request(NamedTuple):
    """One side of :func:`decide_pair`: a bare (period, tolerance) pair."""

    period_ms: int
    sensitivity_ms: int | None


def _effective_sensitivity(
    members: Sequence[_Member], candidate_period_ms: int
) -> int | None:
    """Tolerance of a side treated as the slower side of a merge.

    The minimum declared tolerance over members whose requested period
    exceeds the candidate merged period; absent as soon as any such
    member declared none (conservative: their tolerance is unknown).
    """
    tolerances = []
    for member in members:
        if member.period_ms > candidate_period_ms:
            if member.sensitivity_ms is None:
                return None
            tolerances.append(member.sensitivity_ms)
    return min(tolerances) if tolerances else None


def admit(
    a_period_ms: int,
    a_members: Sequence[_Member],
    b_period_ms: int,
    b_members: Sequence[_Member],
) -> tuple[DecisionKind, int | None]:
    """Decide whether one stream can serve two sides, and at which period.

    A side is a stream period plus the demands it serves (anything with
    ``period_ms`` and ``sensitivity_ms``). Returns the decision and the
    period of the shared stream, or ``(DUPLICATE, None)`` when both
    streams must be kept. The tolerance of the slower side gates the
    shared-stream option for non-divisible periods. The gcd test compares
    one merged stream against serving every member at its own requested
    period, over the hyperperiod of all member periods.
    """
    if a_period_ms == b_period_ms:
        return DecisionKind.DEDUP, a_period_ms
    if a_period_ms > b_period_ms:
        a_period_ms, a_members, b_period_ms, b_members = (
            b_period_ms, b_members, a_period_ms, a_members
        )
    if b_period_ms % a_period_ms == 0:
        return DecisionKind.MIN_PERIOD, a_period_ms
    tolerance = _effective_sensitivity(b_members, a_period_ms)
    if tolerance is not None and max_staleness(a_period_ms, b_period_ms) < tolerance:
        return DecisionKind.MIN_PERIOD, a_period_ms
    gcd = math.gcd(a_period_ms, b_period_ms)
    periods = [m.period_ms for m in a_members] + [m.period_ms for m in b_members]
    hyper = math.lcm(*periods)
    if hyper // gcd < sum(hyper // p for p in periods):
        return DecisionKind.GCD_MERGE, gcd
    return DecisionKind.DUPLICATE, None


@dataclass(frozen=True)
class MergeDecision:
    """Outcome of comparing two report-period requests for one KPI.

    ``staleness_ms`` is set whenever the periods were not divisible;
    ``counts`` is set whenever the sample-count comparison ran.
    ``chosen_period_ms`` is absent for DUPLICATE (both streams kept).
    """

    kind: DecisionKind
    chosen_period_ms: int | None
    staleness_ms: int | None = None
    counts: SampleCounts | None = None


def decide_pair(
    existing: tuple[int, int | None], incoming: tuple[int, int | None]
) -> MergeDecision:
    """Decide how to serve two demands for the same (node, KPI).

    Each side is a (period_ms, sensitivity_ms) pair; the sensitivity of
    the slower side gates the shared-stream option for non-divisible
    periods. A missing sensitivity means no tolerance was declared.
    """
    ti, tj = existing[0], incoming[0]
    kind, period = admit(ti, [_Request(*existing)], tj, [_Request(*incoming)])
    counted = kind is DecisionKind.GCD_MERGE or kind is DecisionKind.DUPLICATE
    return MergeDecision(
        kind,
        period,
        # Zero exactly when one period divides the other.
        max_staleness(ti, tj) or None,
        sample_counts(ti, tj) if counted else None,
    )


@dataclass(frozen=True, slots=True)
class StreamSpec:
    """One physical KPI report stream emitted by a node."""

    node: E2NodeId
    kpi: KpiId
    period_ms: int

    def __post_init__(self) -> None:
        if self.period_ms < 1:
            raise ValueError(f"stream period must be >= 1 ms: {self.period_ms}")


class Fold(NamedTuple):
    """One group shape's plan, in ranks (a demand's place in fold order).

    ``periods`` are the stream periods, ascending; ``feeds`` holds, for
    each stream, the ranks it feeds in the order they joined it.
    """

    periods: tuple[int, ...]
    feeds: tuple[tuple[int, ...], ...]


# One (node, KPI) group: its xApp ids in rank order.
Group = tuple[E2NodeId, KpiId, tuple[XAppId, ...]]

# What the engine holds of one group: its fold and its xApp ids in rank order.
GroupPlan = tuple[Fold, tuple[XAppId, ...]]


def fed_at(group: GroupPlan, period_ms: int) -> tuple[XAppId, ...]:
    """The xApps that ``group``'s stream at ``period_ms`` feeds, in the
    order they joined it; none when the group has no such stream."""
    (periods, feeds), xapps = group
    for period, ranks in zip(periods, feeds):
        if period == period_ms:
            return tuple([xapps[rank] for rank in ranks])
    return ()


class PlanClass(NamedTuple):
    """A fold plus the groups that share it: the layout the simulator reads.

    A feed row (one stream and the xApps it feeds) is a class of one group
    whose fold has one stream.
    """

    fold: Fold
    groups: list[Group]


_FANOUT_ERROR = (
    "fan-out must cover every stream with at least one xApp "
    "and reference only existing streams"
)


@dataclass(frozen=True, slots=True)
class TransmissionPlan:
    """The streams chosen for one (node, KPI) pair plus the fan-out map
    from each subscribed xApp to the index of the stream serving it."""

    streams: tuple[StreamSpec, ...]
    fanout: dict[XAppId, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "streams", tuple(self.streams))
        streams = self.streams
        if not streams:
            raise ValueError("plan must contain at least one stream")
        first = streams[0]
        for s in streams[1:]:
            if s.node != first.node or s.kpi != first.kpi:
                raise ValueError("plan streams must share one (node, KPI) pair")
        if len({s.period_ms for s in streams}) != len(streams):
            raise ValueError("plan streams must have distinct periods")
        # Every index names a stream, and every stream feeds an xApp.
        if set(self.fanout.values()) != set(range(len(streams))):
            raise ValueError(_FANOUT_ERROR)

    def stream_for(self, xapp: XAppId) -> StreamSpec:
        return self.streams[self.fanout[xapp]]


class ChangeAction(str, Enum):
    ADDED = "added"
    REMOVED = "removed"


@dataclass(frozen=True)
class StreamChange:
    """One plan edit: a stream the node must start (ADDED) or stop (REMOVED)."""

    action: ChangeAction
    stream: StreamSpec


@dataclass
class _Stream:
    """Mutable fold state: current period plus the demands assigned so far.

    The period only ever moves to a value dividing at least one member's
    requested period, so hyperperiods over member periods stay integral.
    """

    period_ms: int
    members: list[KpiDemand] = field(default_factory=list)

    def sort_key(self) -> tuple[int, int, int]:
        anchor = min((m.period_ms, m.xapp) for m in self.members)
        return (self.period_ms, *anchor)


def _absorb(stream: _Stream, period_ms: int, members: list[KpiDemand]) -> bool:
    """Move ``members``, served at ``period_ms``, onto ``stream`` when
    :func:`admit` lets one stream serve both; retimes ``stream`` if needed."""
    merged_period = admit(stream.period_ms, stream.members, period_ms, members)[1]
    if merged_period is None:
        return False
    stream.period_ms = merged_period
    stream.members.extend(members)
    return True


# A group's demands in the order the fold reads them.
_fold_order = attrgetter("period_ms", "xapp")


def _build_streams(demands: list[KpiDemand]) -> list[_Stream]:
    """Deterministic rebuild of the stream set for one (node, KPI).

    Demands are folded in (period, xApp id) order; each joins the first
    stream (period-ascending) that admits it, else opens its own. A
    consolidation pass then collapses stream pairs under the same rule
    until no pair can merge, which is what lets three or more demands
    end up on a single gcd-period stream.
    """
    streams: list[_Stream] = []
    for demand in sorted(demands, key=_fold_order):
        streams.sort(key=_Stream.sort_key)
        if not any(_absorb(stream, demand.period_ms, [demand]) for stream in streams):
            streams.append(_Stream(demand.period_ms, [demand]))
    merged = True
    while merged:
        merged = False
        streams.sort(key=_Stream.sort_key)
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                if _absorb(streams[i], streams[j].period_ms, streams[j].members):
                    del streams[j]
                    merged = True
                    break
            if merged:
                break
    streams.sort(key=_Stream.sort_key)
    return streams


_shape_of = attrgetter("period_ms", "sensitivity_ms")
_xapp_of = attrgetter("xapp")

# A group's shape: its (period, tolerance) pairs in fold order.
_Shape = tuple[tuple[int, int | None], ...]
_Key = tuple[E2NodeId, KpiId]


def _fold(
    demands: Iterable[KpiDemand], folds: dict[_Shape, Fold]
) -> tuple[Fold, tuple[XAppId, ...], bool]:
    """One group's fold and xApp ids in rank order, folding its shape only
    if ``folds`` lacks it; the flag says whether it did.

    :func:`_build_streams` reads nothing but the shape: it breaks ties by
    xApp id, and in fold order ids sort like ranks. So one fold, kept as
    ranks, serves every group of that shape once the ranks name its own
    xApps.
    """
    ordered = sorted(demands, key=_fold_order)
    xapps = tuple(map(_xapp_of, ordered))
    shape = tuple(map(_shape_of, ordered))
    fold = folds.get(shape)
    if fold is not None:
        return fold, xapps, False
    rank = dict(zip(xapps, range(len(xapps))))
    streams = _build_streams(ordered)
    fold = folds[shape] = Fold(
        tuple([s.period_ms for s in streams]),
        tuple([tuple([rank[m.xapp] for m in s.members]) for s in streams]),
    )
    return fold, xapps, True


def _plan(key: _Key, fold: Fold, xapps: tuple[XAppId, ...]) -> TransmissionPlan:
    """The plan of one group: its fold with the ranks naming its xApps."""
    node, kpi = key
    return TransmissionPlan(
        tuple(StreamSpec(node, kpi, period) for period in fold.periods),
        {xapps[r]: i for i, ranks in enumerate(fold.feeds) for r in ranks},
    )


def _diff_periods(
    key: _Key, before: tuple[int, ...], after: tuple[int, ...]
) -> list[StreamChange]:
    """The edit from streams at ``before`` to streams at ``after``: the
    streams that vanished, then the streams that appeared, each in plan
    order (ascending period).

    A stream kept at the same period needs no node-side action even if
    its fan-out changed.
    """
    return [
        StreamChange(ChangeAction.REMOVED, StreamSpec(*key, p)) for p in before if p not in after
    ] + [StreamChange(ChangeAction.ADDED, StreamSpec(*key, p)) for p in after if p not in before]


# One touched group: its key and its stream periods before and after.
_Touch = tuple[_Key, tuple[int, ...], tuple[int, ...]]


class PlanEdit(Sequence[StreamChange]):
    """The plan edit of one mutation: each touched group's changes, from
    :func:`_diff_periods`, in the order the groups were touched.

    Kept as the touched groups' periods; the changes are built when the
    edit is first read. It equals any sequence of the same changes.
    """

    __slots__ = ("_touched", "_changes")

    def __init__(self, touched: list[_Touch]) -> None:
        self._touched = touched
        self._changes: list[StreamChange] | None = None

    def _built(self) -> list[StreamChange]:
        if self._changes is None:
            self._changes = [c for touch in self._touched for c in _diff_periods(*touch)]
        return self._changes

    def __len__(self) -> int:
        return len(self._built())

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator[StreamChange]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._built() == list(other)

    def __repr__(self) -> str:
        return f"PlanEdit({self._built()!r})"


class MergeState:
    """Active demands and derived plans for all (node, KPI) pairs.

    Single-owner value: calls must be externally serialized per RIC
    instance. Adding an exactly identical demand again is a no-op (the
    new request is ignored, data access is already in place); an active
    demand with the same key but different parameters is rejected.
    """

    def __init__(self) -> None:
        self._demands: dict[_Key, dict[XAppId, KpiDemand]] = {}
        # Each group's fold and its xApp ids in rank order.
        self._groups: dict[_Key, GroupPlan] = {}

    def demand_count(self) -> int:
        return sum(len(v) for v in self._demands.values())

    def plan_for(self, node: E2NodeId, kpi: KpiId) -> TransmissionPlan | None:
        """The group's plan, built from its fold on every call."""
        group = self._groups.get((node, kpi))
        return None if group is None else _plan((node, kpi), *group)

    def plans(self) -> dict[_Key, TransmissionPlan]:
        """Every group's plan, each built from its fold."""
        return {key: _plan(key, *group) for key, group in self._groups.items()}

    def groups(self) -> dict[_Key, GroupPlan]:
        """A copy of every group's fold and xApp ids; builds no plan."""
        return dict(self._groups)

    def classes(self) -> list[PlanClass]:
        """Every group, classed by the fold it shares; builds no plan."""
        by_fold: dict[Fold, list[Group]] = {}
        for (node, kpi), (fold, xapps) in self._groups.items():
            by_fold.setdefault(fold, []).append((node, kpi, xapps))
        return [PlanClass(fold, groups) for fold, groups in by_fold.items()]

    def demands(self) -> list[KpiDemand]:
        return [d for group in self._demands.values() for d in group.values()]

    def add_demand(self, demand: KpiDemand) -> PlanEdit:
        return self.add_demands([demand])

    def add_demands(self, demands: Iterable[KpiDemand]) -> PlanEdit:
        """Insert demands atomically, recomputing each touched group once.

        Either every demand is admitted (exactly identical re-submissions
        are ignored) or the state is left untouched. A group the state
        does not hold yet keeps the checked pending dict as its own.
        """
        pending: dict[_Key, dict[XAppId, KpiDemand]] = {}
        for demand in demands:
            key = (demand.node, demand.kpi)
            active = self._demands.get(key, {}).get(demand.xapp)
            group = pending.get(key, {})
            conflicting = group.get(demand.xapp, active)
            if conflicting is None:
                pending.setdefault(key, group)[demand.xapp] = demand
            elif conflicting != demand:
                raise DuplicateDemandError(
                    f"xApp {demand.xapp} already subscribes to {demand.kpi!r} "
                    f"on node {demand.node}"
                )
        for key, group in pending.items():
            held = self._demands.setdefault(key, group)
            if held is not group:
                held.update(group)
        folds: dict[_Shape, Fold] = {}
        return PlanEdit([self._recompute(key, folds) for key in sorted(pending)])

    def remove_demand(self, xapp: XAppId, node: E2NodeId, kpi: KpiId) -> PlanEdit:
        return PlanEdit([self._remove(xapp, (node, kpi))])

    def remove_xapp(self, xapp: XAppId) -> PlanEdit:
        """Drop every demand of one xApp (e.g. on disconnect)."""
        keys = [k for k, g in self._demands.items() if xapp in g]
        return PlanEdit([self._remove(xapp, key) for key in keys])

    def total_sample_rate(self) -> Fraction:
        """Aggregate samples per second over all planned streams."""
        return classes_sample_rate(self.classes())

    def _remove(self, xapp: XAppId, key: _Key) -> _Touch:
        group = self._demands.get(key, {})
        if xapp not in group:
            node, kpi = key
            raise UnknownDemandError(
                f"no active demand for xApp {xapp} on {kpi!r} at node {node}"
            )
        del group[xapp]
        if not group:
            del self._demands[key]
        return self._recompute(key, {})

    def _recompute(self, key: _Key, folds: dict[_Shape, Fold]) -> _Touch:
        """Refold one group, reusing the shapes in ``folds``; returns its
        periods before and after.

        The first group of a new shape validates its fold by building its
        plan through :class:`TransmissionPlan`; the plan is not kept.
        """
        old = self._groups.get(key)
        before = old[0].periods if old else ()
        demands = self._demands.get(key)
        if not demands:
            self._groups.pop(key, None)
            return key, before, ()
        fold, xapps, new_shape = _fold(demands.values(), folds)
        self._groups[key] = (fold, xapps)
        if new_shape:
            _plan(key, fold, xapps)
        return key, before, fold.periods
