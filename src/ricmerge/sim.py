"""Deterministic virtual-clock simulation of KPI report traffic.

The input layout is a list of classes (:class:`~ricmerge.merge.PlanClass`):
each is a fold (stream periods, and the ranks each stream feeds) plus the
(node, KPI, xApps in rank order) groups that share it. Every stream emits
at t = 0, T, 2T, ... below the horizon, all phase-aligned at t = 0. Each
subscribed xApp consumes at its own requested period and records the age
of the newest sample available from its assigned stream at every
consumer tick. Message and byte accounting follows the configured
batching rule.

All emission and consumption instants are known up front, so every
total is computed in closed form once per class, distinct period (or
node period set) rather than tick by tick; counts are exact for any
horizon and reports are byte-identical across runs. ``run`` walks the
classes once (horizon check, samples and period set per class; the
served-twice check per group, and each node's period set, which is the
class's own unless the node's grows) and the demands once (service
check; staleness once per distinct serving period, demanded period and
xApp). The report holds the four totals the callers read: messages,
samples and bytes sent, and each xApp's worst sample age.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .e2model import E2NodeId, KpiDemand, KpiId, XAppId
from .merge import PlanClass


class Batching(str, Enum):
    # One message per node per instant, carrying every sample due then.
    PER_NODE_PERIOD = "per_node_period"
    # One message per stream tick.
    PER_STREAM = "per_stream"


@dataclass(frozen=True)
class SimConfig:
    horizon_ms: int = 1000
    header_bytes: int = 0
    bytes_per_sample: int = 1000
    batching: Batching = Batching.PER_NODE_PERIOD

    def __post_init__(self) -> None:
        if self.horizon_ms < 1:
            raise ValueError(f"horizon must be >= 1 ms: {self.horizon_ms}")
        if self.header_bytes < 0:
            raise ValueError(f"header bytes must be >= 0: {self.header_bytes}")
        if self.bytes_per_sample < 1:
            raise ValueError(f"bytes per sample must be >= 1: {self.bytes_per_sample}")


@dataclass(frozen=True)
class SimReport:
    messages_sent: int
    samples_sent: int
    bytes_sent: int
    per_xapp_max_staleness: dict[XAppId, int]


def _ticks(period_ms: int, horizon_ms: int) -> int:
    """Ticks 0, T, 2T, ... strictly below the horizon."""
    return (horizon_ms - 1) // period_ms + 1


def _union_ticks(periods: Iterable[int], horizon_ms: int) -> int:
    """Instants in [0, horizon) on the grid of at least one period.

    t = 0 is on every grid and is counted once. The instants in
    [1, horizon) are counted by inclusion-exclusion over the period
    subsets: a subset whose lcm is L holds (horizon - 1) // L of them,
    added for odd subsets and subtracted for even ones. A subset whose
    lcm exceeds horizon - 1 holds none, nor does any superset, so it is
    pruned; subsets of equal lcm share one signed count. Nothing is kept
    per instant, so a long horizon costs what a short one does.
    """
    last = horizon_ms - 1
    # Each lcm up to ``last`` and its signed number of subsets.
    terms: dict[int, int] = {}
    for period in periods:
        if period > last:
            continue
        joined = {period: 1}
        for lcm, count in terms.items():
            lcm = math.lcm(lcm, period)
            if lcm <= last:
                joined[lcm] = joined.get(lcm, 0) - count
        for lcm, count in joined.items():
            count += terms.get(lcm, 0)
            if count:
                terms[lcm] = count
            else:
                terms.pop(lcm, None)
    return 1 + sum(count * (last // lcm) for lcm, count in terms.items())


def _worst_age(sample_period_ms: int, consume_period_ms: int, horizon_ms: int) -> int:
    """Worst sample age over the consumer ticks below the horizon.

    Over a full window lcm(s, c) the ages t mod s run through every
    multiple of gcd(s, c) below s, so the worst is s - gcd(s, c); a
    shorter horizon sees only its own ticks.
    """
    hyper = math.lcm(sample_period_ms, consume_period_ms)
    if horizon_ms >= hyper:
        return sample_period_ms - math.gcd(sample_period_ms, consume_period_ms)
    return max(t % sample_period_ms for t in range(0, horizon_ms, consume_period_ms))


def run(
    classes: Iterable[PlanClass],
    demands: Iterable[KpiDemand],
    cfg: SimConfig,
) -> SimReport:
    horizon = cfg.horizon_ms
    samples = 0
    # Each node's stream periods; nodes of one class share its set.
    node_periods: dict[E2NodeId, frozenset[int]] = {}
    # The period of the stream serving each (node, KPI, xApp).
    served: dict[tuple[E2NodeId, KpiId, XAppId], int] = {}
    for (periods, feeds), groups in classes:
        longest = max(periods)
        if longest > horizon:
            node, kpi, _ = groups[0]
            raise ValueError(
                f"horizon {horizon} ms shorter than stream period {longest} ms ({node}:{kpi})"
            )
        samples += len(groups) * sum(_ticks(period, horizon) for period in periods)
        ranks = [(rank, period) for period, fed in zip(periods, feeds) for rank in fed]
        period_set = frozenset(periods)
        for node, kpi, xapps in groups:
            held = node_periods.get(node)
            if held is None:
                node_periods[node] = period_set
            elif not period_set <= held:
                node_periods[node] = held | period_set
            for rank, period in ranks:
                key = (node, kpi, xapps[rank])
                if key in served:
                    raise ValueError(f"xApp {key[2]} served twice for {key[:2]}")
                served[key] = period

    # Consumption: each xApp ticks on its own requested grid and sees the
    # newest sample from its assigned stream. t = 0 alignment makes the
    # first tick fresh by construction. An xApp's worst age depends only
    # on the serving and the demanded period, so each such triple is
    # priced once.
    staleness: dict[XAppId, int] = {}
    priced: set[tuple[int, int, XAppId]] = set()
    for demand in demands:
        xapp = demand.xapp
        period = served.get((demand.node, demand.kpi, xapp))
        if period is None:
            raise ValueError(
                f"demand not served by any plan: xApp {xapp}, "
                f"node {demand.node}, KPI {demand.kpi!r}"
            )
        key = (period, demand.period_ms, xapp)
        if key not in priced:
            priced.add(key)
            age = _worst_age(period, demand.period_ms, horizon)
            if age >= staleness.get(xapp, 0):
                staleness[xapp] = age

    if cfg.batching is Batching.PER_STREAM:
        messages = samples
        bytes_sent = samples * (cfg.header_bytes + cfg.bytes_per_sample)
    else:
        # One message per node per instant on the union of its grids;
        # nodes sharing a period set share the count.
        instants: dict[frozenset[int], int] = {}
        messages = 0
        for periods in node_periods.values():
            count = instants.get(periods)
            if count is None:
                count = instants[periods] = _union_ticks(periods, horizon)
            messages += count
        bytes_sent = messages * cfg.header_bytes + samples * cfg.bytes_per_sample
    return SimReport(messages, samples, bytes_sent, staleness)
