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
classes once (horizon check and samples per class; the served-twice
check and each node's periods per group) and the demands once (service
check, staleness). The report holds the four totals the callers read:
messages, samples and bytes sent, and each xApp's worst sample age.
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


def _union_ticks(periods: tuple[int, ...], horizon_ms: int) -> int:
    """Instants in [0, horizon) on the grid of at least one period.

    The union repeats every lcm(periods), so one window of
    min(horizon, lcm) is marked and whole repeats are folded. The lcm of
    a few coprime periods dwarfs any horizon and is never enumerated.
    """
    window = min(horizon_ms, math.lcm(*periods))
    grid = bytearray(window)
    for period in periods:
        grid[::period] = b"\x01" * _ticks(period, window)
    repeats, rest = divmod(horizon_ms, window)
    return repeats * grid.count(1) + grid[:rest].count(1)


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
    node_periods: dict[E2NodeId, set[int]] = {}
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
        for node, kpi, xapps in groups:
            node_periods.setdefault(node, set()).update(periods)
            for rank, period in ranks:
                key = (node, kpi, xapps[rank])
                if key in served:
                    raise ValueError(f"xApp {key[2]} served twice for {key[:2]}")
                served[key] = period

    # Consumption: each xApp ticks on its own requested grid and sees the
    # newest sample from its assigned stream. t = 0 alignment makes the
    # first tick fresh by construction.
    staleness: dict[XAppId, int] = {}
    worst_ages: dict[tuple[int, int], int] = {}
    for demand in demands:
        period = served.get((demand.node, demand.kpi, demand.xapp))
        if period is None:
            raise ValueError(
                f"demand not served by any plan: xApp {demand.xapp}, "
                f"node {demand.node}, KPI {demand.kpi!r}"
            )
        periods = (period, demand.period_ms)
        age = worst_ages.get(periods)
        if age is None:
            age = worst_ages[periods] = _worst_age(*periods, horizon)
        if age >= staleness.get(demand.xapp, 0):
            staleness[demand.xapp] = age

    if cfg.batching is Batching.PER_STREAM:
        messages = samples
        bytes_sent = samples * (cfg.header_bytes + cfg.bytes_per_sample)
    else:
        # One message per node per instant on the union of its grids;
        # nodes sharing a period set share the count.
        instants: dict[tuple[int, ...], int] = {}
        messages = 0
        for periods in node_periods.values():
            key = tuple(sorted(periods))
            if key not in instants:
                instants[key] = _union_ticks(key, horizon)
            messages += instants[key]
        bytes_sent = messages * cfg.header_bytes + samples * cfg.bytes_per_sample
    return SimReport(messages, samples, bytes_sent, staleness)
