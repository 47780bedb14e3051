"""Deterministic virtual-clock simulation of KPI report traffic.

Every planned stream emits at t = 0, T, 2T, ... below the horizon, all
phase-aligned at t = 0. Each subscribed xApp consumes at its own
requested period and records the age of the newest sample available
from its assigned stream at every consumer tick. Message and byte
accounting follows the configured batching rule.

All emission and consumption instants are known up front, so every
total is computed in closed form once per distinct period (or node
period set) rather than tick by tick; counts are exact for any horizon
and reports are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .e2model import E2NodeId, KpiDemand, KpiId, XAppId
from .merge import StreamSpec, TransmissionPlan


class Batching(str, Enum):
    # One message per node per instant, carrying every sample due then.
    PER_NODE_PERIOD = "per_node_period"
    # One message per stream tick.
    PER_STREAM = "per_stream"


@dataclass(frozen=True)
class SimConfig:
    horizon_ms: int
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


@dataclass
class SimReport:
    messages_sent: int
    samples_sent: int
    bytes_sent: int
    per_xapp_max_staleness: dict[XAppId, int] = field(default_factory=dict)
    per_stream_sample_counts: dict[StreamSpec, int] = field(default_factory=dict)

    def to_json(self) -> str:
        """Stable JSON rendering for golden-file comparison.

        Stream keys are "node:kpi:period_ms"; all maps are sorted by key
        (lexicographically for the rendered string keys).
        """
        doc = {
            "messages_sent": self.messages_sent,
            "samples_sent": self.samples_sent,
            "bytes_sent": self.bytes_sent,
            "per_xapp_max_staleness": {
                str(x): s for x, s in sorted(self.per_xapp_max_staleness.items())
            },
            "per_stream_sample_counts": {
                f"{s.node}:{s.kpi}:{s.period_ms}": c
                for s, c in sorted(
                    self.per_stream_sample_counts.items(),
                    key=lambda kv: (kv[0].node, kv[0].kpi, kv[0].period_ms),
                )
            },
        }
        return json.dumps(doc, sort_keys=True)


def staleness_oracle(sample_period_ms: int, consume_period_ms: int) -> int:
    """Brute-force worst-case sample age over one hyperperiod.

    Walks every consumer tick in [0, lcm) and takes the maximum distance
    to the newest sample emitted at or before it, both grids aligned at
    t = 0. Serves as the independent check for the closed-form bound.
    """
    hyper = math.lcm(sample_period_ms, consume_period_ms)
    worst = 0
    for tick in range(0, hyper, consume_period_ms):
        newest_sample = (tick // sample_period_ms) * sample_period_ms
        worst = max(worst, tick - newest_sample)
    return worst


def _ticks(period_ms: int, horizon_ms: int) -> int:
    """Ticks 0, T, 2T, ... strictly below the horizon."""
    return (horizon_ms - 1) // period_ms + 1


def _union_ticks(periods: tuple[int, ...], horizon_ms: int) -> int:
    """Instants in [0, horizon) on the grid of at least one period.

    The union repeats every lcm(periods), so one window of
    min(horizon, lcm) is marked and whole repeats are folded. The lcm of
    a few coprime periods dwarfs any horizon and is never enumerated.
    """
    if len(periods) == 1:
        return _ticks(periods[0], horizon_ms)
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


def _assignments(
    plans: Iterable[TransmissionPlan], demands: Iterable[KpiDemand]
) -> list[tuple[KpiDemand, StreamSpec]]:
    """Pair every demand with the stream serving it; reject gaps."""
    by_key: dict[tuple[E2NodeId, KpiId, XAppId], StreamSpec] = {}
    for plan in plans:
        for xapp, index in plan.fanout.items():
            stream = plan.streams[index]
            key = (stream.node, stream.kpi, xapp)
            if key in by_key:
                raise ValueError(f"xApp {xapp} served twice for {key[:2]}")
            by_key[key] = stream
    pairs = []
    for demand in demands:
        key = (demand.node, demand.kpi, demand.xapp)
        if key not in by_key:
            raise ValueError(
                f"demand not served by any plan: xApp {demand.xapp}, "
                f"node {demand.node}, KPI {demand.kpi!r}"
            )
        pairs.append((demand, by_key[key]))
    return pairs


def run(
    plans: Iterable[TransmissionPlan],
    demands: Iterable[KpiDemand],
    cfg: SimConfig,
) -> SimReport:
    plans = list(plans)
    demands = list(demands)
    pairs = _assignments(plans, demands)

    streams = [s for plan in plans for s in plan.streams]
    for stream in streams:
        if stream.period_ms > cfg.horizon_ms:
            raise ValueError(
                f"horizon {cfg.horizon_ms} ms shorter than stream period "
                f"{stream.period_ms} ms ({stream.node}:{stream.kpi})"
            )

    horizon = cfg.horizon_ms
    report = SimReport(0, 0, 0)
    node_periods: dict[E2NodeId, set[int]] = {}
    for stream in sorted(streams, key=lambda s: (s.node, s.kpi, s.period_ms)):
        ticks = _ticks(stream.period_ms, horizon)
        # Exact-duplicate streams (several plans, one spec) accumulate.
        report.per_stream_sample_counts[stream] = (
            report.per_stream_sample_counts.get(stream, 0) + ticks
        )
        report.samples_sent += ticks
        node_periods.setdefault(stream.node, set()).add(stream.period_ms)
    if cfg.batching is Batching.PER_STREAM:
        report.messages_sent = report.samples_sent
        report.bytes_sent = report.samples_sent * (cfg.header_bytes + cfg.bytes_per_sample)
    else:
        # One message per node per instant on the union of its grids;
        # nodes sharing a period set share the count.
        instants: dict[tuple[int, ...], int] = {}
        for periods in node_periods.values():
            key = tuple(sorted(periods))
            if key not in instants:
                instants[key] = _union_ticks(key, horizon)
            report.messages_sent += instants[key]
        report.bytes_sent = (
            report.messages_sent * cfg.header_bytes
            + report.samples_sent * cfg.bytes_per_sample
        )

    # Consumption: each xApp ticks on its own requested grid and sees the
    # newest sample from its assigned stream. t = 0 alignment makes the
    # first tick fresh by construction.
    worst_ages: dict[tuple[int, int], int] = {}
    for demand, stream in pairs:
        key = (stream.period_ms, demand.period_ms)
        if key not in worst_ages:
            worst_ages[key] = _worst_age(*key, horizon)
        report.per_xapp_max_staleness[demand.xapp] = max(
            report.per_xapp_max_staleness.get(demand.xapp, 0), worst_ages[key]
        )
    report.per_xapp_max_staleness = dict(sorted(report.per_xapp_max_staleness.items()))
    return report
