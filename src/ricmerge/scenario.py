"""Scenario construction and the end-to-end comparison runner.

A scenario describes a deployment (nodes, KPIs per node, period mix) and
a controlled amount of redundancy: for a fraction of the KPI streams a
second xApp requests an exact duplicate, buried inside a request that
differs from the first xApp's in its other items. Whole-request hashing
therefore cannot see the overlap, while per-KPI merging removes it.

``compare`` runs the same demand set through three modes (no dedup,
whole-request dedup, per-KPI merge) and prices each transmitted rate
with the power model; ``sweep`` repeats that along one axis and yields
CSV/JSON rows.
"""

from __future__ import annotations

import configparser
import json
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from . import power
from .e2model import (
    KpiDemand,
    SubscriptionItem,
    SubscriptionRequest,
    decompose,
    request_fingerprint,
)
from .merge import MergeState, StreamSpec, TransmissionPlan, streams_sample_rate
from .power import PowerModel
from .sim import Batching, SimConfig, run as sim_run


class ConfigError(ValueError):
    """A scenario configuration file could not be parsed."""


class DedupMode(str, Enum):
    NO_DEDUP = "no_dedup"
    WHOLE_REQUEST = "whole_request"
    PER_KPI_MERGE = "per_kpi_merge"


MODE_ORDER = (DedupMode.NO_DEDUP, DedupMode.WHOLE_REQUEST, DedupMode.PER_KPI_MERGE)


@dataclass(frozen=True)
class SensitivityPolicy:
    """How generated demands declare a staleness tolerance.

    ``fixed_ms`` applies one tolerance to every demand; ``per_xapp``
    maps xApp ids to tolerances; both unset means none declared.
    """

    fixed_ms: int | None = None
    per_xapp: tuple[tuple[int, int], ...] = ()

    def tolerance_for(self, xapp: int) -> int | None:
        for xapp_id, tolerance in self.per_xapp:
            if xapp_id == xapp:
                return tolerance
        return self.fixed_ms


@dataclass(frozen=True)
class ScenarioSpec:
    nodes: int
    kpis_per_node: int
    period_ms: int = 10
    redundancy_fraction: float = 0.0
    period_mix: tuple[tuple[int, float], ...] | None = None
    sensitivity: SensitivityPolicy = SensitivityPolicy()
    mode: DedupMode = DedupMode.PER_KPI_MERGE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.kpis_per_node < 1:
            raise ValueError("scenario needs at least one node and one KPI per node")
        if not 0 <= self.redundancy_fraction <= 1:
            raise ValueError(
                f"redundancy fraction must be in [0, 1]: {self.redundancy_fraction}"
            )
        if self.period_mix is not None:
            if not self.period_mix:
                raise ValueError("period mix must not be empty")
            if abs(sum(w for _, w in self.period_mix) - 1.0) > 1e-9:
                raise ValueError("period mix weights must sum to 1")


# xApp 0 owns the baseline subscriptions; xApp 1 issues the duplicates.
BASE_XAPP = 0
DUPLICATE_XAPP = 1


def _kpi_name(index: int) -> str:
    return f"KPI{index:04d}"


def build(spec: ScenarioSpec) -> list[SubscriptionRequest]:
    """Generate the scenario's subscription requests, deterministically.

    One baseline request per node covers every KPI of that node. A
    fraction ``redundancy_fraction`` of all streams is then duplicated
    by a second xApp; its per-node requests list only the duplicated
    KPIs (in reverse order), so they never hash equal to the baseline
    request unless a node has a single KPI that is fully duplicated.
    """
    rng = random.Random(spec.seed)
    kpis = [_kpi_name(k) for k in range(spec.kpis_per_node)]

    periods: dict[tuple[int, str], int] = {}
    for node in range(spec.nodes):
        for kpi in kpis:
            if spec.period_mix is None:
                periods[(node, kpi)] = spec.period_ms
            else:
                choices, weights = zip(*spec.period_mix)
                periods[(node, kpi)] = rng.choices(choices, weights)[0]

    requests = []
    base_tolerance = spec.sensitivity.tolerance_for(BASE_XAPP)
    for node in range(spec.nodes):
        items = tuple(
            SubscriptionItem(kpi, periods[(node, kpi)], base_tolerance) for kpi in kpis
        )
        requests.append(SubscriptionRequest(BASE_XAPP, node, items))

    total = spec.nodes * spec.kpis_per_node
    wanted = round(spec.redundancy_fraction * total)
    # Prefer keeping one KPI per node out of the duplicate set so the
    # duplicating request stays a strict subset of the baseline one; the
    # reversed item order below keeps even a full-node duplicate from
    # hashing equal (except for degenerate single-item requests).
    cap = spec.kpis_per_node - 1 if spec.kpis_per_node > 1 else 1
    pool = [(node, kpi) for node in range(spec.nodes) for kpi in kpis]
    rng.shuffle(pool)
    taken_per_node = [0] * spec.nodes
    duplicated: list[tuple[int, str]] = []
    overflow: list[tuple[int, str]] = []
    for node, kpi in pool:
        if taken_per_node[node] < cap:
            taken_per_node[node] += 1
            duplicated.append((node, kpi))
        else:
            overflow.append((node, kpi))
    duplicated = (duplicated + overflow)[:wanted]

    dup_tolerance = spec.sensitivity.tolerance_for(DUPLICATE_XAPP)
    dup_by_node: dict[int, list[str]] = {}
    for node, kpi in duplicated:
        dup_by_node.setdefault(node, []).append(kpi)
    for node in sorted(dup_by_node):
        chosen = sorted(dup_by_node[node], reverse=True)
        items = tuple(
            SubscriptionItem(kpi, periods[(node, kpi)], dup_tolerance) for kpi in chosen
        )
        requests.append(SubscriptionRequest(DUPLICATE_XAPP, node, items))
    return requests


def _single_stream_plans(demands: list[KpiDemand]) -> list[TransmissionPlan]:
    """One stream per demand: the no-dedup transmission layout."""
    return [
        TransmissionPlan(
            (StreamSpec(d.node, d.kpi, d.period_ms),), {d.xapp: 0}
        )
        for d in demands
    ]


def _whole_request_plans(
    requests: list[SubscriptionRequest],
) -> tuple[list[TransmissionPlan], int]:
    """Plans under whole-request dedup: requests with identical content
    hashes share the first request's streams; everything else is
    transmitted as-is. Returns the plans and the transmitted stream count.
    """
    groups: dict[bytes, list[SubscriptionRequest]] = {}
    for request in requests:
        groups.setdefault(request_fingerprint(request), []).append(request)
    plans = []
    streams = 0
    for members in groups.values():
        keeper = members[0]
        xapps = [m.xapp for m in members]
        for item in keeper.items:
            fanout = {xapp: 0 for xapp in xapps}
            plans.append(
                TransmissionPlan(
                    (StreamSpec(keeper.node, item.kpi, item.period_ms),), fanout
                )
            )
            streams += 1
    return plans, streams


@dataclass(frozen=True)
class ModeResult:
    mode: DedupMode
    total_streams: int
    total_sample_rate: Fraction
    bytes_per_sec: float
    gross_watts: float
    saved_watts: float
    saved_pct: float


@dataclass(frozen=True)
class ComparisonReport:
    spec: ScenarioSpec
    results: tuple[ModeResult, ...]

    def for_mode(self, mode: DedupMode) -> ModeResult:
        for result in self.results:
            if result.mode is mode:
                return result
        raise KeyError(mode)


def _mode_layout(
    mode: DedupMode,
    requests: list[SubscriptionRequest],
    demands: list[KpiDemand],
) -> tuple[list[TransmissionPlan], int, Fraction]:
    if mode is DedupMode.NO_DEDUP:
        plans = _single_stream_plans(demands)
        streams = len(demands)
    elif mode is DedupMode.WHOLE_REQUEST:
        plans, streams = _whole_request_plans(requests)
    else:
        state = MergeState()
        state.add_demands(demands)
        plans = list(state.plans().values())
        streams = sum(len(p.streams) for p in plans)
    rate = streams_sample_rate(s for plan in plans for s in plan.streams)
    return plans, streams, rate


def compare(
    spec: ScenarioSpec, model: PowerModel, sim_cfg: SimConfig
) -> ComparisonReport:
    """Run all three dedup modes over one generated demand set.

    Saved watts are relative to the no-dedup transmitted rate; the saved
    percentage is taken against the mode's own gross power, which for
    the merged mode equals the deployment's duplicate-free power draw.
    """
    requests = build(spec)
    demands = [d for r in requests for d in decompose(r)]

    layouts = {m: _mode_layout(m, requests, demands) for m in MODE_ORDER}
    rate_no_dedup = layouts[DedupMode.NO_DEDUP][2]
    rate_whole = layouts[DedupMode.WHOLE_REQUEST][2]
    rate_merge = layouts[DedupMode.PER_KPI_MERGE][2]
    if not rate_merge <= rate_whole <= rate_no_dedup:
        raise RuntimeError(
            "sample rates out of order: per_kpi_merge "
            f"{rate_merge} <= whole_request {rate_whole} <= no_dedup "
            f"{rate_no_dedup} must hold"
        )

    results = []
    for mode in MODE_ORDER:
        plans, streams, rate = layouts[mode]
        report = sim_run(plans, demands, sim_cfg)
        bytes_per_sec = report.bytes_sent * 1000.0 / sim_cfg.horizon_ms
        gross = power.predict(model, float(rate))
        saved = model.watts_per_sample_rate * float(rate_no_dedup - rate)
        pct = saved / gross * 100.0 if saved else 0.0
        results.append(
            ModeResult(mode, streams, rate, bytes_per_sec, gross, saved, pct)
        )
    return ComparisonReport(spec, tuple(results))


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    mode: DedupMode
    streams: int
    sample_rate: float
    bytes_per_sec: float
    gross_watts: float
    saved_watts: float
    saved_pct: float


class SweepAxis(str, Enum):
    REDUNDANCY = "redundancy"
    NODES = "nodes"
    KPIS = "kpis"


# Default grids for each sweep axis.
DEFAULT_RANGES = {
    SweepAxis.REDUNDANCY: [round(0.1 * i, 1) for i in range(10)],
    SweepAxis.NODES: list(range(1, 61)),
    SweepAxis.KPIS: list(range(1, 81)),
}


def _rows_from_report(report: ComparisonReport, sweep_value: float, modes) -> list[SweepRow]:
    return [
        SweepRow(
            sweep_value,
            r.mode,
            r.total_streams,
            float(r.total_sample_rate),
            r.bytes_per_sec,
            r.gross_watts,
            r.saved_watts,
            r.saved_pct,
        )
        for r in report.results
        if r.mode in modes
    ]


def comparison_rows(report: ComparisonReport) -> list[SweepRow]:
    """All three mode rows of one comparison, keyed by its redundancy."""
    return _rows_from_report(report, report.spec.redundancy_fraction, set(MODE_ORDER))


def sweep(
    spec: ScenarioSpec,
    model: PowerModel,
    sim_cfg: SimConfig,
    axis: SweepAxis,
    values: list[float] | None = None,
) -> list[SweepRow]:
    """One row block per sweep point, ordered by sweep value.

    The redundancy axis emits all three mode rows per point; the node
    and KPI projection axes emit a single row in the scenario's mode.
    """
    if values is None:
        values = DEFAULT_RANGES[axis]
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for value in values:
        if axis is SweepAxis.REDUNDANCY:
            point = replace(spec, redundancy_fraction=float(value))
            modes = set(MODE_ORDER)
        elif axis is SweepAxis.NODES:
            point = replace(spec, nodes=int(value))
            modes = {spec.mode}
        else:
            point = replace(spec, kpis_per_node=int(value))
            modes = {spec.mode}
        rows.extend(_rows_from_report(compare(point, model, sim_cfg), float(value), modes))
    return rows


CSV_HEADER = "sweep_value,mode,streams,sample_rate,bytes_per_sec,gross_watts,saved_watts,saved_pct"


def _format_value(value: float) -> str:
    return f"{value:g}"


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    _format_value(row.sweep_value),
                    row.mode.value,
                    str(row.streams),
                    f"{row.sample_rate:.3f}",
                    f"{row.bytes_per_sec:.3f}",
                    f"{row.gross_watts:.4f}",
                    f"{row.saved_watts:.4f}",
                    f"{row.saved_pct:.4f}",
                )
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[SweepRow]) -> str:
    doc = [
        {
            "sweep_value": row.sweep_value,
            "mode": row.mode.value,
            "streams": row.streams,
            "sample_rate": round(row.sample_rate, 3),
            "bytes_per_sec": round(row.bytes_per_sec, 3),
            "gross_watts": round(row.gross_watts, 4),
            "saved_watts": round(row.saved_watts, 4),
            "saved_pct": round(row.saved_pct, 4),
        }
        for row in rows
    ]
    return json.dumps(doc, indent=2) + "\n"


def _parse_period_mix(text: str) -> tuple[tuple[int, float], ...]:
    mix = []
    for part in text.split(","):
        try:
            period, weight = part.strip().split(":")
            mix.append((int(period), float(weight)))
        except ValueError as exc:
            raise ConfigError(f"bad period mix entry {part.strip()!r}") from exc
    return tuple(mix)


def _parse_sensitivity(text: str) -> SensitivityPolicy:
    text = text.strip()
    if text == "none":
        return SensitivityPolicy()
    if text.startswith("fixed:"):
        return SensitivityPolicy(fixed_ms=int(text.split(":", 1)[1]))
    if text.startswith("per_xapp:"):
        pairs = []
        for part in text.split(":", 1)[1].split(","):
            xapp, tolerance = part.strip().split("=")
            pairs.append((int(xapp), int(tolerance)))
        return SensitivityPolicy(per_xapp=tuple(pairs))
    raise ConfigError(f"bad sensitivity policy {text!r}")


def load_config(path: str) -> tuple[ScenarioSpec, PowerModel, SimConfig]:
    """Parse a key=value sections config file.

    Sections: [scenario] (required: nodes, kpis_per_node), [power] and
    [sim] (both optional, defaults apply).
    """
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    if not parser.has_section("scenario"):
        raise ConfigError(f"{path}: missing [scenario] section")
    sc = parser["scenario"]
    try:
        spec = ScenarioSpec(
            nodes=sc.getint("nodes"),
            kpis_per_node=sc.getint("kpis_per_node"),
            period_ms=sc.getint("period_ms", 10),
            redundancy_fraction=sc.getfloat("redundancy_fraction", 0.0),
            period_mix=_parse_period_mix(sc["period_mix"]) if "period_mix" in sc else None,
            sensitivity=_parse_sensitivity(sc.get("sensitivity", "none")),
            mode=DedupMode(sc.get("mode", DedupMode.PER_KPI_MERGE.value)),
            seed=sc.getint("seed", 0),
        )
        pw = parser["power"] if parser.has_section("power") else {}
        model = PowerModel(
            p_cpu_static_watts=float(pw.get("cpu_static_watts", power.DEFAULT_CPU_STATIC_WATTS)),
            p_ric_static_watts=float(pw.get("ric_static_watts", power.DEFAULT_RIC_STATIC_WATTS)),
            watts_per_sample_rate=float(
                pw.get("watts_per_sample_rate", power.DEFAULT_WATTS_PER_SAMPLE_RATE)
            ),
        )
        sm = parser["sim"] if parser.has_section("sim") else {}
        sim_cfg = SimConfig(
            horizon_ms=int(sm.get("horizon_ms", 1000)),
            header_bytes=int(sm.get("header_bytes", 0)),
            bytes_per_sample=int(sm.get("bytes_per_sample", 1000)),
            batching=Batching(sm.get("batching", Batching.PER_NODE_PERIOD.value)),
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{path}: invalid config: {exc}") from exc
    return spec, model, sim_cfg


def load_subscribe(path: str) -> tuple[int, int, tuple[SubscriptionItem, ...]]:
    """Parse an xApp subscribe file: [subscribe] with xapp, node, and
    items as comma-separated kpi:period[:tolerance] entries."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not parser.has_section("subscribe"):
        raise ConfigError(f"{path}: missing [subscribe] section")
    section = parser["subscribe"]
    try:
        xapp = section.getint("xapp")
        node = section.getint("node")
        items = []
        for part in section["items"].split(","):
            fields = part.strip().split(":")
            if len(fields) == 2:
                items.append(SubscriptionItem(fields[0], int(fields[1])))
            elif len(fields) == 3:
                items.append(SubscriptionItem(fields[0], int(fields[1]), int(fields[2])))
            else:
                raise ValueError(f"bad item {part.strip()!r}")
        return xapp, node, tuple(items)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{path}: invalid subscribe file: {exc}") from exc
