"""Scenario construction and the end-to-end comparison runner.

A scenario describes a deployment (nodes, KPIs per node, period mix) and
a controlled amount of redundancy: for a fraction of the KPI streams a
second xApp requests an exact duplicate, buried inside a request that
differs from the first xApp's in its other items. Whole-request hashing
therefore cannot see the overlap, while per-KPI merging removes it.

``compare`` runs the same demand set through three modes (no dedup,
whole-request dedup, per-KPI merge), prices each transmitted rate with
the power model and returns one ``SweepRow`` per mode. Each mode lays
its streams out as classes (:class:`~ricmerge.merge.PlanClass`): a fold
plus the (node, KPI) groups that share it, so the rate and the
simulation cost what the distinct folds cost, and no per-group plan is
built. The baseline modes send each stream on its own, one class per
(period, number of xApps fed); the merged mode takes the engine's
classes. One mode is laid out and simulated at a time, and only its
rate, bytes sent and stream count are kept. ``compare`` is two steps:
a tally measures a list of requests into each mode's exact totals, and
pricing checks the rate order and turns the totals into rows.

``sweep`` repeats that along one axis of ``SWEEP_AXES``, which names
the scenario field each axis sets, its type and its default grid. A
point whose requests are the previous point's followed by requests on
nodes the previous point did not have tallies just those requests and
adds the previous totals; any other point is tallied from scratch. The
sum is exact: every kept figure is a sum over (node, KPI) groups or,
for per-node messages, over nodes, and requests on disjoint nodes never
share a stream (a request's fingerprint covers its node, and merge
groups are keyed on (node, KPI)). So a nodes sweep at redundancy 0 pays
only for the node each point adds. A redundant scenario lists its
duplicates after every baseline request, so its points, and those of
the KPI and redundancy axes, start from scratch. ``rows_to_csv`` and ``rows_to_json`` render either's rows.
"""

from __future__ import annotations

import configparser
import json
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, NamedTuple

from . import power
from .e2model import (
    E2NodeId,
    KpiDemand,
    KpiId,
    SubscriptionItem,
    SubscriptionRequest,
    XAppId,
    check_period,
    decompose,
    request_fingerprint,
)
from .merge import Fold, Group, MergeState, PlanClass, classes_sample_rate
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
        check_period(self.period_ms)
        if self.period_mix is not None:
            if not self.period_mix:
                raise ValueError("period mix must not be empty")
            for period, weight in self.period_mix:
                check_period(period)
                if not (math.isfinite(weight) and weight >= 0):
                    raise ValueError(f"period mix weight must be finite and >= 0: {weight}")
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
    if wanted == 0:
        # Nothing draws from ``rng`` after the duplicate pool's shuffle,
        # so skipping it changes no output.
        return requests
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


# One stream sent on its own: its node, KPI and period, and the xApps it feeds.
_Row = tuple[E2NodeId, KpiId, int, tuple[XAppId, ...]]


def _stream_classes(rows: Iterable[_Row]) -> list[PlanClass]:
    """The classes of streams that are each sent on their own."""
    by_fold: dict[tuple[int, int], list[Group]] = {}
    for node, kpi, period, xapps in rows:
        by_fold.setdefault((period, len(xapps)), []).append((node, kpi, xapps))
    return [
        PlanClass(Fold((period,), (tuple(range(fed)),)), groups)
        for (period, fed), groups in by_fold.items()
    ]


def _whole_request_rows(requests: list[SubscriptionRequest]) -> Iterator[_Row]:
    """Stream rows under whole-request dedup: requests with identical
    content hashes share the first request's streams; everything else is
    transmitted as-is."""
    groups: dict[bytes, list[SubscriptionRequest]] = {}
    for request in requests:
        groups.setdefault(request_fingerprint(request), []).append(request)
    for members in groups.values():
        keeper = members[0]
        xapps = tuple(sorted({m.xapp for m in members}))
        for item in keeper.items:
            yield keeper.node, item.kpi, item.period_ms, xapps


@dataclass(frozen=True)
class SweepRow:
    """One mode's result at one sweep point; ``compare`` keys its rows
    by the scenario's redundancy fraction."""

    sweep_value: float
    mode: DedupMode
    streams: int
    sample_rate: float
    bytes_per_sec: float
    gross_watts: float
    saved_watts: float
    saved_pct: float


@dataclass(frozen=True)
class ComparisonReport:
    results: tuple[SweepRow, ...]

    def for_mode(self, mode: DedupMode) -> SweepRow:
        for result in self.results:
            if result.mode is mode:
                return result
        raise KeyError(mode)


def _mode_layout(
    mode: DedupMode,
    requests: list[SubscriptionRequest],
    demands: list[KpiDemand],
) -> tuple[list[PlanClass], Fraction]:
    """The mode's transmitted streams as classes, and their total sample rate."""
    if mode is DedupMode.NO_DEDUP:
        classes = _stream_classes((d.node, d.kpi, d.period_ms, (d.xapp,)) for d in demands)
    elif mode is DedupMode.WHOLE_REQUEST:
        classes = _stream_classes(_whole_request_rows(requests))
    else:
        state = MergeState()
        state.add_demands(demands)
        classes = state.classes()
    return classes, classes_sample_rate(classes)


def _measure(
    mode: DedupMode,
    requests: list[SubscriptionRequest],
    demands: list[KpiDemand],
    sim_cfg: SimConfig,
) -> tuple[Fraction, int, int]:
    """Lay one mode out and simulate it: its sample rate, bytes sent and
    stream count. The classes and the sim report, which holds them, are
    dropped on return."""
    classes, rate = _mode_layout(mode, requests, demands)
    report = sim_run(classes, demands, sim_cfg)
    streams = sum(len(fold.periods) * len(groups) for fold, groups in classes)
    return rate, report.bytes_sent, streams


# Each mode's exact sample rate, bytes sent and stream count, in MODE_ORDER.
_Tally = list[tuple[Fraction, int, int]]
_NO_TALLY: _Tally = [(Fraction(0), 0, 0)] * len(MODE_ORDER)


def _tally(requests: list[SubscriptionRequest], sim_cfg: SimConfig) -> _Tally:
    """Measure every mode over ``requests``, one mode at a time: only one
    mode's classes are alive at once."""
    demands = [d for r in requests for d in decompose(r)]
    return [_measure(mode, requests, demands, sim_cfg) for mode in MODE_ORDER]


def _price(
    tally: _Tally, sweep_value: float, model: PowerModel, sim_cfg: SimConfig
) -> tuple[SweepRow, ...]:
    """Check the rate order and price each mode's totals into a row keyed
    by ``sweep_value``."""
    rate_no_dedup, rate_whole, rate_merge = (rate for rate, _, _ in tally)
    if not rate_merge <= rate_whole <= rate_no_dedup:
        raise RuntimeError(
            "sample rates out of order: per_kpi_merge "
            f"{rate_merge} <= whole_request {rate_whole} <= no_dedup "
            f"{rate_no_dedup} must hold"
        )

    results = []
    for mode, (rate, bytes_sent, streams) in zip(MODE_ORDER, tally):
        bytes_per_sec = bytes_sent * 1000.0 / sim_cfg.horizon_ms
        gross = power.predict(model, float(rate))
        saved = model.watts_per_sample_rate * float(rate_no_dedup - rate)
        pct = saved / gross * 100.0 if saved else 0.0
        results.append(SweepRow(
            sweep_value, mode, streams, float(rate), bytes_per_sec, gross, saved, pct
        ))
    return tuple(results)


def compare(
    spec: ScenarioSpec, model: PowerModel, sim_cfg: SimConfig
) -> ComparisonReport:
    """Run all three dedup modes over one generated demand set; rows are
    keyed by the scenario's redundancy fraction.

    Saved watts are relative to the no-dedup transmitted rate; the saved
    percentage is taken against the mode's own gross power, which for
    the merged mode equals the deployment's duplicate-free power draw.
    """
    tally = _tally(build(spec), sim_cfg)
    return ComparisonReport(_price(tally, spec.redundancy_fraction, model, sim_cfg))


class SweepAxis(str, Enum):
    REDUNDANCY = "redundancy"
    NODES = "nodes"
    KPIS = "kpis"


class _Axis(NamedTuple):
    field: str  # the ScenarioSpec field a sweep point sets
    kind: type  # that field's type: int axes take whole numbers only
    grid: tuple  # the values swept when none are given
    step: float  # the default step of ``--range``
    every_mode: bool  # emit all three mode rows, else the scenario's mode only


SWEEP_AXES = {
    SweepAxis.REDUNDANCY: _Axis(
        "redundancy_fraction", float, tuple(round(0.1 * i, 1) for i in range(10)), 0.1, True
    ),
    SweepAxis.NODES: _Axis("nodes", int, tuple(range(1, 61)), 1.0, False),
    SweepAxis.KPIS: _Axis("kpis_per_node", int, tuple(range(1, 81)), 1.0, False),
}


def _adds_nodes(
    previous: list[SubscriptionRequest], requests: list[SubscriptionRequest]
) -> bool:
    """Whether ``requests`` is ``previous`` followed by requests that name
    only nodes ``previous`` does not."""
    added = requests[len(previous):]
    return requests[: len(previous)] == previous and {r.node for r in added}.isdisjoint(
        r.node for r in previous
    )


def sweep(
    spec: ScenarioSpec,
    model: PowerModel,
    sim_cfg: SimConfig,
    axis: SweepAxis,
    values: list[float] | None = None,
) -> list[SweepRow]:
    """One row block per sweep point, in the order of ``values``.

    The redundancy axis emits all three mode rows per point; the node
    and KPI projection axes emit a single row in the scenario's mode.
    An integer axis rejects a value that is not whole. Each point's rows
    equal its own ``compare``'s, errors included. A point that extends
    the previous one with requests on new nodes only reuses the previous
    point's totals and tallies just those requests; other points start
    from scratch.
    """
    field, kind, grid, _, every_mode = SWEEP_AXES[axis]
    values = grid if values is None else values
    if not values:
        raise ValueError("sweep needs at least one value")
    for value in values:
        if kind is int and not float(value).is_integer():
            raise ValueError(f"{axis.value} axis takes whole numbers only: {value}")
    rows = []
    previous: list[SubscriptionRequest] = []
    totals = _NO_TALLY
    for value in values:
        requests = build(replace(spec, **{field: kind(value)}))
        if _adds_nodes(previous, requests):
            added = requests[len(previous):]
        else:
            added, totals = requests, _NO_TALLY
        totals = [tuple(map(add, old, new)) for old, new in zip(totals, _tally(added, sim_cfg))]
        previous = requests
        priced = _price(totals, float(value), model, sim_cfg)
        rows.extend(row for row in priced if every_mode or row.mode is spec.mode)
    return rows


CSV_HEADER = "sweep_value,mode,streams,sample_rate,bytes_per_sec,gross_watts,saved_watts,saved_pct"
# The rounded output columns, in column order, and the decimals each keeps.
_DECIMALS = dict(sample_rate=3, bytes_per_sec=3, gross_watts=4, saved_watts=4, saved_pct=4)


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        cells = [f"{row.sweep_value:g}", row.mode.value, str(row.streams)]
        cells += (f"{getattr(row, name):.{places}f}" for name, places in _DECIMALS.items())
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Iterable[SweepRow]) -> str:
    doc = [
        {"sweep_value": row.sweep_value, "mode": row.mode.value, "streams": row.streams}
        | {name: round(getattr(row, name), places) for name, places in _DECIMALS.items()}
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


def _read_sections(path: str) -> configparser.ConfigParser:
    """Read a sections file, turning I/O and syntax errors into ConfigError."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


def _parse_item(text: str) -> SubscriptionItem:
    kpi, *numbers = text.strip().split(":")
    if not 1 <= len(numbers) <= 2:
        raise ValueError(f"bad item {text.strip()!r}")
    return SubscriptionItem(kpi, *map(int, numbers))


# The class each section builds, and each key: the field it sets and the
# parser of its value. Keys absent from the file take the field's default.
_SECTIONS = {
    "scenario": ScenarioSpec,
    "power": PowerModel,
    "sim": SimConfig,
    "subscribe": SubscriptionRequest,
}
_KEYS = {
    ("scenario", "nodes"): ("nodes", int),
    ("scenario", "kpis_per_node"): ("kpis_per_node", int),
    ("scenario", "period_ms"): ("period_ms", int),
    ("scenario", "redundancy_fraction"): ("redundancy_fraction", float),
    ("scenario", "period_mix"): ("period_mix", _parse_period_mix),
    ("scenario", "sensitivity"): ("sensitivity", _parse_sensitivity),
    ("scenario", "mode"): ("mode", DedupMode),
    ("scenario", "seed"): ("seed", int),
    ("power", "cpu_static_watts"): ("p_cpu_static_watts", float),
    ("power", "ric_static_watts"): ("p_ric_static_watts", float),
    ("power", "watts_per_sample_rate"): ("watts_per_sample_rate", float),
    ("sim", "horizon_ms"): ("horizon_ms", int),
    ("sim", "header_bytes"): ("header_bytes", int),
    ("sim", "bytes_per_sample"): ("bytes_per_sample", int),
    ("sim", "batching"): ("batching", Batching),
    ("subscribe", "xapp"): ("xapp", int),
    ("subscribe", "node"): ("node", int),
    ("subscribe", "items"): ("items", lambda text: tuple(map(_parse_item, text.split(",")))),
}


def _load(path: str, sections: tuple[str, ...], what: str) -> list:
    """Build each section's object from the file; the first section is required."""
    parser = _read_sections(path)
    if not parser.has_section(sections[0]):
        raise ConfigError(f"{path}: missing [{sections[0]}] section")
    built = []
    try:
        for section in sections:
            kwargs = {}
            for key, text in parser.items(section) if parser.has_section(section) else ():
                if (section, key) not in _KEYS:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                field, parse = _KEYS[section, key]
                kwargs[field] = parse(text)
            built.append(_SECTIONS[section](**kwargs))
    except (ValueError, TypeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: invalid {what}: {exc}") from exc
    return built


def load_config(path: str) -> tuple[ScenarioSpec, PowerModel, SimConfig]:
    """Parse a key=value sections config file.

    Sections: [scenario] (required: nodes, kpis_per_node), [power] and
    [sim] (both optional, defaults apply). Unknown keys are rejected.
    """
    spec, model, sim_cfg = _load(path, ("scenario", "power", "sim"), "config")
    return spec, model, sim_cfg


def load_subscribe(path: str) -> tuple[int, int, tuple[SubscriptionItem, ...]]:
    """Parse an xApp subscribe file: [subscribe] with xapp, node, and
    items as comma-separated kpi:period[:tolerance] entries."""
    (request,) = _load(path, ("subscribe",), "subscribe file")
    return request.xapp, request.node, request.items
