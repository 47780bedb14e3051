"""Scenario construction and the end-to-end comparison runner.

A scenario describes a deployment (nodes, KPIs per node, period mix) and
a controlled amount of redundancy: for a fraction of the KPI streams a
second xApp requests an exact duplicate, buried inside a request that
differs from the first xApp's in its other items. Whole-request dedup
therefore cannot see the overlap, while per-KPI merging removes it.

``compare`` runs the same demand set through three modes (no dedup,
whole-request dedup, per-KPI merge), prices each transmitted rate with
the power model and returns one ``SweepRow`` per mode. Each mode lays
its streams out as classes (:class:`~ricmerge.merge.PlanClass`): a fold
plus the (node, KPI) groups that share it, so the rate and the
simulation cost what the distinct folds cost, and no per-group plan is
built. The baseline modes key requests by node and items (whole-request
dedup) or by place (no dedup), and send each key's first request's
items as streams of their own, one class per (period, number of xApps
fed); the merged mode takes the engine's classes. One mode is laid out
and simulated at a time, and only its rate, bytes sent and stream count
are kept. ``compare`` is two steps: a tally measures a list of requests
into each mode's exact totals, and pricing checks the rate order and
turns the totals into rows.

Totals over requests on disjoint nodes add exactly: every kept figure is
a sum over (node, KPI) groups or, for per-node messages, over nodes, and
requests on disjoint nodes never share a stream (a request's whole-request
key covers its node, and merge groups are keyed on (node, KPI)). So the
tally measures batches of whole nodes, each of at least
``_TALLY_DEMANDS`` demands, and adds their totals: only one batch's
demands, layouts and sim state are alive at once. The cyclic garbage
collector is paused while the tally runs: a batch's objects refer only
to values made before them, so they form no cycle and reference counting
frees them, and a collection would only walk them again.

``sweep`` repeats that along one axis of ``SWEEP_AXES``, which names
the scenario field each axis sets, its type and its default grid. The
baseline requests come node by node from a generator blind to the node
count, so a nodes sweep builds each node once: points without
duplicates are prefixes of one list, and each tallies only the nodes
it adds to the previous point; a slice whose requests' xApps and items
equal an earlier slice's reuses that slice's tally, since totals do not
depend on node ids. So ``--range 1:1000`` on ``configs/node_sweep.cfg``,
whose nodes are all alike, measures each mode once and takes 0.11-0.15 s
(whole command, 2-vCPU Xeon, Python 3.11). Duplicates span every node,
so points with them, and the KPI and redundancy axes, start from
scratch. ``rows_to_csv`` and ``rows_to_json`` render either's rows.
"""

from __future__ import annotations

import array
import configparser
import functools
import gc
import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from operator import add, attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import power
from .e2model import (
    E2NodeId,
    KpiDemand,
    SubscriptionItem,
    SubscriptionRequest,
    XAppId,
    check_id,
    check_period,
    check_tolerance,
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

    def __post_init__(self) -> None:
        xapps = [xapp for xapp, _ in self.per_xapp]
        for xapp in xapps:
            check_id(xapp, "xApp id")
            if xapps.count(xapp) > 1:
                raise ValueError(f"xApp {xapp} has more than one tolerance")
        for tolerance in [tolerance for _, tolerance in self.per_xapp] + [self.fixed_ms]:
            check_tolerance(tolerance)

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


def _baseline(
    spec: ScenarioSpec, rng: random.Random, item: Callable[..., SubscriptionItem]
) -> Iterator[SubscriptionRequest]:
    """xApp 0's requests on nodes 0, 1, 2, ... without end, each covering
    every KPI of its node, with each node's periods drawn from ``rng`` in
    node order and each item made by ``item``. ``spec.nodes`` is not
    read, so the first n requests are the same for every node count."""
    kpis = [_kpi_name(k) for k in range(spec.kpis_per_node)]
    tolerance = spec.sensitivity.tolerance_for(BASE_XAPP)
    for node in itertools.count():
        if spec.period_mix is None:
            periods = [spec.period_ms] * len(kpis)
        else:
            choices, weights = zip(*spec.period_mix)
            periods = rng.choices(choices, weights, k=len(kpis))
        items = tuple(item(kpi, period, tolerance) for kpi, period in zip(kpis, periods))
        yield SubscriptionRequest(BASE_XAPP, node, items)


def _duplicates(spec: ScenarioSpec) -> int:
    """How many of the scenario's streams a second xApp duplicates."""
    return round(spec.redundancy_fraction * (spec.nodes * spec.kpis_per_node))


def build(spec: ScenarioSpec) -> list[SubscriptionRequest]:
    """Generate the scenario's subscription requests, deterministically.

    The first ``spec.nodes`` baseline requests (:func:`_baseline`) come
    first. A fraction ``redundancy_fraction`` of all streams is then
    duplicated by a second xApp, chosen by the same ``rng`` once the
    baseline is drawn; its per-node requests list only the duplicated
    KPIs (in reverse order), so they never key equal to the baseline
    request unless a node has a single KPI that is fully duplicated.
    Items are frozen, so one item per distinct (KPI, period, tolerance)
    serves every request that lists it. No table per (node, KPI) is
    kept: the duplicates are marked by flat slot (``node * kpis_per_node
    + k``) and a duplicate copies its baseline item's period, so the
    tally, not ``build``, sets the peak memory of
    ``ricmerge run configs/large.cfg``.
    """
    rng = random.Random(spec.seed)
    item = functools.cache(SubscriptionItem)
    requests = list(itertools.islice(_baseline(spec, rng, item), spec.nodes))
    wanted = _duplicates(spec)
    if wanted == 0:
        # Nothing draws from ``rng`` after the duplicate pool's shuffle,
        # so skipping it changes no output.
        return requests
    per_node = spec.kpis_per_node
    total = spec.nodes * per_node
    # Prefer keeping one KPI per node out of the duplicate set so the
    # duplicating request stays a strict subset of the baseline one; the
    # reversed item order below keeps even a full-node duplicate from
    # keying equal (except for degenerate single-item requests).
    cap = per_node - 1 if per_node > 1 else 1
    pool = array.array("q", range(total))
    rng.shuffle(pool)
    chosen = bytearray(total)
    taken_per_node = [0] * spec.nodes
    for slot in pool:
        if wanted and taken_per_node[slot // per_node] < cap:
            taken_per_node[slot // per_node] += 1
            chosen[slot] = 1
            wanted -= 1
    for slot in pool:
        if wanted and not chosen[slot]:
            chosen[slot] = 1
            wanted -= 1

    dup_tolerance = spec.sensitivity.tolerance_for(DUPLICATE_XAPP)
    for node in range(spec.nodes):
        slots = enumerate(requests[node].items, node * per_node)
        picked = [b for slot, b in slots if chosen[slot]]
        picked.sort(key=attrgetter("kpi"), reverse=True)
        if picked:
            items = tuple(item(b.kpi, b.period_ms, dup_tolerance) for b in picked)
            requests.append(SubscriptionRequest(DUPLICATE_XAPP, node, items))
    return requests


def _baseline_classes(requests: list[SubscriptionRequest], share: bool) -> list[PlanClass]:
    """The classes of a baseline mode's streams, each sent on its own.

    Requests are keyed by node and items when ``share`` (whole-request
    dedup), else each by its place in the list (no dedup). Each key's
    first request sends one stream per item, which feeds the xApps of
    every request with that key in id order; the streams fall into one
    class per (period, number of xApps fed).
    """
    kept: dict[tuple | int, tuple[SubscriptionRequest, set[XAppId]]] = {}
    for index, request in enumerate(requests):
        key = request_fingerprint(request) if share else index
        kept.setdefault(key, (request, set()))[1].add(request.xapp)
    by_fold: dict[tuple[int, int], list[Group]] = {}
    for request, xapps in kept.values():
        node, fed = request.node, tuple(sorted(xapps))
        for item in request.items:
            key = (item.period_ms, len(fed))
            groups = by_fold.get(key)
            if groups is None:
                groups = by_fold[key] = []
            groups.append((node, item.kpi, fed))
    return [
        PlanClass(Fold((period,), (tuple(range(fed)),)), groups)
        for (period, fed), groups in by_fold.items()
    ]


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


def _mode_layout(
    mode: DedupMode,
    requests: list[SubscriptionRequest],
    demands: list[KpiDemand],
) -> tuple[list[PlanClass], Fraction]:
    """The mode's transmitted streams as classes, and their total sample
    rate."""
    if mode is DedupMode.PER_KPI_MERGE:
        state = MergeState()
        state.add_demands(demands)
        classes = state.classes()
    else:
        classes = _baseline_classes(requests, mode is DedupMode.WHOLE_REQUEST)
    return classes, classes_sample_rate(classes)


def _measure(
    mode: DedupMode,
    requests: list[SubscriptionRequest],
    demands: list[KpiDemand],
    sim_cfg: SimConfig,
) -> tuple[Fraction, int, int]:
    """Lay one mode out and simulate it: its sample rate, bytes sent and
    stream count. The classes and the sim report are dropped on return."""
    classes, rate = _mode_layout(mode, requests, demands)
    report = sim_run(classes, demands, sim_cfg)
    streams = sum(len(fold.periods) * len(groups) for fold, groups in classes)
    return rate, report.bytes_sent, streams


# Each mode's exact sample rate, bytes sent and stream count, in MODE_ORDER.
_Tally = list[tuple[Fraction, int, int]]
_NO_TALLY: _Tally = [(Fraction(0), 0, 0)] * len(MODE_ORDER)

# A tally batch closes at the first whole node that brings it to this
# many demands. One node per batch would pay each layout's and each sim's
# fixed cost once per node.
_TALLY_DEMANDS = 4096


def _add(totals: _Tally, tally: _Tally) -> _Tally:
    return [tuple(map(add, old, new)) for old, new in zip(totals, tally)]


def _node_batches(
    requests: list[SubscriptionRequest],
) -> Iterator[tuple[list[SubscriptionRequest], list[KpiDemand]]]:
    """The requests of consecutive whole nodes, with their demands.

    Nodes come in the order of their first request, and each node's
    requests in list order. A batch closes once it holds at least
    ``_TALLY_DEMANDS`` demands; the last holds what is left.
    """
    by_node: dict[E2NodeId, list[SubscriptionRequest]] = {}
    for request in requests:
        by_node.setdefault(request.node, []).append(request)
    batch: list[SubscriptionRequest] = []
    demands: list[KpiDemand] = []
    for node_requests in by_node.values():
        batch += node_requests
        for request in node_requests:
            demands += decompose(request)
        if len(demands) >= _TALLY_DEMANDS:
            yield batch, demands
            batch, demands = [], []
    if batch:
        yield batch, demands


def _tally(requests: list[SubscriptionRequest], sim_cfg: SimConfig) -> _Tally:
    """Measure every mode over ``requests``: each mode's totals summed
    over batches of whole nodes (:func:`_node_batches`).

    Only one batch's demands, and one mode's classes and sim report for
    it, are alive at once. The sum is exact (see the module docstring):
    every kept figure is a sum over (node, KPI) groups or over nodes, and
    a batch holds every request of its nodes. On a scenario from
    :func:`build`, a horizon shorter than a period raises the same error
    as measuring every demand at once: the error names the first
    over-long demand, and a node's duplicates only repeat periods of its
    baseline request, which comes before them.

    The cyclic garbage collector is paused while the batches are
    measured, and its previous state is restored on the way out, errors
    included. Every object a batch makes (demands, pending and held
    dicts, folds, classes, sim maps) refers only to values made before
    it, never back, so the batches hold no reference cycles and
    reference counting frees each one whole; a collection would only
    walk them again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        totals = _NO_TALLY
        for batch, demands in _node_batches(requests):
            tally = [_measure(mode, batch, demands, sim_cfg) for mode in MODE_ORDER]
            totals = _add(totals, tally)
        return totals
    finally:
        if enabled:
            gc.enable()


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

    gross_no_dedup = power.predict(model, float(rate_no_dedup))
    results = []
    for mode, (rate, bytes_sent, streams) in zip(MODE_ORDER, tally):
        bytes_per_sec = bytes_sent * 1000.0 / sim_cfg.horizon_ms
        gross = power.predict(model, float(rate))
        saved = gross_no_dedup - gross
        pct = saved / gross * 100.0 if saved else 0.0
        results.append(SweepRow(
            sweep_value, mode, streams, float(rate), bytes_per_sec, gross, saved, pct
        ))
    return tuple(results)


def compare(
    spec: ScenarioSpec, model: PowerModel, sim_cfg: SimConfig
) -> tuple[SweepRow, ...]:
    """Run all three dedup modes over one generated demand set; rows are
    keyed by the scenario's redundancy fraction.

    Saved watts are relative to the no-dedup transmitted rate; the saved
    percentage is taken against the mode's own gross power, which for
    the merged mode equals the deployment's duplicate-free power draw.
    The demand set is measured in batches of whole nodes (:func:`_tally`),
    so the demands and layouts of a deployment larger than one batch are
    never held whole; the rows are those of measuring it at once.
    """
    tally = _tally(build(spec), sim_cfg)
    return _price(tally, spec.redundancy_fraction, model, sim_cfg)


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
    equal its own ``compare``'s, errors included. A nodes point without
    duplicates is a prefix of one baseline list, grown only as far as
    needed; if the previous point was a prefix no longer than its own,
    it tallies just the nodes it adds. A slice of added nodes whose
    requests' xApps and items equal an earlier slice's reuses that
    slice's tally, so slices with equal content are measured once; a
    slice that raises was never measured before, so it raises where it
    always did. Any other point is tallied from scratch.
    """
    field, kind, grid, _, every_mode = SWEEP_AXES[axis]
    values = grid if values is None else values
    if not values:
        raise ValueError("sweep needs at least one value")
    for value in values:
        if kind is int and not float(value).is_integer():
            raise ValueError(f"{axis.value} axis takes whole numbers only: {value}")
    rows = []
    baseline: list[SubscriptionRequest] = []
    more = _baseline(spec, random.Random(spec.seed), functools.cache(SubscriptionItem))
    tallied = None  # the baseline prefix ``totals`` measures, if it measures one
    slices: dict[tuple, _Tally] = {}  # each tallied slice's content: its tally
    for value in values:
        point = replace(spec, **{field: kind(value)})
        if axis is SweepAxis.NODES and not _duplicates(point):
            baseline += itertools.islice(more, max(point.nodes - len(baseline), 0))
            if tallied is None or tallied > point.nodes:
                tallied, totals = 0, _NO_TALLY
            added = baseline[tallied : point.nodes]
            content = tuple((request.xapp, request.items) for request in added)
            tally = slices.get(content)
            if tally is None:
                tally = slices[content] = _tally(added, sim_cfg)
            totals = _add(totals, tally)
            tallied = point.nodes
        else:
            totals, tallied = _tally(build(point), sim_cfg), None
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
        try:
            fixed_ms = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad sensitivity entry {text!r}") from exc
        return SensitivityPolicy(fixed_ms=fixed_ms)
    if text.startswith("per_xapp:"):
        pairs = []
        for part in text.split(":", 1)[1].split(","):
            try:
                xapp, tolerance = part.strip().split("=")
                pairs.append((int(xapp), int(tolerance)))
            except ValueError as exc:
                raise ConfigError(f"bad sensitivity entry {part.strip()!r}") from exc
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
    ("power", "ric_static_watts"): ("ric_static_watts", float),
    ("power", "watts_per_sample_rate"): ("watts_per_sample_rate", float),
    ("sim", "horizon_ms"): ("horizon_ms", int),
    ("sim", "header_bytes"): ("header_bytes", int),
    ("sim", "bytes_per_sample"): ("bytes_per_sample", int),
    ("sim", "batching"): ("batching", Batching),
    ("subscribe", "xapp"): ("xapp", int),
    ("subscribe", "node"): ("node", int),
    ("subscribe", "items"): ("items", lambda text: tuple(map(_parse_item, text.split(",")))),
}


def _load(path: str, sections: tuple[str, ...], what: str, required: bool = True) -> list:
    """Build each named section's object from the file, reading no other
    section; the first one is required when ``required`` is set."""
    parser = _read_sections(path)
    if required and not parser.has_section(sections[0]):
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


def load_power(path: str) -> PowerModel:
    """Parse only the [power] section of a config file; a file without one
    gives the default model."""
    (model,) = _load(path, ("power",), "config", required=False)
    return model


def load_subscribe(path: str) -> tuple[int, int, tuple[SubscriptionItem, ...]]:
    """Parse an xApp subscribe file: [subscribe] with xapp, node, and
    items as comma-separated kpi:period[:tolerance] entries."""
    (request,) = _load(path, ("subscribe",), "subscribe file")
    return request.xapp, request.node, request.items
