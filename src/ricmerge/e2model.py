"""Domain model for E2 KPI subscriptions.

A subscription names an E2 node, the KPIs to report, a report period per
KPI, and an optional staleness tolerance per KPI. Requests decompose into
per-KPI demands, the unit the merge engine works on. The module also
provides the whole-request key used by the legacy deduplication
baseline, which only recognizes requests of identical content.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

KpiId = str
E2NodeId = int
XAppId = int

# Sanity cap on report periods: one hour.
MAX_PERIOD_MS = 3_600_000


class DuplicateKpiError(ValueError):
    """A request lists the same KPI more than once."""

    def __init__(self, kpi: KpiId) -> None:
        super().__init__(f"duplicate KPI in request: {kpi!r}")
        self.kpi = kpi


def check_period(period_ms: int) -> None:
    """Raise ``ValueError`` unless ``period_ms`` is in [1, MAX_PERIOD_MS]."""
    if not 1 <= period_ms <= MAX_PERIOD_MS:
        raise ValueError(f"report period out of range [1, {MAX_PERIOD_MS}] ms: {period_ms}")


def check_tolerance(sensitivity_ms: int | None) -> None:
    """Raise ``ValueError`` unless ``sensitivity_ms`` is ``None`` or >= 1."""
    if sensitivity_ms is not None and sensitivity_ms < 1:
        raise ValueError(f"staleness tolerance must be >= 1 ms: {sensitivity_ms}")


def check_id(value: int, label: str) -> None:
    """Raise ``ValueError`` naming ``label`` if ``value`` is negative."""
    if value < 0:
        raise ValueError(f"{label} must be non-negative: {value}")


def _validate_item(kpi: KpiId, period_ms: int, sensitivity_ms: int | None) -> None:
    if not kpi:
        raise ValueError("KPI name must be non-empty")
    check_period(period_ms)
    check_tolerance(sensitivity_ms)


@dataclass(frozen=True, slots=True)
class SubscriptionItem:
    """One KPI line of a request: what to report, how often, and how
    stale a delivered sample may be (``None`` = no tolerance given)."""

    kpi: KpiId
    period_ms: int
    sensitivity_ms: int | None = None

    def __post_init__(self) -> None:
        _validate_item(self.kpi, self.period_ms, self.sensitivity_ms)


@dataclass(frozen=True, slots=True)
class SubscriptionRequest:
    """An xApp's subscription towards one E2 node."""

    xapp: XAppId
    node: E2NodeId
    items: tuple[SubscriptionItem, ...]

    def __post_init__(self) -> None:
        check_id(self.xapp, "xApp id")
        check_id(self.node, "node id")
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise ValueError("subscription request must contain at least one item")
        seen: set[KpiId] = set()
        for item in self.items:
            if not isinstance(item, SubscriptionItem):
                raise TypeError(f"request item is not a SubscriptionItem: {item!r}")
            if item.kpi in seen:
                raise DuplicateKpiError(item.kpi)
            seen.add(item.kpi)


@dataclass(frozen=True, slots=True)
class KpiDemand:
    """A single xApp's demand for one KPI from one node."""

    xapp: XAppId
    node: E2NodeId
    kpi: KpiId
    period_ms: int
    sensitivity_ms: int | None = None

    def __post_init__(self) -> None:
        check_id(self.xapp, "xApp id")
        check_id(self.node, "node id")
        _validate_item(self.kpi, self.period_ms, self.sensitivity_ms)


# Each KpiDemand field's slot writer, in field order (a new field fails
# this unpacking). ``decompose`` fills a new demand through them;
# ``KpiDemand(...)`` still validates.
_new = object.__new__
_set_xapp, _set_node, _set_kpi, _set_period, _set_sensitivity = (
    KpiDemand.__dict__[field.name].__set__ for field in fields(KpiDemand)
)


def decompose(request: SubscriptionRequest) -> list[KpiDemand]:
    """Split a request into per-KPI demands, preserving item order.

    Validation happens once, where the values enter: ``SubscriptionRequest``
    checked the ids and that every item is a ``SubscriptionItem``, and each
    item checked its own KPI, period and tolerance. So the demands' slots
    are written straight from them, not through the validating
    ``KpiDemand.__init__``; each demand equals, hashes and prints like the
    one that constructor builds, and stays frozen.
    """
    xapp, node = request.xapp, request.node
    demands = []
    for item in request.items:
        demand = _new(KpiDemand)
        _set_xapp(demand, xapp)
        _set_node(demand, node)
        _set_kpi(demand, item.kpi)
        _set_period(demand, item.period_ms)
        _set_sensitivity(demand, item.sensitivity_ms)
        demands.append(demand)
    return demands


def request_fingerprint(
    request: SubscriptionRequest,
) -> tuple[E2NodeId, tuple[SubscriptionItem, ...]]:
    """The whole-request dedup key: the node and the items, by value.

    The xApp id is deliberately excluded, so two xApps issuing identical
    content share a key. Item order is kept, so reordered but otherwise
    equal requests have different keys.
    """
    return request.node, request.items
