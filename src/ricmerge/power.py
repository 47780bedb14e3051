"""Linear CPU power model for the RIC host.

Measured RIC power grows linearly with the aggregate KPI sample rate,
independent of how samples are batched into messages. The shipped
default model is a two-point fit through the no-traffic operating point
(34.5 W) and a 500 000 samples/s deployment measured at 268.2 W, giving
4.674e-4 W per sample/s. The CPU idle floor (28 W) is carried for
reference; predictions only use the RIC static term, which subsumes it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, NamedTuple

DEFAULT_CPU_STATIC_WATTS = 28.0
DEFAULT_RIC_STATIC_WATTS = 34.5
DEFAULT_WATTS_PER_SAMPLE_RATE = (268.2 - DEFAULT_RIC_STATIC_WATTS) / 500_000.0


@dataclass(frozen=True)
class PowerModel:
    p_cpu_static_watts: float = DEFAULT_CPU_STATIC_WATTS
    p_ric_static_watts: float = DEFAULT_RIC_STATIC_WATTS
    watts_per_sample_rate: float = DEFAULT_WATTS_PER_SAMPLE_RATE

    def __post_init__(self) -> None:
        for name in ("p_cpu_static_watts", "p_ric_static_watts", "watts_per_sample_rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name.removeprefix('p_')} must be finite: {value}")
        if not 0 <= self.p_cpu_static_watts <= self.p_ric_static_watts:
            raise ValueError(
                "require 0 <= CPU static <= RIC static, got "
                f"{self.p_cpu_static_watts} / {self.p_ric_static_watts}"
            )
        if self.watts_per_sample_rate < 0:
            raise ValueError(f"negative watts per sample rate: {self.watts_per_sample_rate}")


@dataclass(frozen=True)
class MeasurementPoint:
    sample_rate: float
    watts: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v >= 0 for v in (self.sample_rate, self.watts)):
            raise ValueError("measurement values must be finite and non-negative")


class Savings(NamedTuple):
    gross_watts: float
    saved_watts: float
    saved_pct: float


def predict(model: PowerModel, sample_rate: float) -> float:
    """RIC power draw at an aggregate KPI sample rate (samples/s)."""
    if sample_rate < 0:
        raise ValueError(f"sample rate must be >= 0: {sample_rate}")
    return model.p_ric_static_watts + model.watts_per_sample_rate * sample_rate


def calibrate(points: Iterable[MeasurementPoint]) -> PowerModel:
    """Least-squares line fit through measured (rate, watts) points."""
    points = list(points)
    rates = [p.sample_rate for p in points]
    watts = [p.watts for p in points]
    if len(points) < 2 or len(set(rates)) < 2:
        raise ValueError("calibration needs at least two points with distinct rates")
    fit = statistics.linear_regression(rates, watts)
    if fit.intercept < 0:
        raise ValueError(f"fitted static power is negative: {fit.intercept} W")
    if fit.slope < 0:
        raise ValueError(f"fitted watts per sample rate is negative: {fit.slope}")
    return PowerModel(
        p_cpu_static_watts=min(DEFAULT_CPU_STATIC_WATTS, fit.intercept),
        p_ric_static_watts=fit.intercept,
        watts_per_sample_rate=fit.slope,
    )


def savings(model: PowerModel, sample_rate: float, redundancy_fraction: float) -> Savings:
    """Power saved by eliminating redundant KPI transmissions.

    ``sample_rate`` is the deployment's aggregate KPI rate; a fraction
    ``redundancy_fraction`` of the transmitted streams are exact
    duplicates that the merge engine removes.
    """
    if not 0 <= redundancy_fraction <= 1:
        raise ValueError(f"redundancy fraction must be in [0, 1]: {redundancy_fraction}")
    gross = predict(model, sample_rate)
    saved = model.watts_per_sample_rate * redundancy_fraction * sample_rate
    return Savings(gross, saved, saved / gross * 100.0)


def project_nodes(model: PowerModel, kpis_per_node: int, period_ms: int, nodes: int) -> float:
    """Projected RIC power for a uniform deployment."""
    if kpis_per_node < 1 or period_ms < 1 or nodes < 0:
        raise ValueError("projection arguments out of range")
    return predict(model, nodes * kpis_per_node * 1000.0 / period_ms)
