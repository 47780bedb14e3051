"""Linear power model for the RIC host.

Measured RIC power grows linearly with the aggregate KPI sample rate,
independent of how samples are batched into messages: a static term
plus a slope per sample/s. The shipped default model is a two-point fit
through the no-traffic operating point (34.5 W) and a 500 000 samples/s
deployment measured at 268.2 W, giving 4.674e-4 W per sample/s.
``calibrate`` fits the same line to measured points. Every reported
watt is ``predict`` at a rate the pipeline measured; savings are the
difference of two such predictions.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable

DEFAULT_RIC_STATIC_WATTS = 34.5
DEFAULT_WATTS_PER_SAMPLE_RATE = (268.2 - DEFAULT_RIC_STATIC_WATTS) / 500_000.0


@dataclass(frozen=True)
class PowerModel:
    ric_static_watts: float = DEFAULT_RIC_STATIC_WATTS
    watts_per_sample_rate: float = DEFAULT_WATTS_PER_SAMPLE_RATE

    def __post_init__(self) -> None:
        for name in ("ric_static_watts", "watts_per_sample_rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0: {value}")


@dataclass(frozen=True)
class MeasurementPoint:
    sample_rate: float
    watts: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v >= 0 for v in (self.sample_rate, self.watts)):
            raise ValueError("measurement values must be finite and non-negative")


def predict(model: PowerModel, sample_rate: float) -> float:
    """RIC power draw at an aggregate KPI sample rate (samples/s)."""
    if sample_rate < 0:
        raise ValueError(f"sample rate must be >= 0: {sample_rate}")
    return model.ric_static_watts + model.watts_per_sample_rate * sample_rate


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
    return PowerModel(ric_static_watts=fit.intercept, watts_per_sample_rate=fit.slope)
