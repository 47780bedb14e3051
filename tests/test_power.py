import pytest
from hypothesis import given, strategies as st

from ricmerge.power import (
    DEFAULT_WATTS_PER_SAMPLE_RATE,
    MeasurementPoint,
    PowerModel,
    calibrate,
    predict,
)

MODEL = PowerModel()


class TestPredict:
    def test_idle_draw(self):
        assert predict(MODEL, 0) == pytest.approx(34.5)

    def test_small_deployment_draw(self):
        # 10 nodes x 20 KPIs at 10 ms
        assert predict(MODEL, 20_000) == pytest.approx(43.8, abs=0.2)

    def test_medium_deployment_draw(self):
        # 100 nodes x 50 KPIs at 10 ms
        assert predict(MODEL, 500_000) == pytest.approx(268.2, abs=1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            predict(MODEL, -1)


class TestCalibrate:
    def test_two_point_fit_slope(self):
        model = calibrate([MeasurementPoint(0, 34.5), MeasurementPoint(500_000, 268.2)])
        assert model.watts_per_sample_rate == pytest.approx((268.2 - 34.5) / 500_000)
        assert model.ric_static_watts == pytest.approx(34.5)
        assert DEFAULT_WATTS_PER_SAMPLE_RATE == pytest.approx(4.674e-4)

    def test_insufficient_points_rejected(self):
        with pytest.raises(ValueError):
            calibrate([MeasurementPoint(0, 34.5)])
        with pytest.raises(ValueError):
            calibrate([MeasurementPoint(10, 34.5), MeasurementPoint(10, 35.0)])

    def test_negative_fitted_static_power_named(self):
        points = [MeasurementPoint(1000, 1), MeasurementPoint(2000, 100)]
        with pytest.raises(ValueError, match=r"^fitted static power is negative: -98\.0 W$"):
            calibrate(points)

    def test_negative_fitted_slope_named(self):
        points = [MeasurementPoint(0, 100), MeasurementPoint(1000, 50)]
        with pytest.raises(
            ValueError, match=r"^fitted watts per sample rate is negative: -0\.05$"
        ):
            calibrate(points)

    def test_exact_linear_points_recovered(self):
        slope, intercept = 3.3e-4, 30.0
        points = [
            MeasurementPoint(r, intercept + slope * r)
            for r in (0, 1000, 5000, 20000, 100000)
        ]
        model = calibrate(points)
        assert model.watts_per_sample_rate == pytest.approx(slope, rel=1e-9)
        assert model.ric_static_watts == pytest.approx(intercept, rel=1e-9)


class TestModelConsistency:
    """One default model must reproduce every reported operating point."""

    def test_all_anchored_wattages(self):
        assert predict(MODEL, 20_000) == pytest.approx(43.8, abs=0.2)
        assert predict(MODEL, 500_000) == pytest.approx(268.2, abs=1)
        assert predict(MODEL, 3_000_000) > 1400


@given(st.floats(0, 1e7), st.floats(0, 1e7))
def test_predict_is_affine(a, b):
    lhs = predict(MODEL, a) + predict(MODEL, b) - MODEL.ric_static_watts
    assert lhs == pytest.approx(predict(MODEL, a + b), rel=1e-9, abs=1e-9)


class TestModelValidation:
    def test_negative_static_rejected(self):
        with pytest.raises(ValueError, match=r"^ric_static_watts must be >= 0: -1\.0$"):
            PowerModel(ric_static_watts=-1.0)

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError, match=r"^watts_per_sample_rate must be >= 0: -0\.0001$"):
            PowerModel(watts_per_sample_rate=-1e-4)

    @pytest.mark.parametrize("field", ["ric_static_watts", "watts_per_sample_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_values_that_are_not_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite: {value}$"):
            PowerModel(**{field: value})

    @pytest.mark.parametrize("rate, watts", [(float("nan"), 268.2), (0, float("inf"))])
    def test_measurement_that_is_not_finite_rejected(self, rate, watts):
        with pytest.raises(ValueError, match="must be finite"):
            MeasurementPoint(rate, watts)
