import pytest
from hypothesis import given, strategies as st

from ricmerge.power import (
    DEFAULT_WATTS_PER_SAMPLE_RATE,
    MeasurementPoint,
    PowerModel,
    calibrate,
    predict,
    project_nodes,
    savings,
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
        assert model.p_ric_static_watts == pytest.approx(34.5)
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
        assert model.p_ric_static_watts == pytest.approx(intercept, rel=1e-9)


class TestSavings:
    def test_small_deployment_max_redundancy(self):
        gross, saved, pct = savings(MODEL, 20_000, 0.9)
        assert saved == pytest.approx(8.4, abs=0.2)
        assert pct == pytest.approx(19.2, abs=1)

    def test_medium_deployment_low_redundancy(self):
        gross, saved, pct = savings(MODEL, 500_000, 0.1)
        assert saved == pytest.approx(23.4, abs=0.5)
        assert pct == pytest.approx(8.7, abs=0.2)

    def test_large_deployment_low_redundancy(self):
        _, saved, _ = savings(MODEL, 3_000_000, 0.1)
        assert saved == pytest.approx(140.2, abs=0.5)
        assert saved > 140

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            savings(MODEL, 1000, 1.5)


class TestProjections:
    def test_node_scaling_projection(self):
        assert project_nodes(MODEL, 7, 10, 60) == pytest.approx(55, rel=0.1)
        assert project_nodes(MODEL, 7, 10, 60) == pytest.approx(54.13, abs=0.01)

    def test_kpi_scaling_projection(self):
        assert project_nodes(MODEL, 80, 10, 4) == pytest.approx(50, rel=0.1)
        assert project_nodes(MODEL, 80, 10, 4) == pytest.approx(49.46, abs=0.01)

    def test_no_nodes_is_static_only(self):
        assert project_nodes(MODEL, 7, 10, 0) == pytest.approx(34.5)


class TestModelConsistency:
    """One default model must reproduce every reported operating point."""

    def test_all_anchored_wattages(self):
        assert predict(MODEL, 20_000) == pytest.approx(43.8, abs=0.2)
        assert predict(MODEL, 500_000) == pytest.approx(268.2, abs=1)
        assert predict(MODEL, 3_000_000) > 1400
        assert project_nodes(MODEL, 7, 10, 60) == pytest.approx(55, rel=0.1)
        assert project_nodes(MODEL, 80, 10, 4) == pytest.approx(50, rel=0.1)

    def test_max_redundancy_savings_points(self):
        _, saved_small, pct_small = savings(MODEL, 20_000, 0.9)
        assert saved_small == pytest.approx(8.4, rel=0.02)
        assert pct_small == pytest.approx(19.2, rel=0.02)
        _, saved_medium, _ = savings(MODEL, 500_000, 0.9)
        assert saved_medium == pytest.approx(210.3, rel=0.02)
        _, saved_large, pct_large = savings(MODEL, 3_000_000, 0.9)
        assert saved_large == pytest.approx(1262, rel=0.02)
        assert pct_large == pytest.approx(88.0, rel=0.02)


@given(st.floats(0, 1e7), st.floats(0, 1e7))
def test_predict_is_affine(a, b):
    lhs = predict(MODEL, a) + predict(MODEL, b) - MODEL.p_ric_static_watts
    assert lhs == pytest.approx(predict(MODEL, a + b), rel=1e-9, abs=1e-9)


@given(st.floats(0, 1e7), st.floats(0, 1), st.floats(0, 1))
def test_savings_monotone_and_linear_in_redundancy(rate, r1, r2):
    lo, hi = sorted((r1, r2))
    assert savings(MODEL, rate, lo).saved_watts <= savings(MODEL, rate, hi).saved_watts + 1e-12
    assert savings(MODEL, rate, 0).saved_watts == 0
    full = savings(MODEL, rate, 1)
    assert full.saved_watts == pytest.approx(
        full.gross_watts - MODEL.p_ric_static_watts, rel=1e-9, abs=1e-9
    )


class TestModelValidation:
    def test_static_ordering_enforced(self):
        with pytest.raises(ValueError):
            PowerModel(p_cpu_static_watts=40.0, p_ric_static_watts=34.5)

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            PowerModel(watts_per_sample_rate=-1e-4)

    @pytest.mark.parametrize(
        "field", ["p_cpu_static_watts", "p_ric_static_watts", "watts_per_sample_rate"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_values_that_are_not_finite_rejected(self, field, value):
        name = field.removeprefix("p_")
        with pytest.raises(ValueError, match=rf"^{name} must be finite: {value}$"):
            PowerModel(**{field: value})

    @pytest.mark.parametrize("rate, watts", [(float("nan"), 268.2), (0, float("inf"))])
    def test_measurement_that_is_not_finite_rejected(self, rate, watts):
        with pytest.raises(ValueError, match="must be finite"):
            MeasurementPoint(rate, watts)

    def test_calibrate_clamps_cpu_floor(self):
        points = [MeasurementPoint(0, 20.0), MeasurementPoint(1000, 21.0)]
        model = calibrate(points)
        assert model.p_cpu_static_watts <= model.p_ric_static_watts
