import pytest

from ricmerge import scenario
from ricmerge.e2model import decompose, request_fingerprint
from ricmerge.power import PowerModel
from ricmerge.scenario import (
    ComparisonReport,
    ConfigError,
    DedupMode,
    ScenarioSpec,
    SensitivityPolicy,
    SweepAxis,
    build,
    compare,
    comparison_rows,
    load_config,
    load_subscribe,
    rows_to_csv,
    rows_to_json,
    sweep,
)
from ricmerge.sim import Batching, SimConfig

MODEL = PowerModel()
SIM = SimConfig(horizon_ms=100)


class TestBuild:
    def test_no_redundancy_one_demand_per_stream(self):
        requests = build(ScenarioSpec(10, 20, redundancy_fraction=0.0, seed=1))
        demands = [d for r in requests for d in decompose(r)]
        assert len(requests) == 10
        assert len(demands) == 200
        assert len({(d.node, d.kpi) for d in demands}) == 200

    def test_half_redundancy_adds_duplicates(self):
        requests = build(ScenarioSpec(10, 20, redundancy_fraction=0.5, seed=1))
        demands = [d for r in requests for d in decompose(r)]
        assert len(demands) == 300
        base = {(d.node, d.kpi): d for d in demands if d.xapp == 0}
        duplicates = [d for d in demands if d.xapp == 1]
        assert len(duplicates) == 100
        for d in duplicates:
            assert base[(d.node, d.kpi)].period_ms == d.period_ms

    def test_same_seed_is_deterministic(self):
        spec = ScenarioSpec(5, 8, redundancy_fraction=0.4, seed=42)
        assert build(spec) == build(spec)

    def test_different_seed_changes_selection(self):
        a = build(ScenarioSpec(5, 8, redundancy_fraction=0.4, seed=1))
        b = build(ScenarioSpec(5, 8, redundancy_fraction=0.4, seed=2))
        assert a != b

    def test_duplicates_hide_inside_differing_requests(self):
        requests = build(ScenarioSpec(10, 20, redundancy_fraction=0.9, seed=3))
        prints = {}
        for request in requests:
            prints.setdefault(request_fingerprint(request), []).append(request)
        assert all(len(group) == 1 for group in prints.values())

    def test_period_mix_draws_from_weights(self):
        spec = ScenarioSpec(
            4, 10, period_mix=((10, 0.5), (20, 0.5)), redundancy_fraction=0.0, seed=9
        )
        periods = {d.period_ms for r in build(spec) for d in decompose(r)}
        assert periods == {10, 20}

    def test_sensitivity_policy_applied(self):
        spec = ScenarioSpec(
            2, 3, redundancy_fraction=0.5, seed=1,
            sensitivity=SensitivityPolicy(fixed_ms=7),
        )
        demands = [d for r in build(spec) for d in decompose(r)]
        assert all(d.sensitivity_ms == 7 for d in demands)

    def test_per_xapp_sensitivity(self):
        spec = ScenarioSpec(
            2, 3, redundancy_fraction=0.5, seed=1,
            sensitivity=SensitivityPolicy(per_xapp=((1, 9),)),
        )
        demands = [d for r in build(spec) for d in decompose(r)]
        assert all(d.sensitivity_ms == 9 for d in demands if d.xapp == 1)
        assert all(d.sensitivity_ms is None for d in demands if d.xapp == 0)

    def test_full_redundancy_duplicates_every_stream(self):
        requests = build(ScenarioSpec(5, 4, redundancy_fraction=1.0, seed=8))
        demands = [d for r in requests for d in decompose(r)]
        assert len([d for d in demands if d.xapp == 1]) == 20
        prints = {request_fingerprint(r) for r in requests}
        assert len(prints) == len(requests)  # reversal keeps hashes distinct

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScenarioSpec(1, 1, period_mix=((10, 0.5), (20, 0.4)))


class TestCompare:
    def test_small_deployment_headline_numbers(self):
        report = compare(ScenarioSpec(10, 20, 10, 0.9, seed=1), MODEL, SIM)
        merge = report.for_mode(DedupMode.PER_KPI_MERGE)
        assert merge.gross_watts == pytest.approx(43.8, abs=0.2)
        assert merge.saved_watts == pytest.approx(8.4, abs=0.2)
        assert merge.saved_pct == pytest.approx(19.2, abs=1)
        assert merge.total_streams == 200

    def test_whole_request_hashing_misses_partial_overlap(self):
        report = compare(ScenarioSpec(10, 20, 10, 0.9, seed=1), MODEL, SIM)
        whole = report.for_mode(DedupMode.WHOLE_REQUEST)
        assert whole.saved_watts == 0
        assert whole.total_streams == report.for_mode(DedupMode.NO_DEDUP).total_streams

    def test_whole_request_catches_fully_identical_requests(self):
        # One KPI per node: the duplicating request cannot differ.
        report = compare(ScenarioSpec(4, 1, 10, 0.5, seed=1), MODEL, SIM)
        whole = report.for_mode(DedupMode.WHOLE_REQUEST)
        merge = report.for_mode(DedupMode.PER_KPI_MERGE)
        assert whole.saved_watts == pytest.approx(merge.saved_watts)

    def test_rates_ordered_across_modes(self):
        report = compare(ScenarioSpec(7, 9, 10, 0.3, seed=5), MODEL, SIM)
        rates = {r.mode: r.total_sample_rate for r in report.results}
        assert (
            rates[DedupMode.PER_KPI_MERGE]
            <= rates[DedupMode.WHOLE_REQUEST]
            <= rates[DedupMode.NO_DEDUP]
        )

    def test_rate_order_violation_raises(self, monkeypatch):
        original = scenario._mode_layout

        def inflated_merge(mode, requests, demands):
            plans, streams, rate = original(mode, requests, demands)
            if mode is DedupMode.PER_KPI_MERGE:
                rate += 1
            return plans, streams, rate

        monkeypatch.setattr(scenario, "_mode_layout", inflated_merge)
        spec = ScenarioSpec(2, 2, 10, 0.0, seed=1)
        with pytest.raises(RuntimeError, match="sample rates out of order") as err:
            compare(spec, MODEL, SIM)
        message = str(err.value)
        for mode in ("per_kpi_merge 401", "whole_request 400", "no_dedup 400"):
            assert mode in message

    def test_merge_saves_exactly_the_duplicated_rate(self):
        spec = ScenarioSpec(10, 20, 10, 0.9, seed=6)
        report = compare(spec, MODEL, SIM)
        merge = report.for_mode(DedupMode.PER_KPI_MERGE)
        ideal = MODEL.watts_per_sample_rate * 0.9 * (10 * 20 * 100)
        assert merge.saved_watts == pytest.approx(ideal, rel=1e-12)

    def test_deterministic_per_seed(self):
        spec = ScenarioSpec(6, 6, 10, 0.5, seed=11)
        a = rows_to_csv(comparison_rows(compare(spec, MODEL, SIM)))
        b = rows_to_csv(comparison_rows(compare(spec, MODEL, SIM)))
        assert a == b


class TestSweep:
    def test_redundancy_axis_emits_all_modes(self):
        spec = ScenarioSpec(3, 4, 10, 0.0, seed=2)
        rows = sweep(spec, MODEL, SIM, SweepAxis.REDUNDANCY, [0.0, 0.5])
        assert len(rows) == 6
        assert rows[0].sweep_value == 0.0 and rows[-1].sweep_value == 0.5

    def test_node_axis_emits_projection_rows(self):
        spec = ScenarioSpec(1, 7, 10, 0.0, seed=2)
        rows = sweep(spec, MODEL, SIM, SweepAxis.NODES, list(range(1, 61)))
        assert len(rows) == 60
        assert rows[-1].gross_watts == pytest.approx(54.13, abs=0.01)
        watts = [r.gross_watts for r in rows]
        assert watts == sorted(watts)

    def test_kpi_axis_final_projection(self):
        spec = ScenarioSpec(4, 1, 10, 0.0, seed=2)
        rows = sweep(spec, MODEL, SIM, SweepAxis.KPIS, [1, 40, 80])
        assert rows[-1].gross_watts == pytest.approx(49.46, abs=0.01)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep(ScenarioSpec(1, 1), MODEL, SIM, SweepAxis.NODES, [])

    def test_redundancy_sweep_savings_grow_to_the_ideal_endpoint(self):
        spec = ScenarioSpec(10, 20, 10, 0.0, seed=1)
        values = [round(0.1 * i, 1) for i in range(10)]
        rows = sweep(spec, MODEL, SIM, SweepAxis.REDUNDANCY, values)
        merged = [r for r in rows if r.mode is DedupMode.PER_KPI_MERGE]
        saved = [r.saved_watts for r in merged]
        assert saved == sorted(saved)
        assert saved[0] == 0.0
        assert saved[-1] == pytest.approx(8.4132, abs=1e-4)
        assert all(r.gross_watts == pytest.approx(43.848, abs=1e-3) for r in merged)


class TestRendering:
    def test_csv_header_and_shape(self):
        report = compare(ScenarioSpec(2, 2, 10, 0.5, seed=1), MODEL, SIM)
        text = rows_to_csv(comparison_rows(report))
        lines = text.strip().split("\n")
        assert lines[0] == (
            "sweep_value,mode,streams,sample_rate,bytes_per_sec,"
            "gross_watts,saved_watts,saved_pct"
        )
        assert len(lines) == 4
        assert lines[1].startswith("0.5,no_dedup,")

    def test_json_mirrors_csv_fields(self):
        import json

        report = compare(ScenarioSpec(2, 2, 10, 0.0, seed=1), MODEL, SIM)
        doc = json.loads(rows_to_json(comparison_rows(report)))
        assert len(doc) == 3
        assert set(doc[0]) == {
            "sweep_value", "mode", "streams", "sample_rate",
            "bytes_per_sec", "gross_watts", "saved_watts", "saved_pct",
        }


class TestConfig:
    def test_full_config_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "[scenario]\n"
            "nodes = 4\n"
            "kpis_per_node = 3\n"
            "period_ms = 20\n"
            "redundancy_fraction = 0.25\n"
            "seed = 17\n"
            "mode = no_dedup\n"
            "period_mix = 10:0.5, 20:0.5\n"
            "sensitivity = fixed:6\n"
            "[power]\n"
            "ric_static_watts = 40\n"
            "watts_per_sample_rate = 1e-3\n"
            "[sim]\n"
            "horizon_ms = 200\n"
            "header_bytes = 12\n"
            "bytes_per_sample = 800\n"
            "batching = per_stream\n"
        )
        spec, model, sim_cfg = load_config(str(path))
        assert spec.nodes == 4 and spec.kpis_per_node == 3
        assert spec.period_mix == ((10, 0.5), (20, 0.5))
        assert spec.sensitivity.fixed_ms == 6
        assert spec.mode is DedupMode.NO_DEDUP
        assert model.p_ric_static_watts == 40
        assert sim_cfg.batching is Batching.PER_STREAM
        assert sim_cfg.header_bytes == 12

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text("[scenario]\nnodes = 2\nkpis_per_node = 5\n")
        spec, model, sim_cfg = load_config(str(path))
        assert spec.period_ms == 10 and spec.seed == 0
        assert spec.mode is DedupMode.PER_KPI_MERGE
        assert model.p_ric_static_watts == 34.5
        assert sim_cfg.horizon_ms == 1000

    def test_missing_file_raises_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/scenario.cfg")

    def test_missing_section_raises(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[power]\nric_static_watts = 34.5\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_mode_raises(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nnodes = 1\nkpis_per_node = 1\nmode = magic\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_subscribe_file(self, tmp_path):
        path = tmp_path / "subscribe.cfg"
        path.write_text(
            "[subscribe]\nxapp = 3\nnode = 1\nitems = KPI0000:10, KPI0001:20:5\n"
        )
        xapp, node, items = load_subscribe(str(path))
        assert (xapp, node) == (3, 1)
        assert [(i.kpi, i.period_ms, i.sensitivity_ms) for i in items] == [
            ("KPI0000", 10, None),
            ("KPI0001", 20, 5),
        ]
