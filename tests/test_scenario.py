import pathlib
from dataclasses import replace

import pytest

from ricmerge import scenario
from ricmerge.e2model import decompose, request_fingerprint
from ricmerge.power import PowerModel
from ricmerge.scenario import (
    SWEEP_AXES,
    ComparisonReport,
    ConfigError,
    DedupMode,
    ScenarioSpec,
    SensitivityPolicy,
    SweepAxis,
    build,
    compare,
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
        assert merge.streams == 200

    def test_whole_request_hashing_misses_partial_overlap(self):
        report = compare(ScenarioSpec(10, 20, 10, 0.9, seed=1), MODEL, SIM)
        whole = report.for_mode(DedupMode.WHOLE_REQUEST)
        assert whole.saved_watts == 0
        assert whole.streams == report.for_mode(DedupMode.NO_DEDUP).streams

    def test_whole_request_catches_fully_identical_requests(self):
        # One KPI per node: the duplicating request cannot differ.
        report = compare(ScenarioSpec(4, 1, 10, 0.5, seed=1), MODEL, SIM)
        whole = report.for_mode(DedupMode.WHOLE_REQUEST)
        merge = report.for_mode(DedupMode.PER_KPI_MERGE)
        assert whole.saved_watts == pytest.approx(merge.saved_watts)

    def test_rates_ordered_across_modes(self):
        report = compare(ScenarioSpec(7, 9, 10, 0.3, seed=5), MODEL, SIM)
        rates = {r.mode: r.sample_rate for r in report.results}
        assert (
            rates[DedupMode.PER_KPI_MERGE]
            <= rates[DedupMode.WHOLE_REQUEST]
            <= rates[DedupMode.NO_DEDUP]
        )

    def test_rate_order_violation_raises(self, monkeypatch):
        original = scenario._mode_layout

        def inflated_merge(mode, requests, demands):
            rows, rate = original(mode, requests, demands)
            if mode is DedupMode.PER_KPI_MERGE:
                rate += 1
            return rows, rate

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

    def test_one_plan_per_distinct_merged_shape(self, plans_built, specs_built, changes_built):
        """Only the merge engine builds plans, one per distinct (period,
        tolerance) shape of a (node, KPI) group, to validate its fold. The
        only streams built are those plans' own, and the engine's plan
        edit, which nobody reads, builds no change."""
        spec = ScenarioSpec(
            12,
            15,
            redundancy_fraction=0.6,
            period_mix=((10, 0.4), (15, 0.3), (40, 0.3)),
            sensitivity=SensitivityPolicy(per_xapp=((1, 8),)),
            seed=4,
        )
        groups = {}
        for d in sorted(
            (d for r in build(spec) for d in decompose(r)), key=lambda d: (d.period_ms, d.xapp)
        ):
            groups.setdefault((d.node, d.kpi), []).append((d.period_ms, d.sensitivity_ms))
        shapes = {tuple(shape) for shape in groups.values()}
        assert len(shapes) == 6  # three periods, each alone or duplicated
        compare(spec, MODEL, SIM)
        assert len(plans_built) == len(shapes)
        built_for = {(p.streams[0].node, p.streams[0].kpi) for p in plans_built}
        assert {tuple(groups[key]) for key in built_for} == shapes
        assert specs_built == [s for plan in plans_built for s in plan.streams]
        assert changes_built == []

    def test_deterministic_per_seed(self):
        spec = ScenarioSpec(6, 6, 10, 0.5, seed=11)
        a = rows_to_csv(compare(spec, MODEL, SIM).results)
        b = rows_to_csv(compare(spec, MODEL, SIM).results)
        assert a == b


def _compare_each_point(spec, axis, values):
    """The sweep's rows as one ``compare`` per point would give them."""
    field, kind, _, _, every_mode = SWEEP_AXES[axis]
    rows = []
    for value in values:
        report = compare(replace(spec, **{field: kind(value)}), MODEL, SIM)
        rows += [
            replace(row, sweep_value=float(value))
            for row in report.results
            if every_mode or row.mode is spec.mode
        ]
    return rows


MIXED = ScenarioSpec(
    1,
    6,
    period_mix=((10, 0.4), (15, 0.3), (40, 0.3)),
    sensitivity=SensitivityPolicy(per_xapp=((1, 8),)),
    seed=4,
)


class TestSweep:
    @pytest.mark.parametrize(
        "spec, axis, values",
        [
            (MIXED, SweepAxis.NODES, list(range(1, 13))),
            (MIXED, SweepAxis.NODES, [5, 2, 7, 7, 9, 1]),
            (replace(MIXED, redundancy_fraction=0.4), SweepAxis.NODES, [5, 2, 7, 7, 9, 1]),
            (replace(MIXED, redundancy_fraction=0.4), SweepAxis.NODES, list(range(1, 9))),
            # Point 2 adds node 1 and a duplicate on node 0, which point 1 had.
            (replace(MIXED, kpis_per_node=1, redundancy_fraction=0.4), SweepAxis.NODES, [1, 2]),
            (replace(MIXED, nodes=3), SweepAxis.KPIS, [4, 1, 6, 6, 9]),
            (replace(MIXED, nodes=4), SweepAxis.REDUNDANCY, [0.0, 0.5, 0.2, 0.2, 1.0]),
        ],
    )
    def test_rows_equal_each_points_compare(self, spec, axis, values):
        rows = sweep(spec, MODEL, SIM, axis, values)
        assert rows_to_csv(rows) == rows_to_csv(_compare_each_point(spec, axis, values))

    def test_node_points_decompose_only_the_requests_they_add(self, monkeypatch):
        requests = []
        monkeypatch.setattr(scenario, "decompose", lambda r: requests.append(r) or decompose(r))
        values = list(range(1, 13))
        sweep(MIXED, MODEL, SIM, SweepAxis.NODES, values)
        assert len(requests) == len(values)
        # With duplicates every point lists the duplicating requests after
        # all the baseline ones, so no point extends the one before it.
        requests.clear()
        redundant = replace(MIXED, redundancy_fraction=0.4)
        sweep(redundant, MODEL, SIM, SweepAxis.NODES, values)
        each_point = [build(replace(redundant, nodes=n)) for n in values]
        assert all(len(point) > n for n, point in zip(values, each_point))
        assert len(requests) == sum(map(len, each_point))

    def test_errors_stay_at_the_point_that_raises_them(self, monkeypatch):
        spec = ScenarioSpec(1, 2, period_mix=((10, 0.9), (20, 0.07), (200, 0.03)), seed=0)
        message = "horizon 100 ms shorter than stream period 200 ms (8:KPI0001)"
        for nodes in range(1, 9):
            compare(replace(spec, nodes=nodes), MODEL, SIM)
        with pytest.raises(ValueError) as at_compare:
            compare(replace(spec, nodes=9), MODEL, SIM)
        assert str(at_compare.value) == message
        built = []
        monkeypatch.setattr(scenario, "build", lambda s: built.append(s.nodes) or build(s))
        with pytest.raises(ValueError) as at_sweep:
            sweep(spec, MODEL, SIM, SweepAxis.NODES, list(range(1, 20)))
        assert str(at_sweep.value) == message
        assert built == list(range(1, 10))

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

    def test_integer_axes_reject_values_that_are_not_whole(self):
        for axis in (SweepAxis.NODES, SweepAxis.KPIS):
            with pytest.raises(ValueError, match="whole numbers only: 1.5"):
                sweep(ScenarioSpec(1, 1), MODEL, SIM, axis, [1.0, 1.5, 2.0])

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
        text = rows_to_csv(report.results)
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
        doc = json.loads(rows_to_json(report.results))
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
        for loader in (load_config, load_subscribe):
            with pytest.raises(ConfigError, match="cannot read"):
                loader("/nonexistent/scenario.cfg")

    def test_unparsable_file_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nodes = 1\n")  # no section header
        for loader in (load_config, load_subscribe):
            with pytest.raises(ConfigError, match="cannot parse"):
                loader(str(path))

    def test_missing_section_raises(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[power]\nric_static_watts = 34.5\n")
        for loader in (load_config, load_subscribe):
            with pytest.raises(ConfigError, match="missing"):
                loader(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("[scenario]\nnodes = 1\nkpis_per_node = 1\n[sim]\nhorizon = 20\n")
        with pytest.raises(ConfigError, match=r"'horizon' in \[sim\]"):
            load_config(str(path))

    def test_percent_sign_raises_config_error(self, tmp_path):
        path = tmp_path / "percent.cfg"
        path.write_text("[scenario]\nnodes = 1%\nkpis_per_node = 1\n")
        with pytest.raises(ConfigError, match="invalid config: '%'"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "line, cause",
        [
            ("period_mix = 10:1.5,20:-0.5", "weight must be finite and >= 0: -0.5"),
            ("period_mix = 10:nan,20:1.0", "weight must be finite and >= 0: nan"),
            ("period_mix = 10:inf,20:1.0", "weight must be finite and >= 0: inf"),
            ("period_mix = 0:1.0", r"period out of range \[1, 3600000\] ms: 0"),
            ("period_mix = 10:0.5,3600001:0.5", "period out of range .* ms: 3600001"),
            ("period_ms = 0", "period out of range .* ms: 0"),
            ("period_ms = -10", "period out of range .* ms: -10"),
        ],
    )
    def test_bad_periods_and_weights_name_the_file(self, tmp_path, line, cause):
        path = tmp_path / "mix.cfg"
        path.write_text(f"[scenario]\nnodes = 1\nkpis_per_node = 1\n{line}\n")
        with pytest.raises(ConfigError, match=f"mix.cfg: invalid config: .*{cause}"):
            load_config(str(path))

    def test_zero_weight_and_period_bounds_are_accepted(self, tmp_path):
        path = tmp_path / "mix.cfg"
        path.write_text(
            "[scenario]\nnodes = 1\nkpis_per_node = 1\nperiod_ms = 3600000\n"
            "period_mix = 1:0.0,3600000:1.0\n"
        )
        spec, _, _ = load_config(str(path))
        assert spec.period_mix == ((1, 0.0), (3600000, 1.0))

    def test_missing_nodes_is_named(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("[scenario]\nkpis_per_node = 1\n")
        with pytest.raises(ConfigError, match="'nodes'"):
            load_config(str(path))

    def test_readme_example_loads(self, tmp_path):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        spec, model, sim_cfg = load_config(str(path))
        assert (spec.nodes, spec.kpis_per_node, spec.mode) == (10, 20, DedupMode.PER_KPI_MERGE)
        assert model.p_cpu_static_watts == 28.0
        assert sim_cfg.batching is Batching.PER_NODE_PERIOD

    def test_bad_mode_raises(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nnodes = 1\nkpis_per_node = 1\nmode = magic\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_subscribe_file_must_be_a_valid_request(self, tmp_path):
        path = tmp_path / "subscribe.cfg"
        for body, reason in (
            ("items = KPI0000:10, KPI0000:20\n", "duplicate KPI"),
            ("items = KPI0000:10\nperiod_ms = 10\n", r"'period_ms' in \[subscribe\]"),
        ):
            path.write_text("[subscribe]\nxapp = 3\nnode = 1\n" + body)
            with pytest.raises(ConfigError, match=reason):
                load_subscribe(str(path))

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
