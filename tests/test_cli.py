import collections
import errno
import itertools
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from ricmerge import cli, power, scenario, wire
from ricmerge.cli import main
from ricmerge.e2model import KpiDemand
from ricmerge.merge import MergeState
from ricmerge.scenario import ConfigError, SweepAxis

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def checkout_env() -> dict:
    """This process's environment, with ricmerge imported from the checkout."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_in_fresh_interpreter(probe: str) -> str:
    """Run ``probe`` in a new interpreter that imports ricmerge from the
    checkout; return its standard output."""
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=checkout_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_small_scenario_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "run", REPO / "configs" / "small.cfg")
        assert code == 0
        assert out == (GOLDEN / "run_small.csv").read_text()

    def test_json_format_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", REPO / "configs" / "small.cfg", "--format", "json"
        )
        assert code == 0
        assert out == (GOLDEN / "run_small.json").read_text()
        assert json.loads(out)[2]["saved_watts"] == pytest.approx(8.4132)

    def test_mixed_scenario_matches_golden(self, capsys):
        """Mixed periods, a per-xApp tolerance and partial redundancy."""
        code, out, _ = run_cli(capsys, "run", REPO / "configs" / "mixed.cfg")
        assert code == 0
        assert out == (GOLDEN / "run_mixed.csv").read_text()

    def test_medium_scenario_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "run", REPO / "configs" / "medium.cfg")
        assert code == 0
        assert out == (GOLDEN / "run_medium.csv").read_text()

    def test_identical_invocations_identical_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "run", REPO / "configs" / "medium.cfg")
        _, second, _ = run_cli(capsys, "run", REPO / "configs" / "medium.cfg")
        assert first == second

    def test_seed_override_changes_duplicate_placement_not_totals(self, capsys):
        _, base, _ = run_cli(capsys, "run", REPO / "configs" / "small.cfg")
        _, reseeded, _ = run_cli(
            capsys, "run", REPO / "configs" / "small.cfg", "--seed", "99"
        )
        assert base == reseeded  # totals are placement-independent

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "run", REPO / "configs" / "small.cfg", "--out", target
        )
        assert code == 0 and out == ""
        assert target.read_text() == (GOLDEN / "run_small.csv").read_text()

    def test_out_file_that_cannot_be_written_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(
            capsys, "run", REPO / "configs" / "small.cfg", "--out", target
        )
        assert code == 2 and out == ""
        (line,) = error_lines(err)
        assert line.startswith(f"error: cannot write {target}: ")

    def test_large_scenario_max_redundancy_row(self, capsys):
        code, out, _ = run_cli(capsys, "run", REPO / "configs" / "large.cfg")
        assert code == 0
        merged = [l for l in out.strip().split("\n") if ",per_kpi_merge," in l]
        fields = merged[0].split(",")
        assert float(fields[6]) == pytest.approx(1262, abs=1)
        assert float(fields[7]) == pytest.approx(87.84, abs=0.05)

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "/nonexistent/missing.cfg")
        assert code == 2
        assert "cannot read" in err

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nnodes = -3\nkpis_per_node = 1\n")
        code, _, err = run_cli(capsys, "run", bad)
        assert code == 2
        assert err.startswith("error:")

    def test_tolerance_past_u64_runs(self, capsys, tmp_path):
        """Whole-request keys are values, not bytes, so a tolerance that no
        u64 field can hold still lays out."""
        config = tmp_path / "wide.cfg"
        config.write_text(
            "[scenario]\nnodes = 2\nkpis_per_node = 2\nredundancy_fraction = 0.5\n"
            "sensitivity = fixed:18446744073709551616\n"
        )
        code, out, err = run_cli(capsys, "run", config)
        assert code == 0, err
        assert len(out.splitlines()) == 1 + 3  # header, then one row per mode

    @pytest.mark.parametrize(
        "key, value",
        [("watts_per_sample_rate", "nan"), ("ric_static_watts", "inf")],
    )
    def test_power_value_that_is_not_finite_exits_2(self, capsys, tmp_path, key, value):
        config = tmp_path / "power.cfg"
        config.write_text(f"[scenario]\nnodes = 2\nkpis_per_node = 2\n[power]\n{key} = {value}\n")
        code, out, err = run_cli(capsys, "run", config)
        assert code == 2 and out == ""
        assert error_lines(err) == [
            f"error: {config}: invalid config: {key} must be finite: {value}"
        ]

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "x.cfg", "--bogus"])
        assert exc.value.code == 2

    def test_importing_the_cli_leaves_wire_unloaded(self):
        """Only the live roles import ``wire``; ``run`` and ``sweep`` never need it."""
        probe = "import sys, ricmerge.cli; print('ricmerge.wire' in sys.modules)"
        assert run_in_fresh_interpreter(probe) == "False\n"

    def test_no_module_loads_openssl(self):
        """Whole-request dedup keys on the request's value, so neither a
        batch run nor the live roles import ``hashlib`` and its libcrypto."""
        config = str(REPO / "configs" / "small.cfg")
        out = run_in_fresh_interpreter(
            "import sys, ricmerge.cli, ricmerge.wire\n"
            f"code = ricmerge.cli.main(['run', {config!r}])\n"
            "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        )
        assert out.splitlines()[-1] == "0 []"


def count_calls(monkeypatch, hooks) -> collections.Counter:
    """Count the calls to each ``(owner, name)`` attribute in ``hooks``, by name."""
    calls = collections.Counter()
    for owner, name in hooks:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestTraceHooks:
    """The benchmark's traced run rebinds these attributes to time each
    layer; one that stops being called makes its metric read 0."""

    def test_run_calls_every_traced_hook(self, capsys, monkeypatch, plans_built):
        hooks = [
            (scenario, "build"),
            (scenario, "decompose"),
            (scenario, "request_fingerprint"),
            (scenario, "rows_to_csv"),
            (power, "predict"),
            (MergeState, "add_demands"),
        ]
        calls = count_calls(monkeypatch, hooks)
        # The traced run names each sim call's mode by the identity of the
        # layout it gets, so it must be the object the layout returned first.
        # Each mode is laid out, then simulated, before the next one starts.
        layouts, simulated, reports, order = [], [], [], []
        layout, sim = scenario._mode_layout, scenario.sim_run

        def traced_layout(*args):
            result = layout(*args)
            layouts.append(result[0])
            order.append("layout")
            return result

        def traced_sim(classes, *args):
            simulated.append(classes)
            order.append("sim")
            reports.append(sim(classes, *args))
            return reports[-1]

        monkeypatch.setattr(scenario, "_mode_layout", traced_layout)
        monkeypatch.setattr(scenario, "sim_run", traced_sim)
        code, out, _ = run_cli(capsys, "run", REPO / "configs" / "small.cfg")
        assert code == 0
        assert out == (GOLDEN / "run_small.csv").read_text()
        assert [name for _, name in hooks if not calls[name]] == []
        assert calls["add_demands"] == 1
        assert len(plans_built) >= 1
        assert len(layouts) == len(simulated) == 3
        assert all(got is made for got, made in zip(simulated, layouts))
        assert order == ["layout", "sim"] * 3
        # The traced sim hook adds up each report's samples.
        assert all(report.samples_sent > 0 for report in reports)

    def test_churn_calls_every_traced_merge_hook(self, monkeypatch, plans_built):
        """The churn workload times each add and remove and reads plans,
        rates and demands through these ``MergeState`` methods."""
        names = [
            "add_demand", "remove_demand", "plan_for", "plans", "demands", "total_sample_rate"
        ]
        calls = count_calls(monkeypatch, [(MergeState, name) for name in names])
        state = MergeState()
        demands = [KpiDemand(1, 0, "K", 10), KpiDemand(2, 0, "K", 15), KpiDemand(3, 0, "K", 20)]
        # Add all three, then remove the second. The workload sums the
        # len() of each add's and remove's result.
        for demand in demands + demands[1:2]:
            if demand in state.demands():
                changed = state.remove_demand(demand.xapp, demand.node, demand.kpi)
            else:
                changed = state.add_demand(demand)
            assert len(changed) == 1
            state.plan_for(0, "K")
            assert state.total_sample_rate() > 0
        assert state.demands() == demands[::2]
        assert list(state.plans()) == [(0, "K")]
        assert [name for name in names if not calls[name]] == []
        assert plans_built


class TestSweep:
    def test_node_sweep_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", REPO / "configs" / "node_sweep.cfg", "--axis", "nodes"
        )
        assert code == 0
        assert out == (GOLDEN / "sweep_nodes.csv").read_text()
        lines = out.strip().split("\n")
        assert len(lines) == 61  # header + one projection row per node count
        assert lines[-1].split(",")[5] == "54.1308"

    def test_mixed_node_sweep_matches_golden(self, capsys):
        """Nodes drawn from a period mix: 9 distinct contents over 60
        points, so the sweep both measures new nodes and reuses tallies."""
        code, out, _ = run_cli(
            capsys, "sweep", REPO / "configs" / "node_sweep_mixed.cfg", "--axis", "nodes"
        )
        assert code == 0
        assert out == (GOLDEN / "sweep_nodes_mixed.csv").read_text()

    def test_kpi_sweep_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", REPO / "configs" / "kpi_sweep.cfg", "--axis", "kpis"
        )
        assert code == 0
        assert out == (GOLDEN / "sweep_kpis.csv").read_text()
        assert out.strip().split("\n")[-1].split(",")[5] == "49.4568"

    def test_explicit_range(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", REPO / "configs" / "node_sweep.cfg",
            "--axis", "nodes", "--range", "10:12",
        )
        assert code == 0
        values = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
        assert values == ["10", "11", "12"]

    def test_redundancy_sweep_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", REPO / "configs" / "small.cfg", "--axis", "redundancy"
        )
        assert code == 0
        assert out == (GOLDEN / "sweep_redundancy_small.csv").read_text()

    def test_mixed_redundancy_sweep_matches_golden(self, capsys):
        """Period-mix rows, a per-xApp tolerance and, at 0.9, duplicates
        past the one-KPI-per-node cap."""
        code, out, _ = run_cli(
            capsys, "sweep", REPO / "configs" / "mixed.cfg", "--axis", "redundancy"
        )
        assert code == 0
        assert out == (GOLDEN / "sweep_redundancy_mixed.csv").read_text()

    def test_single_kpi_redundancy_sweep_matches_golden(self, capsys):
        """One KPI per node and no tolerance: every duplicate request has the
        content of its baseline, so whole-request dedup shares its streams."""
        code, out, _ = run_cli(
            capsys, "sweep", REPO / "configs" / "single_kpi.cfg", "--axis", "redundancy"
        )
        assert code == 0
        assert out == (GOLDEN / "sweep_redundancy_single_kpi.csv").read_text()
        shared = [l for l in out.splitlines() if l.startswith("0.5,")]
        assert [l.split(",")[2] for l in shared] == ["18", "12", "12"]

    def test_redundancy_sweep_emits_all_modes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", REPO / "configs" / "small.cfg",
            "--axis", "redundancy", "--range", "0:0.2:0.1",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 3 * 3

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", REPO / "configs" / "small.cfg",
            "--axis", "nodes", "--range", "banana",
        )
        assert code == 2 and "range" in err


    def test_range_that_is_not_whole_on_an_integer_axis_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", REPO / "configs" / "node_sweep.cfg",
            "--axis", "nodes", "--range", "1:2:0.5",
        )
        assert code == 2 and out == ""
        assert "whole numbers only: 1.5" in err

    def test_range_that_is_not_finite_exits_2(self, capsys, monkeypatch):
        # An endless range would call round() once per value forever; the
        # cap turns that into a failure instead of a hang.
        calls = itertools.count()

        def bounded_round(value, places):
            assert next(calls) < 1000, "range loop did not stop"
            return round(value, places)

        monkeypatch.setattr(cli, "round", bounded_round, raising=False)
        for text in ("1:inf", "-inf:1", "1:2:inf", "nan:2", "1:nan", "1:2:nan"):
            code, _, err = run_cli(
                capsys,
                "sweep", REPO / "configs" / "small.cfg",
                "--axis", "nodes", f"--range={text}",
            )
            assert code == 2 and "bad range" in err, text

    def test_range_with_too_many_points_exits_2(self, capsys, monkeypatch):
        # A step too small to move the value, or one that makes a billion
        # values, must fail; the round() cap stops a loop that does not.
        calls = itertools.count()

        def bounded_round(value, places):
            assert next(calls) < 30_000, "range loop did not stop"
            return round(value, places)

        monkeypatch.setattr(cli, "round", bounded_round, raising=False)
        for text in ("1:2:1e-20", "1:2:1e-9"):
            code, out, err = run_cli(
                capsys,
                "sweep", REPO / "configs" / "small.cfg",
                "--axis", "redundancy", f"--range={text}",
            )
            assert code == 2 and out == "", text
            assert "more than 10000 points" in err, text

    def test_range_point_bound_is_inclusive(self):
        assert len(cli._parse_range("1:10000", SweepAxis.NODES)) == cli.MAX_RANGE_POINTS
        with pytest.raises(ConfigError, match="more than"):
            cli._parse_range("1:10001", SweepAxis.NODES)


class TestCalibrate:
    def test_fit_from_points_file(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("rate,watts\n0,34.5\n500000,268.2\n")
        code, out, _ = run_cli(capsys, "calibrate", points, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ric_static_watts"] == pytest.approx(34.5)
        assert doc["watts_per_sample_rate"] == pytest.approx(4.674e-4)

    def test_csv_output(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("0,30\n1000,31\n2000,32\n")
        code, out, _ = run_cli(capsys, "calibrate", points)
        assert code == 0
        assert out.startswith("ric_static_watts,watts_per_sample_rate\n30,0.001\n")

    def test_degenerate_points_exit_2(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("10,30\n10,31\n")
        code, _, err = run_cli(capsys, "calibrate", points)
        assert code == 2 and "distinct" in err

    def test_unparsable_line_after_a_point_exits_2(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("rate,watts\n0,34.5\n1O0000,81.2\n500000,268.2\n")
        code, out, err = run_cli(capsys, "calibrate", points)
        assert code == 2 and out == ""
        assert "line 3" in err and "1O0000" in err

    def test_mistyped_first_point_is_not_a_header(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("1O0000,81.2\n0,34.5\n500000,268.2\n")
        code, out, err = run_cli(capsys, "calibrate", points)
        assert code == 2 and out == ""
        assert "line 1" in err and "1O0000" in err

    def test_header_after_comments_is_skipped(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("# bench A\n\nrate,watts\n0,30\n1000,31\n")
        code, out, _ = run_cli(capsys, "calibrate", points)
        assert code == 0
        assert out == "ric_static_watts,watts_per_sample_rate\n30,0.001\n"

    def test_point_that_is_not_finite_exits_2(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("rate,watts\n0,34.5\nnan,268.2\n")
        code, out, err = run_cli(capsys, "calibrate", points)
        assert code == 2 and out == ""
        assert error_lines(err) == [
            "error: line 3: bad point 'nan,268.2': "
            "measurement values must be finite and non-negative"
        ]

    def test_line_without_a_comma_exits_2(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("0,34.5\n500000 268.2\n")
        code, out, err = run_cli(capsys, "calibrate", points)
        assert code == 2 and out == ""
        assert "line 2" in err and "500000 268.2" in err


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


class EmfileListener:
    """Stands in for the broker's listening socket when the process is out
    of file descriptors: every ``accept()`` fails with EMFILE."""

    def accept(self):
        raise OSError(errno.EMFILE, "Too many open files")

    def getsockname(self):
        return ("127.0.0.1", 9)

    def shutdown(self, how):
        pass

    def close(self):
        pass


class TestLiveRoles:
    def test_xapp_prints_its_counters(self, capsys, tmp_path):
        broker = wire.Broker()
        broker.start()
        host, port = broker.address
        node = wire.NodeEmulator(host, port, node_id=3)
        node.start()
        subscribe = tmp_path / "sub.cfg"
        subscribe.write_text("[subscribe]\nxapp = 7\nnode = 3\nitems = K0:20, K1:20\n")
        try:
            code, out, err = run_cli(
                capsys,
                "xapp", "--broker", f"{host}:{port}",
                "--subscribe", subscribe, "--duration", "0.5",
            )
        finally:
            node.stop()
            broker.stop()
        assert code == 0, err
        counters = json.loads(out)
        assert counters["messages"] >= 1
        assert counters["samples"] == 2 * counters["messages"]

    def test_rejected_subscription_exits_1(self, capsys, tmp_path):
        broker = wire.Broker()
        broker.start()
        subscribe = tmp_path / "sub.cfg"
        subscribe.write_text("[subscribe]\nxapp = 7\nnode = 4\nitems = K0:20\n")
        try:
            code, out, err = run_cli(
                capsys,
                "xapp", "--broker", "%s:%d" % broker.address,
                "--subscribe", subscribe, "--duration", "0",
            )
        finally:
            broker.stop()
        assert code == 1 and out == ""
        assert error_lines(err) == ["error: subscription rejected: unknown node"]

    @pytest.mark.parametrize("duration", ["nan", "inf", "-5", "1e300"])
    def test_duration_out_of_range_exits_2(self, capsys, tmp_path, duration):
        """Rejected when parsed: an xApp that tried to connect would exit 1."""
        subscribe = tmp_path / "sub.cfg"
        subscribe.write_text("[subscribe]\nxapp = 7\nnode = 4\nitems = K0:20\n")
        with pytest.raises(SystemExit) as exc:
            main([
                "xapp", "--broker", "127.0.0.1:1", "--subscribe", str(subscribe),
                "--duration", duration,
            ])
        assert exc.value.code == 2
        assert "argument --duration: want seconds in [0, " in capsys.readouterr().err

    def test_xapp_without_a_broker_exits_1(self, capsys, tmp_path):
        subscribe = tmp_path / "sub.cfg"
        subscribe.write_text("[subscribe]\nxapp = 7\nnode = 4\nitems = K0:20\n")
        code, out, err = run_cli(
            capsys, "xapp", "--broker", "127.0.0.1:1", "--subscribe", subscribe
        )
        assert code == 1 and out == ""
        assert len(error_lines(err)) == 1 and "unreachable" in err

    @pytest.mark.parametrize(
        "reply, cause",
        [
            (None, "read failed: timed out"),
            (struct.pack(">IB", 1, 99), "malformed frame: unknown message kind: 99"),
        ],
        ids=["silent", "malformed"],
    )
    def test_node_setup_failure_exits_1(self, capsys, monkeypatch, setup_replier, reply, cause):
        monkeypatch.setattr(wire, "CONNECT_TIMEOUT_S", 0.2)
        replier = setup_replier(reply)
        code, out, err = run_cli(
            capsys, "node", "--broker", "%s:%d" % replier.address, "--node-id", "1"
        )
        assert code == 1 and out == ""
        (line,) = error_lines(err)
        assert cause in line

    @pytest.mark.parametrize(
        "role, flag, address",
        [
            pytest.param("node", "--broker", "localhost", id="node"),
            pytest.param("xapp", "--broker", "localhost", id="xapp"),
            pytest.param("node", "--broker", "127.0.0.1:70000", id="node-port-70000"),
            pytest.param("xapp", "--broker", "127.0.0.1:65536", id="xapp-port-65536"),
            pytest.param("broker", "--listen", "127.0.0.1:99999", id="broker-port-99999"),
        ],
    )
    def test_bad_broker_address_exits_2(self, capsys, tmp_path, role, flag, address):
        extra = {"node": ["--node-id", "1"], "xapp": ["--subscribe", tmp_path / "x.cfg"]}
        code, out, err = run_cli(capsys, role, flag, address, *extra.get(role, []))
        assert code == 2 and out == ""
        assert error_lines(err) == [f"error: bad address (want host:port): {address!r}"]

    def test_broker_reads_a_power_only_config(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "broker.cfg"
        config.write_text("[power]\nric_static_watts = 40\nwatts_per_sample_rate = 1e-3\n")
        models = []

        class EndedBroker:
            """Records its model and reports its accept loop ended at once."""

            accept_error = None

            def __init__(self, host, port, model, stats_interval_s):
                models.append(model)
                self.accept_ended = threading.Event()
                self.accept_ended.set()

            def start(self):
                pass

            def stop(self):
                pass

        monkeypatch.setattr(wire, "Broker", EndedBroker)
        code, _, err = run_cli(capsys, "broker", "--listen", "127.0.0.1:0", "--config", config)
        assert code == 0, err
        assert models == [power.PowerModel(40, 1e-3)]

    def test_broker_on_a_port_in_use_exits_1(self, capsys):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            code, out, err = run_cli(capsys, "broker", "--listen", f"127.0.0.1:{port}")
        assert code == 1 and out == ""
        (line,) = error_lines(err)
        assert "Address already in use" in line and str(port) in line

    def test_broker_that_stops_accepting_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(wire.socket, "create_server", lambda addr: EmfileListener())
        results = []
        role = threading.Thread(
            target=lambda: results.append(run_cli(capsys, "broker", "--listen", "127.0.0.1:0")),
            daemon=True,
        )
        role.start()
        role.join(timeout=10)
        assert not role.is_alive(), "broker kept running after its accept loop ended"
        [(code, out, err)] = results
        assert code == 1 and out == ""
        assert error_lines(err) == [
            "error: broker stopped accepting connections: [Errno 24] Too many open files"
        ]

    def test_broker_process_logs_its_port_and_exits_0_on_sigint(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ricmerge.cli", "broker", "--listen", "127.0.0.1:0"],
            env=checkout_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        watchdog = threading.Timer(20, proc.kill)  # bounds a broker that never logs
        watchdog.start()
        try:
            match = None
            while match is None:
                line = proc.stderr.readline()
                assert line, "broker exited before it was listening"
                match = re.search(rb"broker listening on 127\.0\.0\.1:(\d+)", line)
            socket.create_connection(("127.0.0.1", int(match.group(1))), timeout=5).close()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_node_process_exits_1_when_its_broker_stops(self):
        broker = wire.Broker()
        broker.start()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ricmerge.cli", "node", "--broker", "%s:%d" % broker.address,
             "--node-id", "1"],
            env=checkout_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(20, proc.kill)  # bounds a node that never exits
        watchdog.start()
        try:
            line = ""
            while "node 1 attached to broker" not in line:
                line = proc.stderr.readline()
                assert line, "node exited before it attached"
            broker.stop()
            assert proc.wait(timeout=10) == 1
            (error,) = error_lines(proc.stderr.read())
            assert error.startswith("error: connection to broker ended: ")
        finally:
            watchdog.cancel()
            broker.stop()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_xapp_without_duration_exits_1_when_its_broker_stops(self, capsys, tmp_path):
        broker = wire.Broker()
        broker.start()
        node = wire.NodeEmulator(*broker.address, node_id=3)
        node.start()
        subscribe = tmp_path / "sub.cfg"
        subscribe.write_text("[subscribe]\nxapp = 7\nnode = 3\nitems = K0:20\n")
        results = []
        role = threading.Thread(
            target=lambda: results.append(
                run_cli(capsys, "xapp", "--broker", "%s:%d" % broker.address,
                        "--subscribe", subscribe)
            ),
            daemon=True,
        )
        role.start()
        try:
            deadline = time.monotonic() + 5
            while not node.active_streams() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert node.active_streams() == {("K0", 20)}
        finally:
            broker.stop()
            role.join(timeout=10)
            node.stop()
        assert not role.is_alive(), "xApp kept running after its broker stopped"
        [(code, _, err)] = results
        assert code == 1
        (error,) = error_lines(err)
        assert error.startswith("error: connection to broker ended: ")
