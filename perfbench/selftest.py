"""Self-tests of the benchmark.

Every output check must reject a corrupted output, a short run of every
workload must emit every metric named in BENCHMARK.json with its unit,
and outside a checkout the benchmark must fail without a result.

Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: the smoke runs start brokers and worker interpreters and
take under a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _bench(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_metric_tables_match_benchmark_json():
    spec = json.loads(_read(os.path.join(ROOT, "BENCHMARK.json")))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# The per-layer metrics each workload exercises; each must read above 0 in
# a traced run, so a hook that stops firing cannot pass as a speed-up.
_BATCH_LAYERS = (
    "self_s.cli",
    "self_s.scenario",
    "self_s.e2model",
    "self_s.merge",
    "self_s.sim",
    "self_s.power",
    *(f"scenario.layout_s.{mode}" for mode in run.MODES),
    "scenario.plans_constructed",
    "e2model.fingerprint_calls",
    "merge.add_demands_s",
    *(f"sim.run_s.{mode}" for mode in run.MODES),
    "sim.samples_per_s",
    "scenario.rows_per_mode_result",
    "power.predict_calls",
)
LAYERS_RUN = {
    "run-large": (*_BATCH_LAYERS, "scenario.build_s", "e2model.decompose_s"),
    "sweep-nodes": _BATCH_LAYERS,
    "churn": (
        "self_s.merge",
        "scenario.plans_constructed",
        "merge.add_demands_s",
        "merge.add_ms_p50",
        "merge.add_ms_p99",
        "merge.remove_ms_p50",
        "merge.remove_ms_p99",
        "merge.changes_per_op",
        "merge.streams_final",
    ),
    "live": (
        "self_s.wire",
        "wire.encode_us",
        "wire.decode_us",
        "broker.subscribe_ms.first_decile",
        "broker.subscribe_ms.last_decile",
        "broker.cpu_s",
        "live.subscribe_p50_ms",
        "live.indication_p99_ms",
        "live.frames_per_recv",
        "live.gen_late_ms",
    ),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == table
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    required = LAYERS_RUN[workload] if trace else table
    assert {name: result["metrics"][name]["value"] > 0 for name in required} == dict.fromkeys(
        required, True
    )


def test_a_missing_trace_hook_fails_the_run():
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="trace hook not found"):
        tracer.rebind(worker, "no_such_hook", lambda f: f)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_fails_without_a_result_outside_a_checkout(tmp_path, workload):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "1"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------------ checks

RUN_LARGE = _read(run.EXPECTED_RUN_LARGE)
SWEEP_NODES = _read(os.path.join(ROOT, run.GOLDEN_SWEEP_NODES))


def test_run_large_check_accepts_the_expected_csv():
    assert checks.check_run_large(RUN_LARGE, RUN_LARGE) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace("30000,", "30001,"),
        lambda text: text.replace("1261.9800", "1261.9801"),
        lambda text: text[:-1],
        lambda text: "\n".join(text.splitlines()[:-1]) + "\n",
    ],
)
def test_run_large_check_rejects_a_corrupted_csv(corrupt):
    assert checks.check_run_large(corrupt(RUN_LARGE), RUN_LARGE)


def test_rate_order_check_rejects_inverted_rates():
    header = RUN_LARGE.splitlines()[0]
    inverted = "\n".join(
        [
            header,
            "0.9,no_dedup,10,100.000,0,0,0,0",
            "0.9,whole_request,10,100.000,0,0,0,0",
            "0.9,per_kpi_merge,20,200.000,0,0,0,0",
        ]
    )
    assert checks.check_rate_order(inverted)
    assert checks.check_rate_order(RUN_LARGE) == []


def test_sweep_nodes_check_compares_bytes():
    assert checks.check_sweep_nodes(SWEEP_NODES, SWEEP_NODES) == []
    assert checks.check_sweep_nodes(SWEEP_NODES.replace("\n", "\r\n"), SWEEP_NODES)
    lines = SWEEP_NODES.splitlines(keepends=True)
    assert checks.check_sweep_nodes("".join(lines[:-1]), SWEEP_NODES)
    swapped = lines[:5] + [lines[6], lines[5]] + lines[7:]
    assert checks.check_sweep_nodes("".join(swapped), SWEEP_NODES)


@pytest.fixture(scope="module")
def churn_doc():
    ops, survivors = worker.churn_script(5)
    return worker.churn_run(ops, survivors)


def test_churn_check_accepts_the_program_output(churn_doc):
    assert checks.check_churn(churn_doc) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc["final_plans"][0][2].append(7),
        lambda doc: doc["final_plans"][0][3].pop(),
        lambda doc: doc["final_plans"].pop(),
        lambda doc: doc["final_demands"].pop(),
        lambda doc: doc["errors"].append("add failed"),
    ],
)
def test_churn_check_rejects_corrupted_plans(churn_doc, corrupt):
    doc = json.loads(json.dumps(churn_doc))
    corrupt(doc)
    assert checks.check_churn(doc)


def _live_case():
    sent = [(1, 10, (("KPI0001", i), ("KPI0002", i))) for i in range(4)]
    delivered = {i: [frame] for i, frame in enumerate(sent)}
    streams = {("KPI0001", 10), ("KPI0002", 10)}
    return [True, True], set(streams), streams, sent, delivered


def test_live_check_accepts_a_complete_delivery():
    assert checks.check_live(*_live_case()) == {}


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r, n, e, s, d: r.__setitem__(0, False),
        lambda r, n, e, s, d: r.pop(),
        lambda r, n, e, s, d: n.discard(("KPI0001", 10)),
        lambda r, n, e, s, d: n.add(("KPI0003", 10)),
        lambda r, n, e, s, d: d.pop(2),
        lambda r, n, e, s, d: d[1].append(s[1]),
        lambda r, n, e, s, d: d.__setitem__(3, [(1, 10, s[3][2][:1])]),
        lambda r, n, e, s, d: d.__setitem__(3, [(1, 20, s[3][2])]),
        lambda r, n, e, s, d: d.__setitem__(9, [s[0]]),
    ],
)
def test_live_check_rejects_lost_or_wrong_deliveries(corrupt):
    case = _live_case()
    corrupt(*case)
    assert checks.check_live(*case)


def test_self_times_subtract_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["scenario.compare", 1.0, 9.0, 0],
        ["sim.run", 2.0, 5.0, 1],
    ]
    assert tracing.self_times(spans) == {"cli": 2.0, "scenario": 5.0, "sim": 3.0}
