"""The ricmerge benchmark: one workload per run, every metric by name and unit.

Usage, from the root of a ricmerge checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: run-large, sweep-nodes, churn, live (see perfbench/README.md).
The run measures for about S seconds and checks every output. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced passes and reports the per-layer metrics.
The first stdout line records the environment; the last is the result:
``{"correct", "attempted", "failed", "metrics"}``. The same record, with
raw per-pass values and the spans of traced passes, is written to
``perfbench/out/``. Exits 2, printing no result, outside a checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_RUN_LARGE = os.path.join(HERE, "expected", "run_large.csv")
GOLDEN_SWEEP_NODES = os.path.join("tests", "golden", "sweep_nodes.csv")

WORKLOADS = ("run-large", "sweep-nodes", "churn", "live")
# Files of the program each workload needs in the checkout.
REQUIRED = {
    "run-large": ("src/ricmerge/cli.py", "configs/large.cfg"),
    "sweep-nodes": ("src/ricmerge/cli.py", "configs/node_sweep.cfg", GOLDEN_SWEEP_NODES),
    "churn": ("src/ricmerge/merge.py",),
    "live": ("src/ricmerge/cli.py", "src/ricmerge/wire.py"),
}
# A seed no tuning run used, kept for validating later claims.
HELDOUT_SEED = 104729
# Fresh set-ups per run on top of the one each pass makes.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0
MODES = ("no_dedup", "whole_request", "per_kpi_merge")
LAYERS = ("cli", "scenario", "e2model", "merge", "sim", "power", "wire")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
PER_LAYER = {
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace_overhead_s": "s",
    "scenario.build_s": "s",
    "e2model.decompose_s": "s",
    **{f"scenario.layout_s.{mode}": "s" for mode in MODES},
    "scenario.plans_constructed": "count",
    "e2model.fingerprint_calls": "count",
    "merge.add_demands_s": "s",
    **{f"sim.run_s.{mode}": "s" for mode in MODES},
    "sim.samples_per_s": "1/s",
    "scenario.rows_per_mode_result": "ratio",
    "power.predict_calls": "count",
    "merge.add_ms_p50": "ms",
    "merge.add_ms_p99": "ms",
    "merge.remove_ms_p50": "ms",
    "merge.remove_ms_p99": "ms",
    "merge.changes_per_op": "count",
    "merge.streams_final": "count",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "broker.subscribe_ms.first_decile": "ms",
    "broker.subscribe_ms.last_decile": "ms",
    "broker.cpu_s": "s",
    "live.subscribe_p50_ms": "ms",
    "live.indication_p99_ms": "ms",
    "live.frames_per_recv": "ratio",
    "live.gen_late_ms": "ms",
}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p99(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[98]


# ------------------------------------------------------------ environment


def _git_revision(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: str) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: str, args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(root),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "cpu_model": _cpu_model(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------- passes


def _spawn_worker(root: str, workload: str, seed: int, traced: bool, setup_only: bool) -> dict:
    """Run one worker interpreter; adds set-up and whole-command seconds,
    both measured from just before the process was started."""
    argv = [sys.executable, WORKER, workload, str(seed), "1" if traced else "0"]
    argv.append("setup" if setup_only else "pass")
    begin = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {CHILD_TIMEOUT_S} s"}
    end = time.monotonic()
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit code {proc.returncode}")
        doc = json.loads(lines[-1])
    except ValueError as exc:
        return {"error": f"worker failed ({exc}): {proc.stderr[-2000:]}"}
    doc["setup_s"] = doc["ready"] - begin
    doc["command_s"] = end - begin
    doc["traced"] = traced
    return doc


def _measure(seconds: float, trace: bool, setup, one_pass) -> tuple[list, list]:
    """Set-up probes, then passes until ``seconds`` have gone by.

    In a traced run passes alternate traced and untraced, at least one of
    each, so that the tracing overhead can be taken from the same run.
    """
    deadline = time.monotonic() + seconds
    probes = [setup() for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    last = 0.0
    # Start no pass expected to end more than half a pass past the deadline.
    while len(passes) < (2 if trace else 1) or time.monotonic() + last / 2 < deadline:
        begin = time.monotonic()
        passes.append(one_pass(trace and len(passes) % 2 == 0))
        last = time.monotonic() - begin
    return probes, passes


def _worker_passes(root: str, workload: str, seed: int, seconds: float, trace: bool):
    return _measure(
        seconds,
        trace,
        lambda: _spawn_worker(root, workload, seed, False, True),
        lambda traced: _spawn_worker(root, workload, seed, traced, False),
    )


def _overhead(passes: list[dict]) -> float:
    traced = [p["wall_s"] for p in passes if p.get("traced") and "wall_s" in p]
    plain = [p["wall_s"] for p in passes if not p.get("traced") and "wall_s" in p]
    return median(traced) - median(plain) if traced and plain else 0.0


def _setup_metric(probes: list, passes: list[dict], problems: list[str]) -> dict:
    """Median set-up seconds over every probe and pass; records the
    errors of failed ones in ``problems``."""
    setups = []
    for doc in probes + passes:
        if "error" in doc:
            problems.append(doc["error"])
        elif "setup_s" in doc:
            setups.append(doc["setup_s"])
    return {"setup_s": median(setups)}


def run_batch(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "run-large":
        with open(EXPECTED_RUN_LARGE, encoding="utf-8") as handle:
            expected = handle.read()
        check = checks.check_run_large
    else:
        with open(os.path.join(root, GOLDEN_SWEEP_NODES), encoding="utf-8") as handle:
            expected = handle.read()
        check = checks.check_sweep_nodes
    probes, passes = _worker_passes(root, workload, seed, seconds, trace)
    problems: list[str] = []
    e2e = _setup_metric(probes, passes, problems)
    good = []
    for doc in passes:
        if "error" in doc:
            continue
        found = check(doc["output"], expected)
        if doc["exit_code"] != 0:
            found.append(f"cli exit code {doc['exit_code']}")
        problems.extend(found)
        if not found:
            good.append(doc)
    failed = len(passes) - len(good)
    e2e.update(
        wall_s=median(p["wall_s"] for p in good),
        op_p50_ms=median(p["command_s"] * 1000.0 for p in good),
        peak_rss_mb=median(p["rss_kb"] / 1024.0 for p in good),
        ok_share=1.0 - failed / len(passes),
    )
    traced = [p for p in good if p["traced"]]
    layers = _median_layers([_batch_layers(p) for p in traced])
    layers["trace_overhead_s"] = _overhead(good)
    return _record(len(passes), failed, problems, e2e, layers, probes, passes)


def _batch_layers(doc: dict) -> dict:
    spans, counts = doc["spans"], doc["counts"]
    seconds = tracing.durations(spans)
    calls = tracing.span_counts(spans)
    sim_spans = [name for name in calls if name.startswith("sim.run")]
    sim_s = sum(seconds[name] for name in sim_spans)
    mode_results = sum(calls[name] for name in sim_spans)
    values = {
        "scenario.build_s": seconds.get("scenario.build", 0.0),
        "e2model.decompose_s": seconds.get("e2model.decompose", 0.0),
        "scenario.plans_constructed": counts.get("scenario.plans_constructed", 0),
        "e2model.fingerprint_calls": calls["e2model.request_fingerprint"],
        "merge.add_demands_s": seconds.get("merge.add_demands", 0.0),
        "sim.samples_per_s": counts.get("sim.samples", 0) / sim_s if sim_s else 0.0,
        "scenario.rows_per_mode_result": doc["rows"] / mode_results if mode_results else 0.0,
        "power.predict_calls": calls["power.predict"],
    }
    for mode in MODES:
        values[f"scenario.layout_s.{mode}"] = seconds.get(f"scenario.layout.{mode}", 0.0)
        values[f"sim.run_s.{mode}"] = seconds.get(f"sim.run.{mode}", 0.0)
    values.update(_self_layers(spans))
    return values


def _self_layers(spans: list) -> dict:
    return {f"self_s.{layer}": s for layer, s in tracing.self_times(spans).items()}


def _median_layers(per_pass: list[dict]) -> dict:
    names = {name for values in per_pass for name in values}
    return {name: median(v.get(name, 0.0) for v in per_pass) for name in names}


def run_churn(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    probes, passes = _worker_passes(root, workload, seed, seconds, trace)
    problems: list[str] = []
    e2e = _setup_metric(probes, passes, problems)
    attempted = failed = 0
    good = []
    for doc in passes:
        if "error" in doc:
            attempted += 1
            failed += 1
            continue
        ops = len(doc["add_s"]) + len(doc["remove_s"]) + len(doc["errors"])
        found = checks.check_churn(doc)
        problems.extend(found)
        attempted += ops
        failed += min(ops, len(found))
        if not found:
            good.append(doc)
    e2e.update(
        wall_s=median(p["wall_s"] for p in good),
        op_p50_ms=median(s * 1000.0 for p in good for s in p["add_s"] + p["remove_s"]),
        peak_rss_mb=median(p["rss_kb"] / 1024.0 for p in good),
        ok_share=1.0 - failed / attempted,
    )
    layers: dict = {}
    traced = [p for p in good if p["traced"]]
    if traced:
        adds = [s * 1000.0 for p in traced for s in p["add_s"]]
        removes = [s * 1000.0 for p in traced for s in p["remove_s"]]
        layers = _median_layers(
            [
                {
                    "merge.add_demands_s": tracing.durations(p["spans"]).get(
                        "merge.add_demands", 0.0
                    ),
                    "scenario.plans_constructed": p["counts"].get("scenario.plans_constructed", 0),
                    "merge.changes_per_op": p["changes"] / (len(p["add_s"]) + len(p["remove_s"])),
                    "merge.streams_final": sum(len(row[2]) for row in p["final_plans"]),
                    **_self_layers(p["spans"]),
                }
                for p in traced
            ]
        )
        layers.update(
            {
                "merge.add_ms_p50": median(adds),
                "merge.add_ms_p99": p99(adds),
                "merge.remove_ms_p50": median(removes),
                "merge.remove_ms_p99": p99(removes),
            }
        )
    layers["trace_overhead_s"] = _overhead(good)
    return _record(attempted, failed, problems, e2e, layers, probes, passes)


def run_live(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import live

    def setup() -> dict:
        try:
            return {"setup_s": live.setup_probe(root)}
        except (OSError, ValueError) as exc:
            return {"error": f"live set-up failed: {exc!r}"}

    def one_pass(traced: bool) -> dict:
        tracer = tracing.Tracer() if traced else None
        try:
            doc = live.run_pass(root, seed, tracer)
        except (OSError, ValueError) as exc:
            return {"error": f"live pass failed: {exc!r}"}
        doc["traced"] = traced
        doc["reference_loop_s"] = worker.reference_loop_s()
        if tracer is not None:
            doc["spans"] = tracer.spans
        return doc

    probes, passes = _measure(seconds, trace, setup, one_pass)
    problems: list[str] = []
    e2e = _setup_metric(probes, passes, problems)
    attempted = failed = 0
    good = []
    for doc in passes:
        if "error" in doc:
            attempted += 1
            failed += 1
            continue
        found = checks.check_live(
            doc["replies"],
            set(doc["node_streams"]),
            set(doc["expected_streams"]),
            doc["sent"],
            doc["delivered"],
        )
        problems.extend(f"{count} {kind}" for kind, count in found.items())
        ops = len(doc["expected_streams"]) + len(doc["sent"])
        attempted += ops
        failed += min(ops, sum(found.values()))
        # The delivery maps are only needed for the check.
        del doc["sent"], doc["delivered"]
        if not found:
            good.append(doc)
    e2e.update(
        wall_s=median(p["wall_s"] for p in good),
        op_p50_ms=median(ms for p in good for ms in p["latency_ms"]),
        peak_rss_mb=median(p["rss_kb"] / 1024.0 for p in good),
        ok_share=1.0 - failed / attempted,
    )
    layers: dict = {}
    traced = [p for p in good if p["traced"]]
    if traced:
        layers = _median_layers([_live_layers(p) for p in traced])
        layers.update(
            {
                "live.indication_p99_ms": p99(ms for p in traced for ms in p["latency_ms"]),
                "live.gen_late_ms": p99(ms for p in traced for ms in p["late_ms"]),
                "live.subscribe_p50_ms": median(ms for p in traced for ms in p["subscribe_ms"]),
            }
        )
    layers["trace_overhead_s"] = _overhead(good)
    for doc in passes:
        for key in ("latency_ms", "late_ms", "subscribe_ms", "replies"):
            doc.pop(key, None)
    return _record(attempted, failed, problems, e2e, layers, probes, passes)


def _live_layers(doc: dict) -> dict:
    spans = doc["spans"]
    encode = [end - start for name, start, end, _ in spans if name == "wire.encode"]
    decode = [end - start for name, start, end, _ in spans if name == "wire.decode"]
    subscribe = doc["subscribe_ms"]
    tenth = max(1, len(subscribe) // 10)
    return {
        "wire.encode_us": median(encode) * 1e6,
        "wire.decode_us": median(decode) * 1e6,
        "broker.subscribe_ms.first_decile": median(subscribe[:tenth]),
        "broker.subscribe_ms.last_decile": median(subscribe[-tenth:]),
        "broker.cpu_s": doc["broker_cpu_s"],
        "live.frames_per_recv": doc["frames_per_recv"],
        **_self_layers(spans),
    }


def _record(attempted, failed, problems, e2e, layers, probes, passes) -> dict:
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "per_layer": {name: layers.get(name, 0) for name in PER_LAYER},
        "probes": probes,
        "passes": passes,
    }


RUNNERS = {"run-large": run_batch, "sweep-nodes": run_batch, "churn": run_churn, "live": run_live}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    missing = [p for p in REQUIRED[args.workload] if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: not a ricmerge checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    env = environment(root, args)
    print(json.dumps({"env": env}), flush=True)

    record = RUNNERS[args.workload](root, args.workload, args.seed, args.seconds, bool(args.trace))
    record["env"] = env
    for problem in record["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not record["problems"] and record["failed"] == 0
    table = PER_LAYER if args.trace else END_TO_END
    values = record["per_layer"] if args.trace else record["end_to_end"]
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump({**record, "result": result}, handle)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
