"""One pass of a batch or churn workload, in a fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/worker.py WORKLOAD SEED TRACE MODE

MODE is ``setup`` (import and load inputs, then stop) or ``pass`` (also
do the work once). The last line of stdout is one JSON object: ``ready``
(``time.monotonic()`` when set-up ended, comparable with the parent's
clock), the pass results and, when TRACE is 1, the recorded spans.
"""

import os
import sys
import time

RUN_LARGE_CONFIG = "configs/large.cfg"
SWEEP_NODES_CONFIG = "configs/node_sweep.cfg"

# Churn: a few hot (node, KPI) groups, each subscribed by many xApps with
# mixed periods (many non-divisible pairs) and optional tolerances, so the
# dedup, divisible, tolerance and gcd rules and consolidation all fire.
CHURN_GROUPS = 4
CHURN_XAPPS = 160
CHURN_PAIRS = 200
CHURN_SHRINK = 40
CHURN_PERIODS = (10, 12, 15, 20, 25, 30, 40, 50, 60, 75, 100)

# The host-speed reference: about 6 ms per repetition on a 2-vCPU Xeon.
REFERENCE_LOOP = 100_000
REFERENCE_REPS = 3


def _rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reference_loop_s() -> float:
    """Fastest of ``REFERENCE_REPS`` timings of a fixed pure-Python loop.

    It does the same work on every pass, whatever the program, so a change
    in it between runs is the host's CPU speed, not the program's.
    """
    best = float("inf")
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def _emit(doc: dict) -> None:
    import json

    doc["rss_kb"] = _rss_kb()
    doc["reference_loop_s"] = reference_loop_s()
    sys.stdout.write(json.dumps(doc) + "\n")


# ---------------------------------------------------------------- batch


def _install_batch_hooks(tracer, rows_out: list) -> None:
    """Bind timing wrappers around the layer calls one CLI pass makes."""
    from ricmerge import merge, power, scenario

    plans_mode: dict[int, str] = {}

    def layout(original):
        def traced(mode, *args, **kwargs):
            result = tracer.wrap(f"scenario.layout.{mode.value}", original)(
                mode, *args, **kwargs
            )
            plans_mode[id(result[0])] = mode.value
            return result

        return traced

    def sim(original):
        def traced(plans, *args, **kwargs):
            mode = plans_mode.get(id(plans))
            name = f"sim.run.{mode}" if mode else "sim.run"
            report = tracer.wrap(name, original)(plans, *args, **kwargs)
            tracer.counts["sim.samples"] += report.samples_sent
            return report

        return traced

    def rows(original):
        def traced(rows, *args, **kwargs):
            rows_out.append(len(rows))
            return original(rows, *args, **kwargs)

        return tracer.wrap("scenario.rows_to_csv", traced)

    tracer.rebind(scenario, "load_config", lambda f: tracer.wrap("scenario.load_config", f))
    tracer.rebind(scenario, "compare", lambda f: tracer.wrap("scenario.compare", f))
    tracer.rebind(scenario, "build", lambda f: tracer.wrap("scenario.build", f))
    tracer.rebind(scenario, "decompose", lambda f: tracer.wrap("e2model.decompose", f))
    tracer.rebind(
        scenario, "request_fingerprint", lambda f: tracer.wrap("e2model.request_fingerprint", f)
    )
    tracer.rebind(scenario, "_mode_layout", layout)
    tracer.rebind(scenario, "sim_run", sim)
    tracer.rebind(scenario, "rows_to_csv", rows)
    tracer.rebind(power, "predict", lambda f: tracer.wrap("power.predict", f))
    tracer.rebind(merge.MergeState, "add_demands", lambda f: tracer.wrap("merge.add_demands", f))
    tracer.rebind(
        merge.TransmissionPlan,
        "__post_init__",
        lambda f: tracer.counting("scenario.plans_constructed", f),
    )


def batch_pass(argv: list[str], trace: bool, setup_only: bool) -> None:
    from ricmerge import cli, scenario

    scenario.load_config(argv[1])
    ready = time.monotonic()
    if setup_only:
        _emit({"ready": ready})
        return

    import contextlib
    import io

    main = cli.main
    tracer = None
    rows: list[int] = []
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        _install_batch_hooks(tracer, rows)
        main = tracer.wrap("cli.main", cli.main)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    wall = time.perf_counter() - start
    doc = {"ready": ready, "wall_s": wall, "exit_code": code, "output": out.getvalue()}
    if tracer is not None:
        doc.update(spans=tracer.spans, counts=dict(tracer.counts), rows=sum(rows))
    _emit(doc)


# ---------------------------------------------------------------- churn


def churn_script(seed: int):
    """The churn inputs: grow every group one demand at a time (round
    robin), remove and re-add (with fresh parameters) random members, then
    remove some for good. Returns the ops and the demands that survive."""
    import random

    from ricmerge.e2model import KpiDemand

    rng = random.Random(seed)

    def demand(xapp: int, node: int, kpi: str) -> KpiDemand:
        period = rng.choice(CHURN_PERIODS)
        tolerance = rng.randint(1, period) if rng.random() < 0.5 else None
        return KpiDemand(xapp, node, kpi, period, tolerance)

    groups = [(node, f"KPI{node:04d}") for node in range(CHURN_GROUPS)]
    live: dict[tuple[int, str, int], KpiDemand] = {}
    ops = []
    for xapp in range(CHURN_XAPPS):
        for node, kpi in groups:
            d = demand(xapp, node, kpi)
            live[(node, kpi, xapp)] = d
            ops.append(("add", d))
    for _ in range(CHURN_PAIRS):
        node, kpi = rng.choice(groups)
        xapp = rng.randrange(CHURN_XAPPS)
        ops.append(("remove", live[(node, kpi, xapp)]))
        d = demand(xapp, node, kpi)
        live[(node, kpi, xapp)] = d
        ops.append(("add", d))
    for key in rng.sample(sorted(live), CHURN_SHRINK):
        ops.append(("remove", live.pop(key)))
    return ops, list(live.values())


def _plans_doc(plans) -> list:
    """Plans as sorted JSON-able rows: node, kpi, periods, fan-out."""
    return sorted(
        [node, kpi, [s.period_ms for s in plan.streams], sorted(plan.fanout.items())]
        for (node, kpi), plan in plans.items()
    )


def _demands_doc(demands) -> list:
    return sorted([d.node, d.kpi, d.xapp, d.period_ms, d.sensitivity_ms] for d in demands)


def churn_run(ops, survivors) -> dict:
    """Apply the ops one at a time, timing each add and remove, with plan
    and rate reads after each; then rebuild the survivors in bulk."""
    from ricmerge.merge import MergeState

    clock = time.perf_counter
    state = MergeState()
    add_s: list[float] = []
    remove_s: list[float] = []
    changes = 0
    errors: list[str] = []
    start = clock()
    for kind, d in ops:
        try:
            if kind == "add":
                t0 = clock()
                changed = state.add_demand(d)
                add_s.append(clock() - t0)
            else:
                t0 = clock()
                changed = state.remove_demand(d.xapp, d.node, d.kpi)
                remove_s.append(clock() - t0)
        except Exception as exc:  # every failed op is counted, then the pass goes on
            errors.append(f"{kind} {d}: {exc!r}")
            continue
        changes += len(changed)
        state.plan_for(d.node, d.kpi)
        state.total_sample_rate()
    wall = clock() - start

    bulk = MergeState()
    bulk.add_demands(survivors)
    return {
        "wall_s": wall,
        "add_s": add_s,
        "remove_s": remove_s,
        "changes": changes,
        "errors": errors,
        "final_plans": _plans_doc(state.plans()),
        "bulk_plans": _plans_doc(bulk.plans()),
        "final_demands": _demands_doc(state.demands()),
        "expected_demands": _demands_doc(survivors),
    }


def churn_pass(seed: int, trace: bool, setup_only: bool) -> None:
    from ricmerge import merge

    ops, survivors = churn_script(seed)
    ready = time.monotonic()
    if setup_only:
        _emit({"ready": ready})
        return

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        for attr in ("add_demand", "add_demands", "remove_demand", "plan_for", "total_sample_rate"):
            tracer.rebind(
                merge.MergeState, attr, lambda f, a=attr: tracer.wrap(f"merge.{a}", f)
            )
        tracer.rebind(
            merge.TransmissionPlan,
            "__post_init__",
            lambda f: tracer.counting("scenario.plans_constructed", f),
        )
    doc = churn_run(ops, survivors)
    doc["ready"] = ready
    if tracer is not None:
        doc.update(spans=tracer.spans, counts=dict(tracer.counts))
    _emit(doc)


def main(argv: list[str]) -> None:
    workload, seed, trace, setup_only = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "setup"
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if workload == "run-large":
        batch_pass(["run", RUN_LARGE_CONFIG, f"--seed={seed}"], trace, setup_only)
    elif workload == "sweep-nodes":
        batch_pass(
            ["sweep", SWEEP_NODES_CONFIG, "--axis", "nodes", f"--seed={seed}"], trace, setup_only
        )
    elif workload == "churn":
        churn_pass(seed, trace, setup_only)
    else:
        sys.exit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
