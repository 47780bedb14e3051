"""Output checks. Each returns a list of problems; empty means correct.

The checks take plain data (CSV text, JSON-able plan rows, delivery
maps), so the self-tests can hand them corrupted outputs.
"""

from __future__ import annotations

import csv
import io

MODES = ("no_dedup", "whole_request", "per_kpi_merge")


def check_exact(output: str, expected: str, label: str) -> list[str]:
    if output == expected:
        return []
    got, want = output.splitlines(), expected.splitlines()
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{label}: line {index + 1} differs: {a!r} != {b!r}"]
    return [f"{label}: {len(got)} lines, expected {len(want)}"]


def check_rate_order(output: str) -> list[str]:
    """Per sweep value: per_kpi_merge <= whole_request <= no_dedup rates."""
    rates: dict[str, dict[str, float]] = {}
    try:
        for row in csv.DictReader(io.StringIO(output)):
            rates.setdefault(row["sweep_value"], {})[row["mode"]] = float(row["sample_rate"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unparsable comparison CSV: {exc!r}"]
    problems = []
    for value, by_mode in rates.items():
        if set(by_mode) != set(MODES):
            problems.append(f"sweep value {value}: modes {sorted(by_mode)}")
            continue
        if not by_mode["per_kpi_merge"] <= by_mode["whole_request"] <= by_mode["no_dedup"]:
            problems.append(f"sweep value {value}: rates out of order {by_mode}")
    if not rates:
        problems.append("comparison CSV has no rows")
    return problems


def check_run_large(output: str, expected: str) -> list[str]:
    return check_exact(output, expected, "run-large CSV") + check_rate_order(output)


def check_sweep_nodes(output: str, golden: str) -> list[str]:
    return check_exact(output, golden, "sweep-nodes CSV")


def check_churn(pass_doc: dict) -> list[str]:
    """Plans after churn equal one bulk insert of the surviving demands,
    and the engine holds exactly those demands."""
    problems = list(pass_doc["errors"])
    if pass_doc["final_demands"] != pass_doc["expected_demands"]:
        problems.append("engine demands differ from the surviving demands")
    final = {(row[0], row[1]): row for row in pass_doc["final_plans"]}
    bulk = {(row[0], row[1]): row for row in pass_doc["bulk_plans"]}
    for key in sorted(set(final) | set(bulk)):
        if final.get(key) != bulk.get(key):
            problems.append(f"plan for {key} differs from bulk rebuild")
    return problems


def check_live(
    replies: list[bool],
    node_streams: set,
    expected_streams: set,
    sent: list,
    delivered: dict,
) -> dict[str, int]:
    """Failed operations by kind; empty means correct.

    Every subscribe must be accepted and pushed to the node, and every
    indication delivered exactly once, as sent. ``replies`` holds one
    accepted flag per subscribe answered; ``sent[i]`` is frame i as
    ``(node, period_ms, samples)``; ``delivered[i]`` lists each copy of
    frame i the xApp received.
    """
    failures = {
        "subscribes rejected or unanswered": replies.count(False)
        + len(expected_streams)
        - len(replies),
        "subscribed streams missing at the node": len(expected_streams - node_streams),
        "unexpected streams pushed to the node": len(node_streams - expected_streams),
        "indications not delivered exactly once as sent": sum(
            1 for i, frame in enumerate(sent) if delivered.get(i) != [frame]
        ),
        "deliveries of frames never sent": sum(
            1 for i in delivered if not 0 <= i < len(sent)
        ),
    }
    return {kind: count for kind, count in failures.items() if count}
