"""Helpers that several test modules share: the brute-force staleness
reference the closed forms are checked against, a mode lookup over
``compare``'s rows, the merge engine's groups and the stream edit between
two plans, and a random add/remove corpus for one engine."""

import math

from ricmerge.e2model import KpiDemand


def staleness_oracle(sample_period_ms: int, consume_period_ms: int) -> int:
    """Brute-force worst-case sample age over one hyperperiod.

    Walks every consumer tick in [0, lcm) and takes the maximum distance
    to the newest sample emitted at or before it, both grids aligned at
    t = 0. Serves as the independent check for the closed-form bound.
    """
    hyper = math.lcm(sample_period_ms, consume_period_ms)
    worst = 0
    for tick in range(0, hyper, consume_period_ms):
        newest_sample = (tick // sample_period_ms) * sample_period_ms
        worst = max(worst, tick - newest_sample)
    return worst


def rows_by_mode(rows):
    """``compare``'s rows keyed by their dedup mode."""
    return {row.mode: row for row in rows}


def groups(state):
    """Every group of a ``MergeState`` as ``{(node, KPI): (fold, xApps)}``,
    read from ``classes()``."""
    return {
        (node, kpi): (cls.fold, xapps) for cls in state.classes() for node, kpi, xapps in cls.groups
    }


def plan_diff(old, new):
    """The stream edit between two plans of one (node, KPI) group, None for
    no plan, read from their streams: the streams that vanished and those
    that appeared, each in plan order. A stream kept at its period is no
    edit, even if the xApps it feeds changed."""
    before = old.streams if old else ()
    after = new.streams if new else ()
    return [s for s in before if s not in after], [s for s in after if s not in before]


def churn_ops(rng):
    """A random add/remove sequence over two (node, KPI) groups. Half the
    sequences draw periods from 1-12 ms, where gcd merges are common."""
    top = rng.choice([12, 100])
    ops, active = [], {}
    for _ in range(rng.randint(1, 24)):
        if active and rng.random() < 0.3:
            ops.append(("remove", active.pop(rng.choice(sorted(active)))))
            continue
        kpi = rng.choice("ab")
        xapp = rng.choice([x for x in range(24) if (x, kpi) not in active])
        sens = rng.choice([None, None, rng.randint(1, 30)])
        active[xapp, kpi] = KpiDemand(xapp, 0, kpi, rng.randint(1, top), sens)
        ops.append(("add", active[xapp, kpi]))
    return ops
