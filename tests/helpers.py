"""Helpers that several test modules share: the brute-force staleness
reference the closed forms are checked against, and a mode lookup over
``compare``'s rows."""

import math


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
