"""Reductions the benchmark applies to raw measurements.

Kept free of I/O so that test_benchstats.py can check them directly.
"""

import math
import statistics


def nearest_rank(samples, p):
    """Value at percentile p (0 < p <= 100) by the nearest-rank rule."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, percentiles=(50, 90, 99), min_beyond=10):
    """The highest percentile that has at least `min_beyond` samples beyond it.

    Returns (p, value, n) for the highest p in `percentiles` whose
    nearest-rank position leaves `min_beyond` or more samples above it,
    or None when not even the lowest one does.
    """
    n = len(samples)
    for p in sorted(percentiles, reverse=True):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= min_beyond:
            return p, nearest_rank(samples, p), n
    return None


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    `spans` is a list of dicts with id, parent, start_us and end_us. Child
    intervals are clipped to the parent's and merged before subtraction,
    so overlapping children are not counted twice. Returns {id: self_us}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        covered = 0.0
        cur_lo = cur_hi = None
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start_us"])
        for c in kids:
            a, b = max(lo, c["start_us"]), min(hi, c["end_us"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def span_summary(spans):
    """Count, total and self time per span path ("parent/child" names)."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def path(s):
        names = [s["name"]]
        while s["parent"] >= 0:
            s = by_id[s["parent"]]
            names.append(s["name"])
        return "/".join(reversed(names))

    rows = {}
    for s in spans:
        row = rows.setdefault(path(s), {"count": 0, "total_us": 0.0,
                                        "self_us": 0.0})
        row["count"] += 1
        row["total_us"] += s["end_us"] - s["start_us"]
        row["self_us"] += selfs[s["id"]]
    return rows


def failure_counts(attempted, failed, correct):
    """(attempted, failed, share): a failed check fails every operation."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    if not correct:
        failed = attempted
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed {failed} outside [0, {attempted}]")
    return attempted, failed, failed / attempted


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread the bounds are held to."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
