"""Pure helpers of the benchmark: order statistics, span accounting,
rusage aggregation over process trees, metric-name validation and result
digests. Unit-tested by test_measure.py."""

import hashlib
import json
import os
import re
import statistics

# A metric name starts with a letter or digit and has at most 64 letters,
# digits, '_', '.' and '-'.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4)
    gives them (the default 'exclusive' method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. Children may overlap (parallel tasks), so
    the covered part is the union of their intervals, clipped to the
    parent. `spans` is a list of dicts with 'start', 'end' and 'parent'
    (an index into the list, or None)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(i, [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out.append((s["end"] - s["start"]) - union_length(clipped))
    return out


def top_level_coverage(spans, wall_s):
    """Share of the timed interval [0, wall_s] covered by the spans that
    have no parent (clean-up after the result, such as a shutdown, falls
    outside it)."""
    top = [(max(s["start"], 0.0), min(s["end"], wall_s))
           for s in spans if s["parent"] is None and s["start"] < wall_s]
    return union_length(top) / wall_s


def tree_usage(usage):
    """CPU time and peak resident set of a process tree, from what os.wait4
    returned for its root: that already covers every descendant the root
    waited for, CPU summed and ru_maxrss (KiB) the largest single
    process's."""
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def ticks_to_s(ticks):
    return ticks / os.sysconf("SC_CLK_TCK")


def digest(value):
    """Short content digest of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
