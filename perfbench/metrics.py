"""Pure helpers of the ACIC end-to-end benchmark.

run.py reduces the harness samples with these; test_perfbench.py covers
them.  Nothing here runs the program.
"""
import bisect
import math
import re
import statistics

# A metric name starts with a letter or digit and is made of at most 64
# letters, digits, '_', '.' and '-'; a unit of at most 16 letters, digits,
# '_', '/', '%', '.' and '-'.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TAIL_BEYOND = 10   # samples that must lie beyond the reported tail value
TAIL_CAP = 0.99    # never report a percentile above p99


def valid_metric_name(name):
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def tail_index(n):
    """0-based rank of the tail value among n sorted samples.

    The highest percentile, capped at p99, that leaves at least
    TAIL_BEYOND samples beyond it: p99 for n >= 1000, p90 for n = 100.
    With n <= TAIL_BEYOND no percentile qualifies, and the maximum is used.
    """
    if n <= 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return n - 1
    return min(n - 1 - TAIL_BEYOND, math.ceil(TAIL_CAP * n) - 1)


def summarize(samples):
    """Median, tail value (see tail_index), its quantile and the count.

    Computed from the raw samples, never from histogram buckets.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "q": 0.0, "n": 0}
    i = tail_index(n)
    return {"p50": statistics.median(xs), "tail": xs[i], "q": (i + 1) / n,
            "n": n}


def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip(intervals, start, end):
    return [(max(s, start), min(e, end)) for s, e in intervals
            if min(e, end) > max(s, start)]


def self_time(span, children):
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (they run on several threads); the
    covered part is counted once.
    """
    start, end = span
    return (end - start) - union_length(clip(children, start, end))


def layer_self_times(root, layers):
    """Wall-clock self time of each layer inside the root interval.

    `layers` is a list of (name, intervals), innermost layer first.  Each
    instant of the root goes to the innermost layer active at it: a
    layer's self time is the root's self time with the layers inside it
    as children, minus the same with the layer itself added.  The results
    plus the "unattributed" remainder add up to the root.
    """
    out = {}
    inner = []
    left = root[1] - root[0]
    for name, intervals in layers:
        inner = inner + intervals
        now = self_time(root, inner)
        out[name] = left - now
        left = now
    out["unattributed"] = left
    return out


def per_thread_gaps(runs):
    """Idle intervals between consecutive runs on the same thread.

    `runs` holds (thread, start, end).  A worker's gap between two
    simulations is time spent in the executor and its caller's per-run
    bookkeeping; the wait before a thread's first run is not a gap.
    """
    by_thread = {}
    for tid, start, end in runs:
        by_thread.setdefault(tid, []).append((start, end))
    gaps = []
    for spans in by_thread.values():
        spans.sort()
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            if next_start > prev_end:
                gaps.append((prev_end, next_start))
    return gaps


def covered_within(intervals, holes):
    """Total length of `holes` that lies inside `intervals` (disjoint)."""
    return sum(union_length(clip(holes, start, end))
               for start, end in intervals)


def speed_warp(origin, probes, ref, half_window=2):
    """A map of timestamps onto the reference speed.

    `probes` holds (start, duration) of the speed probe's calls, sorted.
    From each call's start to the next one, time runs at the factor
    ref / (median duration of the calls within `half_window` of it), so
    a stretch of work is scaled by the speed the probe saw around it.
    Before the first call its factor holds, after the last the last's.
    Timestamps are mapped about `origin`, which maps to itself.
    """
    if not probes:
        raise ValueError("no probe calls")
    starts = [s for s, _ in probes]
    durs = [d for _, d in probes]
    n = len(probes)
    factors = [ref / statistics.median(
        durs[max(0, i - half_window):i + half_window + 1]) for i in range(n)]
    # Warped time of each call's start, measured from the first call.
    at = [0.0]
    for i in range(1, n):
        at.append(at[-1] + (starts[i] - starts[i - 1]) * factors[i - 1])

    def raw(t):
        i = max(bisect.bisect_right(starts, t) - 1, 0)
        return at[i] + (t - starts[i]) * factors[i]

    base = raw(origin)
    return lambda t: origin + raw(t) - base


def slice_pair_ratios(samples, slice_len):
    """Mean of each even slice over the mean of the odd slice after it.

    `samples` holds (time since the first slice began, value).  Slices
    alternate traced (even) and untraced (odd); a pair missing either
    slice is skipped.
    """
    by_slice = {}
    for t, value in samples:
        by_slice.setdefault(t // slice_len, []).append(value)
    return [statistics.fmean(by_slice[k]) / statistics.fmean(by_slice[k + 1])
            for k in sorted(by_slice)
            if k % 2 == 0 and k + 1 in by_slice]


def geomean(values):
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
