"""Pure helpers of run.py: percentiles, windows, best-of-repeats, span
arithmetic and /proc parsing. Tested by test_benchlib.py."""

import math
import statistics

MIN_BEYOND = 10


def tail_percentile(samples, q):
    """Nearest-rank q-quantile of samples, with the number of samples ranked
    beyond it. Raises ValueError when fewer than MIN_BEYOND lie beyond, so a
    tail figure is never reported from a handful of samples."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if q < 1 and beyond < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has only %d beyond it (need %d)"
            % (q * 100, n, beyond, MIN_BEYOND))
    return xs[rank - 1], beyond


def windows(starts, lats, k):
    """Split a closed loop's requests, in completion order, into k windows
    of equal count. Returns each window's completion rate (requests per
    second, measured from the previous window's last completion, or from
    the first send for the first window), its median and its p99 latency.
    starts and lats are in nanoseconds."""
    done = sorted((s + l, l) for s, l in zip(starts, lats))
    n = len(done) // k
    if n == 0:
        raise ValueError("fewer requests than windows")
    out = []
    edge = min(starts)
    for w in range(k):
        seg = done[w * n:(w + 1) * n]
        window = [l for _d, l in seg]
        out.append((n / ((seg[-1][0] - edge) / 1e9),
                    tail_percentile(window, 0.5)[0],
                    tail_percentile(window, 0.99)[0]))
        edge = seg[-1][0]
    return out


def decile(xs, d):
    """The d-th decile (1..9) of xs, interpolated as statistics.quantiles
    does."""
    return statistics.quantiles(xs, n=10)[d - 1]


def best_of(repeats):
    """Element-wise minimum over repeats of the same operations: each
    operation's time in its fastest repetition."""
    n = len(repeats[0])
    if any(len(r) != n for r in repeats):
        raise ValueError("repeats differ in length")
    return [min(r[i] for r in repeats) for i in range(n)]


def covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total = 0
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
    """Self time of each span: its duration minus the part of it that its
    children cover. spans are (idx, name, start, end, parent, id) tuples;
    parent is -1 for a root. Returns {idx: self time}."""
    children = {}
    for idx, _name, start, end, parent, _id in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for idx, _name, start, end, _parent, _id in spans:
        inner = [(max(s, start), min(e, end))
                 for s, e in children.get(idx, [])
                 if min(e, end) > max(s, start)]
        out[idx] = (end - start) - covered(inner)
    return out


def breakdown(spans, layers):
    """Split the root span's duration into the self time of each named
    layer and a residual: the self time of every span whose name is not in
    layers. Returns (total, {layer: self}, residual); the parts sum to
    total exactly."""
    roots = [s for s in spans if s[4] == -1]
    if len(roots) != 1:
        raise ValueError("expected one root span, got %d" % len(roots))
    root = roots[0]
    total = root[3] - root[2]
    selfs = self_times(spans)
    by_layer = {name: 0 for name in layers}
    residual = 0
    for idx, name, _start, _end, _parent, _id in spans:
        if name in by_layer:
            by_layer[name] += selfs[idx]
        else:
            residual += selfs[idx]
    return total, by_layer, residual


def parse_vmhwm_kb(status_text):
    """Peak resident set size (VmHWM, kB) from /proc/<pid>/status."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            fields = line.split()
            if len(fields) < 2 or (len(fields) > 2 and fields[2] != "kB"):
                raise ValueError("unexpected VmHWM line: %r" % line)
            return int(fields[1])
    raise ValueError("no VmHWM line")


def parse_cpu_ticks(stat_text):
    """User plus system CPU time, in clock ticks, from /proc/<pid>/stat.
    The command name (field 2) may hold spaces and parentheses, so fields
    are counted from the last ')'."""
    rest = stat_text[stat_text.rindex(")") + 1:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15
    return int(rest[11]) + int(rest[12])


def parse_steal_ticks(stat_text):
    """Steal time (clock ticks, all CPUs) from /proc/stat: time a virtual
    CPU was ready but the hypervisor ran something else."""
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8]) if len(fields) > 8 else 0
    raise ValueError("no cpu line")
