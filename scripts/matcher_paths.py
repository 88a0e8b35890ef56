#!/usr/bin/env python3
"""Measure what the three-fold matcher is handed, and the paths of its stop
search, on event files.

coincidence.triple_histogram matches only the records that lie in a
three-record cluster (coincidence._clusters): three consecutive records
within one span.  That share decides what the matcher costs, so for each
TPE1 file, read through io_formats.read_channel_chunks, this prints first
the channel 1-3 records the clusters keep, of all of them.

coincidence._stop_ranges finds each start's stops in two steps: the first
stop, by a sort-merge of a block of starts with the stops between them or,
when those stops are over _MERGE_RATIO per start, by a binary search; then
the range end, by a test of the next stop and a search for the starts whose
next stop is in the window too.  On the kept records this then prints

* per stop channel, the share of _stop_ranges calls and of starts whose
  stops in reach (between a block's first and last start, per start) are
  above each candidate merge ratio, and the share of kept starts with more
  than 1, 2 and 3 stops in the window;
* the cost of the first-stop step by merge and by search, in ns per start,
  against stops in reach per start: channel 1 thinned to every k-th click
  is matched against channel 2 in blocks of _TRIPLE_BLOCK starts;
* the time of triple_histogram, median of --repeat runs in this process
  with the variants alternating: the library's _stop_ranges, search only,
  merge only, and 0 to 3 forward steps from the first stop before the end
  search at the library's merge ratio; each run filters and matches the
  file's records.

Usage: PYTHONPATH=src python scripts/matcher_paths.py FILE.tpe1 [...]
"""
import argparse
import statistics
import time
from functools import partial

import numpy as np

from triphoton import coincidence, io_formats
from triphoton.eventsim import split_channels

RATIOS = (1, 2, 4, 8, 16, 64)


def first_merge(starts, stops):
    """Each start's first stop by the library's sort-merge."""
    a, b = np.searchsorted(stops, starts[[0, -1]])
    keys = np.empty(starts.size + b - a, dtype=np.uint64)
    np.left_shift(starts.view(np.uint64), 1, out=keys[:starts.size])
    np.left_shift(stops[a:b].view(np.uint64), 1, out=keys[starts.size:])
    keys[starts.size:] |= 1
    keys.sort(kind="stable")
    return a + np.flatnonzero((keys & 1) == 0) - np.arange(starts.size)


def ranges(starts, stops, span, ratio, steps):
    """_stop_ranges with its merge ratio and forward steps as arguments."""
    a, b = np.searchsorted(stops, starts[[0, -1]]) if starts.size else (0, 0)
    if b - a > ratio * starts.size:
        lo = np.searchsorted(stops, starts)
    else:
        lo = first_merge(starts, stops)
    keep = np.flatnonzero((lo < stops.size)
                          & (stops.take(lo, mode="clip") - starts < span))
    lo, starts = lo[keep], starts[keep]
    n, more = np.ones_like(lo), np.arange(lo.size)
    for _ in range(steps):
        nxt = lo[more] + n[more]
        more = more[(nxt < stops.size)
                    & (stops.take(nxt, mode="clip") - starts[more] < span)]
        n[more] += 1
    end = starts[more].view(np.uint64) + np.uint64(min(span, 1 << 63))
    n[more] = np.searchsorted(stops.view(np.uint64), end) - lo[more]
    return keep, lo, n


def shares(records, window, bin_width):
    """Per stop channel: calls and starts above each ratio, kept starts with
    more than k stops."""
    calls = {2: [], 3: []}
    library = coincidence._stop_ranges

    def record(starts, stops, span):
        keep, lo, n = library(starts, stops, span)
        a, b = np.searchsorted(stops, starts[[0, -1]]) if starts.size else (0, 0)
        # each block of starts searches channel 2's stops, then channel 3's
        ch = 2 if len(calls[2]) == len(calls[3]) else 3
        calls[ch].append((starts.size, b - a, n))
        return keep, lo, n

    coincidence._stop_ranges = record
    try:
        coincidence.triple_histogram([records], window, bin_width, 1.0)
    finally:
        coincidence._stop_ranges = library
    for ch, rows in calls.items():
        starts = sum(m for m, _, _ in rows)
        n = np.concatenate([r[2] for r in rows])
        above = ", ".join(
            f">{r}: {sum(s > r * m for m, s, _ in rows) / len(rows):.0%} calls "
            f"{sum(m for m, s, _ in rows if s > r * m) / max(starts, 1):.1%} starts"
            for r in RATIOS)
        more = ", ".join(f">{k}: {np.count_nonzero(n > k) / max(n.size, 1):.2%}"
                         for k in (1, 2, 3))
        print(f"  channel {ch}: {len(rows)} calls, {starts} starts, {n.size} kept; "
              f"stops in reach per start {above}")
        print(f"    kept starts with more stops than {more}")


def crossover(times, repeat):
    """First-stop cost by merge and by search against stops per start."""
    for k in (1, 2, 3, 4, 6, 8):
        starts = times[1][::k]
        blocks = [starts[i:i + coincidence._TRIPLE_BLOCK]
                  for i in range(0, starts.size, coincidence._TRIPLE_BLOCK)][:20]
        m = sum(b.size for b in blocks)
        ratio = statistics.median(
            np.diff(np.searchsorted(times[2], b[[0, -1]]))[0] / b.size for b in blocks)
        merge, search = [], []
        for _ in range(repeat):
            t = time.perf_counter()
            for b in blocks:
                first_merge(b, times[2])
            merge.append(time.perf_counter() - t)
            t = time.perf_counter()
            for b in blocks:
                np.searchsorted(times[2], b)
            search.append(time.perf_counter() - t)
        print(f"  {ratio:5.2f} stops per start: merge "
              f"{statistics.median(merge) / m * 1e9:.1f} ns, search "
              f"{statistics.median(search) / m * 1e9:.1f} ns per start")


def timings(records, window, bin_width, repeat):
    ratio = coincidence._MERGE_RATIO
    variants = {"library": coincidence._stop_ranges,
                "search only, 1 step": partial(ranges, ratio=-1, steps=1),
                "merge only, 1 step": partial(ranges, ratio=np.inf, steps=1)}
    variants.update({f"ratio {ratio}, {s} steps": partial(ranges, ratio=ratio, steps=s)
                     for s in range(4)})
    runs = {name: [] for name in variants}
    library = coincidence._stop_ranges
    expect = None
    try:
        for _ in range(repeat):  # the variants alternate within each round
            for name, fn in variants.items():
                coincidence._stop_ranges = fn
                t = time.perf_counter()
                h = coincidence.triple_histogram([records], window, bin_width, 1.0)
                runs[name].append(time.perf_counter() - t)
                expect = h.counts if expect is None else expect
                assert np.array_equal(h.counts, expect), name
    finally:
        coincidence._stop_ranges = library
    for name, ts in runs.items():
        print(f"  triple_histogram, {name}: {statistics.median(ts):.3f} s "
              f"(min {min(ts):.3f})")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+", help="TPE1 event files")
    ap.add_argument("--window", type=float, default=195e-9, help="window [s]")
    ap.add_argument("--bin", type=float, default=0.25e-9, help="bin [s]")
    ap.add_argument("--repeat", type=int, default=7, help="timed runs per variant")
    args = ap.parse_args()
    w_ps, b_ps = coincidence.check_histogram(args.window, args.bin)
    for path in args.files:
        _, chunks = io_formats.read_channel_chunks(path)
        # the reader's buffers are reused, so each chunk is copied
        records = tuple(map(np.concatenate,
                            zip(*[(t.copy(), c.copy()) for t, c in chunks])))
        stamps, channel = map(np.concatenate, zip(
            *coincidence._clusters([records], w_ps // b_ps * b_ps)))
        times = dict(zip((1, 2, 3), split_channels(channel, stamps, (1, 2, 3))))
        kept = sum(t.size for t in times.values())
        total = np.count_nonzero(records[1] <= 3)
        print(f"{path}: three-record clusters keep {kept} of {total} channel 1-3 "
              f"records ({kept / max(total, 1):.3%}); kept channel sizes "
              f"{[times[c].size for c in (1, 2, 3)]}")
        if not all(times[c].size for c in (1, 2, 3)):
            print("  a channel has no record in a cluster: nothing to match")
            continue
        shares(records, args.window, args.bin)
        crossover(times, args.repeat)
        timings(records, args.window, args.bin, args.repeat)


if __name__ == "__main__":
    main()
