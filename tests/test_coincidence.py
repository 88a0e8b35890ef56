"""Coincidence reconstruction, floor estimation and reporting."""
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import norm, poisson

from triphoton import coincidence, eventsim, io_formats
from triphoton.config import default_config
from triphoton.correlation import CorrelationMap
from triphoton.errors import EstimationError, InvalidParameterError
from triphoton.susceptibility import ComplexGrid2D
from triphoton.eventsim import EVENT_DTYPE, PS_PER_S, SourceConfig, \
    generate_stream
from triphoton.coincidence import (CoincidenceHistogram2D, diagnose_crosscheck,
                                   estimate_floor, pairwise_histogram,
                                   rates_report, rebin2d,
                                   reconstruct_triple_delayed,
                                   reconstruct_triple_direct,
                                   subtract_accidentals)


def _stream(times_by_channel):
    rows = [(t, ch, 0) for ch, times in times_by_channel.items()
            for t in times]
    rows.sort()
    out = np.array(rows, dtype=[("timestamp_ps", "<u8"), ("channel", "u1"),
                                ("origin", "u1")]).astype(EVENT_DTYPE)
    return out


def _random_stream(rng, n_per_channel, span_ps, channels=(1, 2, 3)):
    return _stream({ch: rng.integers(0, span_ps, n_per_channel)
                    for ch in channels})


def _times(s):
    """{channel: sorted int64 stamps [ps]} of a stream's channels 1-4."""
    channels = (1, 2, 3, 4)
    return dict(zip(channels, eventsim.split_channels(s["channel"], s["timestamp_ps"],
                                                      channels)))


# ---------------------------------------------------------------------------
# pairwise histogram
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_pairwise_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    s = _random_stream(rng, 40, 4000, channels=(1, 2))
    window, bin_width = 800e-12, 50e-12
    t = _times(s)
    counts = pairwise_histogram(t[1], t[2], window, bin_width)
    starts = np.sort(s["timestamp_ps"][s["channel"] == 1].astype(np.int64))
    stops = np.sort(s["timestamp_ps"][s["channel"] == 2].astype(np.int64))
    brute = np.zeros(16, dtype=int)
    for t in starts:
        for u in stops:
            d = u - t
            if 0 <= d < 800:
                brute[d // 50] += 1
    assert np.array_equal(counts, brute)
    assert counts.sum() <= starts.size * stops.size


def test_pairwise_window_edges():
    t = _times(_stream({1: [100], 2: [100, 199, 200]}))
    counts = pairwise_histogram(t[1], t[2], 100e-12, 10e-12)
    # delay 0 is included, delay == window is not
    assert counts.sum() == 2
    assert counts[0] == 1 and counts[9] == 1


def test_window_bin_validation():
    t = _times(_stream({1: [0], 2: [1]}))
    with pytest.raises(InvalidParameterError):
        pairwise_histogram(t[1], t[2], 0.0, 1e-12)
    with pytest.raises(InvalidParameterError):
        pairwise_histogram(t[1], t[2], 1e-12, 2e-12)


# ---------------------------------------------------------------------------
# stop ranges: the merge search and the forward scan
# ---------------------------------------------------------------------------

# the largest stamp a TPE1 file may carry
_TOP = 2 ** 63 - 1


@st.composite
def _sorted_stamps(draw, min_size=0):
    """Sorted int64 stamps from a few values, so ties within and across
    arrays are common, at an offset that puts some of them at 2^63 - 1."""
    base = draw(st.sampled_from([0, _TOP - 40, _TOP - 3000]))
    values = draw(st.lists(st.integers(0, min(40, _TOP - base)),
                           min_size=min_size, max_size=40))
    return np.sort(np.array(values, dtype=np.int64) + base)


def _two_searches(starts, stops, span):
    """(keep, lo, n) by two binary searches, the range end summed in
    uint64 so it cannot wrap."""
    lo = np.searchsorted(stops, starts, side="left")
    hi = np.searchsorted(stops.astype(np.uint64),
                         starts.astype(np.uint64) + np.uint64(span), side="left")
    keep = np.flatnonzero(hi > lo)
    return keep, lo[keep], (hi - lo)[keep]


@st.composite
def _sparse_starts(draw):
    """(starts, stops) with at least 100 stops per start, tied and spread
    over a few thousand ps: a few starts facing a dense stop channel."""
    base = draw(st.sampled_from([0, _TOP - 3000]))
    starts = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=3))
    size = 100 * len(starts) + draw(st.integers(0, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stops = rng.integers(0, 3001, size)
    return (np.sort(np.array(starts, dtype=np.int64) + base),
            np.sort(stops.astype(np.int64) + base))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_sorted_stamps(), _sorted_stamps(min_size=1)),
                 _sparse_starts()),
       st.integers(1, 3000))
def test_stop_ranges_equal_two_searches(channels, span):
    """Merged first stops, ranges of one stop and ranges whose end is
    searched, also where the starts are over 100x sparser than the stops."""
    starts, stops = channels
    got = coincidence._stop_ranges(starts, stops, span)
    for a, b in zip(got, _two_searches(starts, stops, span)):
        assert a.dtype.kind == "i" and np.array_equal(a, b)


def _one_chunk(t1, t2, t3):
    """Three channels' sorted stamps as one (stamps, channel bytes) record
    chunk, sorted by stamp."""
    stamps = np.concatenate((t1, t2, t3))
    channel = np.repeat(np.arange(1, 4, dtype=np.uint8), [t1.size, t2.size, t3.size])
    order = np.argsort(stamps, kind="stable")
    return stamps[order], channel[order]


def _match(chunks, w_ps, b_ps):
    """triple_histogram's counts of record chunks, window and bin in ps."""
    return coincidence.triple_histogram(chunks, w_ps * 1e-12, b_ps * 1e-12, 1.0).counts


def _unfiltered(t1, t2, t3, w_ps, b_ps):
    """The counts of whole channel arrays, every record matched by one
    _add_triples call."""
    nbins = w_ps // b_ps
    counts = np.zeros(nbins * nbins, dtype=np.int64)
    coincidence._add_triples(counts, t1, t2, t3, nbins * b_ps, b_ps)
    return counts.reshape(nbins, nbins)


def _brute_pairs(starts, stops, span):
    """Every (start, stop) delay in [0, span), in Python integers."""
    return [int(u) - int(t) for t in starts for u in stops
            if 0 <= int(u) - int(t) < span]


@settings(max_examples=150, deadline=None)
@given(_sorted_stamps(), _sorted_stamps(), _sorted_stamps(),
       st.sampled_from([1, 3, 1 << 16]))
def test_matchers_near_2_63_equal_brute_force(t1, t2, t3, block):
    """The pairwise and three-fold matchers count every delay below the
    window with empty channels, ties, starts a stamp apart from 2^63 - 1
    and starts taken 1 or 3 at a time."""
    w_ps, b_ps = 30, 4
    nbins = w_ps // b_ps
    expect = np.bincount(np.array(_brute_pairs(t1, t2, nbins * b_ps), dtype=int)
                         // b_ps, minlength=nbins)
    assert np.array_equal(pairwise_histogram(t1, t2, w_ps * 1e-12, b_ps * 1e-12),
                          expect)
    brute = np.zeros((nbins, nbins), dtype=int)
    for start in t1:
        for d2 in _brute_pairs([start], t2, nbins * b_ps):
            for d3 in _brute_pairs([start], t3, nbins * b_ps):
                brute[d2 // b_ps, d3 // b_ps] += 1
    with mock.patch.object(coincidence, "_TRIPLE_BLOCK", block):
        got = _match([_one_chunk(t1, t2, t3)], w_ps, b_ps)
    assert np.array_equal(got, brute)


def test_coincidence_one_window_below_2_63_counts():
    """start + window used to wrap in int64 for a start within a window of
    2^63, and the coincidence was dropped."""
    t1 = np.array([2 ** 63 - 1000], dtype=np.int64)
    t2, t3 = t1 + 50, t1 + 60
    assert pairwise_histogram(t1, t2, 195e-9, 0.25e-9).sum() == 1
    counts = _match([_one_chunk(t1, t2, t3)], 195_000, 250)
    assert counts.sum() == 1 and counts[0, 0] == 1


def _brute_grid(t1, t2, t3, w_ps, b_ps):
    """The three-fold histogram by brute force over Python integers."""
    nbins = w_ps // b_ps
    brute = np.zeros((nbins, nbins), dtype=int)
    for start in t1:
        for d2 in _brute_pairs([start], t2, nbins * b_ps):
            for d3 in _brute_pairs([start], t3, nbins * b_ps):
                brute[d2 // b_ps, d3 // b_ps] += 1
    return brute


@st.composite
def _cut_records(draw):
    """A (window, bin) pair [ps], (stamp, channel) records sorted by stamp
    alone within three windows of 2^63 - 1, so ties in any channel order and
    delays of about a window are common, and the sorted indices that cut the
    records into chunks."""
    w_ps, b_ps = draw(st.sampled_from([(30, 4), (12, 3), (50, 50), (7, 1)]))
    records = draw(st.lists(st.tuples(st.integers(_TOP - 3 * w_ps, _TOP),
                                      st.integers(1, 4)), min_size=20, max_size=60))
    records.sort(key=lambda r: r[0])
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), max_size=8)))
    return w_ps, b_ps, records, cuts


@settings(max_examples=300, deadline=None)
@given(_cut_records(), st.sampled_from([1, 3, 1 << 16]))
def test_chunked_match_equals_one_chunk_and_brute_force(cut_records, block):
    """Matching record chunks as they come, with the carry, counts what one
    chunk of whole arrays and brute force count: stamps within a few windows
    of 2^63 - 1, chunks cut at any record (ties across a cut, empty chunks,
    chunks with no channel-1 record) and starts taken 1, 3 or 2^16 at a
    time."""
    w_ps, b_ps, records, cuts = cut_records
    stamps = np.array([t for t, _ in records], dtype=np.uint64)
    channel = np.array([c for _, c in records], dtype=np.uint8)
    edges = [0, *cuts, len(records)]
    chunks = [(stamps[a:b], channel[a:b]) for a, b in zip(edges, edges[1:])]
    whole = eventsim.split_channels(channel, stamps, (1, 2, 3))
    with mock.patch.object(coincidence, "_TRIPLE_BLOCK", block):
        got = _match(chunks, w_ps, b_ps)
        one = _match([(stamps, channel)], w_ps, b_ps)
    assert np.array_equal(got, one)
    assert np.array_equal(got, _brute_grid(*whole, w_ps, b_ps))


@st.composite
def _spread_records(draw):
    """A (window, bin) pair [ps] and (stamp, channel) records sorted by stamp
    alone, over a dozen windows below 2^63 - 1: ties, three-record clusters
    and records in none of them are all common."""
    w_ps, b_ps = draw(st.sampled_from([(30, 4), (12, 3), (50, 50), (7, 1)]))
    records = draw(st.lists(st.tuples(st.integers(_TOP - 12 * w_ps, _TOP),
                                      st.integers(1, 4)), max_size=60))
    records.sort(key=lambda r: r[0])
    return w_ps, b_ps, records


@settings(max_examples=300, deadline=None)
@given(_spread_records(), st.sampled_from([1, 2, 3, 1 << 16]),
       st.sampled_from([1, 3, 1 << 16]))
def test_filtered_match_equals_unfiltered_and_brute_force(
        tmp_path_factory, raw_event_file, spread_records, chunk, block):
    """triple_histogram, which matches only the records in three-record
    clusters, counts what _add_triples counts on every record and what
    brute force counts: the file read 1, 2, 3 or 2^16 records at a time,
    ties, stamps up to 2^63 - 1, a window that is not a whole number of bins
    and kept records handed on 1, 3 or 2^16 at a time."""
    w_ps, b_ps, records = spread_records
    stamps = [t for t, _ in records]
    path = raw_event_file(tmp_path_factory.mktemp("filter") / "run.tpe1",
                          stamps, [c for _, c in records], duration_ps=_TOP)
    whole = eventsim.split_channels(np.array([c for _, c in records], np.uint8),
                                    np.array(stamps, np.uint64), (1, 2, 3))
    with mock.patch.object(io_formats, "RECORD_CHUNK", chunk), \
            mock.patch.object(coincidence, "_TRIPLE_BLOCK", block):
        _, chunks = io_formats.read_channel_chunks(path)
        got = coincidence.triple_histogram(chunks, w_ps * 1e-12, b_ps * 1e-12, 1.0)
        every = _unfiltered(*whole, w_ps, b_ps)
    assert np.array_equal(got.counts, every)
    assert np.array_equal(got.counts, _brute_grid(*whole, w_ps, b_ps))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7])
def test_clusters_keep_a_triple_at_every_seam(size, monkeypatch):
    """triple_histogram counts the coincidence of a three-record cluster
    wherever the chunk seams cut it, and matches no start of a lone pair of
    close records, of three records spread over exactly the span or far from
    any other: every record but the triple's channels 2 and 3 is on
    channel 1, so a record kept wrongly is an extra start.  A carried record keeps the mark of a cluster whose first
    records are final: with blocks of 3, the first three of
    (2^63 - 601, ch 1), (2^63 - 601, ch 2), (2^63 - 600, ch 3),
    (2^63 - 551, ch 1) are one coincidence at a 50 ps window and bin, also
    with a later record at 2^63 - 1."""
    starts, add = [], coincidence._add_triples

    def tally(counts, t1, t2, t3, span, b_ps):
        starts.append(t1)
        add(counts, t1, t2, t3, span, b_ps)

    monkeypatch.setattr(coincidence, "_add_triples", tally)
    for before in range(2 * size + 3):
        groups = ([[0]] * before + [[0, 10, 99]] + [[0]] * 2 + [[0, 50]]
                  + [[0]] * 2 + [[0, 40, 100]] + [[0]] * 3)
        stamps = np.concatenate([1000 * k + np.array(g) for k, g in enumerate(groups)])
        channel = np.ones(stamps.size, dtype=np.uint8)
        channel[before + 1:before + 3] = (2, 3)
        chunks = [(stamps[i:i + size], channel[i:i + size])
                  for i in range(0, stamps.size, size)]
        starts.clear()
        got = _match(chunks, 100, 1)
        whole = eventsim.split_channels(channel, stamps, (1, 2, 3))
        assert got.sum() == 1, (size, before)
        assert np.array_equal(got, _brute_grid(*whole, 100, 1)), (size, before)
        assert np.array_equal(np.concatenate(starts), stamps[before:before + 1])
    monkeypatch.setattr(coincidence, "_TRIPLE_BLOCK", 3)
    for n in (4, 5):
        stamps = 2 ** 63 - np.array([601, 601, 600, 551, 1][:n], dtype=np.uint64)
        channel = np.array([1, 2, 3, 1, 4][:n], dtype=np.uint8)
        got = _match([(stamps[i:i + size], channel[i:i + size])
                      for i in range(0, n, size)], 50, 50)
        whole = eventsim.split_channels(channel, stamps, (1, 2, 3))
        assert got.sum() == 1 and np.array_equal(got, _brute_grid(*whole, 50, 50))


def test_analyze_counts_coincidence_one_window_below_2_63(tmp_path,
                                                          raw_event_file):
    from triphoton.cli import main
    t1 = 2 ** 63 - 1000
    path = raw_event_file(tmp_path / "late.tpe1", [t1, t1 + 50, t1 + 60],
                          [1, 2, 3], duration_ps=2 ** 63 - 1)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 0
    _, _, counts = io_formats.read_real_grid(tmp_path / "o" / "histogram2d.csv")
    assert counts.sum() == 1 and counts[0, 0] == 1


# ---------------------------------------------------------------------------
# three-fold reconstruction
# ---------------------------------------------------------------------------

@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_direct_matcher_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    s = _random_stream(rng, 25, 3000)
    window, bin_width = 500e-12, 50e-12
    h = reconstruct_triple_direct(s, window, bin_width)
    t = {ch: np.sort(s["timestamp_ps"][s["channel"] == ch].astype(np.int64))
         for ch in (1, 2, 3)}
    brute = np.zeros((10, 10), dtype=int)
    for t1 in t[1]:
        for t2 in t[2]:
            for t3 in t[3]:
                d2, d3 = t2 - t1, t3 - t1
                if 0 <= d2 < 500 and 0 <= d3 < 500:
                    brute[d2 // 50, d3 // 50] += 1
    assert np.array_equal(h.counts, brute)


def _brute_triple(s, w_ps, b_ps):
    """Three nested loops over the clicks: the definition of the matcher."""
    nbins = w_ps // b_ps
    t = {ch: np.sort(s["timestamp_ps"][s["channel"] == ch].astype(np.int64))
         for ch in (1, 2, 3)}
    brute = np.zeros((nbins, nbins), dtype=int)
    for t1 in t[1]:
        for t2 in t[2]:
            for t3 in t[3]:
                d2, d3 = t2 - t1, t3 - t1
                if 0 <= d2 < w_ps and 0 <= d3 < w_ps:
                    i2, i3 = d2 // b_ps, d3 // b_ps
                    if i2 < nbins and i3 < nbins:
                        brute[i2, i3] += 1
    return brute


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_matcher_drops_last_partial_bin(seed):
    """A 530 ps window holds ten whole 50 ps bins; delays in [500, 530) ps
    fall in no bin and are dropped."""
    rng = np.random.default_rng(seed)
    s = _random_stream(rng, 25, 2000)
    brute = _brute_triple(s, 530, 50)
    assert brute.shape == (10, 10)
    for reconstruct in (reconstruct_triple_direct, reconstruct_triple_delayed):
        h = reconstruct(s, 530e-12, 50e-12)
        assert np.array_equal(h.counts, brute)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_matcher_dense_matches_brute_force(seed):
    """Most starts see several stops on both channels inside the window."""
    rng = np.random.default_rng(seed)
    s = _random_stream(rng, 40, 800)
    h = reconstruct_triple_direct(s, 400e-12, 40e-12)
    brute = _brute_triple(s, 400, 40)
    assert np.array_equal(h.counts, brute)
    assert brute.sum() > 4 * 40


def test_triple_match_independent_of_block_size(monkeypatch):
    rng = np.random.default_rng(17)
    s = _random_stream(rng, 300, 20000)
    ref = reconstruct_triple_direct(s, 700e-12, 50e-12).counts
    t = {ch: s["timestamp_ps"][s["channel"] == ch].astype(np.int64)
         for ch in (1, 2, 3)}
    n2 = np.searchsorted(t[2], t[1] + 700) - np.searchsorted(t[2], t[1])
    n3 = np.searchsorted(t[3], t[1] + 700) - np.searchsorted(t[3], t[1])
    most = int((n2 * n3).max())
    assert most > 2 and ref.sum() > 100
    for block in (1, 3, most - 1):
        monkeypatch.setattr(coincidence, "_TRIPLE_BLOCK", block, raising=False)
        assert np.array_equal(
            reconstruct_triple_direct(s, 700e-12, 50e-12).counts, ref)
        assert np.array_equal(
            reconstruct_triple_delayed(s, 700e-12, 50e-12).counts, ref)


def test_triple_match_pair_blocks_bounded(monkeypatch):
    """One start with 300 x 300 (stop2, stop3) pairs in the window is
    expanded _TRIPLE_BLOCK pair numbers at a time: the match peaks at a
    small multiple of a block's int64 bytes, not at the start's 90,000
    pairs (once about 440 blocks)."""
    block = 1024
    monkeypatch.setattr(coincidence, "_TRIPLE_BLOCK", block)
    t1 = np.array([5], dtype=np.int64)
    t2 = np.arange(300, dtype=np.int64) + 10
    t3 = np.arange(300, dtype=np.int64) + 15
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        counts = _unfiltered(t1, t2, t3, 320, 10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert counts.shape == (32, 32) and counts.sum() == 300 * 300
    assert peak <= 16 * block * 8, f"{peak / (block * 8):.1f} blocks"


@pytest.mark.parametrize("empty", [2, 3])
@pytest.mark.parametrize("reconstruct", [reconstruct_triple_direct,
                                         reconstruct_triple_delayed])
def test_matcher_empty_stop_channel(reconstruct, empty):
    times = {1: [0, 100, 250], 2: [40, 180], 3: [60, 300]}
    times[empty] = []
    h = reconstruct(_stream(times), 530e-12, 50e-12)
    assert h.counts.shape == (10, 10)
    assert h.counts.dtype == np.int64
    assert not h.counts.any()


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_delayed_circuit_equals_direct(seed):
    """Delaying both the fanned-out start and the third channel by the same
    offset leaves the integer delay arithmetic unchanged."""
    rng = np.random.default_rng(seed)
    s = _random_stream(rng, 30, 5000)
    d = reconstruct_triple_direct(s, 600e-12, 60e-12)
    y = reconstruct_triple_delayed(s, 600e-12, 60e-12)
    assert np.array_equal(d.counts, y.counts)


def test_delayed_peak_memory_not_above_direct():
    """The delayed reconstruction allocates no delayed copy of a channel: on
    a sparse stream of 10^6 events over 1 s it peaks no higher than the
    direct matcher."""
    rng = np.random.default_rng(29)
    s = np.zeros(10 ** 6, dtype=EVENT_DTYPE)
    s["timestamp_ps"] = np.sort(rng.integers(0, PS_PER_S, s.size))
    s["channel"] = rng.integers(1, 5, s.size)
    peaks = []
    for reconstruct in (reconstruct_triple_direct, reconstruct_triple_delayed):
        tracemalloc.start()
        try:
            reconstruct(s)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    direct, delayed = peaks
    assert delayed <= direct, f"delayed {delayed} B, direct {direct} B"


def test_channel_read_and_match_peak_memory(tmp_path):
    """analyze's path, read_channel_chunks plus the filtered match,
    peaks at <= 0.25x the bytes of the reference mix's stream (600 s, 4.8M
    events): one record chunk, its channel stamps and one block of starts,
    never the stream."""
    cfg = default_config().source_config(duration=600.0)
    axis = np.linspace(0.0, 10e-9, 8)
    cmap = CorrelationMap(grid=ComplexGrid2D(axis1=axis, axis2=axis,
                                             values=np.ones((8, 8), complex)))
    path = tmp_path / "run.tpe1"
    n = io_formats.write_windows(path, eventsim.stream_windows(cmap, cfg),
                                 seed=cfg.seed, duration_ps=600 * PS_PER_S)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, chunks = io_formats.read_channel_chunks(path)
        hist = coincidence.triple_histogram(chunks, 195e-9, 0.25e-9, cfg.duration)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    stream_bytes = n * EVENT_DTYPE.itemsize
    assert n > 4_500_000
    assert hist.counts.sum() > 0
    assert peak <= 0.25 * stream_bytes, f"{peak / stream_bytes:.2f}x"


def test_channel_chunk_match_peak_memory_independent_of_length(tmp_path):
    """analyze's one pass holds a record chunk and about a window of stamps
    however long the file: on the reference mix over 60 s and 600 s (0.48M
    and 4.8M events) the tracemalloc peaks of read_channel_chunks plus
    triple_histogram differ by less than one record chunk."""
    axis = np.linspace(0.0, 10e-9, 8)
    cmap = CorrelationMap(grid=ComplexGrid2D(axis1=axis, axis2=axis,
                                             values=np.ones((8, 8), complex)))
    peaks = []
    for seconds in (60, 600):
        cfg = default_config().source_config(duration=float(seconds))
        path = tmp_path / f"run-{seconds}.tpe1"
        io_formats.write_windows(path, eventsim.stream_windows(cmap, cfg),
                                 seed=cfg.seed, duration_ps=seconds * PS_PER_S)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, chunks = io_formats.read_channel_chunks(path)
            hist = coincidence.triple_histogram(chunks, 195e-9, 0.25e-9, cfg.duration)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        path.unlink()
        assert hist.counts.sum() > 0
    record_chunk = io_formats.RECORD_CHUNK * 16
    assert abs(peaks[1] - peaks[0]) < record_chunk, \
        f"{peaks[0] / 1e6:.1f} MB over 60 s, {peaks[1] / 1e6:.1f} MB over 600 s"


def test_matcher_sees_under_one_percent_of_reference_records(tmp_path,
                                                             monkeypatch):
    """On the reference mix over 600 s (4.8M events) the three-record
    clusters hold under 1% of the channel 1-3 records: only they reach the
    matcher, which counts what it counts on every record."""
    cfg = default_config().source_config(duration=600.0)
    axis = np.linspace(0.0, 10e-9, 8)
    cmap = CorrelationMap(grid=ComplexGrid2D(axis1=axis, axis2=axis,
                                             values=np.ones((8, 8), complex)))
    path = tmp_path / "run.tpe1"
    io_formats.write_windows(path, eventsim.stream_windows(cmap, cfg),
                             seed=cfg.seed, duration_ps=600 * PS_PER_S)
    matched, add = [], coincidence._add_triples

    def tally(counts, t1, t2, t3, span, b_ps):
        matched.append(t1.size + t2.size + t3.size)
        add(counts, t1, t2, t3, span, b_ps)

    monkeypatch.setattr(coincidence, "_add_triples", tally)
    _, chunks = io_formats.read_channel_chunks(path)
    hist = coincidence.triple_histogram(chunks, 195e-9, 0.25e-9, cfg.duration)
    monkeypatch.undo()
    every, total = [], 0
    for stamps, channel in io_formats.read_channel_chunks(path)[1]:
        every.append(eventsim.split_channels(channel, stamps, (1, 2, 3)))
        total += sum(t.size for t in every[-1])
    assert total > 4_000_000 and hist.counts.sum() > 0
    assert sum(matched) < 0.01 * total, f"{sum(matched)} of {total}"
    whole = (np.concatenate(t) for t in zip(*every))
    assert np.array_equal(hist.counts, _unfiltered(*whole, 195_000, 250))


def test_triple_histogram_takes_channel_arrays():
    """The matcher analyze runs, given a stream's stamp and channel arrays
    as one record chunk, counts what both reconstructions count."""
    rng = np.random.default_rng(41)
    s = _random_stream(rng, 30, 4000, channels=(1, 2, 3, 4))
    h = coincidence.triple_histogram([(s["timestamp_ps"], s["channel"])],
                                     1e-9, 0.1e-9, 1.0)
    assert h.counts.sum() > 30
    assert np.array_equal(h.counts, _brute_triple(s, 1000, 100))
    for reconstruct in (reconstruct_triple_direct, reconstruct_triple_delayed):
        assert np.array_equal(reconstruct(s, 1e-9, 0.1e-9).counts, h.counts)


def test_known_triple_lands_in_expected_bin():
    s = _stream({1: [1000], 2: [1300], 3: [1700]})
    h = reconstruct_triple_direct(s, 1e-9, 100e-12)
    assert h.counts.sum() == 1
    assert h.counts[3, 7] == 1
    assert h.tau21_axis[3] == pytest.approx(350e-12)


# ---------------------------------------------------------------------------
# floor estimation and subtraction
# ---------------------------------------------------------------------------

def _flat_hist(mu, nbins=80, seed=0, duration=60.0):
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mu, size=(nbins, nbins))
    axis = (np.arange(nbins) + 0.5) * 0.25e-9
    return CoincidenceHistogram2D(tau21_axis=axis, tau31_axis=axis.copy(),
                                  counts=counts, duration=duration)


def test_floor_estimate_unbiased_on_flat_map():
    h = _flat_hist(mu=2.5, seed=3)
    est = estimate_floor(h)
    assert est == pytest.approx(2.5, abs=3 * np.sqrt(2.5 / 36))


def test_floor_estimate_sparse_regime():
    """Sub-unity per-bin means must not collapse the estimate to zero."""
    h = _flat_hist(mu=0.05, seed=5)
    est = estimate_floor(h)
    assert est > 0
    assert est == pytest.approx(0.05, rel=0.5)


def test_floor_robust_to_one_contaminated_edge():
    h = _flat_hist(mu=2.0, seed=7)
    counts = h.counts.copy()
    counts[0, :] += 50  # a feature leaking into one edge
    h = dataclasses.replace(h, counts=counts)
    assert estimate_floor(h) == pytest.approx(2.0, abs=0.5)


def test_floor_needs_background_region():
    h = _flat_hist(mu=1.0, nbins=3)
    with pytest.raises(EstimationError):
        estimate_floor(h)


def test_floor_formula_for_independent_channels():
    """Expected 2-D floor is r1 r2 r3 bin^2 T per bin (all-stop matcher)."""
    cfg = SourceConfig(triplet_rate=0.0, singles_rate=(3e4, 3e4, 3e4, 0.0),
                       duration=100.0, seed=12)
    s = generate_stream(None, cfg)
    h = reconstruct_triple_direct(s, window=100e-9, bin_width=5e-9,
                                  duration=cfg.duration)
    expect = (3e4 ** 3) * (5e-9) ** 2 * 100.0
    mean = h.counts.mean()
    sigma = np.sqrt(expect / h.counts.size)
    assert mean == pytest.approx(expect, abs=5 * sigma)


def test_subtract_accidentals_clamps():
    h = _flat_hist(mu=2.0, seed=9)
    sub = subtract_accidentals(h, 2.0)
    assert np.all(sub >= 0)
    raw = subtract_accidentals(h, 2.0, clamp=False)
    assert np.any(raw < 0)
    assert np.allclose(np.maximum(raw, 0.0), sub)


def test_rebin2d_preserves_mass_and_drops_remainder():
    a = np.arange(35.0).reshape(5, 7)
    r = rebin2d(a, 2)
    assert r.shape == (2, 3)
    assert r.sum() == a[:4, :6].sum()
    assert np.array_equal(rebin2d(a, 1), a)
    assert rebin2d(a, 5).shape == (1, 1)
    for factor in (0, 6, 8):  # 6 and 8 exceed an axis: a 0-sized result
        with pytest.raises(InvalidParameterError, match=f"factor {factor}"):
            rebin2d(a, factor)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def test_rates_report_on_synthetic_histogram():
    h = _flat_hist(mu=2.0, seed=15, duration=120.0)
    counts = h.counts.copy()
    counts[28:32, 40:44] += 200  # a feature aligned with one coarse cell
    h = dataclasses.replace(h, counts=counts)
    rep = rates_report(h, 2.0, peak_rebin=4)
    minutes = 2.0
    sig = counts.sum() - 2.0 * counts.size
    assert rep.triplet_rate_per_min == pytest.approx(sig / minutes, rel=1e-12)
    assert rep.accidental_rate_per_min == pytest.approx(
        2.0 * counts.size / minutes, rel=1e-12)
    assert not rep.zero_floor
    assert rep.g3_peak > 50.0
    assert rep.cauchy_schwarz > 1.0


def test_rates_report_zero_floor():
    axis = (np.arange(40) + 0.5) * 0.25e-9
    counts = np.zeros((40, 40), dtype=int)
    counts[10, 10] = 5
    h = CoincidenceHistogram2D(tau21_axis=axis, tau31_axis=axis.copy(),
                               counts=counts, duration=60.0)
    rep = rates_report(h, 0.0)
    assert rep.zero_floor
    assert rep.g3_peak == float("inf")
    assert rep.cauchy_schwarz == float("inf")


def test_histogram_rejects_negative_counts():
    axis = (np.arange(4) + 0.5) * 1e-9
    with pytest.raises(InvalidParameterError):
        CoincidenceHistogram2D(tau21_axis=axis, tau31_axis=axis.copy(),
                               counts=np.full((4, 4), -1), duration=1.0)


# ---------------------------------------------------------------------------
# diagnosis channel cross-check
# ---------------------------------------------------------------------------

def test_diagnose_flat_on_independent_channels():
    cfg = SourceConfig(triplet_rate=0.0,
                       singles_rate=(0.0, 0.0, 2000.0, 2000.0),
                       duration=300.0, seed=27)
    t = _times(generate_stream(None, cfg))
    out = diagnose_crosscheck(t[3], t[4])
    assert out["flat"]


def test_diagnose_flags_correlated_channels():
    """A copy of channel 3 delayed onto channel 4 concentrates one delay bin
    and must be flagged."""
    cfg = SourceConfig(triplet_rate=0.0,
                       singles_rate=(0.0, 0.0, 2000.0, 1000.0),
                       duration=300.0, seed=29)
    s = generate_stream(None, cfg)
    t3 = s["timestamp_ps"][s["channel"] == 3]
    echo = np.empty(t3.size, dtype=EVENT_DTYPE)
    echo["timestamp_ps"] = t3 + 50_000  # 50 ns echo
    echo["channel"] = 4
    echo["origin"] = 0
    merged = np.concatenate([s, echo])
    merged = merged[np.argsort(merged["timestamp_ps"], kind="stable")]
    t = _times(merged)
    out = diagnose_crosscheck(t[3], t[4])
    assert not out["flat"]
    assert out["max_deviation_sigma"] > 5.0


def test_diagnose_trivial_cases():
    t = _times(_stream({1: [0], 2: [5]}))
    assert diagnose_crosscheck(t[3], t[4])["flat"]
    t = _times(np.empty(0, dtype=EVENT_DTYPE))
    assert diagnose_crosscheck(t[3], t[4])["flat"]


@settings(max_examples=300)
@given(st.floats(min_value=1e-3, max_value=1e4),
       st.floats(min_value=-60.0, max_value=200.0))
def test_poisson_tails_match_scipy(mu, offset):
    """Both tails against scipy.stats, to 1e-10 relative, down to 1e-300."""
    k = max(0, int(mu + offset * max(math.sqrt(mu), 1.0)))
    lo, hi = coincidence._poisson_tails(k, mu)
    for ours, ref in ((lo, poisson.cdf(k, mu)), (hi, poisson.sf(k, mu))):
        if ref >= 1e-300:
            assert ours == pytest.approx(ref, rel=1e-10, abs=0.0)
        else:
            assert ours < 1e-290


def _scipy_crosscheck(t3, t4):
    """The scipy.stats form of diagnose_crosscheck, kept as its oracle."""
    counts = pairwise_histogram(t3, t4, 195e-9, 0.25e-9)
    mu = float(counts.mean())
    p = min(float(poisson.sf(counts.max() - 1, mu)),
            float(poisson.cdf(counts.min(), mu)))
    return {"flat": p * 2 * counts.size >= 0.01,
            "max_deviation_sigma": float(norm.isf(max(p, 1e-300)))}


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([0.0, 0.0002, 0.0005, 0.002, 0.05]),
       st.sampled_from([200.0, 2000.0, 20000.0]))
def test_diagnose_matches_scipy_oracle(seed, echo_fraction, rate):
    """Same flat verdict and z-score as the scipy.stats form, from flat
    histograms to ones with an echo of channel 3 on channel 4."""
    cfg = SourceConfig(triplet_rate=0.0,
                       singles_rate=(0.0, 0.0, rate, rate), duration=20.0,
                       seed=seed)
    s = generate_stream(None, cfg)
    rng = np.random.default_rng(seed)
    t3 = s["timestamp_ps"][s["channel"] == 3]
    t3 = t3[rng.random(t3.size) < echo_fraction]
    echo = np.empty(t3.size, dtype=EVENT_DTYPE)
    echo["timestamp_ps"] = t3 + 50_000
    echo["channel"] = 4
    echo["origin"] = 0
    merged = np.concatenate([s, echo])
    merged = merged[np.argsort(merged["timestamp_ps"], kind="stable")]
    t = _times(merged)
    assume(pairwise_histogram(t[3], t[4], 195e-9, 0.25e-9).any())
    ours, ref = diagnose_crosscheck(t[3], t[4]), _scipy_crosscheck(t[3], t[4])
    assert ours["flat"] == ref["flat"]
    assert ours["max_deviation_sigma"] == pytest.approx(
        ref["max_deviation_sigma"], rel=1e-9)
