"""Monte Carlo event stream generation."""
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triphoton.config import default_config, parse_config_text
from triphoton import eventsim, io_formats
from triphoton.errors import InvalidParameterError
from triphoton.susceptibility import ComplexGrid2D
from triphoton.correlation import CorrelationMap
from triphoton.eventsim import (EVENT_DTYPE, ORIGIN_DARK, ORIGIN_DUAL_PAIR,
                                ORIGIN_SINGLE, ORIGIN_TRIPLET, PS_PER_S,
                                SourceConfig, _merge, _sample_triplet_delays,
                                generate_stream, stream_windows)


def _toy_cmap(n=8, span=10e-9, seed=4):
    ax = np.linspace(0.0, span, n)
    rng = np.random.default_rng(seed)
    a3 = rng.random((n, n)) + 1j * rng.random((n, n))
    a3 /= np.max(np.abs(a3))
    grid = ComplexGrid2D(axis1=ax, axis2=ax, values=a3)
    return CorrelationMap(grid=grid)


# ---------------------------------------------------------------------------
# determinism and source independence
# ---------------------------------------------------------------------------

def test_stream_deterministic():
    cfg = SourceConfig(triplet_rate=20.0, singles_rate=(50.0,) * 4,
                       dark_rate=(10.0,) * 4, duration=20.0, seed=42)
    cmap = _toy_cmap()
    s1 = generate_stream(cmap, cfg)
    s2 = generate_stream(cmap, cfg)
    assert np.array_equal(s1, s2)


def test_seed_changes_stream():
    cfg_a = SourceConfig(triplet_rate=20.0, duration=20.0, seed=1)
    cfg_b = SourceConfig(triplet_rate=20.0, duration=20.0, seed=2)
    cmap = _toy_cmap()
    assert not np.array_equal(generate_stream(cmap, cfg_a),
                              generate_stream(cmap, cfg_b))


def test_sources_are_independent_streams():
    """Adding a noise source never perturbs the other sources' timestamps."""
    cmap = _toy_cmap()
    bare = SourceConfig(triplet_rate=20.0, duration=20.0, seed=7)
    noisy = SourceConfig(triplet_rate=20.0, singles_rate=(200.0,) * 4,
                         dark_rate=(50.0,) * 4,
                         dual_pair_rate=30.0, dual_pair_delay=1e-6,
                         duration=20.0, seed=7)
    s_bare = generate_stream(cmap, bare)
    s_noisy = generate_stream(cmap, noisy)
    trip = s_noisy[s_noisy["origin"] == ORIGIN_TRIPLET]
    assert np.array_equal(np.sort(trip["timestamp_ps"]),
                          np.sort(s_bare["timestamp_ps"]))


# ---------------------------------------------------------------------------
# structure of the generated stream
# ---------------------------------------------------------------------------

def test_stream_sorted_and_typed():
    cfg = SourceConfig(triplet_rate=50.0, singles_rate=(100.0,) * 4,
                       duration=10.0, seed=3)
    s = generate_stream(_toy_cmap(), cfg)
    assert s.dtype == EVENT_DTYPE
    assert np.all(np.diff(s["timestamp_ps"].astype(np.int64)) >= 0)
    assert np.all(s["timestamp_ps"] < 10.0 * PS_PER_S)


def test_triplet_click_geometry():
    """Each emission puts simultaneous-origin clicks on channels 1, 2, 3 with
    delays inside the map support."""
    cmap = _toy_cmap(span=10e-9)
    cfg = SourceConfig(triplet_rate=100.0, duration=10.0, seed=5)
    s = generate_stream(cmap, cfg)
    for ch in (1, 2, 3):
        assert np.count_nonzero(s["channel"] == ch) == s.size // 3
    t1 = np.sort(s["timestamp_ps"][s["channel"] == 1].astype(np.int64))
    # delays are tiny against the mean emission spacing, so sorting preserves
    # the pairing between starts and their partner clicks
    half_cell_ps = 0.5 * (cmap.tau21_axis[1] - cmap.tau21_axis[0]) * PS_PER_S
    for ch in (2, 3):
        tc = np.sort(s["timestamp_ps"][s["channel"] == ch].astype(np.int64))
        delays = tc - t1
        assert np.all(delays >= -half_cell_ps - 1)
        assert np.all(delays <= 10e-9 * PS_PER_S + half_cell_ps + 1)
    assert set(np.unique(s["origin"])) == {ORIGIN_TRIPLET}


def test_poisson_counts_within_tolerance():
    cfg = SourceConfig(triplet_rate=0.0, singles_rate=(500.0, 0.0, 0.0, 0.0),
                       duration=200.0, seed=9)
    s = generate_stream(None, cfg)
    expect = 500.0 * 200.0
    assert abs(s.size - expect) < 5 * np.sqrt(expect)
    assert set(np.unique(s["channel"])) == {1}
    assert set(np.unique(s["origin"])) == {ORIGIN_SINGLE}


def test_dual_pair_channels_and_delay():
    """Pairs (1, 2) and (2, 3): channel 2 holds the second click of the one
    and the first of the other."""
    cfg = SourceConfig(triplet_rate=0.0, dual_pair_rate=200.0,
                       dual_pair_delay=50e-9, duration=50.0, seed=13)
    s = generate_stream(None, cfg)
    assert set(np.unique(s["origin"])) == {ORIGIN_DUAL_PAIR}
    assert set(np.unique(s["channel"])) == {1, 2, 3}
    t1, t2, t3 = (s["timestamp_ps"][s["channel"] == c].astype(np.int64)
                  for c in (1, 2, 3))
    assert t1.size + t3.size == t2.size
    # the pairs are ms apart, so a partner is the nearest channel-2 click
    # after a channel-1 click, or before a channel-3 click; the mean
    # intra-pair delay matches the exponential parameter
    after = t2[np.searchsorted(t2, t1)] - t1
    before = t3 - t2[np.searchsorted(t2, t3, side="right") - 1]
    for delays in (after, before):
        assert delays.min() >= 0
        assert float(np.mean(delays)) / PS_PER_S == pytest.approx(50e-9, rel=0.05)


def test_dark_counts_tagged():
    cfg = SourceConfig(triplet_rate=0.0, dark_rate=(0.0, 300.0, 0.0, 0.0),
                       duration=100.0, seed=21)
    s = generate_stream(None, cfg)
    assert set(np.unique(s["origin"])) == {ORIGIN_DARK}
    assert set(np.unique(s["channel"])) == {2}


def test_efficiency_thins_counts():
    base = SourceConfig(triplet_rate=0.0, singles_rate=(2000.0, 0.0, 0.0, 0.0),
                        duration=100.0, seed=17)
    half = SourceConfig(triplet_rate=0.0, singles_rate=(2000.0, 0.0, 0.0, 0.0),
                        detector_efficiency=(0.5, 1.0, 1.0, 1.0),
                        duration=100.0, seed=17)
    n_full = generate_stream(None, base).size
    n_half = generate_stream(None, half).size
    assert abs(n_half - 0.5 * n_full) < 5 * np.sqrt(0.5 * n_full)


def test_jitter_moves_timestamps():
    cfg0 = SourceConfig(triplet_rate=0.0, singles_rate=(500.0, 0.0, 0.0, 0.0),
                        duration=20.0, seed=23)
    cfg1 = SourceConfig(triplet_rate=0.0, singles_rate=(500.0, 0.0, 0.0, 0.0),
                        jitter_sigma=100e-12, duration=20.0, seed=23)
    s0 = generate_stream(None, cfg0)
    s1 = generate_stream(None, cfg1)
    # same underlying clicks, shifted by O(100 ps)
    assert abs(s0.size - s1.size) <= 2
    if s0.size == s1.size:
        shift = s1["timestamp_ps"].astype(np.int64) \
            - s0["timestamp_ps"].astype(np.int64)
        assert 10 < float(np.std(shift)) < 1000


def test_empty_configuration_yields_empty_stream():
    cfg = SourceConfig(triplet_rate=0.0, duration=10.0, seed=0)
    s = generate_stream(None, cfg)
    assert s.size == 0 and s.dtype == EVENT_DTYPE


# stream bytes before the windowed merge, sha256 of generate_stream(...).tobytes()
_PINNED_STREAMS = {
    "default-mix-60s": (
        lambda: default_config().source_config(duration=60.0),
        "6c413bb4eef3887de20b6e64021044cbdb9b7066258d52a1b94acf7fd496bc23"),
    "dense-1s": (
        lambda: parse_config_text(
            "triplet_rate = 20000 /s\nsingles_rate_ch1 = 20000 /s\n"
            "singles_rate_ch2 = 20000 /s\nsingles_rate_ch3 = 20000 /s\n"
            "singles_rate_ch4 = 0 /s\n").source_config(duration=1.0),
        "1f3aed8379e877968609bb2af90d76f3fc9e2f6c8a9ff1a027a2c83ff726fb5b"),
    "jitter-thinned": (
        lambda: SourceConfig(triplet_rate=300.0,
                             singles_rate=(400.0, 300.0, 200.0, 100.0),
                             dual_pair_rate=500.0, dual_pair_delay=1e-6,
                             dark_rate=(50.0,) * 4,
                             detector_efficiency=(0.9, 0.8, 0.7, 0.6),
                             fiber_coupling=0.85, jitter_sigma=50e-12,
                             duration=20.0, seed=99),
        "da5d5c61657b7a930665dd8a74e6f7804c120863431031f81eaf6adb90cb6c45"),
}


@pytest.mark.parametrize("chunk", [1 << 20, 4096])
@pytest.mark.parametrize("name", sorted(_PINNED_STREAMS))
def test_stream_bytes_pinned(name, chunk, monkeypatch):
    """Per-source sorting and the windowed merge reproduce, byte for byte,
    the stream of one global stable sort, whatever the chunk.  The streams
    are 55k-480k events: one merge window at a chunk of 2^20, 14-118 windows
    (and chunked efficiency and jitter draws) at 4096."""
    monkeypatch.setattr(eventsim, "CHUNK", chunk)
    make_cfg, digest = _PINNED_STREAMS[name]
    stream = generate_stream(_toy_cmap(), make_cfg())
    assert hashlib.sha256(stream.tobytes()).hexdigest() == digest


@st.composite
def _sorted_parts(draw):
    """Sorted (timestamp_ps, channel, origin) parts, each with one channel
    and one origin that number it, with many equal stamps within and across
    parts, and up to 40 parts, past the merge key's 5-bit part budget."""
    high = draw(st.sampled_from([0, 3, 1000, 2 ** 63 - 2]))
    parts = []
    for k in range(draw(st.integers(0, 40))):
        ts = np.sort(np.array(draw(st.lists(st.integers(0, high), max_size=40)),
                              dtype=np.uint64))
        parts.append((ts, np.uint8(k + 1), np.uint8(k)))
    return parts


def _check_merge(parts, window):
    cat = np.empty(sum(p[0].size for p in parts), dtype=EVENT_DTYPE)
    if parts:
        for field, col in (("timestamp_ps", 0), ("channel", 1), ("origin", 2)):
            cat[field] = np.concatenate([np.full(p[0].size, p[col]) for p in parts])
    expect = cat[np.argsort(cat["timestamp_ps"], kind="stable")]
    got = np.empty(cat.size, dtype=EVENT_DTYPE)
    windows = list(_merge(parts, window))
    if windows:
        for field, cols in zip(EVENT_DTYPE.names, zip(*windows)):
            got[field] = np.concatenate(cols)
    assert got.tobytes() == expect.tobytes()


@settings(max_examples=200, deadline=None)
@given(_sorted_parts(), st.integers(1, 250))
def test_windowed_merge_equals_global_stable_sort(parts, window):
    _check_merge(parts, window)


_TIE = [5]
_TOP = [2 ** 63 - 1]


@pytest.mark.parametrize("stamps", [
    [_TIE] * 33, [_TIE] * 32 + [_TIE + _TOP], [[]] * 32 + [[2 ** 59]],
    [_TIE] * 300],
    ids=["33-parts-one-stamp", "and-2^63-1", "one-stamp-2^59", "300-parts"])
def test_merge_beyond_32_parts(stamps):
    """33 parts take a 6-bit part number in the merge key: ties across all
    of them keep part order, and a window holding a stamp at 2^59 or more
    is narrowed until its keys fit in 64 bits.  300 parts (75 dual-pair
    entries) number past a byte."""
    parts = [(np.array(ts, dtype=np.uint64), np.uint8(k % 4 + 1),
              np.uint8(k % 251)) for k, ts in enumerate(stamps)]
    _check_merge(parts, 1)


def test_finalize_converts_stamps_in_place():
    """Finalizing the reference mix's sources (600 s, 4.8M clicks) peaks at
    <= 1.05x the bytes of the stamps it returns: each series' stamps take
    its float times' place, with no series-sized copy beside them."""
    cmap = _toy_cmap()
    cfg = default_config().source_config(duration=600.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parts = eventsim._sources(cmap, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    stamp_bytes = sum(ts.nbytes for ts, _, _ in parts)
    assert stamp_bytes > 8 * 4_500_000
    assert peak <= 1.05 * stamp_bytes, f"{peak / stamp_bytes:.3f}x"


def test_generate_stream_peak_memory():
    """The reference mix (600 s, 4.8M events) peaks at <= 2.0x the stream's
    own bytes: the sorted sources plus the output and one merge window, with
    no stream-sized sort key, index, gather or stamp copy."""
    cmap = _toy_cmap()
    cfg = default_config().source_config(duration=600.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stream = generate_stream(cmap, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert stream.size > 4_500_000
    assert peak <= 2.0 * stream.nbytes, f"{peak / stream.nbytes:.2f}x"


def test_window_path_peak_memory(tmp_path):
    """Simulating the reference mix (600 s, 4.8M events) into a TPE1 file
    through the merge windows peaks at <= 0.9x the bytes of the stream it
    writes: the sorted click series (8 of its 10 bytes per event), one
    window and one record chunk, never the sorted stream."""
    cmap = _toy_cmap()
    cfg = default_config().source_config(duration=600.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        n = io_formats.write_windows(tmp_path / "run.tpe1",
                                     stream_windows(cmap, cfg), seed=cfg.seed,
                                     duration_ps=600 * PS_PER_S)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    stream_bytes = n * EVENT_DTYPE.itemsize
    assert n > 4_500_000
    assert peak <= 0.9 * stream_bytes, f"{peak / stream_bytes:.3f}x"


def test_window_path_writes_the_generated_stream(tmp_path, monkeypatch):
    """The file simulate writes from the windows holds generate_stream's
    stream, record for record, origins included."""
    monkeypatch.setattr(eventsim, "CHUNK", 4096)
    make_cfg, _ = _PINNED_STREAMS["jitter-thinned"]
    cfg = make_cfg()
    path = tmp_path / "run.tpe1"
    n = io_formats.write_windows(path, stream_windows(_toy_cmap(), cfg),
                                 seed=cfg.seed, duration_ps=20 * PS_PER_S,
                                 keep_origin=True)
    back, _ = io_formats.read_events(path)
    assert n == back.size
    assert back.tobytes() == generate_stream(_toy_cmap(), cfg).tobytes()


# ---------------------------------------------------------------------------
# triplet delay sampling
# ---------------------------------------------------------------------------

@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_sampled_delays_stay_on_grid_support(seed):
    cmap = _toy_cmap(seed=seed % 17 + 1)
    rng = np.random.default_rng(seed)
    d = cmap.tau21_axis[1] - cmap.tau21_axis[0]
    for _ in range(20):
        (t21,), (t31,) = _sample_triplet_delays(cmap, rng, 1)
        assert cmap.tau21_axis[0] - d / 2 <= t21 <= cmap.tau21_axis[-1] + d / 2
        assert cmap.tau31_axis[0] - d / 2 <= t31 <= cmap.tau31_axis[-1] + d / 2


def test_sampled_delays_follow_density():
    """A map with all mass in one cell produces only that cell's delays."""
    ax = np.linspace(0.0, 10e-9, 8)
    a3 = np.zeros((8, 8), dtype=complex)
    a3[2, 5] = 1.0
    grid = ComplexGrid2D(axis1=ax, axis2=ax, values=a3)
    cmap = CorrelationMap(grid=grid)
    rng = np.random.default_rng(1)
    d = ax[1] - ax[0]
    for _ in range(50):
        (t21,), (t31,) = _sample_triplet_delays(cmap, rng, 1)
        assert abs(t21 - ax[2]) <= d / 2
        assert abs(t31 - ax[5]) <= d / 2


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_source_config_validation():
    with pytest.raises(InvalidParameterError):
        SourceConfig(duration=0.0)
    with pytest.raises(InvalidParameterError):
        SourceConfig(triplet_rate=-1.0)
    with pytest.raises(InvalidParameterError):
        SourceConfig(singles_rate=(1.0, 1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        SourceConfig(dark_rate=(1.0, -1.0, 1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        SourceConfig(detector_efficiency=(1.0, 1.0, 1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        SourceConfig(fiber_coupling=1.5)
    with pytest.raises(InvalidParameterError):
        SourceConfig(dual_pair_delay=0.0)
    for duration in (float("nan"), float("inf"), -1.0, 2.0 ** 63 / PS_PER_S):
        with pytest.raises(InvalidParameterError, match="duration"):
            SourceConfig(duration=duration)
    for seed in (-1, 2 ** 64, 1.5):
        with pytest.raises(InvalidParameterError, match="seed"):
            SourceConfig(seed=seed)
    SourceConfig(seed=2 ** 64 - 1)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, kwargs", [
    ("singles_rate", {"singles_rate": (_NAN, 0.0, 0.0, 0.0)}),
    ("singles_rate", {"singles_rate": (0.0, _INF, 0.0, 0.0)}),
    ("dark_rate", {"dark_rate": (0.0, 0.0, _NAN, 0.0)}),
    ("dark_rate", {"dark_rate": (0.0, 0.0, 0.0, _INF)}),
    ("triplet_rate", {"triplet_rate": _NAN}),
    ("triplet_rate", {"triplet_rate": _INF}),
    ("jitter_sigma", {"jitter_sigma": -1e-9}),
    ("jitter_sigma", {"jitter_sigma": _NAN}),
    ("jitter_sigma", {"jitter_sigma": _INF}),
    ("dual_pair_rate", {"dual_pair_rate": _NAN}),
    ("dual_pair_rate", {"dual_pair_rate": _INF}),
    ("dual_pair_delay", {"dual_pair_delay": _INF}),
])
def test_source_config_refuses_non_finite_rates(field, kwargs):
    """A NaN rate used to give no events and no error, an infinite one
    numpy's bare 'lam value too large', a negative jitter no jitter."""
    with pytest.raises(InvalidParameterError, match=field):
        SourceConfig(**kwargs)


def test_triplets_require_map():
    cfg = SourceConfig(triplet_rate=5.0, duration=5.0, seed=0)
    with pytest.raises(InvalidParameterError):
        generate_stream(None, cfg)
