"""Binary event files and CSV grid serialization."""
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from triphoton.errors import ConfigError, InvalidParameterError
from triphoton.eventsim import EVENT_DTYPE, split_channels
from triphoton.susceptibility import ComplexGrid2D
from triphoton import io_formats


def _stream(n, seed=0):
    rng = np.random.default_rng(seed)
    s = np.empty(n, dtype=EVENT_DTYPE)
    s["timestamp_ps"] = np.sort(rng.integers(0, 10 ** 12, n))
    s["channel"] = rng.integers(1, 5, n)
    s["origin"] = rng.integers(0, 4, n)
    return s


# ---------------------------------------------------------------------------
# event files
# ---------------------------------------------------------------------------

def test_event_round_trip_with_origins(tmp_path):
    s = _stream(500)
    path = tmp_path / "run.tpe1"
    io_formats.write_events(path, s, seed=77, duration_ps=10 ** 12,
                            keep_origin=True)
    back, header = io_formats.read_events(path)
    assert np.array_equal(back, s)
    assert header == {"version": 1, "seed": 77, "duration_ps": 10 ** 12,
                      "channel_count": 4}


def test_event_round_trip_strips_origins_by_default(tmp_path):
    s = _stream(100, seed=1)
    path = tmp_path / "run.tpe1"
    io_formats.write_events(path, s, seed=1, duration_ps=10 ** 12)
    back, _ = io_formats.read_events(path)
    assert np.array_equal(back["timestamp_ps"], s["timestamp_ps"])
    assert np.array_equal(back["channel"], s["channel"])
    assert np.all(back["origin"] == 0)


def test_event_file_layout(tmp_path):
    s = _stream(3, seed=2)
    path = tmp_path / "run.tpe1"
    io_formats.write_events(path, s, seed=9, duration_ps=10 ** 12)
    raw = path.read_bytes()
    assert raw[:4] == b"TPE1"
    assert len(raw) == 32 + 16 * 3


def test_empty_stream_round_trip(tmp_path):
    s = np.empty(0, dtype=EVENT_DTYPE)
    path = tmp_path / "empty.tpe1"
    io_formats.write_events(path, s, seed=0, duration_ps=0)
    back, header = io_formats.read_events(path)
    assert back.size == 0
    assert header["duration_ps"] == 0


def test_unsorted_stream_rejected(tmp_path):
    s = _stream(10, seed=3)
    s["timestamp_ps"] = s["timestamp_ps"][::-1].copy()
    with pytest.raises(InvalidParameterError):
        io_formats.write_events(tmp_path / "bad.tpe1", s, seed=0,
                                duration_ps=1)


def _reversed_on_disk(path):
    raw = path.read_bytes()
    rec = np.frombuffer(raw[32:], dtype=io_formats._RECORD_DTYPE)
    path.write_bytes(raw[:32] + rec[::-1].tobytes())


def test_out_of_order_records_rejected(tmp_path):
    path = tmp_path / "rev.tpe1"
    io_formats.write_events(path, _stream(50, seed=5), seed=0,
                            duration_ps=10 ** 12)
    _reversed_on_disk(path)
    with pytest.raises(ConfigError, match="sorted by timestamp"):
        io_formats.read_events(path)


@pytest.mark.parametrize("channel", [0, 5])
def test_channel_out_of_range_rejected(tmp_path, channel):
    s = _stream(20, seed=6)
    s["channel"][7] = channel
    path = tmp_path / "ch.tpe1"
    io_formats.write_events(path, s, seed=0, duration_ps=10 ** 12)
    with pytest.raises(ConfigError, match=f"record 7 has channel {channel}"):
        io_formats.read_events(path)


def test_zero_duration_with_records_rejected(tmp_path, raw_event_file):
    path = tmp_path / "zero.tpe1"
    s = _stream(5, seed=7)
    raw_event_file(path, s["timestamp_ps"], s["channel"], duration_ps=0)
    with pytest.raises(ConfigError, match="duration_ps of 0"):
        io_formats.read_events(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.tpe1"
    path.write_bytes(b"NOPE" + bytes(28))
    with pytest.raises(ConfigError):
        io_formats.read_events(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.tpe1"
    path.write_bytes(struct.pack("<4sHHQQH6x", b"TPE1", 9, 32, 0, 0, 4))
    with pytest.raises(ConfigError):
        io_formats.read_events(path)


@pytest.mark.parametrize("header_len", [48, 4096])
def test_bad_header_len_rejected(tmp_path, header_len):
    """A corrupted header_len must not shift the record section: 48 used to
    drop the first record silently, 4096 to read as an empty stream."""
    path = tmp_path / "hl.tpe1"
    io_formats.write_events(path, _stream(5, seed=8), seed=0,
                            duration_ps=10 ** 12)
    raw = bytearray(path.read_bytes())
    raw[6:8] = struct.pack("<H", header_len)
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: header_len {header_len}"):
        io_formats.read_events(path)


def test_truncated_file_rejected(tmp_path):
    s = _stream(5, seed=4)
    path = tmp_path / "run.tpe1"
    io_formats.write_events(path, s, seed=0, duration_ps=10 ** 12)
    raw = path.read_bytes()
    (tmp_path / "cut.tpe1").write_bytes(raw[:-7])
    with pytest.raises(ConfigError):
        io_formats.read_events(tmp_path / "cut.tpe1")
    (tmp_path / "tiny.tpe1").write_bytes(raw[:10])
    with pytest.raises(ConfigError):
        io_formats.read_events(tmp_path / "tiny.tpe1")


@pytest.fixture(params=[1, 3, 7])
def record_chunk(request, monkeypatch):
    """Chunked TPE1 I/O with chunks of 1, 3 and 7 records; the 20-record
    files below then end in a partial chunk."""
    monkeypatch.setattr(io_formats, "RECORD_CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("keep_origin", [True, False])
def test_chunked_round_trip(tmp_path, record_chunk, keep_origin):
    s = _stream(20, seed=9)
    path = tmp_path / "run.tpe1"
    io_formats.write_events(path, s, seed=3, duration_ps=10 ** 12,
                            keep_origin=keep_origin)
    back, _ = io_formats.read_events(path)
    expect = s.copy()
    if not keep_origin:
        expect["origin"] = 0
    assert back.tobytes() == expect.tobytes()
    rec = np.frombuffer(path.read_bytes(), dtype=io_formats._RECORD_DTYPE,
                        offset=32)
    assert np.array_equal(rec["timestamp_ps"], s["timestamp_ps"])
    assert np.array_equal(rec["flags"], expect["origin"])
    assert not any(rec["reserved"].tobytes())


def _patched_on_disk(path, index, field, value):
    raw = bytearray(path.read_bytes())
    rec = np.frombuffer(raw, dtype=io_formats._RECORD_DTYPE, offset=32)
    rec[field][index] = value
    path.write_bytes(bytes(raw))


def _spaced_file(path):
    """20 records, 10 ps apart."""
    s = _stream(20, seed=10)
    s["timestamp_ps"] = 10 * np.arange(1, 21)
    io_formats.write_events(path, s, seed=0, duration_ps=10 ** 12)
    return s


def test_chunked_out_of_order_at_chunk_start(tmp_path, record_chunk):
    """The only step back is between the last record of one chunk and the
    first of the next."""
    path = tmp_path / "back.tpe1"
    s = _spaced_file(path)
    k = 2 * record_chunk
    _patched_on_disk(path, k, "timestamp_ps", s["timestamp_ps"][k - 1] - 1)
    with pytest.raises(ConfigError,
                       match=f"record {k} is earlier than record {k - 1};"):
        io_formats.read_events(path)


def test_chunked_bad_channel_in_last_chunk(tmp_path, record_chunk):
    path = tmp_path / "ch.tpe1"
    _spaced_file(path)
    _patched_on_disk(path, 19, "channel", 9)
    with pytest.raises(ConfigError, match="record 19 has channel 9"):
        io_formats.read_events(path)


def test_chunked_timestamp_at_2_63_rejected(tmp_path, record_chunk):
    """2^63 - 1 ps is the last stamp an int64 holds; the first record at or
    above 2^63 ps is named, whichever chunk it falls in."""
    path = tmp_path / "late.tpe1"
    _spaced_file(path)
    for k, stamp in ((17, 2 ** 63 - 1), (18, 2 ** 63), (19, 2 ** 63 + 5)):
        _patched_on_disk(path, k, "timestamp_ps", stamp)
    with pytest.raises(ConfigError,
                       match=f"record 18 has timestamp {2 ** 63} ps"):
        io_formats.read_events(path)


def test_chunked_timestamp_after_duration_rejected(tmp_path, record_chunk):
    """A stamp equal to the header duration_ps is valid; the first record
    stamped after it is named."""
    path = tmp_path / "late.tpe1"
    s = _spaced_file(path)
    raw = bytearray(path.read_bytes())
    raw[16:24] = (200).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    back, header = io_formats.read_events(path)
    assert header["duration_ps"] == 200
    assert np.array_equal(back["timestamp_ps"], s["timestamp_ps"])
    raw[16:24] = (184).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: record 18 "
                       "has timestamp 190 ps, after the header duration_ps 184"):
        io_formats.read_events(path)


def test_chunked_truncated_and_empty(tmp_path, record_chunk):
    path = tmp_path / "run.tpe1"
    _spaced_file(path)
    (tmp_path / "cut.tpe1").write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ConfigError, match="truncated"):
        io_formats.read_events(tmp_path / "cut.tpe1")
    empty = tmp_path / "empty.tpe1"
    io_formats.write_events(empty, np.empty(0, dtype=EVENT_DTYPE), seed=0,
                            duration_ps=0)
    back, header = io_formats.read_events(empty)
    assert back.size == 0 and header["duration_ps"] == 0


def test_writer_rejects_record_after_duration(tmp_path, record_chunk):
    """The writer refuses, and leaves no file for, what the reader would
    refuse: a record stamped after duration_ps, named by its index across
    windows and chunks, or any record under a duration_ps of 0."""
    s = _stream(20, seed=10)
    s["timestamp_ps"] = 10 * np.arange(1, 21)
    path = tmp_path / "late.tpe1"
    with pytest.raises(InvalidParameterError, match="record 18 has timestamp "
                       "190 ps, after the duration_ps 184"):
        io_formats.write_events(path, s, seed=0, duration_ps=184)
    assert not path.exists()
    windows = [tuple(s[f][lo:hi] for f in EVENT_DTYPE.names)
               for lo, hi in ((0, 5), (5, 5), (5, 17), (17, 20))]
    with pytest.raises(InvalidParameterError, match="record 18 has timestamp"):
        io_formats.write_windows(path, windows, seed=0, duration_ps=184)
    assert not path.exists()
    with pytest.raises(InvalidParameterError,
                       match="record 0 under a duration_ps of 0"):
        io_formats.write_events(path, s, seed=0, duration_ps=0)
    assert not path.exists()
    # a stamp equal to the duration is valid
    assert io_formats.write_windows(path, windows, seed=0,
                                    duration_ps=200) == 20
    back, _ = io_formats.read_events(path)
    assert np.array_equal(back["timestamp_ps"], s["timestamp_ps"])


def _read_whole(path, channels):
    """(header, {c: channel c's stamps over every chunk}) of
    read_channel_chunks, each record chunk's stamps checked to be int64 and
    split over the channels as it comes."""
    header, chunks = io_formats.read_channel_chunks(path)
    parts = {c: [np.empty(0, dtype=np.int64)] for c in channels}
    for stamps, channel in chunks:
        assert stamps.dtype == np.int64 and stamps.size == channel.size
        for c, t in zip(channels, split_channels(channel, stamps, channels)):
            parts[c].append(t)
    return header, {c: np.concatenate(p) for c, p in parts.items()}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 63 - 1), st.integers(1, 4)),
                max_size=40),
       st.integers(1, 8), st.sampled_from([None, (3,), (2, 4)]))
def test_read_channel_chunks_equals_split_of_read_events(tmp_path_factory, records,
                                                         chunk, only):
    """read_channel_chunks yields the records in file order, so the split
    of its record chunks is each channel's stamps: with channels absent
    from the file (only (3,) or (2, 4)) or from a chunk, chunks of one
    record, interleaved channels and stamps up to 2^63 - 1."""
    s = np.zeros(len(records), dtype=EVENT_DTYPE)
    if records:
        s["timestamp_ps"], s["channel"] = zip(*sorted(records))
    if only:
        s["channel"] = [only[k % len(only)] for k in range(s.size)]
    path = tmp_path_factory.mktemp("parity") / "run.tpe1"
    io_formats.write_events(path, s, seed=5, duration_ps=2 ** 63 - 1)
    with mock.patch.object(io_formats, "RECORD_CHUNK", chunk):
        stream, header = io_formats.read_events(path)
        header_c, times = _read_whole(path, (1, 2, 3, 4))
    assert header_c == header
    for c in (1, 2, 3, 4):
        expect = stream["timestamp_ps"][stream["channel"] == c]
        assert np.array_equal(times[c], expect.astype(np.int64))
        assert times[c].size == expect.size


def test_read_channel_chunks_splits_over_channels_requested(tmp_path, raw_event_file,
                                                            monkeypatch):
    """A header may declare 65535 channels while its records use 4: the
    reader hands on record chunks without a split, so each is split over the
    channels asked for (one index pass per channel), not over every channel
    declared."""
    channel = 1 + np.arange(400) % 4
    path = raw_event_file(tmp_path / "wide.tpe1", 10 * np.arange(400), channel,
                          duration_ps=10 ** 6, channel_count=65535)
    calls, flatnonzero = [], np.flatnonzero
    monkeypatch.setattr(io_formats, "RECORD_CHUNK", 64)
    monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(1) or flatnonzero(a))
    header, times = _read_whole(path, (1, 2, 3, 4))
    monkeypatch.undo()
    assert header["channel_count"] == 65535
    for c in (1, 2, 3, 4):
        assert np.array_equal(times[c], 10 * np.flatnonzero(channel == c))
    assert len(calls) <= 7 * (1 + 4)  # 7 chunks of at most 4 channels


def _malformed(kind, path, raw_event_file):
    """A malformed TPE1 file of each kind the readers refuse."""
    if kind in ("magic", "version", "header_len-48", "header_len-4096"):
        header = {"magic": (b"NOPE", 1, 32), "version": (b"TPE1", 9, 32),
                  "header_len-48": (b"TPE1", 1, 48),
                  "header_len-4096": (b"TPE1", 1, 4096)}[kind]
        path.write_bytes(struct.pack("<4sHHQQH6x", *header, 0, 10 ** 12, 4)
                         + bytes(16 * 5))
        return path
    s = _spaced_file(path)
    if kind == "truncated":
        path.write_bytes(path.read_bytes()[:-7])
    elif kind == "too-short":
        path.write_bytes(path.read_bytes()[:10])
    elif kind == "reversed":
        _reversed_on_disk(path)
    elif kind == "back-at-chunk-start":
        _patched_on_disk(path, 14, "timestamp_ps", s["timestamp_ps"][13] - 1)
    elif kind.startswith("channel"):
        _patched_on_disk(path, 19, "channel", int(kind.split("-")[1]))
    elif kind == "zero-duration":
        raw_event_file(path, s["timestamp_ps"], s["channel"], duration_ps=0)
    elif kind == "2^63":
        for k, stamp in ((17, 2 ** 63 - 1), (18, 2 ** 63), (19, 2 ** 63 + 5)):
            _patched_on_disk(path, k, "timestamp_ps", stamp)
    elif kind == "after-duration":
        raw_event_file(path, s["timestamp_ps"], s["channel"], duration_ps=184)
    return path


@pytest.mark.parametrize("kind", [
    "magic", "version", "header_len-48", "header_len-4096", "truncated",
    "too-short", "reversed", "back-at-chunk-start", "channel-0", "channel-9",
    "zero-duration", "2^63", "after-duration"])
@pytest.mark.parametrize("chunk", [1, 3, 7, 1 << 20])
def test_both_readers_refuse_malformed_files_alike(tmp_path, monkeypatch,
                                                   raw_event_file, kind,
                                                   chunk):
    path = _malformed(kind, tmp_path / "bad.tpe1", raw_event_file)
    monkeypatch.setattr(io_formats, "RECORD_CHUNK", chunk)
    with pytest.raises(ConfigError) as events:
        io_formats.read_events(path)
    with pytest.raises(ConfigError) as channels:
        _read_whole(path, (1, 2, 3))
    assert str(channels.value) == str(events.value)


@pytest.mark.parametrize("patch, message", [
    (None, "record 18 has timestamp 190 ps, after the header duration_ps 184"),
    ((4, "channel", 0), "record 4 has channel 0, outside 1..4")],
    ids=["late", "channel-before-late"])
def test_read_channel_chunks_refuses_a_late_tail_at_the_call(
        tmp_path, monkeypatch, raw_event_file, patch, message):
    """A file whose last record is stamped after the header duration_ps is
    refused when read_channel_chunks is called, before any chunk is handed
    on, and a bad record before the late tail keeps its precedence."""
    path = _malformed("after-duration", tmp_path / "late.tpe1", raw_event_file)
    if patch:
        _patched_on_disk(path, *patch)
    monkeypatch.setattr(io_formats, "RECORD_CHUNK", 3)
    with pytest.raises(ConfigError, match=re.escape(message)):
        io_formats.read_channel_chunks(path)


def test_event_file_io_peak_memory(tmp_path):
    """Writing and reading 4.8M events (the 600 s reference mix) takes at
    most 4 MB beside the stream: one 1 MB record chunk and its channel
    bytes, no file-sized copy."""
    s = _stream(4_800_000, seed=12)
    path = tmp_path / "big.tpe1"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        io_formats.write_events(path, s, seed=0, duration_ps=10 ** 12)
        write_peak = tracemalloc.get_traced_memory()[1] - base
        del s
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back, _ = io_formats.read_events(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base - back.nbytes
    finally:
        tracemalloc.stop()
    assert back.size == 4_800_000
    assert write_peak <= 4e6, f"write: {write_peak / 1e6:.1f} MB"
    assert read_peak <= 4e6, f"read: {read_peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# grid CSVs
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e30, max_value=1e30)


@settings(max_examples=20)
@given(st.lists(finite, min_size=6, max_size=6))
def test_complex_grid_round_trip_bit_exact(tmp_path_factory, vals):
    tmp = tmp_path_factory.mktemp("grid")
    values = (np.array(vals[:3]) + 1j * np.array(vals[3:])).reshape(1, 3)
    values = np.vstack([values, values + 1.0])
    grid = ComplexGrid2D(axis1=np.array([0.0, 1.0]),
                         axis2=np.array([-1.0, 0.5, 2.0]),
                         values=values, label1="delta2", label2="delta3",
                         unit="rad/s", provenance="test")
    path = tmp / "g.csv"
    io_formats.write_complex_grid(path, grid)
    back = io_formats.read_complex_grid(path)
    assert np.array_equal(back.values, grid.values)
    assert np.array_equal(back.axis1, grid.axis1)
    assert np.array_equal(back.axis2, grid.axis2)
    assert back.label1 == "delta2" and back.unit == "rad/s"
    assert back.provenance == "test"


def test_real_grid_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    a1 = np.linspace(0.0, 1e-9, 5)
    a2 = np.linspace(0.0, 2e-9, 7)
    vals = rng.random((5, 7))
    path = tmp_path / "r.csv"
    io_formats.write_real_grid(path, a1, a2, vals,
                               header_lines=["demo grid"])
    b1, b2, bv = io_formats.read_real_grid(path)
    assert np.array_equal(b1, a1)
    assert np.array_equal(b2, a2)
    assert np.array_equal(bv, vals)
    assert path.read_text().startswith("# demo grid\n")


def test_non_rectangular_grid_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,1\n0,1,2\n1,0,3\n")
    with pytest.raises(ConfigError):
        io_formats.read_real_grid(path)


def test_empty_grid_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only comments\n")
    with pytest.raises(ConfigError):
        io_formats.read_complex_grid(path)
    with pytest.raises(ConfigError):
        io_formats.read_real_grid(path)
    with pytest.raises(ConfigError, match=f"empty trace CSV: {re.escape(str(path))}"):
        io_formats.read_trace(path)


def test_malformed_rows_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,1,2,3\n")
    with pytest.raises(ConfigError):
        io_formats.read_complex_grid(path)
    with pytest.raises(ConfigError):
        io_formats.read_real_grid(path)
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}, line 1"):
        io_formats.read_trace(path)
    for read, row in ((io_formats.read_complex_grid, "0,0,1,x"),
                      (io_formats.read_real_grid, "0,0,x"),
                      (io_formats.read_trace, "0,x")):
        path.write_text(f"# header\n{row}\n")
        with pytest.raises(ConfigError,
                           match=f"{re.escape(str(path))}, line 2: non-numeric"):
            read(path)


@pytest.mark.parametrize("text", [
    "# kind: demo\n0,1.5\n1,-2\n2,1e-300\n",
    "\n# kind: demo\n\n  0 , 1.5\r\n1,-2\n\n# late comment\n2,1e-300\n\n",
    "# kind: demo\n0,1.5\n1,-2\n2,1_0e-30_1\n",
    "# kind: demo\n0,1.5\n1,-2\n2,١e-300\n",
])
def test_trace_reader_layouts(tmp_path, text):
    """Blank lines, comments between rows, padding, CRLF, and digit forms
    that only Python float parses all read as the same three rows."""
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    axis, values = io_formats.read_trace(path)
    assert np.array_equal(axis, [0.0, 1.0, 2.0])
    assert np.array_equal(values, [1.5, -2.0, 1e-300])


def test_trace_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    axis = np.linspace(0.0, 1e-8, 33)
    vals = rng.random(33)
    path = tmp_path / "t.csv"
    io_formats.write_trace(path, axis, vals, header_lines=["kind: demo"])
    b_axis, b_vals = io_formats.read_trace(path)
    assert np.array_equal(b_axis, axis)
    assert np.array_equal(b_vals, vals)


# ---------------------------------------------------------------------------
# byte-level output of the CSV writers
# ---------------------------------------------------------------------------

_AXIS1 = np.array([0.0, 0.1, 1.0 / 3.0])
_AXIS2 = np.array([-2.5e-17, 0.25e-9, 7.0, 1e300])


def _per_cell_text(header_lines, rows):
    """Reference: the per-cell f"{x:.17g}" loop the writers are held to."""
    text = "".join(f"# {line}\n" for line in header_lines)
    for row in rows:
        text += ",".join(f"{x:.17g}" for x in row) + "\n"
    return text


def _grid_rows(axis1, axis2, *cells):
    for i, a1 in enumerate(axis1):
        for j, a2 in enumerate(axis2):
            yield (a1, a2, *(c[i, j] for c in cells))


@pytest.mark.parametrize("values", [
    np.arange(12, dtype=np.int64).reshape(3, 4) * 7,
    np.array([[1.0 / 3.0, -0.0, 1e-300, 2.0 ** 60],
              [np.pi, -np.e, 0.1, 5e-324],
              [1.0, 123456789.125, -1e17, 0.3]]),
])
def test_real_grid_bytes_match_per_cell_format(tmp_path, values):
    path = tmp_path / "r.csv"
    io_formats.write_real_grid(path, _AXIS1, _AXIS2, values,
                               header_lines=["method: demo"])
    assert path.read_text() == _per_cell_text(
        ["method: demo", "columns: axis1,axis2,value"],
        _grid_rows(_AXIS1, _AXIS2, values))


def test_complex_grid_bytes_match_per_cell_format(tmp_path):
    rng = np.random.default_rng(9)
    values = (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))) * 1e-22
    grid = ComplexGrid2D(axis1=np.linspace(-1.0 / 3.0, 1.0 / 3.0, 3),
                         axis2=np.linspace(0.1, 0.4, 4),
                         values=values, label1="delta2", label2="delta3",
                         unit="rad/s", provenance="chi5_map abc")
    path = tmp_path / "c.csv"
    io_formats.write_complex_grid(path, grid)
    header = ["axis1: delta2 [rad/s] n=3", "axis2: delta3 [rad/s] n=4",
              "provenance: chi5_map abc", "columns: axis1,axis2,real,imag"]
    rows = ((a1, a2, v.real, v.imag) for a1, a2, v in
            _grid_rows(grid.axis1, grid.axis2, grid.values))
    assert path.read_text() == _per_cell_text(header, rows)


def test_trace_bytes_match_per_cell_format(tmp_path):
    axis = np.linspace(0.0, 1e-8, 7)
    values = np.array([0.0, 1.0 / 3.0, 1.0, 0.1, 2e-17, 0.5, 1e-300])
    path = tmp_path / "t.csv"
    io_formats.write_trace(path, axis, values, header_lines=["kind: demo"])
    assert path.read_text() == _per_cell_text(
        ["kind: demo", "columns: axis,value"], zip(axis, values))


# ---------------------------------------------------------------------------
# the blocked row writer against the per-cell reference
# ---------------------------------------------------------------------------

_INT_EDGES = st.sampled_from([0, -1, 1, 10 ** 17 - 1, 10 ** 17, 2 ** 62,
                              -10 ** 18, 2 ** 63 - 1, -2 ** 63])
_FLOAT_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308,
                                float("nan"), float("inf"), float("-inf"),
                                1e17, -1e300])


def _cells(dtype, shape):
    """Cell arrays of dtype.  int64 and float64 cells mix in edge values, and
    int64 cells repeat small ones, so the distinct-value table maps several
    cells to one text."""
    if dtype == "int64":
        elements = st.one_of(st.integers(-3, 3), _INT_EDGES)
    elif dtype == "float64":
        elements = st.one_of(_FLOAT_EDGES, st.floats())
    else:
        elements = None
    return hnp.arrays(np.dtype(dtype), shape, elements=elements)


_axis = st.integers(0, 5).flatmap(
    lambda n: hnp.arrays(np.float64, n, elements=finite))


def _blocked(block):
    """ROW_BLOCK of 1 to 7 rows, so grids and tables cross block ends."""
    return mock.patch.object(io_formats, "ROW_BLOCK", block)


@settings(max_examples=150, deadline=None)
@given(st.tuples(_axis, _axis), st.sampled_from(
    ["int64", "int32", "uint8", "uint64", "bool", "float64"]),
    st.integers(1, 7), st.data())
def test_real_grid_writer_equals_per_cell_text(tmp_path_factory, axes, dtype,
                                               block, data):
    axis1, axis2 = axes
    values = data.draw(_cells(dtype, (axis1.size, axis2.size)))
    path = tmp_path_factory.mktemp("blocked") / "r.csv"
    with _blocked(block):
        io_formats.write_real_grid(path, axis1, axis2, values,
                                   header_lines=["kind: demo"])
    assert path.read_text() == _per_cell_text(
        ["kind: demo", "columns: axis1,axis2,value"],
        _grid_rows(axis1, axis2, values))


# a ComplexGrid2D axis is uniform and increasing, with at least 2 points
_uniform_axis = st.builds(lambda k0, n, step: step * np.arange(k0, k0 + n),
                          st.integers(-1000, 1000), st.integers(2, 5),
                          st.floats(1e-12, 1e12))


@settings(max_examples=60, deadline=None)
@given(st.tuples(_uniform_axis, _uniform_axis), st.integers(1, 7), st.data())
def test_complex_grid_writer_equals_per_cell_text(tmp_path_factory, axes,
                                                  block, data):
    axis1, axis2 = axes
    shape = (axis1.size, axis2.size)
    values = np.empty(shape, dtype=complex)
    values.real = data.draw(_cells("float64", shape))
    values.imag = data.draw(_cells("float64", shape))
    grid = ComplexGrid2D(axis1=axis1, axis2=axis2, values=values,
                         label1="delta2", label2="delta3", unit="rad/s",
                         provenance="demo")
    path = tmp_path_factory.mktemp("blocked") / "c.csv"
    with _blocked(block):
        io_formats.write_complex_grid(path, grid)
    header = [f"axis1: delta2 [rad/s] n={shape[0]}",
              f"axis2: delta3 [rad/s] n={shape[1]}", "provenance: demo",
              "columns: axis1,axis2,real,imag"]
    rows = ((a1, a2, v.real, v.imag) for a1, a2, v in
            _grid_rows(axis1, axis2, values))
    assert path.read_text() == _per_cell_text(header, rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 15), st.lists(st.sampled_from(
    ["int64", "uint8", "bool", "float64"]), min_size=1, max_size=4),
    st.integers(1, 7), st.data())
def test_table_writer_equals_per_cell_text(tmp_path_factory, n, dtypes, block,
                                           data):
    columns = [data.draw(_cells(d, n)) for d in dtypes]
    path = tmp_path_factory.mktemp("blocked") / "t.csv"
    with _blocked(block):
        io_formats.write_table(path, ["columns: demo"], columns)
    assert path.read_text() == _per_cell_text(["columns: demo"], zip(*columns))


@pytest.mark.parametrize("shape", [(4, 3), (3, 5), (2, 4), (12,), (3, 4, 1)])
def test_real_grid_writer_refuses_misshaped_cells(tmp_path, shape):
    """Cells transposed against the axes used to be written without error,
    every value at the wrong (axis1, axis2)."""
    path = tmp_path / "bad.csv"
    values = np.arange(int(np.prod(shape))).reshape(shape)
    with pytest.raises(InvalidParameterError, match=re.escape(
            f"grid cells of shapes [{shape}] do not fit axes of sizes (3, 4)")):
        io_formats.write_real_grid(path, _AXIS1, _AXIS2, values)
    assert not path.exists()


def test_table_writers_refuse_unequal_columns(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(InvalidParameterError,
                       match=re.escape("unequal lengths [3, 4, 3]")):
        io_formats.write_table(path, ["columns: a,b,c"],
                               [np.zeros(3), np.arange(4), np.ones(3)])
    with pytest.raises(InvalidParameterError,
                       match=re.escape("unequal lengths [7, 6]")):
        io_formats.write_trace(path, np.linspace(0.0, 1.0, 7), np.zeros(6))
    assert not path.exists()
