"""Binary event files and CSV grid serialization."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triphoton.errors import ConfigError, InvalidParameterError
from triphoton.eventsim import EVENT_DTYPE
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
    io_formats.write_events(path, s, seed=1, duration_ps=5)
    back, _ = io_formats.read_events(path)
    assert np.array_equal(back["timestamp_ps"], s["timestamp_ps"])
    assert np.array_equal(back["channel"], s["channel"])
    assert np.all(back["origin"] == 0)


def test_event_file_layout(tmp_path):
    s = _stream(3, seed=2)
    path = tmp_path / "run.tpe1"
    io_formats.write_events(path, s, seed=9, duration_ps=123)
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


def test_zero_duration_with_records_rejected(tmp_path):
    path = tmp_path / "zero.tpe1"
    io_formats.write_events(path, _stream(5, seed=7), seed=0, duration_ps=0)
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


def test_truncated_file_rejected(tmp_path):
    s = _stream(5, seed=4)
    path = tmp_path / "run.tpe1"
    io_formats.write_events(path, s, seed=0, duration_ps=1)
    raw = path.read_bytes()
    (tmp_path / "cut.tpe1").write_bytes(raw[:-7])
    with pytest.raises(ConfigError):
        io_formats.read_events(tmp_path / "cut.tpe1")
    (tmp_path / "tiny.tpe1").write_bytes(raw[:10])
    with pytest.raises(ConfigError):
        io_formats.read_events(tmp_path / "tiny.tpe1")


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


def test_malformed_rows_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,1,2,3\n")
    with pytest.raises(ConfigError):
        io_formats.read_complex_grid(path)
    with pytest.raises(ConfigError):
        io_formats.read_real_grid(path)


def test_trace_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    axis = np.linspace(0.0, 1e-8, 33)
    vals = rng.random(33)
    path = tmp_path / "t.csv"
    io_formats.write_trace(path, axis, vals, header_lines=["kind: demo"])
    b_axis, b_vals = io_formats.read_trace(path)
    assert np.array_equal(b_axis, axis)
    assert np.array_equal(b_vals, vals)
