"""Binary event-file and CSV grid serialization.

Event files ("TPE1"): a 32-byte little-endian header
  magic 'TPE1' (4s) | version (u16) | header_len (u16) | seed (u64) |
  duration_ps (u64) | channel_count (u16) | 6 pad bytes
followed by fixed 16-byte records
  timestamp_ps (u64) | channel (u8) | flags (u8) | 6 reserved bytes.
Records are sorted by timestamp.  The flags byte carries the simulation
origin tag only when exported with keep_origin (debug); otherwise zero.

Grid CSVs: '#'-prefixed comment lines with axis names, units, sizes,
normalization scale and parameter hash, then rows "axis1,axis2,real,imag"
(complex) or "axis1,axis2,value" (real).  Values are written with 17
significant digits so a read-write-read round trip is bit-exact.
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .eventsim import EVENT_DTYPE
from .susceptibility import ComplexGrid2D

MAGIC = b"TPE1"
VERSION = 1
HEADER_LEN = 32
_HEADER_STRUCT = struct.Struct("<4sHHQQH6x")
_RECORD_DTYPE = np.dtype([("timestamp_ps", "<u8"), ("channel", "u1"),
                          ("flags", "u1"), ("reserved", "V6")])


# ---------------------------------------------------------------------------
# event files
# ---------------------------------------------------------------------------

def write_events(path, stream: np.ndarray, seed: int, duration_ps: int,
                 channel_count: int = 4, keep_origin: bool = False) -> None:
    """Write a time-sorted event stream to a TPE1 file."""
    ts = stream["timestamp_ps"]
    if ts.size > 1 and np.any(np.diff(ts.astype(np.int64)) < 0):
        raise InvalidParameterError("stream must be sorted by timestamp")
    rec = np.zeros(stream.size, dtype=_RECORD_DTYPE)
    rec["timestamp_ps"] = ts
    rec["channel"] = stream["channel"]
    if keep_origin:
        rec["flags"] = stream["origin"]
    header = _HEADER_STRUCT.pack(MAGIC, VERSION, HEADER_LEN, seed,
                                 duration_ps, channel_count)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rec.tobytes())


def _check_time_order(ts, path, chunk=1 << 20):
    """Raise ConfigError unless ts is non-decreasing.

    Compares chunk by chunk, so the check needs a chunk-sized boolean
    temporary, not a file-sized one.
    """
    for start in range(0, ts.size - 1, chunk):
        seg = ts[start:start + chunk + 1]
        back = seg[1:] < seg[:-1]
        if back.any():
            k = start + 1 + int(np.argmax(back))
            raise ConfigError(f"event file {path}: record {k} is earlier than "
                              f"record {k - 1}; records must be sorted by timestamp")


def read_events(path):
    """Read a TPE1 file; returns (stream, header_dict).

    The stream is an EVENT_DTYPE structured array with the flags byte mapped
    back onto the origin field (zero when origins were stripped on export).
    Raises ConfigError for a malformed file: bad magic or version, a truncated
    record section, records out of time order, a channel outside
    1..channel_count, or records under a header duration_ps of 0.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER_LEN:
        raise ConfigError(f"event file too short: {path}")
    magic, version, header_len, seed, duration_ps, channel_count = \
        _HEADER_STRUCT.unpack(raw[:_HEADER_STRUCT.size])
    if magic != MAGIC:
        raise ConfigError(f"bad magic in event file {path}: {magic!r}")
    if version != VERSION:
        raise ConfigError(f"unsupported event file version {version}")
    body = raw[header_len:]
    if len(body) % _RECORD_DTYPE.itemsize:
        raise ConfigError(f"truncated record section in {path}")
    rec = np.frombuffer(body, dtype=_RECORD_DTYPE)
    if rec.size and duration_ps == 0:
        raise ConfigError(f"event file {path} holds {rec.size} records "
                          "but a header duration_ps of 0")
    ch = rec["channel"]
    if rec.size and (ch.min() < 1 or ch.max() > channel_count):
        k = int(np.flatnonzero((ch < 1) | (ch > channel_count))[0])
        raise ConfigError(f"event file {path}: record {k} has channel {ch[k]}, "
                          f"outside 1..{channel_count}")
    _check_time_order(rec["timestamp_ps"], path)
    stream = np.empty(rec.size, dtype=EVENT_DTYPE)
    stream["timestamp_ps"] = rec["timestamp_ps"]
    stream["channel"] = rec["channel"]
    stream["origin"] = rec["flags"]
    header = {"version": version, "seed": seed, "duration_ps": duration_ps,
              "channel_count": channel_count}
    return stream, header


# ---------------------------------------------------------------------------
# CSV grids and traces
# ---------------------------------------------------------------------------

_FMT = "%.17g"


def write_complex_grid(path, grid: ComplexGrid2D) -> None:
    with open(path, "w") as fh:
        fh.write(f"# axis1: {grid.label1} [{grid.unit}] n={grid.axis1.size}\n")
        fh.write(f"# axis2: {grid.label2} [{grid.unit}] n={grid.axis2.size}\n")
        fh.write(f"# provenance: {grid.provenance}\n")
        fh.write("# columns: axis1,axis2,real,imag\n")
        for i, a1 in enumerate(grid.axis1):
            for j, a2 in enumerate(grid.axis2):
                v = grid.values[i, j]
                fh.write(f"{a1:.17g},{a2:.17g},{v.real:.17g},{v.imag:.17g}\n")


def read_complex_grid(path) -> ComplexGrid2D:
    meta = {"label1": "axis1", "label2": "axis2", "unit": "", "provenance": ""}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# axis1:"):
                    meta["label1"] = line.split(":", 1)[1].split("[")[0].strip()
                    if "[" in line:
                        meta["unit"] = line.split("[", 1)[1].split("]")[0]
                elif line.startswith("# axis2:"):
                    meta["label2"] = line.split(":", 1)[1].split("[")[0].strip()
                elif line.startswith("# provenance:"):
                    meta["provenance"] = line.split(":", 1)[1].strip()
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ConfigError(f"expected 4 columns in grid CSV, got {line!r}")
            rows.append([float(p) for p in parts])
    if not rows:
        raise ConfigError(f"empty grid CSV: {path}")
    arr = np.asarray(rows)
    axis1 = np.unique(arr[:, 0])
    axis2 = np.unique(arr[:, 1])
    if axis1.size * axis2.size != arr.shape[0]:
        raise ConfigError(f"grid CSV is not a full rectangular grid: {path}")
    values = (arr[:, 2] + 1j * arr[:, 3]).reshape(axis1.size, axis2.size)
    return ComplexGrid2D(axis1=axis1, axis2=axis2, values=values,
                         label1=meta["label1"], label2=meta["label2"],
                         unit=meta["unit"], provenance=meta["provenance"])


def write_real_grid(path, axis1, axis2, values, header_lines=()) -> None:
    values = np.asarray(values)
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("# columns: axis1,axis2,value\n")
        for i, a1 in enumerate(np.asarray(axis1)):
            for j, a2 in enumerate(np.asarray(axis2)):
                fh.write(f"{a1:.17g},{a2:.17g},{values[i, j]:.17g}\n")


def read_real_grid(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigError(f"expected 3 columns in grid CSV, got {line!r}")
            rows.append([float(p) for p in parts])
    if not rows:
        raise ConfigError(f"empty grid CSV: {path}")
    arr = np.asarray(rows)
    axis1 = np.unique(arr[:, 0])
    axis2 = np.unique(arr[:, 1])
    if axis1.size * axis2.size != arr.shape[0]:
        raise ConfigError(f"grid CSV is not a full rectangular grid: {path}")
    return axis1, axis2, arr[:, 2].reshape(axis1.size, axis2.size)


def write_trace(path, axis, values, header_lines=()) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("# columns: axis,value\n")
        for a, v in zip(np.asarray(axis), np.asarray(values)):
            fh.write(f"{a:.17g},{v:.17g}\n")


def read_trace(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ConfigError(f"expected 2 columns in trace CSV, got {line!r}")
            rows.append([float(p) for p in parts])
    arr = np.asarray(rows)
    return arr[:, 0], arr[:, 1]
