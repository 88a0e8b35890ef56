"""Binary event-file and CSV grid serialization.

Event files ("TPE1"): a 32-byte little-endian header
  magic 'TPE1' (4s) | version (u16) | header_len (u16) | seed (u64) |
  duration_ps (u64) | channel_count (u16) | 6 pad bytes
followed by fixed 16-byte records
  timestamp_ps (u64) | channel (u8) | flags (u8) | 6 reserved bytes.
Records are sorted by timestamp.  The flags byte carries the simulation
origin tag only when exported with keep_origin (debug); otherwise zero.
Files are written and read RECORD_CHUNK records at a time, so the I/O
holds one 1 MB record buffer beside what it writes from or reads into,
never a file-sized copy.  write_windows takes the stream as merge windows
and read_channel_chunks hands it on as checked record chunks, the stamps
and channel bytes of one chunk at a time, so neither needs the whole stream
in memory.

Grid CSVs: '#'-prefixed comment lines with axis names, units, sizes,
normalization scale and parameter hash, then rows "axis1,axis2,real,imag"
(complex) or "axis1,axis2,value" (real).  Traces and tables have the same
comment lines and one row per sample.  Values are written with 17
significant digits so a read-write-read round trip is bit-exact.  Rows are
joined ROW_BLOCK at a time (a grid's in whole axis1 rows, axis2 text set
once), integers are formatted through a table of their distinct values, and
the writers refuse grid cells not shaped like the axes and unequal columns.
"""
from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .eventsim import EVENT_DTYPE, _first_out_of_order
from .susceptibility import ComplexGrid2D

MAGIC = b"TPE1"
VERSION = 1
HEADER_LEN = 32
_HEADER_STRUCT = struct.Struct("<4sHHQQH6x")
_RECORD_DTYPE = np.dtype([("timestamp_ps", "<u8"), ("channel", "u1"),
                          ("flags", "u1"), ("reserved", "V6")])
# records per read or write: the 1 MB buffer the I/O needs beside the stream
RECORD_CHUNK = 1 << 16
# CSV rows joined per write: the row text the writers hold at once
ROW_BLOCK = 1 << 12
# first timestamp the reader rejects: the matcher reads stamps as int64
_STAMP_LIMIT = np.uint64(1 << 63)


# ---------------------------------------------------------------------------
# event files
# ---------------------------------------------------------------------------

def write_windows(path, windows, seed: int, duration_ps: int,
                  channel_count: int = 4, keep_origin: bool = False) -> int:
    """Write time-sorted (timestamp_ps, channel, origin) windows to a TPE1
    file, RECORD_CHUNK records at a time through one reused record buffer;
    returns the number of records written.

    Raises InvalidParameterError, and leaves no file, for records out of time
    order, stamped after duration_ps, or under a duration_ps of 0; the error
    names the first such record's index.
    """
    header = _HEADER_STRUCT.pack(MAGIC, VERSION, HEADER_LEN, seed,
                                 duration_ps, channel_count)
    buf = np.zeros(0, dtype=_RECORD_DTYPE)
    count, last = 0, 0
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(header)
            for window in windows:
                for lo in range(0, window[0].size, RECORD_CHUNK):
                    ts, ch, origin = (col[lo:lo + RECORD_CHUNK] for col in window)
                    k = 0 if ts[0] < last else _first_out_of_order(ts)
                    if k is not None:
                        raise InvalidParameterError(
                            f"stream must be sorted by timestamp: record "
                            f"{count + k} is earlier than record {count + k - 1}")
                    if duration_ps == 0:
                        raise InvalidParameterError(
                            f"record {count} under a duration_ps of 0")
                    last = ts[-1]
                    if last > duration_ps:
                        # the window is sorted, so the late records are a tail
                        k = int(np.searchsorted(ts, duration_ps, side="right"))
                        raise InvalidParameterError(
                            f"record {count + k} has timestamp {ts[k]} ps, "
                            f"after the duration_ps {duration_ps}")
                    if buf.size < ts.size:
                        buf = np.zeros(ts.size, dtype=_RECORD_DTYPE)
                    rec = buf[:ts.size]
                    rec["timestamp_ps"] = ts
                    rec["channel"] = ch
                    if keep_origin:
                        rec["flags"] = origin
                    fh.write(rec.data)
                    count += ts.size
    except BaseException:
        os.unlink(path)
        raise
    return count


def write_events(path, stream: np.ndarray, seed: int, duration_ps: int,
                 channel_count: int = 4, keep_origin: bool = False) -> None:
    """Write a time-sorted EVENT_DTYPE stream to a TPE1 file (write_windows)."""
    write_windows(path, [tuple(stream[f] for f in EVENT_DTYPE.names)], seed,
                  duration_ps, channel_count, keep_origin)


def _open_events(fh, path):
    """(header dict, record count) of an open TPE1 file, its header checked."""
    raw = fh.read(HEADER_LEN)
    if len(raw) < HEADER_LEN:
        raise ConfigError(f"event file too short: {path}")
    magic, version, header_len, seed, duration_ps, channel_count = \
        _HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise ConfigError(f"bad magic in event file {path}: {magic!r}")
    if version != VERSION:
        raise ConfigError(f"unsupported event file version {version}")
    if header_len != HEADER_LEN:
        raise ConfigError(f"event file {path}: header_len {header_len}, "
                          f"version {VERSION} requires {HEADER_LEN}")
    n, tail = divmod(os.fstat(fh.fileno()).st_size - HEADER_LEN,
                     _RECORD_DTYPE.itemsize)
    if tail:
        raise ConfigError(f"truncated record section in {path}")
    if n and duration_ps == 0:
        raise ConfigError(f"event file {path} holds {n} records "
                          "but a header duration_ps of 0")
    header = {"version": version, "seed": seed, "duration_ps": duration_ps,
              "channel_count": channel_count}
    return header, n


def _checked_chunks(fh, path, header, n: int):
    """(index of the first record, records, their channel bytes) of the n
    records after the header, RECORD_CHUNK at a time, read into one reused
    record buffer with each chunk's channel byte copied once into one reused
    contiguous buffer.

    Runs every record check: a channel outside 1..channel_count, records out
    of time order, a timestamp at or above 2^63 ps, and, once every chunk
    has passed the others, a timestamp after the header duration_ps.  A
    record error names the record's index.
    """
    channel_count, duration_ps = header["channel_count"], header["duration_ps"]
    fh.seek(HEADER_LEN)
    buf = np.empty(min(n, RECORD_CHUNK), dtype=_RECORD_DTYPE)
    channels = np.empty(buf.size, dtype=np.uint8)
    last, late = 0, None
    for start in range(0, n, RECORD_CHUNK):
        rec = buf[:min(RECORD_CHUNK, n - start)]
        if fh.readinto(rec.view(np.uint8)) != rec.nbytes:
            raise ConfigError(f"truncated record section in {path}")
        ch, ts = channels[:rec.size], rec["timestamp_ps"]
        ch[:] = rec["channel"]
        if ch.min() < 1 or ch.max() > channel_count:
            k = int(np.flatnonzero((ch < 1) | (ch > channel_count))[0])
            raise ConfigError(f"event file {path}: record {start + k} has "
                              f"channel {ch[k]}, outside 1..{channel_count}")
        k = 0 if ts[0] < last else _first_out_of_order(ts)
        if k is not None:
            raise ConfigError(
                f"event file {path}: record {start + k} is earlier than "
                f"record {start + k - 1}; records must be sorted by timestamp")
        last = ts[-1]
        if last >= _STAMP_LIMIT:
            # the chunk is sorted, so its stamps past the limit are a tail
            k = int(np.searchsorted(ts, _STAMP_LIMIT))
            raise ConfigError(f"event file {path}: record {start + k} has "
                              f"timestamp {ts[k]} ps, at or above 2^63 ps")
        if late is None and last > duration_ps:
            # the late records are a tail too
            k = int(np.searchsorted(ts, duration_ps, side="right"))
            late = (start + k, ts[k])
        yield start, rec, ch
    if late is not None:
        raise ConfigError(f"event file {path}: record {late[0]} has timestamp "
                          f"{late[1]} ps, after the header duration_ps "
                          f"{duration_ps}")


def read_events(path):
    """Read a TPE1 file; returns (stream, header_dict).

    The stream is an EVENT_DTYPE structured array with the flags byte mapped
    back onto the origin field (zero when origins were stripped on export).
    Raises ConfigError for a malformed file: bad magic, version or header
    length, a truncated record section, records under a header duration_ps
    of 0, or a record that fails a check of _checked_chunks.
    """
    with open(path, "rb") as fh:
        header, n = _open_events(fh, path)
        stream = np.empty(n, dtype=EVENT_DTYPE)
        for start, rec, channel in _checked_chunks(fh, path, header, n):
            out = stream[start:start + rec.size]
            out["timestamp_ps"] = rec["timestamp_ps"]
            out["channel"] = channel
            out["origin"] = rec["flags"]
    return stream, header


def read_channel_chunks(path):
    """(header, chunks) of a TPE1 file, its header checked at the call.

    chunks yields, per record chunk of _checked_chunks, the records' int64
    stamps [ps] and channel bytes, in file order: views of the reader's
    reused buffers, which the next chunk overwrites.  The file is read once,
    and beside what the consumer copies the reader holds one record chunk.
    Raises what read_events raises: a file whose last record is stamped
    after the header duration_ps at the call, before any chunk is consumed,
    and any other record's error once chunks reaches it.
    """
    def read():
        with open(path, "rb") as fh:
            header, n = _open_events(fh, path)
            fh.seek(HEADER_LEN + (n - 1) * _RECORD_DTYPE.itemsize)
            if n and int.from_bytes(fh.read(8), "little") > header["duration_ps"]:
                # one pass of the checks alone raises the first bad record's error
                for _ in _checked_chunks(fh, path, header, n):
                    pass
            yield header
            for _, rec, channel in _checked_chunks(fh, path, header, n):
                yield rec["timestamp_ps"].view(np.int64), channel
    chunks = read()
    return next(chunks), chunks


# ---------------------------------------------------------------------------
# CSV grids, traces and tables
# ---------------------------------------------------------------------------

def _text(values) -> list[str]:
    """'%.17g' text of each element, in C order."""
    return [f"{x:.17g}" for x in np.ravel(values).tolist()]


def _column(values):
    """A _write_rows column of the elements in C order: the text of integer
    counts in 0..size, as a histogram's are, through a bincount table of
    their distinct values, or the values themselves."""
    flat = np.ravel(values)
    if (flat.dtype.kind not in "biu" or not flat.size
            or flat.min() < 0 or flat.max() > flat.size):
        return flat
    flat = flat.astype(np.intp, copy=False)
    uniq = np.flatnonzero(np.bincount(flat))
    table = np.empty(uniq[-1] + 1, dtype=object)
    table[uniq] = _text(uniq)
    return table[flat].tolist()


def _fill(buf, width, parts, first=0) -> str:
    """The text of the row template buf (width // 2 fields a row), cut to the
    rows of the equal-length parts, its fields from first on set to them:
    text lists, or numbers formatted here a block at a time."""
    del buf[len(parts[0]) * width:]  # the last block may be short
    for k, part in enumerate(parts, start=first):
        buf[2 * k::width] = part if isinstance(part, list) else _text(part)
    return "".join(buf)


def _write_rows(path, header_lines, columns) -> None:
    """'# ' header lines, then ROW_BLOCK rows per join, one per index of the
    equal-length columns."""
    n, width = len(columns[0]), 2 * len(columns)
    buf = ([","] * (width - 1) + ["\n"]) * min(n, ROW_BLOCK)
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        for lo in range(0, n, ROW_BLOCK):
            fh.write(_fill(buf, width, [c[lo:lo + ROW_BLOCK] for c in columns]))


def _write_grid(path, header_lines, axis1, axis2, cells) -> None:
    """One row per grid point, axis1 outer; each axis value formatted once.
    A block is whole axis1 rows: its template's axis2 texts are set once."""
    shape = (np.size(axis1), np.size(axis2))
    if any(np.shape(c) != shape for c in cells):
        raise InvalidParameterError(f"grid cells of shapes {list(map(np.shape, cells))}"
                                    f" do not fit axes of sizes {shape}")
    a1, a2 = _text(axis1), _text(axis2)
    columns, n2, width = [_column(c) for c in cells], len(a2), 2 * len(cells) + 4
    rows = max(ROW_BLOCK // max(n2, 1), 1)  # axis1 rows per block
    buf = ([","] * (width - 1) + ["\n"]) * (min(len(a1), rows) * n2)
    buf[2::width] = a2 * min(len(a1), rows)
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        for i in range(0, len(a1), rows):
            for r, a in enumerate(a1[i:i + rows]):
                buf[r * n2 * width:(r + 1) * n2 * width:width] = [a] * n2
            fh.write(_fill(buf, width, [c[i * n2:(i + rows) * n2] for c in columns], 2))


def write_table(path, header_lines, columns) -> None:
    """'# ' header lines (the columns line among them), then one row per index
    of the equal-length numeric columns."""
    lengths = [np.size(c) for c in columns]
    if len(set(lengths)) > 1:
        raise InvalidParameterError(f"table columns of unequal lengths {lengths}")
    _write_rows(path, header_lines, [_column(c) for c in columns])


def _read_rows(path, ncols: int, what: str):
    """('#' comment lines, float rows array) of a CSV with ncols columns.

    numpy parses the rows after the leading comment lines.  Only when that
    fails, or finds no row, does _scan_rows go through the file line by line,
    to name the culprit or to read what only Python float accepts.
    """
    comments = []
    with open(path) as fh:
        while True:
            pos = fh.tell()
            raw = fh.readline()
            line = raw.strip()
            if line.startswith("#"):
                comments.append(line)
            elif line or not raw:  # the first data row, or the end of file
                break
        if line:
            fh.seek(pos)
            try:
                arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                arr = None
            if arr is not None and arr.shape[1] == ncols:
                return comments, arr
    return _scan_rows(path, ncols, what)


def _scan_rows(path, ncols: int, what: str):
    """_read_rows line by line, with Python float.

    Raises ConfigError naming the path and line for a row with the wrong
    column count or a non-numeric field, and for a file with no rows.
    """
    comments, rows = [], []
    lineno = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line)
                continue
            parts = line.split(",")
            if len(parts) != ncols:
                raise ConfigError(f"{path}, line {lineno}: expected {ncols} "
                                  f"columns in {what} CSV, got {line!r}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ConfigError(f"{path}, line {lineno}: non-numeric field "
                                  f"in {what} CSV row {line!r}") from None
    if not rows:
        raise ConfigError(f"empty {what} CSV: {path} has no data row "
                          f"in its {lineno} lines")
    return comments, np.asarray(rows)


def _read_grid(path, ncols: int):
    """(comments, axis1, axis2, cell arrays) of a full rectangular grid CSV."""
    comments, arr = _read_rows(path, ncols, "grid")
    axis1 = np.unique(arr[:, 0])
    axis2 = np.unique(arr[:, 1])
    if axis1.size * axis2.size != arr.shape[0]:
        raise ConfigError(f"grid CSV is not a full rectangular grid: {path}")
    cells = [arr[:, k].reshape(axis1.size, axis2.size) for k in range(2, ncols)]
    return comments, axis1, axis2, cells


def write_complex_grid(path, grid: ComplexGrid2D) -> None:
    _write_grid(path, [f"axis1: {grid.label1} [{grid.unit}] n={grid.axis1.size}",
                       f"axis2: {grid.label2} [{grid.unit}] n={grid.axis2.size}",
                       f"provenance: {grid.provenance}",
                       "columns: axis1,axis2,real,imag"],
                grid.axis1, grid.axis2, [grid.values.real, grid.values.imag])


def read_complex_grid(path) -> ComplexGrid2D:
    meta = {"label1": "axis1", "label2": "axis2", "unit": "", "provenance": ""}
    comments, axis1, axis2, (re, im) = _read_grid(path, 4)
    for line in comments:
        if line.startswith("# axis1:"):
            meta["label1"] = line.split(":", 1)[1].split("[")[0].strip()
            if "[" in line:
                meta["unit"] = line.split("[", 1)[1].split("]")[0]
        elif line.startswith("# axis2:"):
            meta["label2"] = line.split(":", 1)[1].split("[")[0].strip()
        elif line.startswith("# provenance:"):
            meta["provenance"] = line.split(":", 1)[1].strip()
    return ComplexGrid2D(axis1=axis1, axis2=axis2, values=re + 1j * im,
                         label1=meta["label1"], label2=meta["label2"],
                         unit=meta["unit"], provenance=meta["provenance"])


def write_real_grid(path, axis1, axis2, values, header_lines=()) -> None:
    _write_grid(path, [*header_lines, "columns: axis1,axis2,value"],
                axis1, axis2, [values])


def read_real_grid(path):
    _, axis1, axis2, (values,) = _read_grid(path, 3)
    return axis1, axis2, values


def write_trace(path, axis, values, header_lines=()) -> None:
    write_table(path, [*header_lines, "columns: axis,value"], [axis, values])


def read_trace(path):
    _, arr = _read_rows(path, 2, "trace")
    return arr[:, 0], arr[:, 1]
