"""Monte Carlo generation of time-tagged detection streams.

True triplets are drawn from |A3|^2 of an A3 grid, used as a 2-D probability
density over (tau21, tau31); on top of that the accidental sources the
experiment suffers from are layered: uncorrelated singles, dual SFWM biphoton
contamination, and dark counts.  Every click passes efficiency thinning and
Gaussian timing jitter and is quantized to 1 ps (finer than the recording
card's 813 fs resolution is pointless, and 1 ps keeps 64-bit integer
arithmetic exact for over 100 days of stream).  Each click series, one
channel of one source, is sorted on its own, then the series are merged one
time window of about CHUNK events at a time, each window by one plain sort
of keys that pack the stamp and the series number, so no stream-sized sort
temporary, index or gather is ever built.  stream_windows hands the windows
out as they are merged: writing them to a file holds the sorted series (8 of
the stream's 10 bytes per event) plus one window of 64k events.
generate_stream copies the windows into one in-memory stream array, with
the origin tag of each event.

All randomness derives from a single 64-bit master seed through fixed
per-source labels, so adding or removing one source never perturbs the
timestamps of another.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .errors import InvalidParameterError

# simulation-truth origin tags
ORIGIN_TRIPLET = 0
ORIGIN_SINGLE = 1
ORIGIN_DUAL_PAIR = 2
ORIGIN_DARK = 3

# in-memory event layout; timestamps in integer picoseconds
EVENT_DTYPE = np.dtype([("timestamp_ps", "<u8"), ("channel", "u1"),
                        ("origin", "u1")])

PS_PER_S = 1_000_000_000_000

# events per efficiency or jitter draw, stamp conversion, order check and
# merge window: 64k keeps each temporary near 0.5 MB
CHUNK = 1 << 16

# Generator.poisson refuses a larger mean ("lam value too large")
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass(frozen=True)
class SourceConfig:
    """Rates, detector parameters and bookkeeping for one simulated run.

    Rates are per second.  singles_rate and dark_rate are per channel
    (channels 1..4).  The SFWM contamination is two independent biphoton
    streams, on channels (1, 2) and (2, 3), each at dual_pair_rate with an
    exponential intra-pair delay of mean dual_pair_delay [s]; their
    accidental overlap creates flat three-fold background.
    """

    triplet_rate: float = 102.0 / 60.0
    singles_rate: tuple = (0.0, 0.0, 0.0, 0.0)
    dual_pair_rate: float = 0.0
    dual_pair_delay: float = 1e-6
    dark_rate: tuple = (0.0, 0.0, 0.0, 0.0)
    detector_efficiency: tuple = (1.0, 1.0, 1.0, 1.0)
    fiber_coupling: float = 1.0
    jitter_sigma: float = 0.0
    duration: float = 3600.0
    seed: int = 0

    def __post_init__(self):
        # the stamps are viewed as int64 downstream, the seed feeds a u64;
        # an event file's header holds the duration in whole ps
        if not (isfinite(self.duration) and
                0 < round(self.duration * PS_PER_S) < 2 ** 63):
            raise InvalidParameterError(
                f"duration {self.duration!r} s must be finite and, in whole "
                "ps, at least 1 and below 2^63")
        if not (isinstance(self.seed, (int, np.integer))
                and 0 <= self.seed < 2 ** 64):
            raise InvalidParameterError(
                f"seed {self.seed!r} must be an integer in [0, 2^64)")
        # NaN fails every comparison, so 0 <= x < inf also refuses it
        for name in ("triplet_rate", "dual_pair_rate", "jitter_sigma"):
            if not 0 <= (value := getattr(self, name)) < inf:
                raise InvalidParameterError(f"{name} {value!r} must be finite and >= 0")
        if not 0 < self.dual_pair_delay < inf:
            raise InvalidParameterError(
                f"dual_pair_delay {self.dual_pair_delay!r} must be finite and > 0")
        for name in ("singles_rate", "dark_rate"):
            vals = getattr(self, name)
            if len(vals) != 4 or not all(0 <= r < inf for r in vals):
                raise InvalidParameterError(f"{name} {vals!r} needs 4 finite, "
                                            "non-negative entries")
        if len(self.detector_efficiency) != 4 or \
                any(not 0 <= e <= 1 for e in self.detector_efficiency):
            raise InvalidParameterError("efficiencies must be 4 values in [0, 1]")
        if not 0 <= self.fiber_coupling <= 1:
            raise InvalidParameterError("fiber_coupling must be in [0, 1]")
        # each click series draws its count as one Poisson number
        rates = [("triplet_rate", self.triplet_rate)]
        for name in ("singles_rate", "dark_rate"):
            rates += [(f"{name} channel {ch}", r)
                      for ch, r in enumerate(getattr(self, name), 1)]
        rates.append(("dual_pair_rate", self.dual_pair_rate))
        for name, rate in rates:
            expect = f"{name}: {rate!r} /s over {self.duration!r} s expects " \
                     f"{rate * self.duration:.3g} clicks"
            if rate * self.duration >= _POISSON_LAM_MAX:
                raise InvalidParameterError(f"{expect}, at or above numpy's "
                                            f"Poisson limit of {_POISSON_LAM_MAX:.3g}")
            # a trial array of the series' uniform draws (8 bytes a click),
            # dropped untouched as coincidence.check_histogram's is
            try:
                np.zeros(int(rate * self.duration))
            except (MemoryError, ValueError):
                raise InvalidParameterError(f"{expect}, too many to hold in "
                                            "memory") from None


def _rng(seed: int, label: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, label))))


def _sample_triplet_delays(a3: ComplexGrid2D, rng: np.random.Generator,
                           n: int):
    """n (tau21, tau31) draws distributed proportionally to r3 = |A3|^2 of
    the grid a3 (axis1 tau21, axis2 tau31), as two arrays.

    Inverse-CDF sampling on the flattened cell masses, with a uniform jitter
    inside the selected cell so the samples fill the grid continuously.
    """
    r3 = np.abs(a3.values) ** 2
    p = r3.ravel()
    total = p.sum()
    if total <= 0:
        raise InvalidParameterError("correlation map has zero total mass")
    idx = rng.choice(p.size, size=n, p=p / total)
    n2 = r3.shape[1]
    i, j = idx // n2, idx % n2
    d21 = a3.axis1[1] - a3.axis1[0]
    d31 = a3.axis2[1] - a3.axis2[0]
    t21 = a3.axis1[i] + (rng.random(n) - 0.5) * d21
    t31 = a3.axis2[j] + (rng.random(n) - 0.5) * d31
    return t21, t31


def _poisson_times(rng: np.random.Generator, rate: float, duration: float):
    """Arrival times of a homogeneous Poisson process on [0, duration)."""
    times = rng.random(rng.poisson(rate * duration))
    times.sort()
    times *= duration
    return times


def _first_out_of_order(ts):
    """Index of the first timestamp earlier than its predecessor, or None.

    Compares CHUNK stamps at a time, so the check needs a chunk-sized
    boolean temporary, not a stream-sized one.
    """
    for start in range(0, ts.size - 1, CHUNK):
        seg = ts[start:start + CHUNK + 1]
        back = seg[1:] < seg[:-1]
        if back.any():
            return start + 1 + int(np.argmax(back))
    return None


def split_channels(channel: np.ndarray, stamps: np.ndarray, channels) -> tuple:
    """(int64 stamps [ps] of channel c, in input order) for c in channels.

    Each channel's uint64 stamps are taken by index (flatnonzero), which
    gathers faster than a boolean mask; no other channel is copied.  Stamps
    below 2^63 ps (106 days) keep their value.
    """
    return tuple(stamps.view(np.int64).take(np.flatnonzero(channel == c)) for c in channels)


def _triplet_clicks(rng, cfg: SourceConfig, a3: ComplexGrid2D):
    """Clicks on channels 1, 2, 3 at (t, t + tau21, t + tau31) per emission."""
    t0 = _poisson_times(rng, cfg.triplet_rate, cfg.duration)
    t21, t31 = _sample_triplet_delays(a3, rng, t0.size)
    t21 += t0
    t31 += t0
    return [(t0, 1, ORIGIN_TRIPLET), (t21, 2, ORIGIN_TRIPLET),
            (t31, 3, ORIGIN_TRIPLET)]


def _channel_clicks(rng, cfg: SourceConfig, rate: float, ch: int, tag: int):
    """Poisson clicks on one channel: singles or darks."""
    return [(_poisson_times(rng, rate, cfg.duration), ch, tag)]


def _dual_pair_clicks(rng, cfg: SourceConfig):
    """The (1, 2) and then the (2, 3) biphoton streams, each pair's first
    and second clicks split by an exponential delay."""
    series = []
    for (ch_first, ch_second) in ((1, 2), (2, 3)):
        t0 = _poisson_times(rng, cfg.dual_pair_rate, cfg.duration)
        dt = rng.exponential(cfg.dual_pair_delay, t0.size)
        dt += t0
        series += [(t0, ch_first, ORIGIN_DUAL_PAIR),
                   (dt, ch_second, ORIGIN_DUAL_PAIR)]
    return series


def _finalize(cfg: SourceConfig, label: int, clicks, *args):
    """One source's detected clicks as merge parts: one (timestamp_ps,
    channel, origin) part per click series, each sorted by timestamp.

    clicks(rng, cfg, *args) draws the source's raw click series, each a
    (times [s], channel, origin) with one channel and one origin, using the
    generator of seed label `label`.  The clicks are thinned by efficiency,
    jittered, clipped to the run and quantized to 1 ps.  Every efficiency
    draw is taken, series after series, before the first jitter draw, each
    CHUNK at a time: PCG64 yields the numbers one draw over the series
    concatenated would; a series whose efficiency is 1 keeps every click,
    and the generator is advanced past its draws.  A copy is made only
    where a click is dropped, and the sort only where a series is out of
    order: a first click without jitter never is.  The stamps take the place of the float times they
    come from, CHUNK at a time.  A series has one channel and one origin, so
    it is sorted in place, stamps alone.
    """
    rng = _rng(cfg.seed, label)
    series = clicks(rng, cfg, *args)
    eff = np.asarray(cfg.detector_efficiency) * cfg.fiber_coupling
    for k in range(len(series)):
        times_s, ch, tag = series[k]
        if eff[ch - 1] == 1.0:
            # every click is kept: skip the draws that could not drop one
            rng.bit_generator.advance(times_s.size)
            continue
        keep = np.empty(times_s.size, dtype=bool)
        for lo in range(0, times_s.size, CHUNK):
            hi = min(lo + CHUNK, times_s.size)
            keep[lo:hi] = rng.random(hi - lo) < eff[ch - 1]
        if not keep.all():
            series[k] = (times_s[keep], ch, tag)
        del times_s, keep
    parts = []
    while series:
        # each raw series dies as soon as its stamps exist
        times_s, ch, tag = series.pop(0)
        if cfg.jitter_sigma > 0:
            for lo in range(0, times_s.size, CHUNK):
                seg = times_s[lo:lo + CHUNK]
                seg += rng.normal(0.0, cfg.jitter_sigma, seg.size)
        inside = (times_s >= 0) & (times_s < cfg.duration)
        if not inside.all():
            times_s = times_s[inside]
        del inside
        times_s *= PS_PER_S
        np.rint(times_s, out=times_s)
        # exact: every value is whole and in [0, 2^63)
        ts = times_s.view(np.uint64)
        for lo in range(0, ts.size, CHUNK):
            ts[lo:lo + CHUNK] = times_s[lo:lo + CHUNK].astype(np.uint64)
        del times_s
        if _first_out_of_order(ts) is not None:
            # nearly sorted: the stable sort's run detection is near linear
            ts.sort(kind="stable")
        parts.append((ts, ch, tag))
    return parts


def _merge(parts, window: int):
    """Stable merge of sorted (timestamp_ps, channel, origin) parts, each with
    one channel and one origin, yielded one window at a time as
    (timestamp_ps, channel, origin) arrays.

    The time axis up to the largest stamp is cut into about total / window
    equal windows, and into more where needed so that each spans less than
    2^(64 - b) ps, b the bits of the largest part number.  Each window's
    slices of the parts are concatenated in part order into one key
    (stamp - window start) << b | part, built in place, and sorted with one
    plain sort; the part number in the low bits then gives the channel and
    origin.  Equal stamps always share a window, and equal keys are
    identical records, so ties break by part order, then by position within
    the part: the order of one stable argsort of all parts concatenated,
    without its index and gather copies.
    """
    total = sum(ts.size for ts, _, _ in parts)
    if total == 0:
        return
    end = max(int(ts[-1]) for ts, _, _ in parts if ts.size) + 1
    bits = max(1, (len(parts) - 1).bit_length())
    n_win = max(-(-total // window), (end >> (64 - bits)) + 1)
    edges = np.array([end * k // n_win for k in range(n_win + 1)],
                     dtype=np.uint64)
    cuts = [np.searchsorted(ts, edges) for ts, _, _ in parts]
    tags = np.array([(ch, origin) for _, ch, origin in parts], dtype=np.uint8)
    for k in range(n_win):
        key = np.concatenate([ts[c[k]:c[k + 1]] for (ts, _, _), c in zip(parts, cuts)])
        key -= edges[k]
        key <<= bits
        pos = 0
        for j, c in enumerate(cuts):
            stop = pos + int(c[k + 1] - c[k])
            key[pos:stop] |= j
            pos = stop
        key.sort()
        part = np.empty(key.size, dtype=np.min_scalar_type(len(parts) - 1))
        np.bitwise_and(key, (1 << bits) - 1, out=part, casting="unsafe")
        key >>= bits
        key += edges[k]
        # take on axis 0 copies whole rows; tags[part] goes element by element
        yield (key, *np.take(tags, part, axis=0).T)


def _sources(a3: ComplexGrid2D | None, cfg: SourceConfig):
    """The merge parts of every source, in source order."""
    parts = []
    # triplets (label 0)
    if cfg.triplet_rate > 0:
        if a3 is None:
            raise InvalidParameterError("triplet_rate > 0 requires a correlation map")
        parts += _finalize(cfg, 0, _triplet_clicks, a3)
    # singles (labels 10+ch) and darks (labels 200+ch)
    for base, rates, tag in ((10, cfg.singles_rate, ORIGIN_SINGLE),
                             (200, cfg.dark_rate, ORIGIN_DARK)):
        for ch in (1, 2, 3, 4):
            rate = rates[ch - 1]
            if rate > 0:
                parts += _finalize(cfg, base + ch, _channel_clicks,
                                   rate, ch, tag)
    # dual-pair SFWM contamination (label 100)
    if cfg.dual_pair_rate > 0:
        parts += _finalize(cfg, 100, _dual_pair_clicks)
    return parts


def stream_windows(a3: ComplexGrid2D | None, cfg: SourceConfig):
    """The stream of generate_stream as an iterator of merge windows, each
    (timestamp_ps, channel, origin) arrays of about CHUNK events.

    Every source is finalized before this returns; the merge runs as the
    windows are taken, so the sorted stream is never held whole.
    """
    return _merge(_sources(a3, cfg), CHUNK)


def generate_stream(a3: ComplexGrid2D | None, cfg: SourceConfig) -> np.ndarray:
    """Synthesize the full detection stream for one run.

    Returns a structured array (EVENT_DTYPE) sorted stably by timestamp, ties
    in source order: triplets, singles, darks, dual pairs, and within a
    source in click-series order.  Triplet emissions are a homogeneous
    Poisson process; each emission puts clicks at (t, t + tau21, t + tau31)
    on channels 1, 2, 3 with the delays drawn from the map.  The dual pairs
    are two independent biphoton streams, on channels (1, 2) and (2, 3),
    with exponential intra-pair delay.  Singles and darks are independent
    Poisson per channel.  Each click series is finalized and sorted on its
    own, then the series are merged window by window (_merge).
    Deterministic given cfg.seed.
    """
    parts = _sources(a3, cfg)
    out = np.empty(sum(ts.size for ts, _, _ in parts), dtype=EVENT_DTYPE)
    pos = 0
    for window in _merge(parts, CHUNK):
        stop = pos + window[0].size
        for field, col in zip(EVENT_DTYPE.names, window):
            out[field][pos:stop] = col
        pos = stop
    return out
