"""Three-photon coincidence reconstruction and analysis.

Implements the same logic as the experiment's counting electronics: pairwise
start-stop histograms, the delayed-start three-fold reconstruction circuit,
a direct three-fold matcher as the mathematical reference, flat-background
estimation and subtraction, and the rate / nonclassicality report.  The
three-fold histogram takes time-ordered record chunks, so an event file is
matched as it is read, with one carry: the records of the last window and
their cluster marks.  A coincidence's clicks lie within one window, among
consecutive records that all do, so each of them is one of three
consecutive records within a window.  Only the records in such a
three-record cluster (about 0.1% of them at the paper's operating point)
are kept, and each block of them is matched against its own stops and the
carried ones, each start's stops found by one sort-merge of the starts
with the stops between them.

Floor formula for independent Poisson channels with the all-stop matcher:
each of the r1*T starts contributes on average (r2*bin) stops in a given
tau21 bin and (r3*bin) in a given tau31 bin, independently, so the expected
2-D floor is r1*r2*r3*bin^2*T per bin (combinatorial factor 1).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist, median

import numpy as np

from .errors import InvalidParameterError, EstimationError
from .correlation import (ConditionalTrace, _unit_peak, cauchy_schwarz_factor,
                          oscillation_period, visibility)
from .eventsim import PS_PER_S, split_channels

# kept records matched, starts merged with their stops, and (stop2, stop3)
# pair numbers expanded and binned, at once by the three-fold matcher
_TRIPLE_BLOCK = 1 << 16

# the histogram label of each reconstruction method.  The delayed-start
# circuit fans the channel-1 click out into an undelayed start, paired with
# channel-2 stops (tau21), and a delayed copy, paired with equally delayed
# channel-3 stops (tau31).  Delaying a start and its channel-3 stops by the
# same whole number of picoseconds changes neither their order nor their
# difference, so the offset cancels exactly and the circuit counts what the
# direct matcher counts: only the label differs.
METHOD_LABELS = {"direct": "direct-3fold", "delayed": "delayed-pairwise"}

# the assumed (g1_a, g1_b, g1_c) that rates_report's Cauchy-Schwarz factor
# [g3]^2 / (g1_a g1_b g1_c)^2 divides by; no config key sets them
G1 = (1.6, 2.0, 2.0)


@dataclass(frozen=True)
class CoincidenceHistogram2D:
    """Binned three-fold coincidences over (tau21, tau31).

    axis holds the bin centers in [0, window), the same on both delay axes;
    counts are non-negative integers.  method records which reconstruction
    produced the histogram; the floor is estimate_floor's, passed to
    subtract_accidentals and rates_report.
    """

    axis: np.ndarray
    counts: np.ndarray
    duration: float
    method: str = METHOD_LABELS["direct"]

    def __post_init__(self):
        if np.any(self.counts < 0):
            raise InvalidParameterError("counts must be non-negative")


@dataclass(frozen=True)
class RatesReport:
    """Summary statistics of one analyzed run.

    Rates are per minute with sqrt(N)/T Poisson errors.  The Cauchy-Schwarz
    factor is +inf (with zero_floor flag) when no accidental floor exists.
    """

    triplet_rate_per_min: float
    triplet_rate_err: float
    accidental_rate_per_min: float
    accidental_rate_err: float
    g3_peak: float
    cauchy_schwarz: float
    zero_floor: bool
    visibility: float | None
    dominant_periods: tuple


# ---------------------------------------------------------------------------
# matching primitives
# ---------------------------------------------------------------------------

def _expand(edges: np.ndarray, lo: int, hi: int):
    """(owner, offset) of items lo..hi - 1 when owner i holds the items
    edges[i]..edges[i + 1] - 1 (edges: 0, then the cumulative counts).

    Item k is number offset (counting from 0) of its owner, found by one
    search of the item numbers over the edges: the temporaries are the size
    of the range, however many items its owners hold.
    """
    k = np.arange(lo, hi)
    owner = np.searchsorted(edges, k, side="right") - 1
    return owner, k - edges[owner]


def _stop_ranges(starts: np.ndarray, stops: np.ndarray, span: int):
    """(keep, lo, n) of the starts with a stop in [start, start + span).

    keep indexes those starts; their stops are stops[lo:lo + n].  Both are
    sorted stamps in 0..2^63 - 1, stops non-empty.  The first stops come
    from one sort-merge of the starts (keys stamp << 1) with the stops
    between the first and the last start (stamp << 1 | 1, so a tie puts the
    start first).  The matcher's blocks of starts are disjoint in time, so
    their merges cost time linear in the records matched.  Where the next
    stop is in reach too, the range end is searched, summed in uint64,
    which cannot wrap; the reach tests compare stop - start < span.
    """
    a, b = np.searchsorted(stops, starts[[0, -1]]) if starts.size else (0, 0)
    keys = np.empty(starts.size + b - a, dtype=np.uint64)
    np.left_shift(starts.view(np.uint64), 1, out=keys[:starts.size])
    np.left_shift(stops[a:b].view(np.uint64), 1, out=keys[starts.size:])
    keys[starts.size:] |= 1
    keys.sort(kind="stable")  # timsort: one merge of the two sorted runs
    # start k is the k-th even key, after the stops below it
    lo = a + np.flatnonzero((keys & 1) == 0) - np.arange(starts.size)
    keep = np.flatnonzero((lo < stops.size)
                          & (stops.take(lo, mode="clip") - starts < span))
    lo, starts = lo[keep], starts[keep]
    more = np.flatnonzero((lo + 1 < stops.size)
                          & (stops.take(lo + 1, mode="clip") - starts < span))
    n = np.ones_like(lo)
    end = starts[more].view(np.uint64) + np.uint64(min(span, 1 << 63))
    n[more] = np.searchsorted(stops.view(np.uint64), end) - lo[more]
    return keep, lo, n


def _window_bin_ps(window: float, bin_width: float):
    if bin_width <= 0 or window <= 0:
        raise InvalidParameterError("window and bin must be > 0")
    if bin_width > window:
        raise InvalidParameterError("bin must not exceed window")
    w = int(round(window * PS_PER_S))
    b = int(round(bin_width * PS_PER_S))
    if b == 0:
        raise InvalidParameterError(f"bin {bin_width!r} s rounds to 0 ps")
    return w, b


def check_histogram(window: float, bin_width: float,
                    peak_rebin: int = 1) -> tuple[int, int]:
    """(window, bin) in whole ps; InvalidParameterError for a bin that rounds
    to 0 ps or exceeds the window, a window of 2^63 ps or more (the reader
    refuses such stamps), an nbins x nbins grid numpy refuses to
    allocate (the trial grid is dropped untouched, so a caller can check
    before reading events) or a peak_rebin outside 1..nbins."""
    w_ps, b_ps = _window_bin_ps(window, bin_width)
    if w_ps >= 1 << 63:
        raise InvalidParameterError(f"window {w_ps} ps is at or above 2^63 ps")
    nbins = w_ps // b_ps
    try:
        np.zeros(nbins * nbins, dtype=np.int64)
    except (MemoryError, ValueError):
        raise InvalidParameterError(f"window {w_ps} ps and bin {b_ps} ps make a "
                                    f"{nbins} x {nbins} histogram, too large") from None
    if not 1 <= peak_rebin <= nbins:
        raise InvalidParameterError(f"peak_rebin {peak_rebin} is outside "
                                    f"1..{nbins}, the bins per axis")
    return w_ps, b_ps


def pairwise_histogram(starts: np.ndarray, stops: np.ndarray, window: float,
                       bin_width: float) -> np.ndarray:
    """Start-stop delay counts of two sorted int64 channels [ps].

    Every stop with delay in [0, window) after a start is binned: all stops
    per start count, matching the flat accidental floor of an all-stop
    histogrammer.
    """
    w_ps, b_ps = _window_bin_ps(window, bin_width)
    nbins = w_ps // b_ps
    counts = np.zeros(nbins, dtype=np.int64)
    if starts.size and stops.size:
        keep, lo, n = _stop_ranges(starts, stops, nbins * b_ps)
        edges = np.concatenate(([0], np.cumsum(n)))
        rep, offs = _expand(edges, 0, edges[-1])
        delays = stops[lo[rep] + offs] - starts[keep][rep]
        counts += np.bincount(delays // b_ps, minlength=nbins)
    return counts


def _add_triples(counts, t1, t2, t3, span: int, b_ps: int) -> None:
    """Add into the flat nbins x nbins counts each (t2 - t1, t3 - t1) pair of
    delays below span = nbins * b_ps, at its flat bin index.

    The starts are taken _TRIPLE_BLOCK at a time.  _stop_ranges finds
    channel 2's stops for every start of a block, channel 3's only for the
    starts with a channel-2 stop.  Pair number k of a start with n3
    channel-3 stops is its stop2 k // n3 with stop3 k % n3.  The block's
    pairs, numbered in start order, are taken _TRIPLE_BLOCK pair numbers at
    a time: a pair block holds at most _TRIPLE_BLOCK pairs, however long or
    dense the stream and however many pairs one start has.
    """
    if not (t1.size and t2.size and t3.size):
        return
    nbins = span // b_ps
    for first in range(0, t1.size, _TRIPLE_BLOCK):
        starts = t1[first:first + _TRIPLE_BLOCK]
        keep, lo2, n2 = _stop_ranges(starts, t2, span)
        starts = starts[keep]
        keep, lo3, n3 = _stop_ranges(starts, t3, span)
        starts, lo2, n2 = starts[keep], lo2[keep], n2[keep]
        edges = np.concatenate(([0], np.cumsum(n2 * n3)))
        for lo in range(0, edges[-1], _TRIPLE_BLOCK):
            owner, k = _expand(edges, lo, min(lo + _TRIPLE_BLOCK, edges[-1]))
            k2, k3 = np.divmod(k, n3[owner])
            at = starts[owner]
            rows = (t2[lo2[owner] + k2] - at) // b_ps * nbins
            np.add.at(counts, rows + (t3[lo3[owner] + k3] - at) // b_ps, 1)


def triple_histogram(chunks, window: float, bin_width: float, duration: float,
                     method: str = METHOD_LABELS["direct"]) -> CoincidenceHistogram2D:
    """Three-fold histogram of time-ordered record chunks of (sorted stamps
    [ps] below 2^63, channel bytes): read_channel_chunks' chunks as the file
    is read, or [(stamps, channels)] of a stream.  For each channel-1 click,
    every (channel-2, channel-3) pair with delays below span = nbins * bin
    counts once at (tau21, tau31).  Both reconstructions run this.

    The carry holds the records stamped after the newest stamp - span, each
    marked if it is in a three-record cluster (t[k + 2] - t[k] < span).  An
    older record is final: no later record joins its clusters, and a start's
    stops are all read.  Final marked records are kept; every _TRIPLE_BLOCK
    of them, and at the end, their starts are matched against their stops
    and the carried ones (an unmarked stop adds no count).
    """
    w_ps, b_ps = check_histogram(window, bin_width)
    nbins = w_ps // b_ps
    span = nbins * b_ps
    counts = np.zeros(nbins * nbins, dtype=np.int64)
    t, channel, mark = (np.empty(0, dtype=d) for d in (np.int64, np.uint8, bool))
    kept, size = [], 0
    for stamps, ch in itertools.chain(chunks, [(None, None)]):
        if stamps is None:  # the end: every record is final
            final = t.size
        else:
            t = np.concatenate((t, stamps.view(np.int64)))
            channel = np.concatenate((channel, ch))
            carried, mark = mark, np.zeros(t.size, dtype=bool)
            mark[:carried.size] = carried
            close = t[2:] - t[:-2] < span
            mark[:-2] |= close
            mark[1:-1] |= close
            mark[2:] |= close
            final = np.searchsorted(t, int(t[-1]) - span, side="right") if t.size else 0
        keep = np.flatnonzero(mark[:final])
        kept.append((t[keep], channel[keep]))
        size += keep.size
        t, channel, mark = t[final:], channel[final:], mark[final:]
        if size >= _TRIPLE_BLOCK or stamps is None:
            stamps_kept, channel_kept = map(np.concatenate, zip(*kept))
            t1, t2, t3 = split_channels(channel_kept, stamps_kept, (1, 2, 3))
            c2, c3 = split_channels(channel, t, (2, 3))
            _add_triples(counts, t1, np.concatenate((t2, c2)),
                         np.concatenate((t3, c3)), span, b_ps)
            kept, size = [], 0
    axis = (np.arange(nbins) + 0.5) * b_ps / PS_PER_S
    return CoincidenceHistogram2D(axis=axis, counts=counts.reshape(nbins, nbins),
                                  duration=duration, method=method)


def _reconstruct(stream, window, bin_width, duration, method):
    if duration is None:
        duration = float(stream["timestamp_ps"].max()) / PS_PER_S if stream.size else 0.0
    # record chunks of _TRIPLE_BLOCK bound the filter's temporaries
    stamps, channel = stream["timestamp_ps"], stream["channel"]
    chunks = ((stamps[k:k + _TRIPLE_BLOCK], channel[k:k + _TRIPLE_BLOCK])
              for k in range(0, stream.size, _TRIPLE_BLOCK))
    return triple_histogram(chunks, window, bin_width, duration,
                            METHOD_LABELS[method])


def reconstruct_triple_direct(stream: np.ndarray, window: float = 195e-9,
                              bin_width: float = 0.25e-9,
                              duration: float | None = None) -> CoincidenceHistogram2D:
    """Direct three-fold matcher, the mathematical definition: the
    triple_histogram of the stream's channels 1, 2 and 3."""
    return _reconstruct(stream, window, bin_width, duration, "direct")


def reconstruct_triple_delayed(stream: np.ndarray, window: float = 195e-9,
                               bin_width: float = 0.25e-9,
                               duration: float | None = None) -> CoincidenceHistogram2D:
    """Delayed-start reconstruction emulating the experimental circuit,
    whose offset cancels (see METHOD_LABELS): the direct matcher's histogram
    under the delayed label."""
    return _reconstruct(stream, window, bin_width, duration, "delayed")


# ---------------------------------------------------------------------------
# floor estimation and subtraction
# ---------------------------------------------------------------------------

def floor_frame(shape):
    """Widths of the outer-10% border frame estimate_floor averages, or None
    when it leaves under 20% of the bins inside (3 bins per axis or fewer)."""
    widths = [max(int(round(0.10 * n)), 1) for n in shape]
    interior = np.prod([max(n - 2 * m, 0) for n, m in zip(shape, widths)])
    return widths if interior >= 0.2 * np.prod(shape) else None


def estimate_floor(hist: CoincidenceHistogram2D) -> float:
    """Accidental floor in counts per bin, from the outer-10% border frame.

    The border bins are split into 32 contiguous segments and the floor is
    the median of the segment means.  A plain per-bin median is useless in the
    sparse regime (sub-unity mean counts put the median at 0); averaging
    within segments restores an unbiased Poisson estimate while the median
    across segments keeps robustness against a feature leaking into one edge.
    """
    widths = floor_frame(hist.counts.shape)
    if widths is None:
        raise EstimationError("correlation feature fills the grid; "
                              "no background region available")
    m1, m2 = widths
    mask = np.ones(hist.counts.shape, dtype=bool)
    mask[m1:-m1, m2:-m2] = False
    border = hist.counts[mask].astype(float)
    chunks = np.array_split(border, min(32, border.size))
    return float(median([c.mean() for c in chunks]))


def subtract_accidentals(hist: CoincidenceHistogram2D, floor: float) -> np.ndarray:
    """counts - floor (per bin), clamped at zero."""
    return np.maximum(hist.counts.astype(float) - floor, 0.0)


def rebin2d(counts: np.ndarray, factor: int) -> np.ndarray:
    """Sum-rebin a 2-D array by an integer factor (trailing remainder dropped)."""
    if not 1 <= factor <= min(counts.shape):
        raise InvalidParameterError(f"rebin factor {factor} is outside "
                                    f"1..{min(counts.shape)}, the shorter axis")
    n1 = (counts.shape[0] // factor) * factor
    n2 = (counts.shape[1] // factor) * factor
    c = counts[:n1, :n2]
    return c.reshape(n1 // factor, factor, n2 // factor, factor).sum(axis=(1, 3))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def rates_report(hist: CoincidenceHistogram2D, floor: float,
                 peak_rebin: int = 8) -> RatesReport:
    """Rates, g3, Cauchy-Schwarz factor and trace metrics for one histogram
    over an accidental floor in counts per bin (estimate_floor's).

    triplet rate = (total - floor*nbins)/duration, accidental rate =
    floor*nbins/duration, both per minute with sqrt(N)/T errors.  g3 is the
    peak/floor ratio evaluated on a peak_rebin-fold coarsened histogram (the
    full-resolution maximum is a biased order statistic in the sparse
    regime), and the Cauchy-Schwarz factor divides its square by G1's.
    Periods and visibility come from the marginals of the
    accidental-subtracted map.
    """
    nbins = hist.counts.size
    total = float(hist.counts.sum())
    acc_counts = floor * nbins
    sig_counts = max(total - acc_counts, 0.0)
    minutes = hist.duration / 60.0
    triplet_rate = sig_counts / minutes if minutes > 0 else 0.0
    acc_rate = acc_counts / minutes if minutes > 0 else 0.0
    triplet_err = np.sqrt(max(sig_counts, 0.0)) / minutes if minutes > 0 else 0.0
    acc_err = np.sqrt(max(acc_counts, 0.0)) / minutes if minutes > 0 else 0.0
    coarse = rebin2d(hist.counts, peak_rebin).astype(float)
    coarse_floor = floor * peak_rebin ** 2
    zero_floor = coarse_floor <= 0
    if zero_floor:
        g3 = float("inf")
        factor = float("inf")
    else:
        g3 = float(coarse.max()) / coarse_floor
        factor = cauchy_schwarz_factor(g3, G1)
    sub = subtract_accidentals(hist, floor)
    tr21 = ConditionalTrace(axis=hist.axis,
                            values=_unit_peak(sub.sum(axis=1)), kind="trace-out-S3")
    tr31 = ConditionalTrace(axis=hist.axis,
                            values=_unit_peak(sub.sum(axis=0)), kind="trace-out-S2")
    periods = []
    for tr in (tr21, tr31):
        est = oscillation_period(tr)
        periods.append((est.period, est.confidence))
    try:
        vis = visibility(tr21)
    except EstimationError:
        vis = None
    return RatesReport(triplet_rate_per_min=triplet_rate,
                       triplet_rate_err=float(triplet_err),
                       accidental_rate_per_min=acc_rate,
                       accidental_rate_err=float(acc_err),
                       g3_peak=g3, cauchy_schwarz=factor,
                       zero_floor=bool(zero_floor), visibility=vis,
                       dominant_periods=tuple(periods))


def _poisson_sum(js, mu: float) -> float:
    """Sum of the Poisson(mu) pmf over js, which run away from the mode.

    Each term is taken in log space; the terms fall monotonically, so the
    sum stops once a term no longer changes it.
    """
    log_mu = math.log(mu)
    total = 0.0
    for j in js:
        term = math.exp(j * log_mu - mu - math.lgamma(j + 1))
        if term <= total * 1e-17:
            break
        total += term
    return total


def _poisson_tails(k: int, mu: float) -> tuple[float, float]:
    """(P(X <= k), P(X > k)) for X ~ Poisson(mu), k >= 0.

    The tail on the far side of the mode is summed directly and the other
    is its complement, so a small tail keeps its relative precision.
    """
    if k + 1 <= mu:
        lo = _poisson_sum(range(k, -1, -1), mu)
        return lo, 1.0 - lo
    hi = _poisson_sum(itertools.count(k + 1), mu)
    return 1.0 - hi, hi


def diagnose_crosscheck(t3: np.ndarray, t4: np.ndarray, window: float = 195e-9,
                        bin_width: float = 0.25e-9) -> dict:
    """Flatness test of the channel-3 / channel-4 pairwise histogram.

    t3 and t4 are the sorted int64 stamps [ps] of the two channels.  An
    independent diagnosis channel must produce a flat delay histogram.
    The most extreme bin is scored with its exact Poisson tail probability
    (Gaussian z-scores misjudge the skew at the few-counts-per-bin means
    typical here), Bonferroni-corrected for the number of bins; structure is
    flagged when the corrected two-sided p drops below 1%.  An empty
    histogram is flat.  Returns
    {'flat': bool, 'max_deviation_sigma': equivalent Gaussian z}.
    """
    counts = pairwise_histogram(t3, t4, window, bin_width)
    mu = float(counts.mean())
    if mu == 0:
        return {"flat": True, "max_deviation_sigma": 0.0}
    p_hi = _poisson_tails(int(counts.max()) - 1, mu)[1]
    p_lo = _poisson_tails(int(counts.min()), mu)[0]
    p_extreme = min(p_hi, p_lo)
    z = -NormalDist().inv_cdf(max(p_extreme, 1e-300))
    adjusted = p_extreme * 2 * counts.size
    return {"flat": adjusted >= 0.01, "max_deviation_sigma": z}
