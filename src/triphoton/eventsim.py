"""Monte Carlo generation of time-tagged detection streams.

True triplets are drawn from a CorrelationMap used as a 2-D probability
density over (tau21, tau31); on top of that the accidental sources the
experiment suffers from are layered: uncorrelated singles, dual SFWM biphoton
contamination, and dark counts.  Every click passes efficiency thinning and
Gaussian timing jitter, then everything is merged, sorted and quantized to
1 ps (finer than the recording card's 813 fs resolution is pointless, and
1 ps keeps 64-bit integer arithmetic exact for over 100 days of stream).

All randomness derives from a single 64-bit master seed through fixed
per-source labels, so adding or removing one source never perturbs the
timestamps of another.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .correlation import CorrelationMap

# simulation-truth origin tags
ORIGIN_TRIPLET = 0
ORIGIN_SINGLE = 1
ORIGIN_DUAL_PAIR = 2
ORIGIN_DARK = 3
ORIGIN_NAMES = {ORIGIN_TRIPLET: "triplet", ORIGIN_SINGLE: "single",
                ORIGIN_DUAL_PAIR: "dual-pair", ORIGIN_DARK: "dark"}

# in-memory event layout; timestamps in integer picoseconds
EVENT_DTYPE = np.dtype([("timestamp_ps", "<u8"), ("channel", "u1"),
                        ("origin", "u1")])

PS_PER_S = 1_000_000_000_000


@dataclass(frozen=True)
class SourceConfig:
    """Rates, detector parameters and bookkeeping for one simulated run.

    Rates are per second.  singles_rate and dark_rate are per channel
    (channels 1..4); dual_pair_rates lists SFWM contamination entries as
    (channels_pair_a, channels_pair_b, rate, pair_delay_mean_s): two
    independent biphoton streams, each at `rate`, whose accidental overlap
    creates flat three-fold background.
    """

    triplet_rate: float = 102.0 / 60.0
    singles_rate: tuple = (0.0, 0.0, 0.0, 0.0)
    dual_pair_rates: tuple = ()
    dark_rate: tuple = (0.0, 0.0, 0.0, 0.0)
    detector_efficiency: tuple = (1.0, 1.0, 1.0, 1.0)
    fiber_coupling: float = 1.0
    jitter_sigma: float = 0.0
    duration: float = 3600.0
    seed: int = 0

    def __post_init__(self):
        if self.duration <= 0:
            raise InvalidParameterError("duration must be > 0")
        if self.triplet_rate < 0:
            raise InvalidParameterError("triplet_rate must be >= 0")
        for name in ("singles_rate", "dark_rate"):
            vals = getattr(self, name)
            if len(vals) != 4 or any(r < 0 for r in vals):
                raise InvalidParameterError(f"{name} needs 4 non-negative entries")
        if len(self.detector_efficiency) != 4 or \
                any(not 0 <= e <= 1 for e in self.detector_efficiency):
            raise InvalidParameterError("efficiencies must be 4 values in [0, 1]")
        if not 0 <= self.fiber_coupling <= 1:
            raise InvalidParameterError("fiber_coupling must be in [0, 1]")
        for entry in self.dual_pair_rates:
            (_, _), (_, _), rate, mean = entry[0], entry[1], entry[2], entry[3]
            if rate < 0 or mean <= 0:
                raise InvalidParameterError(
                    "dual-pair entries need rate >= 0 and delay mean > 0")


def _rng(seed: int, label: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, label))))


def _flat_masses(cmap: CorrelationMap):
    p = cmap.r3.ravel().astype(float)
    total = p.sum()
    if total <= 0:
        raise InvalidParameterError("correlation map has zero total mass")
    return p / total


def sample_triplet_delays(cmap: CorrelationMap, rng: np.random.Generator):
    """One (tau21, tau31) draw distributed proportionally to r3.

    Inverse-CDF sampling on the flattened cell masses, with a uniform jitter
    inside the selected cell so the samples fill the grid continuously.
    """
    t21, t31 = _sample_triplet_delays(cmap, rng, 1)
    return float(t21[0]), float(t31[0])


def _sample_triplet_delays(cmap: CorrelationMap, rng: np.random.Generator,
                           n: int):
    p = _flat_masses(cmap)
    idx = rng.choice(p.size, size=n, p=p)
    n2 = cmap.r3.shape[1]
    i, j = idx // n2, idx % n2
    d21 = cmap.tau21_axis[1] - cmap.tau21_axis[0]
    d31 = cmap.tau31_axis[1] - cmap.tau31_axis[0]
    t21 = cmap.tau21_axis[i] + (rng.random(n) - 0.5) * d21
    t31 = cmap.tau31_axis[j] + (rng.random(n) - 0.5) * d31
    return t21, t31


def _poisson_times(rng: np.random.Generator, rate: float, duration: float):
    """Arrival times of a homogeneous Poisson process on [0, duration)."""
    n = rng.poisson(rate * duration)
    return np.sort(rng.random(n)) * duration


def _finalize(times_s: np.ndarray, channels: np.ndarray, origins: np.ndarray,
              cfg: SourceConfig, rng: np.random.Generator) -> np.ndarray:
    """Thin by efficiency, add jitter, clip to the run and quantize one
    source's clicks, left in input order; generate_stream sorts the merged
    stream."""
    if times_s.size == 0:
        return np.empty(0, dtype=EVENT_DTYPE)
    eff = np.asarray(cfg.detector_efficiency)[channels - 1] * cfg.fiber_coupling
    keep = rng.random(times_s.size) < eff
    times_s, channels, origins = times_s[keep], channels[keep], origins[keep]
    if cfg.jitter_sigma > 0 and times_s.size:
        times_s = times_s + rng.normal(0.0, cfg.jitter_sigma, times_s.size)
    inside = (times_s >= 0) & (times_s < cfg.duration)
    times_s, channels, origins = times_s[inside], channels[inside], origins[inside]
    out = np.empty(times_s.size, dtype=EVENT_DTYPE)
    out["timestamp_ps"] = np.rint(times_s * PS_PER_S).astype(np.uint64)
    out["channel"] = channels
    out["origin"] = origins
    return out


def generate_stream(cmap: CorrelationMap | None, cfg: SourceConfig) -> np.ndarray:
    """Synthesize the full detection stream for one run.

    Returns a structured array (EVENT_DTYPE) sorted by timestamp.  Triplet
    emissions are a homogeneous Poisson process; each emission puts clicks at
    (t, t + tau21, t + tau31) on channels 1, 2, 3 with the delays drawn from
    the map.  Dual-pair entries place two independent biphoton streams with
    exponential intra-pair delay.  Singles and darks are independent Poisson
    per channel.  Deterministic given cfg.seed.
    """
    parts = []
    # triplets (label 0)
    if cfg.triplet_rate > 0:
        if cmap is None:
            raise InvalidParameterError("triplet_rate > 0 requires a correlation map")
        rng = _rng(cfg.seed, 0)
        t0 = _poisson_times(rng, cfg.triplet_rate, cfg.duration)
        t21, t31 = _sample_triplet_delays(cmap, rng, t0.size)
        times = np.concatenate([t0, t0 + t21, t0 + t31])
        chans = np.concatenate([np.full(t0.size, 1, dtype=np.uint8),
                                np.full(t0.size, 2, dtype=np.uint8),
                                np.full(t0.size, 3, dtype=np.uint8)])
        origins = np.full(times.size, ORIGIN_TRIPLET, dtype=np.uint8)
        parts.append(_finalize(times, chans, origins, cfg, rng))
    # singles (labels 10+ch) and darks (labels 200+ch)
    for base, rates, tag in ((10, cfg.singles_rate, ORIGIN_SINGLE),
                             (200, cfg.dark_rate, ORIGIN_DARK)):
        for ch in (1, 2, 3, 4):
            rate = rates[ch - 1]
            if rate <= 0:
                continue
            rng = _rng(cfg.seed, base + ch)
            times = _poisson_times(rng, rate, cfg.duration)
            chans = np.full(times.size, ch, dtype=np.uint8)
            origins = np.full(times.size, tag, dtype=np.uint8)
            parts.append(_finalize(times, chans, origins, cfg, rng))
    # dual-pair SFWM contamination (labels 100+k)
    for k, (pair_a, pair_b, rate, mean) in enumerate(cfg.dual_pair_rates):
        if rate <= 0:
            continue
        rng = _rng(cfg.seed, 100 + k)
        times_list, chan_list = [], []
        for (ch_first, ch_second) in (pair_a, pair_b):
            t0 = _poisson_times(rng, rate, cfg.duration)
            dt = rng.exponential(mean, t0.size)
            times_list.extend([t0, t0 + dt])
            chan_list.extend([np.full(t0.size, ch_first, dtype=np.uint8),
                              np.full(t0.size, ch_second, dtype=np.uint8)])
        times = np.concatenate(times_list)
        chans = np.concatenate(chan_list)
        origins = np.full(times.size, ORIGIN_DUAL_PAIR, dtype=np.uint8)
        parts.append(_finalize(times, chans, origins, cfg, rng))
    if not parts:
        return np.empty(0, dtype=EVENT_DTYPE)
    stream = np.concatenate(parts)
    stream = stream[np.argsort(stream["timestamp_ps"], kind="stable")]
    return stream


def diagnose_stream(cfg: SourceConfig) -> np.ndarray:
    """Independent Poisson clicks on the diagnosis channel (channel 4).

    Uses the channel-4 singles rate; statistically independent of channels
    1-3 by construction (its own seeded stream).
    """
    rate = cfg.singles_rate[3]
    rng = _rng(cfg.seed, 14)
    times = _poisson_times(rng, rate, cfg.duration)
    chans = np.full(times.size, 4, dtype=np.uint8)
    origins = np.full(times.size, ORIGIN_SINGLE, dtype=np.uint8)
    return _finalize(times, chans, origins, cfg, rng)
