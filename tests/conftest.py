"""Shared fixtures: the reference parameter set and the heavy spectral
kernels, computed once per session."""
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from triphoton.config import default_config
from triphoton.susceptibility import GridSpec2D, VelocityQuadrature
from triphoton.correlation import (default_spectral_window, spectral_kernel,
                                   triphoton_amplitude_map)
from triphoton.eventsim import SourceConfig, generate_stream

settings.register_profile("suite", deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def raw_event_file():
    """write(path, stamps, channels, duration_ps): a TPE1 file written record
    by record with no check, for the malformed files the writer refuses."""
    def write(path, stamps, channels, duration_ps, seed=0, channel_count=4):
        rec = np.zeros(len(stamps), dtype=[("timestamp_ps", "<u8"),
                                           ("channel", "u1"), ("pad", "V7")])
        rec["timestamp_ps"] = stamps
        rec["channel"] = channels
        path.write_bytes(struct.pack("<4sHHQQH6x", b"TPE1", 1, 32, seed,
                                     duration_ps, channel_count)
                         + rec.tobytes())
        return path
    return write


@pytest.fixture(scope="session")
def params():
    return default_config().experiment_params()


@pytest.fixture(scope="session")
def quad():
    return VelocityQuadrature()


@pytest.fixture(scope="session")
def kernel512(params, quad):
    """Reference spectral kernel on the default 512x512 window (~0.3 s on 2
    vCPUs with the exact Doppler integrals)."""
    return spectral_kernel(default_spectral_window(params), params, quad)


@pytest.fixture(scope="session")
def kernel1024(params, quad):
    """Fine spectral kernel for the long-range marginalization checks (~1.3 s
    on 2 vCPUs)."""
    spec = default_spectral_window(params, n2=1024, n3=1024)
    return spectral_kernel(spec, params, quad)


def _expand(first, n):
    """(g, k) of every index k with first[g] <= k < first[g] + n[g]."""
    group = np.repeat(np.arange(n.size), n)
    return group, np.arange(group.size) + np.repeat(first - (np.cumsum(n) - n), n)


def _start_stop_pairs(starts, stops, span):
    """(start index, stop - start) of every pair with 0 <= stop - start <
    span, grouped by start, from searchsorted bounds on the sorted stops."""
    lo = np.searchsorted(stops, starts, side="left")
    owner, k = _expand(lo, np.searchsorted(stops, starts + span, side="left") - lo)
    return owner, stops[k] - starts[owner]


def delayed_start_join(stream, window=195e-9, bin_width=0.25e-9, delay=1e-6):
    """Three-fold counts of the delayed-start circuit, built apart from the
    package's matcher: the (1,2) start-stop pairs give tau21, the (1,3)
    pairs with start and stop delayed alike by delay give tau31, and the two
    pair lists join on the start."""
    b_ps = int(round(bin_width * 1e12))
    nbins = int(round(window * 1e12)) // b_ps
    span, d_ps = nbins * b_ps, int(round(delay * 1e12))
    stamps = stream["timestamp_ps"].astype(np.int64)
    t1, t2, t3 = (stamps[stream["channel"] == c] for c in (1, 2, 3))
    own2, tau21 = _start_stop_pairs(t1, t2, span)
    own3, tau31 = _start_stop_pairs(t1 + d_ps, t3 + d_ps, span)
    # each (1,2) pair meets every (1,3) pair of its start
    first3 = np.searchsorted(own3, own2, side="left")
    pair2, pair3 = _expand(first3, np.searchsorted(own3, own2, side="right") - first3)
    counts = np.zeros((nbins, nbins), dtype=np.int64)
    np.add.at(counts, (tau21[pair2] // b_ps, tau31[pair3] // b_ps), 1)
    return counts


@pytest.fixture(scope="session")
def reference_run(kernel512):
    """One-hour synthetic stream at the reference operating point, plus its
    direct histogram, the delayed-start join's counts and the
    simulation-truth counts.

    The sampling map is evaluated on the analysis bin centers (0.25 ns cells)
    so the recovered histogram is directly comparable to the input density.
    """
    import time
    from triphoton.coincidence import reconstruct_triple_direct

    centers = (np.arange(77) + 0.5) * 0.25e-9
    tau_spec = GridSpec2D(centers[0], centers[-1], 77,
                          centers[0], centers[-1], 77)
    cmap = triphoton_amplitude_map(tau_spec, kernel=kernel512)
    cfg = SourceConfig(triplet_rate=102.0 / 60.0,
                       singles_rate=(800.0,) * 4,
                       dual_pair_rate=1000.0, dual_pair_delay=1e-6,
                       dark_rate=(200.0,) * 4,
                       duration=3600.0, seed=20240817)
    t0 = time.perf_counter()
    stream = generate_stream(cmap, cfg)
    hist_direct = reconstruct_triple_direct(stream, duration=cfg.duration)
    counts_delayed = delayed_start_join(stream)
    elapsed = time.perf_counter() - t0
    hist_truth = reconstruct_triple_direct(stream[stream["origin"] == 0],
                                           duration=cfg.duration)
    return {"cmap": cmap, "cfg": cfg, "stream": stream,
            "hist_direct": hist_direct, "counts_delayed": counts_delayed,
            "hist_truth": hist_truth, "elapsed": elapsed}
