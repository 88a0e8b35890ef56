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


@pytest.fixture(scope="session")
def reference_run(kernel512):
    """One-hour synthetic stream at the reference operating point, plus both
    reconstructions and the simulation-truth counts.

    The sampling map is evaluated on the analysis bin centers (0.25 ns cells)
    so the recovered histogram is directly comparable to the input density.
    """
    import time
    from triphoton.coincidence import (reconstruct_triple_direct,
                                       reconstruct_triple_delayed)

    centers = (np.arange(77) + 0.5) * 0.25e-9
    tau_spec = GridSpec2D(centers[0], centers[-1], 77,
                          centers[0], centers[-1], 77)
    cmap = triphoton_amplitude_map(tau_spec, method="transform",
                                   kernel=kernel512)
    cfg = SourceConfig(triplet_rate=102.0 / 60.0,
                       singles_rate=(800.0,) * 4,
                       dual_pair_rate=1000.0, dual_pair_delay=1e-6,
                       dark_rate=(200.0,) * 4,
                       duration=3600.0, seed=20240817)
    t0 = time.perf_counter()
    stream = generate_stream(cmap, cfg)
    hist_direct = reconstruct_triple_direct(stream, duration=cfg.duration)
    hist_delayed = reconstruct_triple_delayed(stream, duration=cfg.duration)
    elapsed = time.perf_counter() - t0
    hist_truth = reconstruct_triple_direct(stream[stream["origin"] == 0],
                                           duration=cfg.duration)
    return {"cmap": cmap, "cfg": cfg, "stream": stream,
            "hist_direct": hist_direct, "hist_delayed": hist_delayed,
            "hist_truth": hist_truth, "elapsed": elapsed}
