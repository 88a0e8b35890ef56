"""Built-in quick oracle and invariant checks for the `selftest` subcommand.

These are a fast subset of the full pytest suite: each check prints one
pass/fail line; run() returns the number of failures.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from .params import (maxwell_boltzmann_pdf, resonance_set,
                     doppler_detunings, doppler_width, DetuningOffsets, OMEGA42, C_LIGHT)
from .susceptibility import (VelocityQuadrature, chi5, longitudinal_phi,
                             chi_linear_s1)
from .correlation import cauchy_schwarz_factor
from .config import parse_config_text, default_config
from .eventsim import SourceConfig, stream_windows
from . import io_formats


def _checks():
    params = default_config().experiment_params()

    def mb_normalization():
        v = np.linspace(-8, 8, 20001) * params.sigma_v
        total = np.trapezoid(maxwell_boltzmann_pdf(v, params.cell.temperature), v)
        return abs(total - 1.0) < 1e-9

    def phi_trivials():
        ok = longitudinal_phi(0.0, 0.07) == 1.0 + 0.0j
        dk = 2 * np.pi / 0.07
        ok &= abs(longitudinal_phi(dk, 0.07)) < 1e-12
        rng = np.random.default_rng(0)
        ok &= bool(np.all(np.abs(longitudinal_phi(rng.normal(0, 100, 1000), 0.07))
                          <= 1 + 1e-12))
        return ok

    def energy_conservation():
        off = DetuningOffsets(delta_s2=1.0e8, delta_s3=-3.0e7)
        return off.delta_s1 + off.delta_s2 + off.delta_s3 == 0.0

    def resonance_pairs():
        rs = resonance_set(params, 0.0)
        return abs(rs.centers_d3[0] + rs.centers_d3[1]
                   + params.drive.delta3) < 1e-3

    def doppler_affine():
        d1a, d2a, d3a = doppler_detunings(100.0, params.drive)
        d1b, d2b, d3b = doppler_detunings(0.0, params.drive)
        slope = (d2a - d2b) / 100.0
        return abs(slope + OMEGA42 / C_LIGHT) < 1e-6

    def quadrature_oracle():
        quad = VelocityQuadrature(scheme="uniform-riemann")
        oracle = VelocityQuadrature(scheme="uniform-riemann", node_count=20000)
        x = chi5(1e8, -5e7, params, quad)
        y = chi5(1e8, -5e7, params, oracle)
        return abs(x - y) / abs(y) < 1e-6

    def exact_oracle():
        # (0, 0), one point on d2 = d3 (b2 turns linear) and one with d3 = 0
        # (b3 turns linear)
        d2 = np.array([0.0, 7e8, -4e8])
        d3 = np.array([0.0, 7e8, 0.0])
        oracle = VelocityQuadrature(scheme="uniform-riemann", node_count=20000,
                                    range_sigmas=8.0)
        x = chi5(d2, d3, params)
        y = chi5(d2, d3, params, oracle)
        return bool(np.all(np.abs(x - y) <= 1e-12 * np.abs(y)))

    def chi_s1_zero():
        return chi_linear_s1() == 0j

    def cs_identity():
        g3 = np.sqrt(250.0) * (1.6 * 2.0 * 2.0)
        return abs(cauchy_schwarz_factor(g3, (1.6, 2.0, 2.0)) - 250.0) < 1e-9

    def od_reference():
        return abs(params.od - 4.6) < 1e-9

    def doppler_width_scale():
        w80 = doppler_width(353.15)
        w_scaled = doppler_width(4 * 353.15)
        return abs(w_scaled - 2 * w80) / w80 < 1e-12

    def config_round_trip():
        cfg = parse_config_text("delta2 = -150 MHz\ntemperature = 80 C\n")
        ok = abs(cfg["delta2"] + 2 * np.pi * 1.5e8) < 1e-3
        ok &= abs(cfg["temperature"] - 353.15) < 1e-12
        ok &= default_config()["delta2"] == cfg["delta2"]
        return ok

    def event_file_round_trip():
        cfg = SourceConfig(triplet_rate=0.0, singles_rate=(5e3, 5e3, 0.0, 0.0),
                           duration=10.0, seed=7)
        windows = list(stream_windows(None, cfg))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.tpe1"
            io_formats.write_windows(path, windows, seed=7, duration_ps=10 * 10 ** 12)
            header, chunks = io_formats.read_channel_chunks(path)
            # ~100k records: two chunks, each viewing buffers the next one reuses
            back = [(ts.copy(), ch.copy()) for ts, ch in chunks]
        sent = [np.concatenate(col) for col in zip(*windows)]
        back = [np.concatenate(col) for col in zip(*back)]
        return (np.array_equal(back[0], sent[0]) and np.array_equal(back[1], sent[1])
                and header["seed"] == 7)

    return [
        ("maxwell-boltzmann normalization", mb_normalization),
        ("longitudinal phi trivials", phi_trivials),
        ("emitted-offset sum rule", energy_conservation),
        ("resonance center pair symmetry", resonance_pairs),
        ("doppler detuning slopes", doppler_affine),
        ("midpoint velocity quadrature vs 20k-node oracle", quadrature_oracle),
        ("exact doppler integral vs 20k-node oracle", exact_oracle),
        ("chi_S1 identically zero", chi_s1_zero),
        ("cauchy-schwarz algebraic identity", cs_identity),
        ("optical depth reference calibration", od_reference),
        ("doppler width sqrt(T) scaling", doppler_width_scale),
        ("config parsing round trip", config_round_trip),
        ("event file round trip", event_file_round_trip),
    ]


def run() -> int:
    failures = 0
    for name, fn in _checks():
        try:
            ok = bool(fn())
        except Exception as exc:
            ok = False
            name = f"{name} (raised {type(exc).__name__}: {exc})"
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1
    return failures
