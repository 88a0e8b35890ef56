"""End-to-end acceptance gate.

Each test prints exactly one [PASS]/[FAIL] line for its criterion and then
asserts it.  Criteria 5 and 8 encode behavior the underlying optical-response
model does not reproduce (see the development notes); their tests state the
required property faithfully and are expected to fail.
"""
import dataclasses
import time

import numpy as np
from scipy.signal import find_peaks
from scipy.stats import chi2

from triphoton.params import (OMEGA42, resonance_set, doppler_detunings,
                              maxwell_boltzmann_pdf)
from triphoton.susceptibility import (ComplexGrid2D, GridSpec2D,
                                      VelocityQuadrature, chi5, chi5_map,
                                      longitudinal_phi, phase_mismatch,
                                      chi_linear_s1)
from triphoton.correlation import (default_spectral_window, spectral_kernel,
                                   triphoton_amplitude_map, trace_map,
                                   cauchy_schwarz_factor)
from triphoton.config import default_config, parse_config_text, dump_defaults
from triphoton.params import DetuningOffsets, effective_rabi, rabi_from_power
from triphoton.eventsim import SourceConfig, generate_stream, split_channels
from triphoton.coincidence import (reconstruct_triple_direct, rates_report,
                                   subtract_accidentals, rebin2d,
                                   diagnose_crosscheck, estimate_floor)
from triphoton.cli import sweep_rate
from triphoton import io_formats

from oracles import amplitude_map_direct, conditional_r2_closed, density_for_od


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_quadrature_fidelity(params, quad):
    """Default velocity quadrature matches a 20000-node uniform reference over
    +-8 thermal widths to 1e-6 relative at 10 random spectral points, in
    under 30 s.  At +-8 widths the reference is itself within 1e-12, so the
    reading is the default scheme's error, not the truncation of the
    reference (3.3e-8 at +-6 widths)."""
    oracle = VelocityQuadrature(scheme="uniform-riemann", node_count=20000,
                                range_sigmas=8)
    rng = np.random.default_rng(20240817)
    pts = rng.uniform(-2 * np.pi * 2e9, 2 * np.pi * 2e9, size=(10, 2))
    t0 = time.perf_counter()
    worst = 0.0
    for d2, d3 in pts:
        x = chi5(float(d2), float(d3), params, quad)
        y = chi5(float(d2), float(d3), params, oracle)
        worst = max(worst, abs(x - y) / abs(y))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report(1, ok, f"max rel error {worst:.3e} over 10 random points "
                   f"(tol 1e-6), {elapsed:.1f} s (budget 30 s)")


def _resonance_profile(p, quad):
    """delta2 profile of |chi5| max-projected over a dense delta3 axis."""
    spec = default_spectral_window(p, n2=256, n3=2048)
    grid = chi5_map(spec, p, quad)
    prof = np.max(np.abs(grid.values), axis=1)
    peaks, _ = find_peaks(prof, height=0.1 * prof.max(),
                          prominence=0.05 * prof.max())
    cell = grid.axis1[1] - grid.axis1[0]
    return grid.axis1[peaks], cell


def test_criterion_02_resonance_maxima(params, quad):
    """The reference map shows 4 resonance maxima above 10% of peak, each on
    the velocity-parametrized resonance prediction to within one grid cell;
    the hot dense cell shows strictly fewer."""
    t0 = time.perf_counter()
    peaks_a, cell = _resonance_profile(params, quad)
    elapsed_a = time.perf_counter() - t0
    sig = params.sigma_v
    vs = np.linspace(-4 * sig, 4 * sig, 4001)
    curve = np.array([resonance_set(params, v).centers_d2 for v in vs])
    dists = np.array([np.min(np.abs(curve - pk)) for pk in peaks_a])
    hot = dataclasses.replace(
        params,
        cell=dataclasses.replace(params.cell, temperature=388.15,
                                 density_N=density_for_od(45.7, 388.15)),
        drive=dataclasses.replace(params.drive, omega2=2 * np.pi * 533e6))
    t0 = time.perf_counter()
    peaks_c, _ = _resonance_profile(hot, quad)
    elapsed_c = time.perf_counter() - t0
    ok = (peaks_a.size == 4 and np.all(dists <= cell)
          and peaks_c.size < peaks_a.size
          and elapsed_a < 120.0 and elapsed_c < 120.0)
    _report(2, ok,
            f"reference maxima {peaks_a.size} (need 4), worst offset "
            f"{dists.max() / (2 * np.pi * 1e6):.2f} MHz vs cell "
            f"{cell / (2 * np.pi * 1e6):.1f} MHz, hot cell {peaks_c.size} "
            f"(need < 4), {elapsed_a:.0f}/{elapsed_c:.0f} s per map "
            f"(budget 120 s)")


def test_criterion_03_dual_transform_paths(kernel512):
    """Direct quadrature and chirp-z transform agree to 1e-4 on a 64x64 delay
    grid, and both match an analytic Gaussian-kernel oracle to 1e-6."""
    t0 = time.perf_counter()
    tau = GridSpec2D(0.0, 20e-9, 64, 0.0, 20e-9, 64)
    m_t = triphoton_amplitude_map(tau, kernel=kernel512)
    m_d = amplitude_map_direct(tau, kernel=kernel512)
    cross = float(np.max(np.abs(m_t.values - m_d.values))
                  / np.max(np.abs(m_d.values)))
    # analytic oracle: separable Gaussian kernel, known transform
    s = 1e9
    ax = np.linspace(-8e9, 8e9, 512)
    kern = ComplexGrid2D(
        axis1=ax, axis2=ax,
        values=np.exp(-0.5 * (ax[:, None] / s) ** 2
                      - 0.5 * (ax[None, :] / s) ** 2))
    tg = GridSpec2D(0.0, 3e-9, 32, 0.0, 3e-9, 32)
    t21, t31 = tg.axes()
    exact = np.exp(-0.5 * (s * t21[:, None]) ** 2
                   - 0.5 * (s * t31[None, :]) ** 2)
    worst = 0.0
    for amplitude_map in (triphoton_amplitude_map, amplitude_map_direct):
        m = amplitude_map(tg, kernel=kern)
        worst = max(worst, float(np.max(np.abs(m.values - exact))))
    elapsed = time.perf_counter() - t0
    ok = cross < 1e-4 and worst < 1e-6 and elapsed < 300.0
    _report(3, ok, f"path cross-check {cross:.2e} (tol 1e-4), Gaussian oracle "
                   f"{worst:.2e} (tol 1e-6), {elapsed:.1f} s (budget 300 s)")


def test_criterion_04_conditional_pair_rate(kernel1024):
    """The closed-form conditional pair rate matches the correlation map
    marginalized over the third photon's delay to 1e-3 relative."""
    tau23 = np.linspace(0.0, 50e-9, 128)
    closed = conditional_r2_closed(tau23, kernel=kernel1024)
    tau = GridSpec2D(0.0, 50e-9, 128, 0.0, 160e-9, 640)
    cmap = triphoton_amplitude_map(tau, kernel=kernel1024)
    marginal = trace_map(cmap, "trace-out-S3")
    diff = float(np.max(np.abs(closed.values - marginal.values))
                 / np.max(marginal.values))
    ok = diff < 1e-3
    _report(4, ok, f"closed form vs marginalized map rel diff {diff:.2e} "
                   f"(tol 1e-3)")


def _significant_spectral_peaks(trace):
    """Spectral peaks of a trace: >= 10% of top height, >= 5% prominence,
    frequencies below 2 cycles per window excluded.  Sorted by height."""
    y = trace.values - trace.values.mean()
    spec = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(y.size, d=trace.axis[1] - trace.axis[0])
    span = trace.axis[-1] - trace.axis[0]
    spec[freqs < 2.0 / span] = 0.0
    peaks, _ = find_peaks(spec, height=0.1 * spec.max(),
                          prominence=0.05 * spec.max())
    order = peaks[np.argsort(spec[peaks])[::-1]]
    return [(1.0 / freqs[k], spec[k] / spec.max()) for k in order]


def test_criterion_05_trace_structure(kernel512):
    """The tau21 marginal carries at least two significant oscillation
    components while the tau31 marginal is dominated by a single one.

    The second half does not hold in this model: marginalizing |A3|^2 over
    one delay suppresses cross-channel beats, leaving two comparable tau31
    components.  Periods are reported beside the measured 6.2 / 1.7 ns
    reference pair with no hard tolerance, as required.
    """
    tau = GridSpec2D(0.0, 19e-9, 77, 0.0, 19e-9, 77)
    cmap = triphoton_amplitude_map(tau, kernel=kernel512)
    p21 = _significant_spectral_peaks(trace_map(cmap, "trace-out-S3"))
    p31 = _significant_spectral_peaks(trace_map(cmap, "trace-out-S2"))
    fmt = lambda ps: ", ".join(f"{p * 1e9:.2f} ns (h {h:.2f})" for p, h in ps)
    ok21 = len(p21) >= 2
    ok31 = len(p31) == 1 or (len(p31) >= 2 and p31[1][1] < 0.5)
    _report(5, ok21 and ok31,
            f"tau21 components [{fmt(p21)}] (need >= 2: {ok21}), tau31 "
            f"components [{fmt(p31)}] (need single dominant: {ok31}); "
            f"measured reference periods 6.2 / 1.7 ns for comparison")


def test_criterion_06_stream_recovery(reference_run):
    """Rates recovered from a 1-hour synthetic stream agree with the
    simulation truth to 3 sigma, both reconstruction methods (the direct
    matcher and conftest's delayed-start join) count the same coincidences
    bin for bin and agree under a chi-square test, the subtracted map
    correlates with the input density, and the diagnosis channel stays
    flat."""
    run = reference_run
    hd, ht = run["hist_direct"], run["hist_truth"]
    minutes = run["cfg"].duration / 60.0
    truth_trip = ht.counts.sum() / minutes
    truth_acc = (hd.counts.sum() - ht.counts.sum()) / minutes
    floor = estimate_floor(hd)
    rep = rates_report(hd, floor)
    z_trip = abs(rep.triplet_rate_per_min - truth_trip) / rep.triplet_rate_err
    z_acc = abs(rep.accidental_rate_per_min - truth_acc) / rep.accidental_rate_err
    a = hd.counts.ravel().astype(float)
    b = run["counts_delayed"].ravel().astype(float)
    m = (a + b) > 0
    stat = float(np.sum((a[m] - b[m]) ** 2 / (a[m] + b[m])))
    p_agree = float(chi2.sf(stat, int(m.sum()))) if m.any() else 1.0
    same_bins = np.array_equal(hd.counts, run["counts_delayed"])
    sub = subtract_accidentals(hd, floor)[:77, :77]
    r = float(np.corrcoef(rebin2d(sub, 4).ravel(),
                          rebin2d(np.abs(run["cmap"].values) ** 2, 4).ravel())[0, 1])
    t3, t4 = split_channels(run["stream"]["channel"], run["stream"]["timestamp_ps"],
                            (3, 4))
    diag = diagnose_crosscheck(t3, t4)
    ok = (z_trip <= 3.0 and z_acc <= 3.0 and same_bins and p_agree > 0.01
          and r >= 0.9 and diag["flat"] and run["elapsed"] < 180.0)
    _report(6, ok,
            f"triplets {rep.triplet_rate_per_min:.1f}/min vs truth "
            f"{truth_trip:.1f} ({z_trip:.1f} sigma), accidentals "
            f"{rep.accidental_rate_per_min:.1f}/min vs truth {truth_acc:.1f} "
            f"({z_acc:.1f} sigma), method counts {a.sum():.0f} vs "
            f"{b.sum():.0f} (equal bins {same_bins}), agreement p {p_agree:.3f}, "
            f"Pearson r {r:.3f} (need 0.9), diagnosis flat {diag['flat']}, "
            f"{run['elapsed']:.0f} s for {run['stream'].size} events "
            f"(budget 180 s)")


def test_criterion_07_cauchy_schwarz(reference_run):
    """The nonclassicality factor satisfies its algebraic identity, exceeds 1
    for the correlated stream, and stays at or below 1 for pure noise."""
    ident = cauchy_schwarz_factor(np.sqrt(250.0) * (1.6 * 2.0 * 2.0),
                                  (1.6, 2.0, 2.0))
    hd = reference_run["hist_direct"]
    rep = rates_report(hd, estimate_floor(hd))
    noise_cfg = SourceConfig(triplet_rate=0.0,
                             singles_rate=(2e4, 2e4, 2e4, 0.0),
                             duration=600.0, seed=11)
    noise = generate_stream(None, noise_cfg)
    hist = reconstruct_triple_direct(noise, window=195e-9, bin_width=2.5e-9,
                                     duration=noise_cfg.duration)
    rep_noise = rates_report(hist, estimate_floor(hist))
    ok = (abs(ident - 250.0) < 1e-9 and rep.cauchy_schwarz > 1.0
          and rep_noise.cauchy_schwarz <= 1.0)
    _report(7, ok,
            f"identity {ident:.12g} (need 250), correlated factor "
            f"{rep.cauchy_schwarz:.3g} (need > 1), noise factor "
            f"{rep_noise.cauchy_schwarz:.3g} (need <= 1)")


def test_criterion_08_power_sweep(params, quad):
    """The integrated generation rate grows monotonically with the field-2
    power over 5-40 mW, with the deviation from a linear fit reported.

    The resonance-denominator saturation of the model cancels the linear
    power factor exactly, so the trend is flat-to-decreasing and the
    monotonicity assertion fails; the deviation is still reported.
    """
    powers = np.linspace(5e-3, 40e-3, 8)

    def at_power(p):
        return dataclasses.replace(params, drive=dataclasses.replace(
            params.drive, omega2=rabi_from_power(2, p)))

    spec = default_spectral_window(at_power(float(powers[-1])), n2=256, n3=256)
    rates = np.asarray([sweep_rate(spectral_kernel(spec, at_power(float(p)), quad),
                                   float(p)) for p in powers])
    coeff = np.polyfit(powers, rates, 1)
    rel_dev = float(np.max(np.abs(rates - np.polyval(coeff, powers)))
                    / rates.max())
    mono = bool(np.all(np.diff(rates) >= 0))
    _report(8, mono,
            f"monotone nondecreasing {mono} over {powers[0]*1e3:.0f}-"
            f"{powers[-1]*1e3:.0f} mW (rate ratio last/first "
            f"{rates[-1]/rates[0]:.2f}), max deviation from linear fit "
            f"{rel_dev:.1%}")


def test_criterion_09_determinism_round_trips(tmp_path):
    """Identical seeds give byte-identical outputs and every file format
    round-trips losslessly."""
    tau = GridSpec2D(0.0, 10e-9, 12, 0.0, 10e-9, 12)
    rng = np.random.default_rng(5)
    kern = ComplexGrid2D(axis1=np.linspace(-2e9, 2e9, 24),
                         axis2=np.linspace(-2e9, 2e9, 24),
                         values=rng.normal(size=(24, 24))
                         + 1j * rng.normal(size=(24, 24)))
    m1 = triphoton_amplitude_map(tau, kernel=kern)
    m2 = triphoton_amplitude_map(tau, kernel=kern)
    same_map = m1.values.tobytes() == m2.values.tobytes()
    cfg = SourceConfig(triplet_rate=5.0, singles_rate=(100.0,) * 4,
                       dark_rate=(20.0,) * 4, duration=30.0, seed=99)
    s1 = generate_stream(m1, cfg)
    s2 = generate_stream(m2, cfg)
    f1, f2 = tmp_path / "a.tpe1", tmp_path / "b.tpe1"
    for f, s in ((f1, s1), (f2, s2)):
        io_formats.write_events(f, s, seed=99, duration_ps=30 * 10 ** 12,
                                keep_origin=True)
    same_file = f1.read_bytes() == f2.read_bytes()
    back, header = io_formats.read_events(f1)
    events_rt = (np.array_equal(back, s1) and header["seed"] == 99
                 and header["duration_ps"] == 30 * 10 ** 12)
    gpath = tmp_path / "grid.csv"
    io_formats.write_complex_grid(gpath, kern)
    back_grid = io_formats.read_complex_grid(gpath)
    grid_rt = (np.array_equal(back_grid.values, kern.values)
               and np.array_equal(back_grid.axis1, kern.axis1))
    cfg_rt = (parse_config_text(dump_defaults()).values
              == default_config().values)
    ok = same_map and same_file and events_rt and grid_rt and cfg_rt
    _report(9, ok,
            f"map determinism {same_map}, event-file determinism {same_file}, "
            f"event round trip {events_rt}, grid round trip {grid_rt}, "
            f"config round trip {cfg_rt}")


def test_criterion_10_basic_invariants(params):
    """Fast structural invariants hold, in under 10 s."""
    t0 = time.perf_counter()
    L = params.cell.length_L
    rng = np.random.default_rng(0)
    checks = {
        "phi(0) = 1": longitudinal_phi(0.0, L) == 1 + 0j,
        "phi null at 2 pi / L":
            abs(longitudinal_phi(2 * np.pi / L, L)) < 1e-12,
        "|phi| <= 1": bool(np.all(np.abs(
            longitudinal_phi(rng.normal(0, 200, 2000), L)) <= 1 + 1e-12)),
        "offset sum rule":
            DetuningOffsets(1.3e8, -2.7e7).delta_s1 + 1.3e8 - 2.7e7 == 0.0,
        "velocity pdf normalized": abs(np.trapezoid(
            maxwell_boltzmann_pdf(
                np.linspace(-8, 8, 20001) * params.sigma_v,
                params.cell.temperature),
            np.linspace(-8, 8, 20001) * params.sigma_v) - 1) < 1e-9,
        "vacuum mismatch null at center":
            phase_mismatch(0.0, 0.0) == 0.0,
        "linear response of far-detuned photon vanishes":
            chi_linear_s1() == 0j,
        "resonance pair symmetry": abs(
            sum(resonance_set(params).centers_d3) + params.drive.delta3) < 1e-3,
        "effective splitting reduces to detuning":
            abs(effective_rabi(1e9, 0.0, 0.0, 0.0) - 1e9) < 1e-6,
        "doppler slope": abs(
            (doppler_detunings(100.0, params.drive)[1]
             - doppler_detunings(0.0, params.drive)[1]) / 100.0
            + OMEGA42 / 299792458.0) < 1e-6,
    }
    elapsed = time.perf_counter() - t0
    failed = [k for k, v in checks.items() if not v]
    ok = not failed and elapsed < 10.0
    _report(10, ok, f"{len(checks) - len(failed)}/{len(checks)} invariants, "
                    f"{elapsed:.2f} s (budget 10 s)"
                    + (f"; failed: {failed}" if failed else ""))
