"""Triphoton temporal correlation maps and derived metrics.

The two-dimensional amplitude A3(tau21, tau31) is the Fourier transform of
the windowed spectral kernel chi5 * sinc(dk L / 2) (with the group-delay
phases folded into the kernel, since they depend only on the spectral
offsets).  Two independent evaluation paths are provided: a direct double
quadrature and a chirp-z transform; they serve as mutual cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from statistics import median

import numpy as np

from .errors import (InvalidParameterError, SamplingError, RangeError,
                     EstimationError)
from .params import C_LIGHT, TWO_PI, ExperimentParams, resonance_set
from .susceptibility import (ComplexGrid2D, GridSpec2D, VelocityQuadrature,
                             _check_axis, chi5_map, group_velocity,
                             phase_mismatch, params_hash)

_CLIP = 2 * np.pi * 5e9  # the spectral window's bound on either axis [rad/s]
# the spectral window's margins: effective linewidths beyond the outermost
# resonance centers, then the fraction of that span padded on each side
_LINEWIDTHS, _PAD = 8.0, 0.25

# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationMap:
    """A3 over a (tau21, tau31) grid plus the coincidence rate r3 = |A3|^2.

    grid.values holds A3 normalized to unit peak modulus; the raw scale is
    recorded in grid.provenance.
    """

    grid: ComplexGrid2D

    @cached_property
    def r3(self) -> np.ndarray:
        return np.abs(self.grid.values) ** 2

    @property
    def tau21_axis(self):
        return self.grid.axis1

    @property
    def tau31_axis(self):
        return self.grid.axis2


@dataclass(frozen=True)
class ConditionalTrace:
    """A one-dimensional non-negative correlation trace over time delays."""

    axis: np.ndarray
    values: np.ndarray
    kind: str = "fixed-line"
    line_spec: str = ""

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if axis.ndim != 1 or axis.shape != values.shape:
            raise InvalidParameterError("axis and values must be matched 1-D arrays")
        if axis.size > 1:
            _check_axis(axis, "axis")
        if np.any(values < 0):
            raise InvalidParameterError("trace values must be non-negative")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# spectral kernel
# ---------------------------------------------------------------------------

def default_spectral_window(params: ExperimentParams, n2: int = 512,
                            n3: int = 512) -> GridSpec2D:
    """Spectral integration window derived from the resonance structure.

    Union of all resonance centers +- _LINEWIDTHS effective linewidths,
    padded by _PAD of the span on each side, clipped to +-_CLIP.  The
    centers are swept over the +-3 sigma thermal velocity range since
    Doppler shifts move each resonance by ~1 MHz per m/s.
    """
    sets = _resonance_sets(params)
    lw2, lw3 = sets[0].linewidth_d2, sets[0].linewidth_d3
    lo2 = min(min(s.centers_d2) for s in sets) - _LINEWIDTHS * lw2
    hi2 = max(max(s.centers_d2) for s in sets) + _LINEWIDTHS * lw2
    lo3 = min(min(s.centers_d3) for s in sets) - _LINEWIDTHS * lw3
    hi3 = max(max(s.centers_d3) for s in sets) + _LINEWIDTHS * lw3
    pad2 = _PAD * (hi2 - lo2)
    pad3 = _PAD * (hi3 - lo3)
    lo2, hi2 = max(lo2 - pad2, -_CLIP), min(hi2 + pad2, _CLIP)
    lo3, hi3 = max(lo3 - pad3, -_CLIP), min(hi3 + pad3, _CLIP)
    return GridSpec2D(lo2, hi2, n2, lo3, hi3, n3)


def _resonance_sets(params: ExperimentParams) -> list:
    """The resonance sets at v = 0, -3 sigma and +3 sigma.  The effective
    linewidths at v = 0 are refused unless positive: a weak field with a
    negative detuning turns its linewidth negative, and a window built from
    it would miss the resonances.  A field with no Rabi frequency and no
    ground decay has no linewidth (nan, 0 / 0) where its Doppler-shifted
    detuning is <= 0, which is refused at all three velocities."""
    sig = params.sigma_v
    sets = [resonance_set(params, v) for v in (0.0, -3 * sig, 3 * sig)]
    for j, ground in ((2, "gamma21"), (3, "gamma11")):
        lws = [getattr(s, f"linewidth_d{j}") for s in sets]
        omega, delta, rate = (x / TWO_PI / 1e6 for x in (
            getattr(params.drive, f"omega{j}"), getattr(params.drive, f"delta{j}"),
            getattr(params.rates, ground)))
        if not np.isfinite(lws).all():
            raise InvalidParameterError(
                f"effective linewidth of field {j} is 0 / 0 at a Doppler-shifted "
                f"detuning <= 0: omega{j} = {omega:.4g} MHz and {ground} = "
                f"{rate:.4g} MHz leave it no width (delta{j} = {delta:.4g} MHz)")
        if not lws[0] > 0:
            raise InvalidParameterError(
                f"effective linewidth of field {j} is {lws[0] / TWO_PI / 1e6:.4g} MHz, "
                f"not > 0: omega{j} = {omega:.4g} MHz is too weak for "
                f"delta{j} = {delta:.4g} MHz")
    return sets


def _check_coverage(spec: GridSpec2D, params: ExperimentParams):
    """spec must cover each axis' resonance centers at v = 0 +- 5 effective
    linewidths; a miss names the clip and the keys that place the centers."""
    rs = _resonance_sets(params)[0]
    for axis, centers, lw, lo, hi, keys in (
            ("delta2", rs.centers_d2, rs.linewidth_d2, spec.min1, spec.max1,
             "delta2, delta3, omega2 (power2) and omega3 (power3)"),
            ("delta3", rs.centers_d3, rs.linewidth_d3, spec.min2, spec.max2,
             "delta3 and omega3 (power3)")):
        need = (min(centers) - 5 * lw, max(centers) + 5 * lw)
        if lo > need[0] or hi < need[1]:
            raise InvalidParameterError(
                f"the spectral window, clipped to +-{_CLIP / TWO_PI / 1e9:g} GHz, "
                f"misses {axis}'s resonance centers +- 5 linewidths at "
                f"{need[0] / TWO_PI / 1e9:.4g} to {need[1] / TWO_PI / 1e9:.4g} "
                f"GHz, placed by {keys}")


def spectral_kernel(spectral_spec: GridSpec2D, params: ExperimentParams,
                    quad: VelocityQuadrature = VelocityQuadrature(),
                    profiles: dict | None = None,
                    phase_convention: str = "si-eq-s8",
                    group_delay_mode: str = "local") -> ComplexGrid2D:
    """chi5 * sinc(dk L / 2) * exp(-i delta_j L / 2 v_Sj) on a spectral grid.

    The group-delay phase factors depend only on (delta2, delta3) and are
    folded in here, so the correlation map reduces to a plain 2-D Fourier
    transform of this kernel.  The group velocities are resolved once and
    serve both dk and the phases.
    """
    _check_coverage(spectral_spec, params)
    grid = chi5_map(spectral_spec, params, quad)
    d2 = grid.axis1[:, None]
    d3 = grid.axis2[None, :]
    v2 = group_velocity(profiles, "S2", grid.axis1, group_delay_mode)[:, None]
    v3 = group_velocity(profiles, "S3", grid.axis2, group_delay_mode)[None, :]
    L = params.cell.length_L
    dk = phase_mismatch(d2, d3, v2, v3, phase_convention)
    kern = grid.values * np.sinc(dk * L / (2 * np.pi))
    if profiles:
        kern = kern * np.exp(-1j * d2 * (L / (2.0 * v2)))
        kern = kern * np.exp(-1j * d3 * (L / (2.0 * v3)))
    else:
        kern = kern * np.exp(-1j * (d2 + d3) * (L / (2.0 * C_LIGHT)))
    return replace(grid, values=kern, provenance="spectral_kernel "
                   f"{params_hash(params, spectral_spec, quad)}")


# ---------------------------------------------------------------------------
# Fourier machinery
# ---------------------------------------------------------------------------

def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n: a length the FFT handles fast."""
    while True:
        r = n
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def czt(x, m=None, w=None, a=1 + 0j, *, axis=-1):
    """Chirp z-transform sum_k x_k a^-k w^(j k), j < m, along one axis.

    Bluestein's algorithm (Rabiner, Schafer & Rader 1969) on numpy.fft, in
    the order of operations of scipy.signal.czt, so the two agree bit for
    bit.  The defaults give the length-n DFT.
    """
    x = np.asarray(x)
    n = x.shape[axis]
    m = n if m is None else m
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    if w is None:
        wk2 = np.exp(-(1j * np.pi * ((k ** 2) % (2 * m))) / m)
    else:
        wk2 = w ** (k ** 2 / 2.)
    a = 1.0 * a
    awk2 = a ** -k[:n] * wk2[:n]
    nfft = _next_fast_len(n + m - 1)
    fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), nfft)
    x = np.swapaxes(x, axis, -1)
    y = np.fft.ifft(fwk2 * np.fft.fft(x * awk2, nfft))
    y = y[..., n - 1:n + m - 1] * wk2[:m]
    return np.swapaxes(y, axis, -1)


def _fourier_axis(values: np.ndarray, axis_nodes: np.ndarray,
                  tau_nodes: np.ndarray, axis: int) -> np.ndarray:
    """sum_k values_k exp(+i delta_k tau_m) along one array axis, via czt."""
    ddel = axis_nodes[1] - axis_nodes[0]
    dtau = tau_nodes[1] - tau_nodes[0]
    a = np.exp(-1j * ddel * tau_nodes[0])
    w = np.exp(1j * ddel * dtau)
    out = czt(values, m=tau_nodes.size, w=w, a=a, axis=axis)
    phase = np.exp(1j * axis_nodes[0] * tau_nodes)
    shape = [1] * out.ndim
    shape[axis] = tau_nodes.size
    return out * phase.reshape(shape)


def _nyquist_check(spec_axis: np.ndarray, tau_axis: np.ndarray, name: str):
    ddel = spec_axis[1] - spec_axis[0]
    tmax = float(np.max(np.abs(tau_axis)))
    if ddel * tmax > np.pi:
        span = spec_axis[-1] - spec_axis[0]
        need = int(np.ceil(span * tmax / np.pi)) + 1
        raise SamplingError(
            f"spectral axis {name} too coarse for requested delays "
            f"(spacing {ddel:.3e} rad/s, max |tau| {tmax:.3e} s): "
            f"{name} needs at least {need} points over its span",
            required_size=need)


# ---------------------------------------------------------------------------
# correlation maps
# ---------------------------------------------------------------------------

def triphoton_amplitude_map(tau_spec: GridSpec2D, kernel: ComplexGrid2D,
                            method: str = "transform") -> CorrelationMap:
    """Triphoton amplitude A3(tau21, tau31), peak-normalized.

    A3 = double integral of the spectral kernel times
    exp(+i delta2 tau21) exp(+i delta3 tau31).  The + sign pairs with the
    response-function pole convention of the susceptibilities (poles at
    Im delta > 0) so the correlation is supported at non-negative delays and
    the group-delay phases shift the peak to positive delay, as observed in
    coincidence histograms.  method 'direct' performs the
    Riemann double sum explicitly; 'transform' evaluates the identical sum
    with a chirp-z transform, so the two agree to machine precision by
    default.  kernel is the spectral kernel grid, as built by
    spectral_kernel.
    """
    if method not in ("direct", "transform"):
        raise InvalidParameterError(f"unknown method '{method}'")
    tau21, tau31 = tau_spec.axes()
    _nyquist_check(kernel.axis1, tau21, "delta2")
    _nyquist_check(kernel.axis2, tau31, "delta3")
    dd2 = kernel.axis1[1] - kernel.axis1[0]
    dd3 = kernel.axis2[1] - kernel.axis2[0]
    if method == "direct":
        e2 = np.exp(1j * np.outer(tau21, kernel.axis1))
        e3 = np.exp(1j * np.outer(kernel.axis2, tau31))
        a3 = (e2 @ kernel.values @ e3) * (dd2 * dd3)
    else:
        a3 = _fourier_axis(kernel.values, kernel.axis1, tau21, axis=0)
        a3 = _fourier_axis(a3, kernel.axis2, tau31, axis=1)
        a3 = a3 * (dd2 * dd3)
    scale = float(np.max(np.abs(a3)))
    if scale > 0:
        a3 = a3 / scale
    grid = ComplexGrid2D(axis1=tau21, axis2=tau31, values=a3,
                         label1="tau21", label2="tau31", unit="s",
                         provenance=f"triphoton_amplitude_map method={method} "
                                    f"raw_scale={scale!r}")
    return CorrelationMap(grid=grid)


def conditional_r2_closed(tau23_axis, kernel: ComplexGrid2D) -> ConditionalTrace:
    """Closed-form conditional two-photon rate R2(tau23), unit-normalized.

    R2 = integral over delta3 of |integral over delta2 of the spectral kernel
    times exp(+i delta2 tau23)|^2 -- the inner transform only runs over
    delta2, the outer modulus-squared integral over delta3.  The transform
    sign matches triphoton_amplitude_map.
    """
    tau23 = np.asarray(tau23_axis, dtype=float)
    _nyquist_check(kernel.axis1, tau23, "delta2")
    dd2 = kernel.axis1[1] - kernel.axis1[0]
    dd3 = kernel.axis2[1] - kernel.axis2[0]
    e2 = np.exp(1j * np.outer(tau23, kernel.axis1))
    inner = (e2 @ kernel.values) * dd2
    r2 = np.sum(np.abs(inner) ** 2, axis=1) * dd3
    return ConditionalTrace(axis=tau23, values=_unit_peak(r2), kind="fixed-line",
                            line_spec="closed-form R2(tau23)")


# ---------------------------------------------------------------------------
# traces and cuts
# ---------------------------------------------------------------------------

def trace_map(cmap: CorrelationMap, kind: str,
              normalize: bool = True) -> ConditionalTrace:
    """Marginal of r3 over one delay axis.

    trace-out-S3 sums over tau31 (returns a tau21 trace), trace-out-S2 the
    converse; trace-out-S1 re-bins by tau32 = tau31 - tau21 and sums (only
    defined for equal grid spacing on both axes).
    """
    r3 = cmap.r3
    if kind == "trace-out-S3":
        axis, values = cmap.tau21_axis, r3.sum(axis=1)
    elif kind == "trace-out-S2":
        axis, values = cmap.tau31_axis, r3.sum(axis=0)
    elif kind == "trace-out-S1":
        d1 = cmap.tau21_axis[1] - cmap.tau21_axis[0]
        d2 = cmap.tau31_axis[1] - cmap.tau31_axis[0]
        if not np.isclose(d1, d2, rtol=1e-9):
            raise InvalidParameterError(
                "trace-out-S1 requires equal spacing on both axes")
        n1, n2 = r3.shape
        # tau32 index = j - i, offset by n1-1 to stay non-negative
        idx = (np.arange(n2)[None, :] - np.arange(n1)[:, None]) + (n1 - 1)
        values = np.bincount(idx.ravel(), weights=r3.ravel(),
                             minlength=n1 + n2 - 1)
        start = (cmap.tau31_axis[0] - cmap.tau21_axis[-1])
        axis = start + d1 * np.arange(n1 + n2 - 1)
    else:
        raise InvalidParameterError(f"unknown trace kind '{kind}'")
    values = _unit_peak(values) if normalize else values
    return ConditionalTrace(axis=axis, values=values, kind=kind)


def _unit_peak(v: np.ndarray) -> np.ndarray:
    """v over its maximum, or v itself when no value is positive."""
    peak = float(v.max())
    return v / peak if peak > 0 else v


def diagonal_cut(cmap: CorrelationMap, c: float) -> ConditionalTrace:
    """r3 sampled along the line tau21 + tau31 = c, axis is tau21.

    tau31 = c - tau21 is evaluated by linear interpolation along axis2 at
    each tau21 grid point for which the line stays inside the grid.
    """
    t21 = cmap.tau21_axis
    t31 = cmap.tau31_axis
    target = c - t21
    mask = (target >= t31[0]) & (target <= t31[-1])
    if not np.any(mask):
        raise RangeError(f"line tau21 + tau31 = {c} does not intersect the grid")
    sel = np.flatnonzero(mask)
    vals = np.empty(sel.size)
    for k, i in enumerate(sel):
        vals[k] = np.interp(target[i], t31, cmap.r3[i, :])
    return ConditionalTrace(axis=t21[sel], values=vals, kind="fixed-line",
                            line_spec=f"tau21 + tau31 = {c!r} s")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodEstimate:
    period: float
    confidence: float
    spectral_periods: tuple


def _trace_floor(values: np.ndarray) -> float:
    """Background floor: median over the outer 10% of the trace samples."""
    m = max(int(round(0.05 * values.size)), 1)
    border = np.concatenate([values[:m], values[-m:]])
    return float(median(border.tolist()))


def _find_peaks(v: np.ndarray, height: float | None = None) -> np.ndarray:
    """Indices of the local maxima of v, edges excluded.

    A flat top counts once, at its middle sample (rounded down), as in
    scipy.signal.find_peaks; height keeps the peaks with v[p] >= height.
    """
    v = np.asarray(v, dtype=float)
    d = np.diff(v)
    steps = np.flatnonzero(d)
    up = d[steps] > 0
    top = np.flatnonzero(up[:-1] & ~up[1:])
    peaks = (steps[top] + 1 + steps[top + 1]) // 2
    if height is not None:
        peaks = peaks[v[peaks] >= height]
    return peaks


def oscillation_period(trace: ConditionalTrace) -> PeriodEstimate:
    """Dominant oscillation period of a trace, with a 0-1 confidence score.

    Two estimators are combined: the median spacing of local maxima above the
    background floor, and the dominant nonzero peak of the discrete spectrum.
    Confidence reflects their agreement; fewer than 4 usable maxima yields
    confidence 0.  spectral_periods lists the top-2 spectral candidates.
    """
    v = trace.values
    dt = trace.axis[1] - trace.axis[0]
    floor = _trace_floor(v)
    height = floor + 0.02 * (float(v.max()) - floor)
    peaks = _find_peaks(v, height=height)
    spec = np.abs(np.fft.rfft(v - v.mean()))
    freqs = np.fft.rfftfreq(v.size, d=dt)
    spec[0] = 0.0
    sp_peaks = _find_peaks(spec)
    if sp_peaks.size == 0:
        sp_peaks = np.array([int(np.argmax(spec))])
    order = sp_peaks[np.argsort(spec[sp_peaks])[::-1]]
    spectral_periods = tuple(1.0 / freqs[k] for k in order[:2] if freqs[k] > 0)
    if peaks.size < 4 or not spectral_periods:
        period = spectral_periods[0] if spectral_periods else float("nan")
        return PeriodEstimate(period=period, confidence=0.0,
                              spectral_periods=spectral_periods)
    p_peaks = float(median(np.diff(trace.axis[peaks]).tolist()))
    p_fft = spectral_periods[0]
    agree = abs(p_peaks - p_fft) / p_fft
    confidence = float(max(0.0, 1.0 - agree))
    return PeriodEstimate(period=p_peaks, confidence=confidence,
                          spectral_periods=spectral_periods)


def visibility(trace: ConditionalTrace) -> float:
    """Fringe visibility (max - min)/(max + min) over the first oscillation
    after the global peak."""
    v = trace.values
    i0 = int(np.argmax(v))
    peaks = _find_peaks(v[i0 + 1:])
    if peaks.size == 0:
        raise EstimationError("trace has no full oscillation after the peak")
    i1 = i0 + 1 + int(peaks[0])
    seg = v[i0:i1 + 1]
    hi, lo = float(seg.max()), float(seg.min())
    return (hi - lo) / (hi + lo)


def cauchy_schwarz_factor(g3_peak: float, g1) -> float:
    """Nonclassicality factor [g3]^2 / (g1_a g1_b g1_c)^2.

    Values above 1 violate the classical bound.  All inputs must be positive.
    """
    g1 = tuple(float(x) for x in g1)
    if g3_peak <= 0 or any(x <= 0 for x in g1):
        raise InvalidParameterError("g3 and all g1 values must be > 0")
    prod = g1[0] * g1[1] * g1[2]
    return (g3_peak ** 2) / (prod ** 2)
