"""Correlation maps, transforms, traces and derived metrics."""
import numpy as np
import pytest
import scipy.fft
import scipy.signal
from hypothesis import example, given, settings, strategies as st

from triphoton.config import parse_config_text
from triphoton.errors import (InvalidParameterError, RangeError,
                              SamplingError, TriphotonError)
from triphoton.params import C_LIGHT, resonance_set
from triphoton.susceptibility import (ComplexGrid2D, GridSpec2D, chi5_map,
                                      dispersion_profile)
from triphoton import correlation
from triphoton.correlation import (ConditionalTrace, cauchy_schwarz_factor,
                                   default_spectral_window, diagonal_cut,
                                   oscillation_period, spectral_kernel,
                                   trace_map, triphoton_amplitude_map,
                                   visibility)

from oracles import amplitude_map_direct, conditional_r2_closed


def _random_kernel(seed, n=16, dd=2e8):
    rng = np.random.default_rng(seed)
    ax = (np.arange(n) - n / 2) * dd
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return ComplexGrid2D(axis1=ax, axis2=ax, values=vals)


def _raw_values(a3):
    scale = float(a3.provenance.split("raw_scale=")[1])
    return a3.values * scale


# ---------------------------------------------------------------------------
# spectral window and kernel
# ---------------------------------------------------------------------------

def test_default_window_covers_resonances(params):
    spec = default_spectral_window(params)
    rs = resonance_set(params)
    assert spec.min1 < min(rs.centers_d2) - 5 * rs.linewidth_d2
    assert spec.max1 > max(rs.centers_d2) + 5 * rs.linewidth_d2
    assert spec.min2 < min(rs.centers_d3) - 5 * rs.linewidth_d3
    assert spec.max2 > max(rs.centers_d3) + 5 * rs.linewidth_d3


# edge values of the keys that place the resonances and set their widths;
# None keeps the default
_RATE_EDGES = ["0 Hz", "1 Hz", None, "100 GHz"]
_DETUNING_EDGES = ["0 Hz", "1 Hz", "-1 Hz", None, "100 GHz", "-100 GHz"]
_DRIVE_DECAY_EDGES = {
    **{k: _RATE_EDGES for k in ("omega2", "omega3", "gamma21", "gamma11",
                                "gamma31", "gamma41")},
    **{k: _DETUNING_EDGES for k in ("delta1", "delta2", "delta3")}}
_DEFAULTS = dict.fromkeys(_DRIVE_DECAY_EDGES)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({k: st.sampled_from(pool)
                              for k, pool in _DRIVE_DECAY_EDGES.items()}))
@example(dict(_DEFAULTS, omega2="0 Hz", gamma21="0 Hz"))
@example(dict(_DEFAULTS, omega3="0 Hz", gamma11="0 Hz"))
def test_window_builds_or_refuses_at_drive_and_decay_edges(values):
    """Drive and decay keys drawn together from edge pools either build the
    parameters, the default spectral window and its coverage check, or are
    refused with a TriphotonError.  A field with no Rabi frequency and no
    ground decay used to raise ZeroDivisionError in resonance_set."""
    text = "\n".join(f"{k} = {v}" for k, v in values.items() if v is not None)
    try:
        params = parse_config_text(text).experiment_params()
        correlation._check_coverage(default_spectral_window(params), params)
    except TriphotonError:
        pass


def test_kernel_rejects_undersized_window(params, quad):
    spec = GridSpec2D(-1e8, 1e8, 32, -1e8, 1e8, 32)
    with pytest.raises(InvalidParameterError):
        spectral_kernel(spec, params, quad)


def test_kernel_group_delay_phases_from_profiles(params, quad):
    """The dispersive kernel against a reference built from
    DispersionProfile.v_at, for both group-delay modes."""
    spec = default_spectral_window(params, n2=12, n3=10)
    d2, d3 = spec.axes()
    profiles = {"S2": dispersion_profile("S2", np.linspace(spec.min1, spec.max1, 64),
                                         params, quad),
                "S3": dispersion_profile("S3", np.linspace(spec.min2, spec.max2, 64),
                                         params, quad)}
    chi = chi5_map(spec, params, quad).values
    L = params.cell.length_L
    kernels = []
    for mode in ("local", "central"):
        at = (lambda d: d) if mode == "local" else (lambda d: np.zeros_like(d))
        v2 = profiles["S2"].v_at(at(d2))[:, None]
        v3 = profiles["S3"].v_at(at(d3))[None, :]
        dk = -(d2[:, None] + d3[None, :]) / C_LIGHT - d2[:, None] / v2 + d3[None, :] / v3
        ref = (chi * np.sinc(dk * L / (2 * np.pi))
               * np.exp(-1j * d2[:, None] * L / (2 * v2))
               * np.exp(-1j * d3[None, :] * L / (2 * v3)))
        kern = spectral_kernel(spec, params, quad, profiles,
                               group_delay_mode=mode).values
        assert np.max(np.abs(kern - ref)) <= 1e-12 * np.max(np.abs(ref))
        kernels.append(kern)
    assert np.max(np.abs(kernels[0] - kernels[1])) > 1e-3 * np.max(np.abs(kernels[0]))


def test_kernel_metadata(kernel512):
    assert kernel512.label1 == "delta2"
    assert kernel512.label2 == "delta3"
    assert kernel512.provenance.startswith("spectral_kernel")


# ---------------------------------------------------------------------------
# transform machinery
# ---------------------------------------------------------------------------

@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_transform_matches_direct_sum(seed):
    """The chirp-z path evaluates the same finite Riemann sum as the direct
    double quadrature for arbitrary kernels and delay grids."""
    kern = _random_kernel(seed)
    rng = np.random.default_rng(seed + 1)
    t0 = float(rng.uniform(0.0, 2e-9))
    tau = GridSpec2D(t0, t0 + 8e-9, 11, 0.0, 9e-9, 13)
    m_t = triphoton_amplitude_map(tau, kernel=kern)
    m_d = amplitude_map_direct(tau, kernel=kern)
    num = np.max(np.abs(m_t.values - m_d.values))
    assert num / np.max(np.abs(m_d.values)) < 1e-10


def test_parseval_identity():
    """Total |A3|^2 mass equals (2 pi)^2 times the kernel's spectral mass on
    exact discrete-transform grids."""
    n, dd = 64, 2e8
    kern = _random_kernel(7, n=n, dd=dd)
    dt = 2 * np.pi / (n * dd)
    tau_lo = -(n / 2) * dt
    tau = GridSpec2D(tau_lo, tau_lo + (n - 1) * dt, n,
                     tau_lo, tau_lo + (n - 1) * dt, n)
    a3 = _raw_values(amplitude_map_direct(tau, kernel=kern))
    lhs = float(np.sum(np.abs(a3) ** 2)) * dt * dt
    rhs = (2 * np.pi) ** 2 * float(np.sum(np.abs(kern.values) ** 2)) * dd * dd
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_nyquist_guard_and_required_size():
    kern = _random_kernel(3, n=16, dd=2e8)
    tau = GridSpec2D(0.0, 40e-9, 8, 0.0, 1e-9, 8)  # 2e8 * 40e-9 >> pi
    with pytest.raises(SamplingError) as exc:
        triphoton_amplitude_map(tau, kernel=kern)
    need = exc.value.required_size
    assert need is not None
    span = kern.axis1[-1] - kern.axis1[0]
    ax = np.linspace(kern.axis1[0], kern.axis1[-1], need)
    assert (ax[1] - ax[0]) * 40e-9 <= np.pi + 1e-9


def test_map_is_peak_normalized(kernel512):
    tau = GridSpec2D(0.0, 20e-9, 32, 0.0, 20e-9, 32)
    a3 = triphoton_amplitude_map(tau, kernel=kernel512)
    assert float(np.max(np.abs(a3.values))) == pytest.approx(1.0)


def test_conditional_r2_matches_brute_force():
    kern = _random_kernel(11, n=12, dd=1.5e8)
    tau23 = np.linspace(0.0, 10e-9, 9)
    closed = conditional_r2_closed(tau23, kernel=kern)
    dd2 = kern.axis1[1] - kern.axis1[0]
    dd3 = kern.axis2[1] - kern.axis2[0]
    brute = np.zeros(tau23.size)
    for m, t in enumerate(tau23):
        for j in range(kern.axis2.size):
            inner = np.sum(kern.values[:, j]
                           * np.exp(1j * kern.axis1 * t)) * dd2
            brute[m] += abs(inner) ** 2 * dd3
    brute /= brute.max()
    assert np.allclose(closed.values, brute, rtol=1e-10)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def _toy_map():
    ax = np.linspace(0.0, 3e-9, 4)
    rng = np.random.default_rng(2)
    a3 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a3 /= np.max(np.abs(a3))
    return ComplexGrid2D(axis1=ax, axis2=ax, values=a3)


def test_trace_marginals_conserve_mass():
    a3 = _toy_map()
    total = (np.abs(a3.values) ** 2).sum()
    for kind in ("trace-out-S3", "trace-out-S2", "trace-out-S1"):
        tr = trace_map(a3, kind, normalize=False)
        assert tr.values.sum() == pytest.approx(total, rel=1e-12)


def test_trace_axes_and_orientation():
    a3 = _toy_map()
    r3 = np.abs(a3.values) ** 2
    tr21 = trace_map(a3, "trace-out-S3", normalize=False)
    assert np.array_equal(tr21.axis, a3.axis1)
    assert np.allclose(tr21.values, r3.sum(axis=1))
    tr31 = trace_map(a3, "trace-out-S2", normalize=False)
    assert np.allclose(tr31.values, r3.sum(axis=0))


def test_trace_out_first_photon_rebins_by_difference():
    a3 = _toy_map()
    r3 = np.abs(a3.values) ** 2
    tr = trace_map(a3, "trace-out-S1", normalize=False)
    n = r3.shape[0]
    assert tr.axis.size == 2 * n - 1
    assert tr.axis[0] == pytest.approx(a3.axis2[0] - a3.axis1[-1])
    # the central sample collects the main diagonal (tau32 = 0)
    assert tr.values[n - 1] == pytest.approx(np.trace(r3), rel=1e-12)


def test_trace_unknown_kind():
    with pytest.raises(InvalidParameterError):
        trace_map(_toy_map(), "trace-out-S4")


def test_diagonal_cut_matches_interpolation():
    a3 = _toy_map()
    r3 = np.abs(a3.values) ** 2
    c = 3e-9
    tr = diagonal_cut(a3, c)
    for k, t21 in enumerate(tr.axis):
        expect = np.interp(c - t21, a3.axis2,
                           r3[np.flatnonzero(a3.axis1 == t21)[0]])
        assert tr.values[k] == pytest.approx(expect, rel=1e-12)


def test_diagonal_cut_outside_grid():
    with pytest.raises(RangeError):
        diagonal_cut(_toy_map(), -10e-9)


def test_conditional_trace_validation():
    with pytest.raises(InvalidParameterError):
        ConditionalTrace(axis=np.array([0.0, 1.0, 3.0]),
                         values=np.zeros(3))
    with pytest.raises(InvalidParameterError):
        ConditionalTrace(axis=np.array([0.0, 1.0, 2.0]),
                         values=np.array([0.0, -1.0, 0.0]))
    # nanosecond spacings lie far below allclose's default atol
    with pytest.raises(InvalidParameterError, match="uniform"):
        ConditionalTrace(axis=np.array([0.0, 0.1, 0.3, 0.4, 0.7]) * 1e-9,
                         values=np.ones(5))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_oscillation_period_on_synthetic_trace():
    t = np.linspace(0.0, 40e-9, 801)
    period = 5e-9
    tr = ConditionalTrace(axis=t,
                          values=(1.0 + np.cos(2 * np.pi * t / period)) ** 2)
    est = oscillation_period(tr)
    assert est.period == pytest.approx(period, rel=0.05)
    assert est.confidence > 0.8
    assert est.spectral_periods[0] == pytest.approx(period, rel=0.05)


def test_visibility_of_full_contrast_fringe():
    t = np.linspace(0.0, 20e-9, 401)
    tr = ConditionalTrace(axis=t,
                          values=1.0 + np.cos(2 * np.pi * t / 4e-9))
    assert visibility(tr) == pytest.approx(1.0, abs=1e-6)


def test_visibility_of_reduced_contrast_fringe():
    t = np.linspace(0.0, 20e-9, 401)
    tr = ConditionalTrace(axis=t,
                          values=1.0 + 0.5 * np.cos(2 * np.pi * t / 4e-9))
    assert visibility(tr) == pytest.approx(0.5, abs=1e-6)


@given(st.floats(min_value=1.0, max_value=1e3),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_cauchy_schwarz_scaling(g3, a, b, c):
    """Doubling g3 quadruples the factor; the identity inverts exactly."""
    f1 = cauchy_schwarz_factor(g3, (a, b, c))
    f2 = cauchy_schwarz_factor(2 * g3, (a, b, c))
    assert f2 == pytest.approx(4 * f1, rel=1e-9)
    assert f1 == pytest.approx((g3 / (a * b * c)) ** 2, rel=1e-9)


def test_cauchy_schwarz_validation():
    with pytest.raises(InvalidParameterError):
        cauchy_schwarz_factor(0.0, (1.0, 1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        cauchy_schwarz_factor(1.0, (1.0, -1.0, 1.0))


# ---------------------------------------------------------------------------
# numpy CZT and peak finder against their scipy.signal oracles
# ---------------------------------------------------------------------------

def test_next_fast_len_matches_scipy():
    for n in range(1, 3001):
        assert correlation._next_fast_len(n) == scipy.fft.next_fast_len(n), n


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=4),
       st.sampled_from([0, 1, -1]),
       st.sampled_from(["fourier-axis", "m-only", "defaults"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_czt_bit_identical_to_scipy(n, m, other, axis, mode, seed):
    """Same operation order as scipy.signal.czt, so array_equal holds; the
    chirp of the fourier-axis mode is the one _fourier_axis passes."""
    rng = np.random.default_rng(seed)
    shape = (n, other) if axis == 0 else (other, n)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if mode == "fourier-axis":
        ddel = rng.uniform(1e6, 1e9)
        dtau = rng.uniform(1e-12, 1e-9)
        tau0 = rng.uniform(-2e-8, 2e-8)
        kw = dict(m=m, w=np.exp(1j * ddel * dtau), a=np.exp(-1j * ddel * tau0))
    elif mode == "m-only":
        kw = dict(m=m)
    else:
        kw = {}
    ours = correlation.czt(x, axis=axis, **kw)
    assert np.array_equal(ours, scipy.signal.czt(x, axis=axis, **kw))


def test_czt_defaults_match_scipy():
    x = np.ones(8, dtype=complex)
    assert np.array_equal(correlation.czt(x), scipy.signal.czt(x))
    x = np.arange(24.0).reshape(2, 3, 4)
    for axis in (0, 1, 2, -1):
        assert np.array_equal(correlation.czt(x, m=5, axis=axis),
                              scipy.signal.czt(x, m=5, axis=axis))


_traces = st.one_of(
    st.lists(st.integers(min_value=0, max_value=3), max_size=40),
    st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=40))


@settings(max_examples=300)
@given(_traces, st.one_of(st.none(), st.floats(min_value=-1e3, max_value=1e3)))
@example([], None)
@example([1.0], None)
@example([1.0, 2.0], 0.0)
@example([2.0] * 7, None)
@example([0, 1, 1, 0], None)
@example([0, 1, 1, 1, 1, 0, 2, 2], 0.5)
@example([3, 1, 2, 2, 2, 5, 5, 4], 3.0)
def test_find_peaks_matches_scipy(values, height):
    """Plateaus (integer traces have many ties), constant traces and traces
    of length 0-2 included, with and without a height."""
    v = np.array(values, dtype=float)
    expected = scipy.signal.find_peaks(v, height=height)[0]
    assert np.array_equal(correlation._find_peaks(v, height=height), expected)
