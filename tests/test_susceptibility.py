"""Susceptibilities, quadrature, dispersion and phase mismatch."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triphoton import io_formats, susceptibility
from triphoton.cli import main
from triphoton.config import parse_config_text
from triphoton.errors import (InvalidParameterError, NumericalDomainError,
                              RangeError)
from triphoton.params import (C_LIGHT, KBAR, OMEGA31, OMEGA42,
                              doppler_detunings)
from triphoton.susceptibility import (ComplexGrid2D, GridSpec2D,
                                      VelocityQuadrature, _chi_linear, chi5,
                                      chi5_map, chi_linear_s1,
                                      dispersion_profile, group_velocity,
                                      longitudinal_phi, params_hash,
                                      phase_mismatch)

from oracles import density_for_od


# ---------------------------------------------------------------------------
# chi5
# ---------------------------------------------------------------------------

MIDPOINT = VelocityQuadrature(scheme="uniform-riemann")
EXACT = VelocityQuadrature(scheme="faddeeva")
# the 20k-node oracle over +-8 sigma: its truncation and step errors are
# below 1e-12 of chi5
ORACLE = VelocityQuadrature(scheme="uniform-riemann", node_count=20000,
                            range_sigmas=8.0)


def test_chi5_frozen_regression(params):
    """Pinned values at one reference spectral point for each scheme (guards
    against silent changes to the integrand, prefactor or quadrature)."""
    val = chi5(1e8, -5e7, params, MIDPOINT)
    assert val.real == pytest.approx(1.634757268166e-27, rel=1e-9)
    assert val.imag == pytest.approx(4.986281884354e-25, rel=1e-9)
    val = chi5(1e8, -5e7, params, EXACT)
    assert val.real == pytest.approx(1.6347572993288e-27, rel=1e-9)
    assert val.imag == pytest.approx(4.9862819038337e-25, rel=1e-9)


def test_default_quadrature_is_exact():
    assert VelocityQuadrature() == EXACT


def test_chi5_scalar_array_consistency(params):
    d2 = np.array([1e8, -3e8, 7e8])
    d3 = np.array([-5e7, 2e8, -1e8])
    for quad in (MIDPOINT, EXACT):
        vec = chi5(d2, d3, params, quad)
        for k in range(3):
            assert vec[k] == chi5(float(d2[k]), float(d3[k]), params, quad)


def test_chi5_map_pointwise(params):
    spec = GridSpec2D(-1e9, 1e9, 4, -8e8, 8e8, 3)
    a2, a3 = spec.axes()
    for quad in (MIDPOINT, EXACT):
        grid = chi5_map(spec, params, quad)
        for i in range(4):
            for j in range(3):
                assert grid.values[i, j] == chi5(float(a2[i]), float(a3[j]),
                                                 params, quad)


@pytest.mark.parametrize("n3", [susceptibility._CHI5_BLOCK + 3,
                                max(2, susceptibility._CHI5_BLOCK - 3)])
def test_chi5_map_pointwise_partial_blocks(params, n3, monkeypatch):
    """Map points equal scalar chi5 exactly when delta3 ends in a partial
    block of columns, or fits in less than one, and delta2 ends in a partial
    block of two rows (the midpoint rule blocks both axes, the exact scheme
    delta2 rows)."""
    monkeypatch.setattr(susceptibility, "_EXACT_BLOCK", 2 * n3)
    monkeypatch.setattr(susceptibility, "_CHI5_PAIRS",
                        2 * min(n3, susceptibility._CHI5_BLOCK)
                        * MIDPOINT.node_count, raising=False)
    spec = GridSpec2D(-2e9, 2e9, 3, -1e9, 1.5e9, n3)
    a2, a3 = spec.axes()
    for quad in (MIDPOINT, EXACT):
        grid = chi5_map(spec, params, quad)
        for i in range(a2.size):
            for j in range(n3):
                assert grid.values[i, j] == chi5(float(a2[i]), float(a3[j]),
                                                 params, quad)


def test_chi5_exact_map_equals_scalar_on_a_square_grid(params):
    """Every point of a grid with d2 = d3 on its diagonal and a d3 = 0
    column, against scalar chi5 with ==."""
    spec = GridSpec2D(-3e9, 3e9, 11, -3e9, 3e9, 11)
    a2, a3 = spec.axes()
    assert a3[5] == 0.0
    grid = chi5_map(spec, params, EXACT).values
    for i in range(a2.size):
        for j in range(a3.size):
            assert grid[i, j] == chi5(float(a2[i]), float(a3[j]), params, EXACT)


def test_chi5_map_matches_direct_integral(params):
    """The blocked midpoint map against the integrand summed over all nodes
    at once, w / (b1 b2 b3); only the association of the products differs."""
    spec = GridSpec2D(-2e9, 2e9, 5, -1e9, 1.5e9, 9)
    d2, d3 = (a[..., None] for a in np.meshgrid(*spec.axes(), indexing="ij"))
    r, drv = params.rates, params.drive
    v, w = MIDPOINT.nodes_weights(params)
    dd1, dd2, dd3 = doppler_detunings(v, drv)
    wm, wp = 1.0 - v / C_LIGHT, 1.0 + v / C_LIGHT
    s = wm * d2 + wp * d3
    b1 = r.gamma31 + 1j * dd1
    b2 = (r.gamma21 + 1j * s) * (r.gamma41 + 1j * s + 1j * dd2) + drv.omega2 ** 2
    b3 = ((r.gamma11 + 1j * wp * d3) * (r.gamma41 + 1j * wp * d3 + 1j * dd3)
          + drv.omega3 ** 2)
    ref = susceptibility._chi5_prefactor(params) * (w / (b1 * b2 * b3)).sum(axis=-1)
    got = chi5_map(spec, params, MIDPOINT).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_chi5_map_independent_of_block_size(params, monkeypatch):
    spec = GridSpec2D(-2e9, 2e9, 4, -1e9, 1.5e9, 13)
    refs = {quad: chi5_map(spec, params, quad).values for quad in (MIDPOINT, EXACT)}
    for quad, name in ((MIDPOINT, "_CHI5_BLOCK"), (EXACT, "_EXACT_BLOCK")):
        for block in (1, 5, 64):
            monkeypatch.setattr(susceptibility, name, block)
            assert np.array_equal(chi5_map(spec, params, quad).values, refs[quad])
    # the midpoint rule's delta2 row blocks: one row each, and the whole grid
    for pairs in (1, spec.n1 * spec.n2 * MIDPOINT.node_count):
        monkeypatch.setattr(susceptibility, "_CHI5_PAIRS", pairs, raising=False)
        for cols in (5, 64):
            monkeypatch.setattr(susceptibility, "_CHI5_BLOCK", cols)
            assert np.array_equal(chi5_map(spec, params, MIDPOINT).values,
                                  refs[MIDPOINT])


class _NaNWeightQuadrature(VelocityQuadrature):
    """Midpoint rule with one poisoned weight, to force a non-finite sample."""

    def nodes_weights(self, params):
        v, w = super().nodes_weights(params)
        w = w.copy()
        w[1200] = np.nan
        return v, w


def test_chi5_map_non_finite_integrand_raises(params, monkeypatch):
    """The poisoned node is named whether a row block holds one delta2 row
    or the whole grid."""
    quad = _NaNWeightQuadrature(scheme="uniform-riemann")
    spec = GridSpec2D(-2e9, 2e9, 3, -1e9, 1.5e9, susceptibility._CHI5_BLOCK + 2)
    v, _ = MIDPOINT.nodes_weights(params)
    for rows in (1, 3):
        monkeypatch.setattr(susceptibility, "_CHI5_PAIRS", rows
                            * susceptibility._CHI5_BLOCK * MIDPOINT.node_count,
                            raising=False)
        with pytest.raises(NumericalDomainError) as err:
            chi5_map(spec, params, quad)
        assert err.value.offending_value == v[1200]


def test_chi5_map_non_finite_in_a_later_row_block_raises(params, monkeypatch):
    """Row 0 is finite; rows 1 and 2, at |delta2| ~ 1e305 rad/s, overflow b2
    to inf - inf at every node, so the first node is named."""
    monkeypatch.setattr(susceptibility, "_CHI5_PAIRS", 1, raising=False)
    spec = GridSpec2D(-2e9, 1e305, 3, -1e9, 1.5e9, 4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalDomainError) as err:
        chi5_map(spec, params, MIDPOINT)
    v, _ = MIDPOINT.nodes_weights(params)
    assert err.value.offending_value == v[0]
    assert np.all(np.isfinite(chi5(np.full(4, -2e9), spec.axes()[1], params,
                                   MIDPOINT)))


# ---------------------------------------------------------------------------
# exact Doppler integrals
# ---------------------------------------------------------------------------

def _pole_arguments(draw_re, draw_im):
    """z = x + iy with |x| and y log-uniform over the pole arguments of the
    chi5 maps: Re z from -1.4e12 to 1.3e11, Im z from 0.017 to 1.4e9."""
    return st.builds(lambda s, a, b: complex(s * 10.0 ** a, 10.0 ** b),
                     st.sampled_from([-1.0, 1.0]), draw_re, draw_im)


@settings(max_examples=300)
@given(st.lists(_pole_arguments(st.floats(-3.0, 12.2), st.floats(-2.0, 9.2)),
                min_size=1, max_size=64))
def test_faddeeva_matches_scipy(zs):
    from scipy.special import wofz
    z = np.array(zs)
    ref = wofz(z)
    assert np.all(np.abs(susceptibility._faddeeva_w(z) - ref) <= 1e-13 * np.abs(ref))


# random points, then the adversarial ones: d2 = d3 (b2 turns linear),
# d3 = 0 (b3 turns linear), both at once, and the two resonance regions
_ORACLE_POINTS = np.concatenate([
    np.random.default_rng(20241018).uniform(-2 * np.pi * 3e9, 2 * np.pi * 3e9,
                                            size=(16, 2)),
    [[0.0, 0.0], [7e8, 7e8], [-2.5e9, -2.5e9], [4e8, 0.0], [-1.2e10, 0.0],
     [1e8, -5e7], [-9.4e8, 3.1e8]]])


def test_chi5_exact_matches_oracle(params):
    d2, d3 = _ORACLE_POINTS.T
    x = chi5(d2, d3, params, EXACT)
    y = chi5(d2, d3, params, ORACLE)
    assert np.all(np.abs(x - y) <= 1e-12 * np.abs(y))


@pytest.mark.parametrize("mode", ["S2", "S3"])
def test_chi_linear_exact_matches_oracle(params, mode):
    """The S2 line has a velocity pole that crosses the real axis near
    delta = -1.74e9 rad/s: 0.16 m/s off it at -1.7593e9, 0.018 m/s at
    -1.7253e9.  A 20k-node rule over +-8 sigma (0.15 m/s steps) is 3e-5 off
    at the first point, so the oracle takes 200k nodes, and 800k at the
    second."""
    oracle = VelocityQuadrature(scheme="uniform-riemann", node_count=200000,
                                range_sigmas=8.0)
    delta = np.concatenate([np.random.default_rng(7).uniform(
        -2 * np.pi * 3e9, 2 * np.pi * 3e9, 24), [0.0, -1.7592918860e9, 1.0053e9]])
    x = _chi_linear(mode, delta, params, EXACT)
    y = _chi_linear(mode, delta, params, oracle)
    assert np.all(np.abs(x - y) <= 1e-12 * np.abs(y))
    assert _chi_linear(mode, 0.0, params, EXACT) == x[24]
    fine = VelocityQuadrature(scheme="uniform-riemann", node_count=800000,
                              range_sigmas=8.0)
    x = _chi_linear(mode, -1.7253045e9, params, EXACT)
    y = _chi_linear(mode, -1.7253045e9, params, fine)
    assert abs(x - y) <= 1e-12 * abs(y)


def _coincident_pole_params(params):
    """Parameters under which the b1 pole and the b3 pole coincide at
    delta3 = 0: with Omega3 = 0, b3 = Gamma11 (Gamma41 + i DeltaD3) there,
    whose root equals that of b1 = Gamma31 + i DeltaD1 once
    Gamma31 / omega31 = Gamma41 / omega42 and Delta1 / omega31 = Delta3 / omega42."""
    ratio = OMEGA31 / OMEGA42
    return dataclasses.replace(
        params,
        rates=dataclasses.replace(params.rates, gamma31=params.rates.gamma41 * ratio),
        drive=dataclasses.replace(params.drive, omega3=0.0,
                                  delta1=params.drive.delta3 * ratio))


def test_chi5_coincident_poles_fall_back(params):
    coincident = _coincident_pole_params(params)
    _, ok = susceptibility._doppler_average(
        1.0, 0.0, ((1j * OMEGA31 / C_LIGHT,
                    -(coincident.rates.gamma31 + 1j * coincident.drive.delta1)),
                   (1j * OMEGA42 / C_LIGHT,
                    -(coincident.rates.gamma41 + 1j * coincident.drive.delta3))),
        coincident.sigma_v)
    assert not ok
    x = chi5(1e8, 0.0, coincident, EXACT)
    assert np.isfinite(x)
    assert x == chi5(1e8, 0.0, coincident, MIDPOINT)
    y = chi5(1e8, 0.0, coincident, ORACLE)
    assert abs(x - y) <= 1e-6 * abs(y)
    grid = chi5_map(GridSpec2D(-1e8, 1e8, 3, -1e8, 1e8, 3), coincident, EXACT)
    assert grid.values[2, 1] == x


def test_exact_fallback_runs_one_grid_per_delta3(params, monkeypatch):
    """omega3 = gamma11 = 0 puts a velocity pole on the real axis for whole
    delta3 columns.  Their points used to take one 1 x 1 midpoint grid each;
    they take one single-column grid per delta3, with the same values."""
    real = dataclasses.replace(
        params, rates=dataclasses.replace(params.rates, gamma11=0.0),
        drive=dataclasses.replace(params.drive, omega3=0.0))
    calls = []
    grid_1x1 = susceptibility._chi5_grid

    def spy(d2_axis, d3_axis, *args):
        calls.append((d2_axis.copy(), d3_axis.copy()))
        return grid_1x1(d2_axis, d3_axis, *args)

    monkeypatch.setattr(susceptibility, "_chi5_grid", spy)
    half = 2 * np.pi * 3e9
    grid = chi5_map(GridSpec2D(-half, half, 16, -half, half, 16), real, EXACT)
    assert all(d3.size == 1 for _, d3 in calls)
    columns = [float(d3[0]) for _, d3 in calls]
    assert len(columns) == len(set(columns)) > 0
    assert sum(d2.size for d2, _ in calls) > len(calls)
    for d2, d3 in calls:
        j = int(np.flatnonzero(grid.axis2 == d3[0])[0])
        for x in d2:
            i = int(np.flatnonzero(grid.axis1 == x)[0])
            assert grid.values[i, j] == grid_1x1(np.array([x]), d3, real, EXACT)[0, 0]


def test_chi5_map_command_reaches_the_midpoint_fallback(tmp_path, monkeypatch):
    """A config reaches the exact scheme's midpoint fallback: omega3 = 0 and
    gamma11 = 0 put a velocity pole on the real axis, and chi5-map still
    exits 0.  Rejected points and exact ones alike lie within 2e-8 of the
    map peak (the 2001-node rule's accuracy, as VelocityQuadrature states
    it) of a 40,000-node midpoint oracle over +-8 sigma."""
    rejected = []
    average = susceptibility._doppler_average

    def count(*args):
        value, ok = average(*args)
        rejected.append(int(np.size(ok) - np.count_nonzero(ok)))
        return value, ok

    monkeypatch.setattr(susceptibility, "_doppler_average", count)
    cfg = tmp_path / "real-pole.cfg"
    cfg.write_text("omega3 = 0 Hz\ngamma11 = 0 Hz\nmap_n2 = 32\nmap_n3 = 32\n")
    out = tmp_path / "chi5.csv"
    assert main(["chi5-map", "--config", str(cfg), "--out", str(out)]) == 0
    assert sum(rejected) > 0
    grid = io_formats.read_complex_grid(out)
    run = parse_config_text(cfg.read_text())
    half = run["map_range"]
    oracle = chi5_map(GridSpec2D(-half, half, 32, -half, half, 32),
                      run.experiment_params(),
                      VelocityQuadrature(scheme="uniform-riemann",
                                         node_count=40000, range_sigmas=8.0))
    peak = float(np.max(np.abs(oracle.values)))
    assert float(np.max(np.abs(grid.values - oracle.values))) <= 2e-8 * peak


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_validation():
    for scheme in ("simpson", "gauss-hermite"):
        with pytest.raises(InvalidParameterError):
            VelocityQuadrature(scheme=scheme)
    with pytest.raises(InvalidParameterError):
        VelocityQuadrature(node_count=4)
    for sigmas in (2.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            VelocityQuadrature(range_sigmas=sigmas)


@given(st.integers(min_value=101, max_value=4001))
def test_quadrature_weights_normalized(params, n):
    v, w = VelocityQuadrature(node_count=n).nodes_weights(params)
    assert v.size == n
    assert np.all(np.diff(v) > 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# grid containers
# ---------------------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(InvalidParameterError):
        GridSpec2D(0.0, 1.0, 1, 0.0, 1.0, 4)
    with pytest.raises(InvalidParameterError):
        GridSpec2D(1.0, 1.0, 4, 0.0, 1.0, 4)
    lo1, hi1 = GridSpec2D(-1.0, 2.0, 5, 0.0, 1.0, 3).axes()[0][[0, -1]]
    assert (lo1, hi1) == (-1.0, 2.0)


def test_complex_grid_validation():
    ax = np.linspace(0, 1, 4)
    with pytest.raises(InvalidParameterError):
        ComplexGrid2D(axis1=ax, axis2=ax, values=np.zeros((3, 4)))
    with pytest.raises(InvalidParameterError):
        ComplexGrid2D(axis1=ax[::-1], axis2=ax, values=np.zeros((4, 4)))
    with pytest.raises(InvalidParameterError):
        ComplexGrid2D(axis1=np.array([0.0, 1.0, 3.0, 4.0]), axis2=ax,
                      values=np.zeros((4, 4)))


def test_params_hash_stable_and_sensitive(params):
    assert params_hash(params) == params_hash(params)
    other = dataclasses.replace(
        params, drive=dataclasses.replace(params.drive, delta2=0.0))
    assert params_hash(params) != params_hash(other)


# ---------------------------------------------------------------------------
# longitudinal phase function
# ---------------------------------------------------------------------------

def test_phi_trivials():
    L = 0.07
    assert longitudinal_phi(0.0, L) == 1.0 + 0.0j
    assert abs(longitudinal_phi(2 * np.pi / L, L)) < 1e-12


@given(st.floats(min_value=-1e4, max_value=1e4))
def test_phi_bounded(dk):
    assert abs(longitudinal_phi(dk, 0.07)) <= 1.0 + 1e-12


def test_phi_matches_sin_over_x_near_zero():
    L = 0.07
    x = 1e-4  # where a Taylor series would take over from sin(x)/x
    for dk in (2 * x / L * 0.999, 2 * x / L * 1.001):
        exact = np.sin(dk * L / 2) / (dk * L / 2) * np.exp(-1j * dk * L / 2)
        assert longitudinal_phi(dk, L) == pytest.approx(exact, rel=1e-10)


def test_phi_requires_positive_length():
    with pytest.raises(InvalidParameterError):
        longitudinal_phi(1.0, 0.0)


# ---------------------------------------------------------------------------
# phase mismatch
# ---------------------------------------------------------------------------

@given(st.floats(min_value=-5e9, max_value=5e9),
       st.floats(min_value=-5e9, max_value=5e9))
def test_vacuum_mismatch_alternating_signs(d2, d3):
    """With all modes at c the energy-conservation offset cancels everything
    except -2 delta2 / c."""
    dk = phase_mismatch(d2, d3)
    assert dk == pytest.approx(-2.0 * d2 / C_LIGHT, rel=1e-12, abs=1e-13)


def test_vacuum_mismatch_frozen_value():
    assert phase_mismatch(1e8, -3e7) == pytest.approx(
        -0.667128190396304, rel=1e-12)


@given(st.floats(min_value=-5e9, max_value=5e9),
       st.floats(min_value=-5e9, max_value=5e9))
def test_vacuum_mismatch_all_plus_convention(d2, d3):
    """Summing all three emitted waves cancels identically in vacuum."""
    dk = phase_mismatch(d2, d3, phase_convention="main-text")
    assert abs(dk) < 1e-12


def test_mismatch_validation():
    with pytest.raises(InvalidParameterError):
        phase_mismatch(0.0, 0.0, phase_convention="other")
    with pytest.raises(InvalidParameterError):
        group_velocity(None, "S2", 0.0, group_delay_mode="frozen")


# ---------------------------------------------------------------------------
# linear response and dispersion
# ---------------------------------------------------------------------------

def test_linear_s1_vanishes():
    assert chi_linear_s1() == 0j


def test_linear_s2_s3_absorptive_on_resonance(params, quad):
    """Im chi > 0 (absorption) at the dressed line centers."""
    axis = np.linspace(-2 * np.pi * 2e9, 2 * np.pi * 2e9, 512)
    for mode in ("S2", "S3"):
        chi = _chi_linear(mode, axis, params, quad)
        assert float(np.max(np.imag(chi))) > 0


def test_dispersion_absorption_calibrated_to_od(params, quad):
    """The rescaled profile's peak absorption coefficient equals the OD."""
    axis = np.linspace(-2 * np.pi * 2e9, 2 * np.pi * 2e9, 512)
    prof = dispersion_profile("S2", axis, params, quad)
    peak = float(np.max(np.abs(np.imag(prof.chi))))
    assert KBAR * params.cell.length_L * peak == pytest.approx(
        params.od, rel=1e-12)


def test_slow_light_regimes(params, quad):
    """Group velocity drops well below c between the absorption lines, and
    drops further as the optical depth grows."""
    axis = np.linspace(-2 * np.pi * 2e9, 2 * np.pi * 2e9, 1024)
    prof_lo = dispersion_profile("S2", axis, params, quad)
    hot = dataclasses.replace(
        params, cell=dataclasses.replace(params.cell, temperature=388.15,
                                         density_N=density_for_od(45.7, 388.15)))
    prof_hi = dispersion_profile("S2", axis, hot, quad)
    min_lo = float(np.min(prof_lo.v_group[prof_lo.v_group > 0])) / C_LIGHT
    min_hi = float(np.min(prof_hi.v_group[prof_hi.v_group > 0])) / C_LIGHT
    assert min_lo < 0.5
    assert min_hi < 0.05
    assert min_hi < min_lo


def test_v_at_interpolates_slowness(params, quad):
    axis = np.linspace(-2 * np.pi * 2e9, 2 * np.pi * 2e9, 512)
    prof = dispersion_profile("S3", axis, params, quad)
    # exact at the nodes
    sample = prof.v_at(axis[::37])
    assert np.allclose(sample, prof.v_group[::37], rtol=1e-12)
    # between nodes the slowness is the interpolated quantity
    mid = 0.5 * (axis[100] + axis[101])
    s_expect = 0.5 * (1.0 / prof.v_group[100] + 1.0 / prof.v_group[101])
    assert prof.v_at(mid) == pytest.approx(1.0 / s_expect, rel=1e-12)


def test_v_at_rejects_out_of_range(params, quad):
    axis = np.linspace(-1e9, 1e9, 128)
    prof = dispersion_profile("S2", axis, params, quad)
    with pytest.raises(RangeError):
        prof.v_at(2e9)


def test_dispersion_profile_validation(params, quad):
    with pytest.raises(InvalidParameterError):
        dispersion_profile("S2", np.linspace(-1e9, 1e9, 32), params, quad)
    with pytest.raises(InvalidParameterError):
        dispersion_profile("S1", np.linspace(-1e9, 1e9, 128), params, quad)
