"""Parameter records, Doppler kinematics and dressed-state analysis."""
import dataclasses
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from triphoton.errors import InvalidParameterError
from triphoton.params import (OMEGA31, OMEGA42, DecayRates, DetuningOffsets,
                              DriveFields, ExperimentParams,
                              VaporCell, density_for_od,
                              doppler_detunings, doppler_width,
                              effective_rabi, maxwell_boltzmann_pdf,
                              optical_depth, rabi_from_power,
                              resonance_set)

TWO_PI = 2.0 * pi


# ---------------------------------------------------------------------------
# frozen reference values (computed once with independent high-resolution
# numerics and pinned here as regressions)
# ---------------------------------------------------------------------------

def test_thermal_velocity_reference(params):
    assert params.sigma_v == pytest.approx(1.859570724773e2, rel=1e-9)


def test_doppler_width_reference():
    assert doppler_width(353.15) == pytest.approx(
        3.527407956287e9, rel=1e-9)
    assert doppler_width(388.15) == pytest.approx(
        3.698076407948e9, rel=1e-9)


def test_density_back_solve_reference():
    assert density_for_od(45.7, 388.15) == pytest.approx(
        1.249855496340e18, rel=1e-9)


def test_resonance_set_reference(params):
    rs = resonance_set(params)
    assert rs.eff_rabi_E2 == pytest.approx(1.097334308739e10, rel=1e-9)
    assert rs.eff_rabi_E3 == pytest.approx(6.705408765771e9, rel=1e-9)
    mhz = np.asarray(rs.centers_d2) / (TWO_PI * 1e6)
    assert mhz == pytest.approx([-1306.83, -239.631, 439.631, 1506.83],
                                abs=1e-2)
    mhz3 = np.asarray(rs.centers_d3) / (TWO_PI * 1e6)
    assert mhz3 == pytest.approx([-558.599, 508.599], abs=1e-2)
    assert rs.linewidth_d2 / (TWO_PI * 1e6) == pytest.approx(3.4873, abs=1e-3)
    assert rs.linewidth_d3 / (TWO_PI * 1e6) == pytest.approx(4.3074, abs=1e-3)


def test_reference_optical_depth(params):
    assert params.od == pytest.approx(4.6, abs=1e-9)


def test_reference_cell_calibrated_exactly():
    """The calibration cell comes out at OD 4.6 and back, with no rounding."""
    assert optical_depth(VaporCell(353.15, 0.07, 1.2e17)) == 4.6
    assert density_for_od(4.6, 353.15) == 1.2e17


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.floats(min_value=250.0, max_value=500.0))
def test_velocity_pdf_even_and_normalized(T):
    from triphoton.params import K_B, M_RB
    v = np.linspace(-8, 8, 10001) * sqrt(K_B * T / M_RB)
    f = maxwell_boltzmann_pdf(v, T)
    assert np.allclose(f, f[::-1])
    assert np.trapezoid(f, v) == pytest.approx(1.0, abs=1e-8)


@given(st.floats(min_value=1.0, max_value=2000.0))
def test_doppler_width_sqrt_scaling(T):
    assert doppler_width(4 * T) == pytest.approx(
        2 * doppler_width(T), rel=1e-12)


@given(st.floats(min_value=-1e10, max_value=1e10))
def test_effective_rabi_limits(deltaD):
    assert effective_rabi(deltaD, 0.0, 0.0, 0.0) == pytest.approx(
        abs(deltaD), rel=1e-12, abs=1e-6)
    assert effective_rabi(0.0, 3e9, 0.0, 0.0) == pytest.approx(6e9, rel=1e-12)


@given(st.floats(min_value=-1e10, max_value=1e10),
       st.floats(min_value=-1e10, max_value=1e10))
def test_offsets_sum_rule(d2, d3):
    off = DetuningOffsets(delta_s2=d2, delta_s3=d3)
    scale = abs(d2) + abs(d3) + 1.0
    assert abs(off.delta_s1 + off.delta_s2 + off.delta_s3) <= 1e-12 * scale


@given(st.floats(min_value=-400.0, max_value=400.0))
def test_doppler_detunings_affine(params, v):
    d = params.drive
    dd1, dd2, dd3 = doppler_detunings(v, d)
    c = 299792458.0
    assert dd1 == pytest.approx(d.delta1 + v * OMEGA31 / c, rel=1e-12)
    assert dd2 == pytest.approx(d.delta2 - v * OMEGA42 / c, rel=1e-12)
    assert dd3 == pytest.approx(d.delta3 + v * OMEGA42 / c, rel=1e-12)


@given(st.floats(min_value=-300.0, max_value=300.0))
def test_resonance_centers_sorted_and_paired(params, v):
    rs = resonance_set(params, v)
    for centers in (rs.centers_d1, rs.centers_d2, rs.centers_d3):
        assert list(centers) == sorted(centers)
    # the two delta3 poles are symmetric about -DeltaD3/2
    _, _, dd3 = doppler_detunings(v, params.drive)
    assert sum(rs.centers_d3) * (1 - v / 299792458.0) == pytest.approx(
        -dd3, rel=1e-9, abs=1e-3)


def test_optical_depth_linear_in_density_and_length(params):
    cell = params.cell
    doubled = VaporCell(temperature=cell.temperature, length_L=cell.length_L,
                        density_N=2 * cell.density_N)
    longer = VaporCell(temperature=cell.temperature,
                       length_L=2 * cell.length_L, density_N=cell.density_N)
    base = optical_depth(cell)
    assert optical_depth(doubled) == pytest.approx(2 * base, rel=1e-12)
    assert optical_depth(longer) == pytest.approx(2 * base, rel=1e-12)


def test_density_back_solve_inverts_od(params):
    n = density_for_od(10.0, 353.15)
    cell = VaporCell(temperature=353.15, length_L=0.07, density_N=n)
    od = optical_depth(cell)
    assert od == pytest.approx(10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# power-derived Rabi frequencies
# ---------------------------------------------------------------------------

def test_power_overrides_rabi():
    """A power2 config key gives field 2's Rabi frequency, whatever the
    default omega2 is."""
    from triphoton.config import parse_config_text
    for text, omega2 in (("power2 = 40 mW", TWO_PI * 870e6),
                         ("power2 = 10 mW", TWO_PI * 870e6 / 2.0)):
        drv = parse_config_text(text).experiment_params().drive
        assert drv.omega2 == pytest.approx(omega2, rel=1e-12)


def test_power_scaling_is_square_root():
    assert rabi_from_power(2, 20e-3) == pytest.approx(
        2 * rabi_from_power(2, 5e-3), rel=1e-12)


def test_rabi_from_power():
    """The reference (power, Rabi) pairs; a negative power is refused."""
    assert rabi_from_power(2, 40e-3) == pytest.approx(TWO_PI * 870e6, rel=1e-12)
    assert rabi_from_power(3, 15e-3) == pytest.approx(TWO_PI * 533e6, rel=1e-12)
    with pytest.raises(InvalidParameterError, match="power2"):
        rabi_from_power(2, -1.0)


# ---------------------------------------------------------------------------
# records hold their inputs
# ---------------------------------------------------------------------------

def test_experiment_params_keeps_its_records(params):
    """ExperimentParams keeps the records it is given, and its optical depth
    follows a replaced cell."""
    c, r, d = params.cell, params.rates, params.drive
    p = ExperimentParams(cell=c, rates=r, drive=d)
    assert p.cell is c and p.rates is r and p.drive is d
    dense = dataclasses.replace(
        p, cell=dataclasses.replace(c, density_N=3 * c.density_N))
    assert dense.od == optical_depth(dense.cell)
    assert dense.od == pytest.approx(3 * p.od, rel=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_invalid_cell_rejected():
    with pytest.raises(InvalidParameterError):
        VaporCell(temperature=-1.0, length_L=0.07, density_N=1e17)
    with pytest.raises(InvalidParameterError):
        VaporCell(temperature=300.0, length_L=0.0, density_N=1e17)
    with pytest.raises(InvalidParameterError):
        VaporCell(temperature=300.0, length_L=0.07, density_N=0.0)


def test_invalid_rates_rejected():
    with pytest.raises(InvalidParameterError):
        DecayRates(gamma31=0.0, gamma41=1.0, gamma21=1.0, gamma11=1.0,
                   gamma22=1.0, gamma42=1.0)
    with pytest.raises(InvalidParameterError):
        DecayRates(gamma31=1.0, gamma41=1.0, gamma21=-1.0, gamma11=1.0,
                   gamma22=1.0, gamma42=1.0)


def test_invalid_drive_rejected(params):
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(params.drive, omega2=-1.0)
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(params.drive, omega3=-1.0)


def test_resonance_set_rejects_superluminal(params):
    with pytest.raises(InvalidParameterError):
        resonance_set(params, v=3e8)


def test_pdf_rejects_nonpositive_temperature():
    with pytest.raises(InvalidParameterError):
        maxwell_boltzmann_pdf(0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        doppler_width(-5.0)
