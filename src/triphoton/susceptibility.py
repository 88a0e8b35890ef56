"""Doppler-integrated nonlinear and linear susceptibilities, dispersion and
phase mismatch.

The central quantity is the fifth-order susceptibility chi5(delta2, delta3):
a velocity integral of a rational function whose denominator factorizes into
one far-detuned factor and two dressed two-level factors.  The velocity
integrand contains resonances only a few m/s wide riding on the ~190 m/s
thermal Gaussian, which drives the quadrature choice (see VelocityQuadrature).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .errors import (InvalidParameterError, NumericalDomainError,
                     DispersionDomainError, RangeError)
from .params import ExperimentParams, maxwell_boltzmann_pdf, doppler_detunings


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityQuadrature:
    """Quadrature rule for the Maxwell-Boltzmann velocity integrals.

    scheme 'uniform-riemann' is the default: a midpoint rule over
    [-range_sigmas, +range_sigmas] thermal widths.  The integrands here have
    Lorentzian velocity resonances of width ~Gamma c/omega42 (a few m/s), so
    the trapezoid-class rules converge exponentially once the step resolves
    them, while Gauss-Hermite stalls (its nodes thin out exactly where the
    resonances sit).  'gauss-hermite' remains available for broad integrands.
    """

    scheme: str = "uniform-riemann"
    node_count: int = 2001
    range_sigmas: float = 6.0

    def __post_init__(self):
        if self.scheme not in ("uniform-riemann", "gauss-hermite"):
            raise InvalidParameterError(f"unknown quadrature scheme '{self.scheme}'")
        if self.node_count < 8:
            raise InvalidParameterError("node_count must be >= 8")
        if self.scheme == "uniform-riemann" and self.range_sigmas < 3:
            raise InvalidParameterError("range_sigmas must be >= 3")

    def nodes_weights(self, params: ExperimentParams):
        """Velocity nodes v and weights w with f(v) dv folded in, so that
        integral f(v) g(v) dv ~= sum w_i g(v_i)."""
        sig = params.sigma_v
        if self.scheme == "uniform-riemann":
            half = self.range_sigmas * sig
            h = 2.0 * half / self.node_count
            v = -half + h * (np.arange(self.node_count) + 0.5)
            w = maxwell_boltzmann_pdf(v, params.cell.temperature) * h
        else:
            x, wh = np.polynomial.hermite.hermgauss(self.node_count)
            v = np.sqrt(2.0) * sig * x
            w = wh / np.sqrt(np.pi)
        return v, w


# ---------------------------------------------------------------------------
# grid containers
# ---------------------------------------------------------------------------

def _check_axis(axis, name):
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise InvalidParameterError(f"{name} must be 1-D with >= 2 points")
    d = np.diff(axis)
    if np.any(d <= 0):
        raise InvalidParameterError(f"{name} must be strictly increasing")
    if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
        raise InvalidParameterError(f"{name} must be uniformly spaced")
    return axis


@dataclass(frozen=True)
class ComplexGrid2D:
    """Complex samples over a rectangular (axis1, axis2) grid.

    values has shape (len(axis1), len(axis2)), row-major in axis1.
    provenance is a free-text description of the generating operation plus a
    parameter hash, carried through serialization.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    label1: str = "axis1"
    label2: str = "axis2"
    unit: str = ""
    provenance: str = ""

    def __post_init__(self):
        a1 = _check_axis(self.axis1, "axis1")
        a2 = _check_axis(self.axis2, "axis2")
        v = np.asarray(self.values)
        if v.shape != (a1.size, a2.size):
            raise InvalidParameterError(
                f"values shape {v.shape} does not match axes ({a1.size}, {a2.size})")
        object.__setattr__(self, "axis1", a1)
        object.__setattr__(self, "axis2", a2)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class GridSpec2D:
    """Axis ranges and sizes for a rectangular evaluation grid."""

    min1: float
    max1: float
    n1: int
    min2: float
    max2: float
    n2: int

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise InvalidParameterError("grid sizes must be >= 2")
        if not (self.max1 > self.min1 and self.max2 > self.min2):
            raise InvalidParameterError("axis ranges must be non-degenerate")

    def axes(self):
        return (np.linspace(self.min1, self.max1, self.n1),
                np.linspace(self.min2, self.max2, self.n2))


@dataclass(frozen=True)
class DispersionProfile:
    """Linear susceptibility, refractive index and group velocity samples.

    n = sqrt(1 + Re chi) pointwise; v_group = (dk/domega)^-1 with
    k = (omega_c + delta) n(delta) / c, i.e. c / (n + omega_c dn/ddelta),
    the derivative taken by central finite differences (one-sided at edges).
    """

    delta_axis: np.ndarray
    chi: np.ndarray
    n: np.ndarray
    v_group: np.ndarray

    def __post_init__(self):
        axis = _check_axis(self.delta_axis, "delta_axis")
        object.__setattr__(self, "delta_axis", axis)
        if np.any(1.0 + np.real(self.chi) <= 0.0):
            raise DispersionDomainError("1 + Re(chi) <= 0 on the profile")

    def v_at(self, delta):
        """Group velocity at offsets delta, interpolated in slowness 1/v.

        The slowness dk/domega is the smooth physical quantity; interpolating
        v directly would misbehave near anomalous-dispersion poles where v
        diverges or changes sign.
        """
        delta = np.asarray(delta, dtype=float)
        lo, hi = self.delta_axis[0], self.delta_axis[-1]
        if np.any(delta < lo) or np.any(delta > hi):
            raise RangeError("requested offset outside dispersion profile range")
        with np.errstate(divide="ignore"):
            s = np.interp(delta, self.delta_axis, 1.0 / self.v_group)
            return 1.0 / s


def params_hash(params: ExperimentParams, *extra) -> str:
    """Short stable hash of a parameter record, for provenance strings."""
    text = repr(params) + "".join(repr(e) for e in extra)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# chi5
# ---------------------------------------------------------------------------

def _chi5_prefactor(params: ExperimentParams) -> float:
    d, cst = params.dip, params.const
    return (2.0 * params.cell.density_N * d.mu13 * d.mu24 * d.mu23 * d.mu14 ** 3
            * d.overall_scale_A / (cst.eps0 * cst.hbar ** 5))


# delta3 values per block of the chi5 kernel.  At the default 2001 velocity
# nodes each (block, node) complex temporary is 8 x 2001 x 16 B = 256 KB, so
# a block's working set stays in cache while every delta2 row passes over it.
_CHI5_BLOCK = 8


class _Chi5Integrand:
    """Velocity factors of the chi5 integrand for one (params, quad) pair.

    w / (b1 b3) and W+ delta3 do not depend on delta2, so they are built once
    per block of delta3 values (d3_block); each delta2 then only adds b2
    (rows).  chi5 and chi5_map run the same elementwise operations on
    (point, node) arrays, so a map point equals the scalar value exactly,
    whatever the block size.
    """

    def __init__(self, params: ExperimentParams, quad: VelocityQuadrature):
        r, drv = params.rates, params.drive
        self.v, self.w = quad.nodes_weights(params)
        dd1, dd2, self.dd3 = doppler_detunings(self.v, drv, params.frame)
        self.wm = 1.0 - self.v / CONST.c
        self.wp = 1.0 + self.v / CONST.c
        self.b1 = r.gamma31 + 1j * dd1
        self.jdd2 = 1j * dd2
        self.rates = r
        self.om2 = np.abs(drv.omega2) ** 2
        self.om3 = np.abs(drv.omega3) ** 2
        self.prefactor = _chi5_prefactor(params)

    def d3_block(self, d3):
        """(W+ d3, w / (b1 b3)) for a 1-D block of delta3 values."""
        r = self.rates
        wpd3 = self.wp * d3[:, None]
        b3 = ((r.gamma11 + 1j * wpd3) * (r.gamma41 + 1j * wpd3 + 1j * self.dd3)
              + self.om3)
        return wpd3, self.w / (self.b1 * b3)

    def rows(self, wmd2, wpd3, a):
        """chi5 over a d3 block from d3_block; wmd2 is W- d2, either one
        (node,) row shared by the block or one row per block point."""
        r = self.rates
        # b2 = (Gamma21 + i s)(Gamma41 + i s + i DeltaD2) + |Omega2|^2, built in
        # place: this is the only per-(d2, d3, v) work of a map
        summand = 1j * (wmd2 + wpd3)
        second = summand + r.gamma41
        second += self.jdd2
        summand += r.gamma21
        summand *= second
        summand += self.om2
        np.divide(a, summand, out=summand)
        out = summand.sum(axis=1)
        if not np.all(np.isfinite(out)):
            bad = np.argwhere(~np.isfinite(summand))
            raise NumericalDomainError(
                "non-finite chi5 integrand sample",
                offending_value=float(self.v[bad[0, -1]]) if bad.size else None)
        return self.prefactor * out


def chi5(delta2, delta3, params: ExperimentParams,
         quad: VelocityQuadrature = VelocityQuadrature()):
    """Fifth-order susceptibility at (delta2, delta3) [arbitrary units].

    Velocity integral of
      2 N mu13 mu24 mu23 mu14^3 f(v) / (eps0 hbar^5 {b1 b2 b3}) with
      b1 = Gamma31 + i DeltaD1,
      b2 = (Gamma21 + i(W- d2 + W+ d3))(Gamma41 + i(W- d2 + W+ d3) + i DeltaD2) + |Omega2|^2,
      b3 = (Gamma11 + i W+ d3)(Gamma41 + i W+ d3 + i DeltaD3) + |Omega3|^2,
    where W+- = 1 +- v/c.  Scalar in, scalar out; matched 1-D arrays
    broadcast elementwise.
    """
    kern = _Chi5Integrand(params, quad)
    d2, d3 = np.broadcast_arrays(np.atleast_1d(np.asarray(delta2, dtype=float)),
                                 np.atleast_1d(np.asarray(delta3, dtype=float)))
    out = np.empty(d2.size, dtype=complex)
    for j in range(0, d2.size, _CHI5_BLOCK):
        blk = slice(j, j + _CHI5_BLOCK)
        wpd3, a = kern.d3_block(d3[blk])
        out[blk] = kern.rows(kern.wm * d2[blk, None], wpd3, a)
    if np.isscalar(delta2) and np.isscalar(delta3):
        return complex(out[0])
    return out


def chi5_map(grid_spec: GridSpec2D, params: ExperimentParams,
             quad: VelocityQuadrature = VelocityQuadrature()) -> ComplexGrid2D:
    """chi5 sampled over a rectangular (delta2, delta3) grid.

    Built block by block of delta3 through the same kernel as scalar chi5,
    so the map is pointwise identical to individual calls.
    """
    d2_axis, d3_axis = grid_spec.axes()
    kern = _Chi5Integrand(params, quad)
    values = np.empty((d2_axis.size, d3_axis.size), dtype=complex)
    for j in range(0, d3_axis.size, _CHI5_BLOCK):
        blk = slice(j, j + _CHI5_BLOCK)
        wpd3, a = kern.d3_block(d3_axis[blk])
        for i, d2 in enumerate(d2_axis):
            values[i, blk] = kern.rows(kern.wm * d2, wpd3, a)
    return ComplexGrid2D(axis1=d2_axis, axis2=d3_axis, values=values,
                         label1="delta2", label2="delta3", unit="rad/s",
                         provenance=f"chi5_map {params_hash(params, grid_spec, quad)}")


# ---------------------------------------------------------------------------
# linear susceptibilities
# ---------------------------------------------------------------------------

def _chi_linear(mode, delta, params: ExperimentParams, quad: VelocityQuadrature):
    """Doppler-integrated linear susceptibility of the S2 or S3 photon."""
    r, drv, cst = params.rates, params.drive, params.const
    v, w = quad.nodes_weights(params)
    _, dd2, dd3 = doppler_detunings(v, drv, params.frame)
    if mode == "S2":
        sign, mu, dd, omega = -1.0, params.dip.mu24, dd2, drv.omega2
        g_ground, g_opt = r.gamma22, r.gamma42
    else:
        sign, mu, dd, omega = 1.0, params.dip.mu14, dd3, drv.omega3
        g_ground, g_opt = r.gamma11, r.gamma41
    scalar = np.isscalar(delta)
    d = np.atleast_1d(np.asarray(delta, dtype=float))[:, None]
    kin = (1.0 + sign * v / CONST.c) * d
    num = -4j * params.cell.density_N * mu ** 2 * (kin + 1j * g_ground)
    den = cst.eps0 * cst.hbar * (4.0 * (kin - dd + 1j * g_opt)
                                 * (kin + 1j * g_ground) + np.abs(omega) ** 2)
    summand = w * num / den
    if not np.all(np.isfinite(summand)):
        bad = np.argwhere(~np.isfinite(summand))
        raise NumericalDomainError(f"non-finite chi_linear_{mode.lower()} integrand sample",
                                   offending_value=float(v[bad[0][-1]]))
    out = summand.sum(axis=1)
    return complex(out[0]) if scalar else out


def chi_linear_s2(delta2, params: ExperimentParams,
                  quad: VelocityQuadrature = VelocityQuadrature()):
    """Linear susceptibility of the S2 photon [arbitrary units].

    Doppler integral of
      -i 4 N mu24^2 ((1 - v/c) d2 + i Gamma22) /
      (eps0 hbar [4((1-v/c) d2 - DeltaD2 + i Gamma42)((1-v/c) d2 + i Gamma22)
                  + |Omega2|^2]).
    The |Omega|^2 coupling term uses the field-2 Rabi frequency (the printed
    subscript '22' has no separate definition).
    """
    return _chi_linear("S2", delta2, params, quad)


def chi_linear_s3(delta3, params: ExperimentParams,
                  quad: VelocityQuadrature = VelocityQuadrature()):
    """Linear susceptibility of the S3 photon [arbitrary units].

    Mirror of chi_linear_s2 with (1 + v/c) delta3 kinematics, Gamma11/Gamma41
    and the field-3 Rabi frequency.
    """
    return _chi_linear("S3", delta3, params, quad)


def chi_linear_s1() -> complex:
    """Linear susceptibility of the S1 photon: identically zero.

    The S1 field is generated far off resonance, so its medium response is
    negligible and S1 photons propagate at c.
    """
    return 0j


# ---------------------------------------------------------------------------
# dispersion and phase mismatch
# ---------------------------------------------------------------------------

def dispersion_profile(which: str, delta_axis, params: ExperimentParams,
                       quad: VelocityQuadrature = VelocityQuadrature()) -> DispersionProfile:
    """Refractive index and group velocity profile for the S2 or S3 mode.

    The raw susceptibility carries an arbitrary absolute scale (unknown
    dipoles), so it is rescaled such that the peak absorption coefficient
    kbar * L * max|Im chi| over the sampled axis equals the cell's optical
    depth.  That ties the dispersion strength to OD, which is the quantity
    that controls the group-delay regime.
    """
    axis = _check_axis(np.asarray(delta_axis, dtype=float), "delta_axis")
    if axis.size < 64:
        raise InvalidParameterError("delta_axis must have >= 64 points")
    if which not in ("S2", "S3"):
        raise InvalidParameterError(f"which must be 'S2' or 'S3', got '{which}'")
    chi_raw = _chi_linear(which, axis, params, quad)
    kbar = params.frame.kbar[which]
    omega_c = params.frame.omega42 if which == "S2" else params.frame.omega41
    peak_abs = float(np.max(np.abs(np.imag(chi_raw))))
    if peak_abs == 0.0:
        chi = chi_raw.astype(complex)
    else:
        chi = chi_raw * (params.cell.od / (kbar * params.cell.length_L * peak_abs))
    if np.any(1.0 + np.real(chi) <= 0.0):
        raise DispersionDomainError("1 + Re(chi) <= 0 on the requested axis")
    n = np.sqrt(1.0 + np.real(chi))
    dn = np.gradient(n, axis)
    # group velocity from the definition (dk/domega)^-1 with the full carrier
    # frequency; the delta-only variant has no slow-light regime at any OD
    v_group = CONST.c / (n + omega_c * dn)
    return DispersionProfile(delta_axis=axis, chi=chi, n=n, v_group=v_group)


def group_velocity(profiles: dict | None, mode: str, offs,
                   group_delay_mode: str = "local"):
    """Group velocity of mode 'S2' or 'S3' at the spectral offsets offs.

    A mode missing from profiles (or profiles None) is vacuum, v = c;
    group_delay_mode 'local' evaluates the profile at each offset, 'central'
    freezes it at line center.
    """
    if group_delay_mode not in ("local", "central"):
        raise InvalidParameterError(f"unknown group_delay_mode '{group_delay_mode}'")
    prof = (profiles or {}).get(mode)
    if prof is None:
        return np.broadcast_to(CONST.c, np.shape(offs))
    if group_delay_mode == "central":
        return np.broadcast_to(prof.v_at(0.0), np.shape(offs))
    return prof.v_at(offs)


def phase_mismatch(delta2, delta3, params: ExperimentParams,
                   profiles: dict | None = None,
                   phase_convention: str = "si-eq-s8",
                   group_delay_mode: str = "local"):
    """Longitudinal wavenumber mismatch Delta_k(delta2, delta3) [rad/m].

    Each wave contributes k_j = kbar_j + offset/v_j; the central wavenumbers
    are phase matched by construction, so only the offset terms survive and
    Delta_k(0, 0) = 0 exactly.  The pump offsets are zero (monochromatic
    drives), and delta1 = -(delta2 + delta3) by energy conservation.

    phase_convention 'si-eq-s8' uses the alternating signs
    +S1 -S2 +S3; 'main-text' sums all three emitted waves.  profiles maps
    'S2'/'S3' to DispersionProfile; omitting one (or passing None) treats
    that mode as vacuum (v = c).  group_delay_mode 'local' evaluates v at
    each offset, 'central' freezes v at line center.
    """
    if phase_convention not in ("si-eq-s8", "main-text"):
        raise InvalidParameterError(f"unknown phase_convention '{phase_convention}'")
    d2 = np.asarray(delta2, dtype=float)
    d3 = np.asarray(delta3, dtype=float)
    d1 = -(d2 + d3)
    t1 = d1 / CONST.c
    t2 = d2 / group_velocity(profiles, "S2", d2, group_delay_mode)
    t3 = d3 / group_velocity(profiles, "S3", d3, group_delay_mode)
    if phase_convention == "si-eq-s8":
        dk = t1 - t2 + t3
    else:
        dk = t1 + t2 + t3
    if dk.ndim == 0:
        return float(dk)
    return dk


def longitudinal_phi(dk, L: float):
    """Longitudinal phase-mismatch function Phi = sinc(x) exp(-i x), x = dk L/2.

    sinc(x) = sin(x)/x with sinc(0) = 1; a truncated Taylor series is used for
    |x| < 1e-4 to avoid cancellation near the removable singularity.
    """
    if L <= 0:
        raise InvalidParameterError(f"L must be > 0, got {L}")
    x = np.asarray(dk, dtype=float) * (L / 2.0)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 0.0, x)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 1.0 - x * x / 6.0 + x ** 4 / 120.0, np.sin(xs) / np.where(small, 1.0, xs))
    out = s * np.exp(-1j * x)
    if out.ndim == 0:
        return complex(out)
    return out
