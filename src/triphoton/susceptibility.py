"""Doppler-integrated nonlinear and linear susceptibilities, dispersion and
phase mismatch.

The central quantity is the fifth-order susceptibility chi5(delta2, delta3):
a velocity integral of a rational function whose denominator factorizes into
one far-detuned factor and two dressed two-level factors.  The velocity
integrand contains resonances only a few m/s wide riding on the ~190 m/s
thermal Gaussian.  By default these Doppler integrals, and those of the
linear susceptibilities, are evaluated in closed form: partial fractions
over the five (two) velocity poles, each pole integrated against the
Gaussian through the Faddeeva function w(z), here a numpy port of
Weideman's rational expansion.  The midpoint rule remains as the oracle and
as the fallback at near-degenerate points (see VelocityQuadrature).
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, NumericalDomainError,
                     DispersionDomainError, RangeError)
from .params import (C_LIGHT, EPS0, HBAR, ExperimentParams, KBAR, NOMINAL_DIPOLE,
                     OMEGA31, OMEGA41, OMEGA42, maxwell_boltzmann_pdf, doppler_detunings)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityQuadrature:
    """How the Maxwell-Boltzmann velocity integrals are evaluated.

    scheme 'faddeeva' (the default) is exact.  Each integrand is a rational
    function of v times the Gaussian f(v), so partial fractions over its
    poles p_j reduce it to sum_j r_j int f(v) / (v - p_j) dv, and each of those
    is the plasma dispersion function i sqrt(pi) w(p_j / sqrt2 sigma) /
    (sqrt2 sigma) (Fried & Conte 1961).  Points with a pole on the real axis,
    or whose terms cancel by more than _CANCELLATION_LIMIT, fall back to the
    midpoint rule below.

    scheme 'uniform-riemann' is that midpoint rule: node_count nodes over
    [-range_sigmas, +range_sigmas] thermal widths.  The integrands have
    Lorentzian velocity resonances of width ~Gamma c/omega42 (a few m/s), so
    it converges exponentially once the step resolves them.  Over a chi5 map
    at 6 sigma it is off by 2e-8 of the map peak at 2001 nodes and by 5% at
    201, and on the narrow S2/S3 linear lines by 3-11% even at 2001.  It is
    the oracle of the exact scheme, and node_count and range_sigmas set its
    fallback rule.
    """

    scheme: str = "faddeeva"
    node_count: int = 2001
    range_sigmas: float = 6.0

    def __post_init__(self):
        if self.scheme not in ("faddeeva", "uniform-riemann"):
            raise InvalidParameterError(f"unknown quadrature scheme '{self.scheme}'")
        if self.node_count < 8:
            raise InvalidParameterError("node_count must be >= 8")
        if not 3 <= self.range_sigmas < np.inf:
            raise InvalidParameterError("range_sigmas must be finite and >= 3")

    def nodes_weights(self, params: ExperimentParams):
        """Midpoint nodes v and weights w with f(v) dv folded in, so that
        integral f(v) g(v) dv ~= sum w_i g(v_i)."""
        half = self.range_sigmas * params.sigma_v
        h = 2.0 * half / self.node_count
        v = -half + h * (np.arange(self.node_count) + 0.5)
        w = maxwell_boltzmann_pdf(v, params.cell.temperature) * h
        return v, w


# ---------------------------------------------------------------------------
# exact Doppler integrals
# ---------------------------------------------------------------------------

@functools.cache
def _weideman_coefficients(n):
    """Scale L and the n coefficients (highest power first) of Weideman's
    rational expansion of w(z), SIAM J. Numer. Anal. 31, 1497 (1994)."""
    m = 2 * n
    scale = np.sqrt(n / np.sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.roll(np.concatenate(([0.0], np.exp(-t * t) * (scale ** 2 + t * t))), m)
    # the real part of the length-2m DFT of f at frequencies n..1, summed
    # directly so that the exact scheme does not load numpy.fft; the phase
    # k j is reduced mod 2m first, as cos loses digits at large angles
    kj = np.arange(n, 0, -1)[:, None] * np.arange(2 * m) % (2 * m)
    return scale, np.cos(np.pi * kj / m) @ f / (2 * m)


# terms of the expansion: 40 are within ~1e-15 relative of w (checked
# against mpmath) over the pole arguments of the chi5 maps, and within ~3e-14
# of scipy.special.wofz, whose own error that is; 32 reach only ~3e-13
_W_TERMS = 40

# a point whose partial-fraction terms sum to less than 1/_CANCELLATION_LIMIT
# of their magnitudes (nearly coincident poles) takes the midpoint rule
_CANCELLATION_LIMIT = 1e6


def _faddeeva_w(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0."""
    scale, coeffs = _weideman_coefficients(_W_TERMS)
    z = np.asarray(z, dtype=complex)
    d = scale - 1j * z
    zz = (scale + 1j * z) / d
    # Horner out of place: numpy's in-place complex multiply rounds a
    # length-1 array differently from a long one
    p = coeffs[0]
    for c in coeffs[1:]:
        p = p * zz + c
    return 2.0 * p / (d * d) + (1.0 / np.sqrt(np.pi)) / d


def _pole_integral(p, sigma):
    """int f(v) / (v - p) dv for the Maxwell-Boltzmann density f of width
    sigma and Im p != 0; below the axis through w(-conj z) = conj w(z)."""
    zeta = p / (np.sqrt(2.0) * sigma)
    s = np.where(zeta.imag < 0, -1.0, 1.0)
    return s * (1j * np.sqrt(np.pi / 2.0) / sigma) * _faddeeva_w(s * zeta)


def _quadratic_factors(x0, x1, y0, y1, c):
    """(x0 + x1 v)(y0 + y1 v) + c = (A v - t)(t v - C) / t.

    t is the root of t^2 + B t + AC = 0 of larger magnitude, so the two poles
    t / A and C / t are both computed without cancellation, and A = 0 (a
    quadratic that degenerates to a linear one) stays exact.  Returns t and
    the two (a, q) factors.
    """
    a = x1 * y1
    b = x0 * y1 + x1 * y0
    c = x0 * y0 + c
    root = np.sqrt(b * b - 4.0 * a * c)
    root = np.where((np.conj(b) * root).real < 0, -root, root)
    t = -0.5 * (b + root)
    return t, ((a, t), (t, c))


def _doppler_average(n0, n1, factors, sigma):
    """int f(v) (n0 + n1 v) / prod_k (a_k v - q_k) dv by partial fractions.

    The pole p_j = q_j / a_j has the residue
    n(p_j) / (a_j prod_{k != j} a_k (p_j - p_k)); a factor with a_k = 0 is the
    constant -q_k and has no pole.  Two nearly coincident poles share the one
    rounded difference p_j - p_k (with opposite signs), so the error of
    their residues cancels along with the residues.  The terms are added in
    factor order, elementwise, so a point's value does not depend on the
    shape it is evaluated in.  Returns (value, ok); ok is False where a pole
    lies on the real axis, the fraction is improper, or the terms cancel
    beyond _CANCELLATION_LIMIT (a zero or NaN sum included).
    """
    total = mag = 0.0
    ok = True
    factors = [(np.asarray(a, dtype=complex), q) for a, q in factors]
    with np.errstate(all="ignore"):
        has_pole = [a != 0 for a, _ in factors]
        poles = [q / a for a, q in factors]
        for j, (aj, _) in enumerate(factors):
            pj = poles[j]
            den = aj
            for k, (ak, qk) in enumerate(factors):
                if k != j:
                    gap = ak * (pj - poles[k])
                    if not np.all(has_pole[k]):
                        gap = np.where(has_pole[k], gap, -qk)
                    den = den * gap
            term = (n0 + n1 * pj) / den * _pole_integral(pj, sigma)
            term = np.where(has_pole[j], term, 0.0)
            ok = ok & (~has_pole[j] | (pj.imag != 0))
            total = total + term
            mag = mag + np.abs(term)
        ok = ok & ((n1 == 0) | (sum(has_pole) > 1))
        ok = ok & (mag < _CANCELLATION_LIMIT * np.abs(total))
    return total, ok


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
    mu = NOMINAL_DIPOLE
    return (2.0 * params.cell.density_N * mu * mu * mu * mu ** 3
            / (EPS0 * HBAR ** 5))


# delta3 columns per block of the midpoint-rule chi5 grid, which serves the
# quick-look configs with quad_nodes = 201, the oracles of the exact scheme
# and its fallback points.  w / (b1 b3) is built once per column block; each
# block of delta2 rows then holds at most _CHI5_PAIRS (point, node) pairs,
# 256 KB of complex temporaries, so its working set stays in cache.  At 201
# nodes a row block holds 10 rows, which saves the Python calls one row each
# would take; at 2001 it holds one.  Wider blocks, of columns or of rows,
# leave the cache and run 1.7-3x slower at 2001 nodes.
_CHI5_BLOCK = 8
_CHI5_PAIRS = 1 << 14


@np.errstate(divide="ignore", invalid="ignore")
def _chi5_grid(d2_axis, d3_axis, params: ExperimentParams,
               quad: VelocityQuadrature):
    """chi5 over the (d2_axis, d3_axis) grid by the midpoint rule.

    Every point runs the same elementwise operations on its own (node,)
    slice whatever the block shapes, so a point of any grid equals the same
    point evaluated as a 1 x 1 grid.  A zero denominator is no warning: the
    non-finite sample it leaves is refused.
    """
    r, drv = params.rates, params.drive
    v, w = quad.nodes_weights(params)
    dd1, dd2, dd3 = doppler_detunings(v, drv)
    wm, wp = 1.0 - v / C_LIGHT, 1.0 + v / C_LIGHT
    b1 = r.gamma31 + 1j * dd1
    jdd2 = 1j * dd2
    om2, om3 = np.abs(drv.omega2) ** 2, np.abs(drv.omega3) ** 2
    prefactor = _chi5_prefactor(params)
    out = np.empty((d2_axis.size, d3_axis.size), dtype=complex)
    for j in range(0, d3_axis.size, _CHI5_BLOCK):
        cols = slice(j, j + _CHI5_BLOCK)
        wpd3 = wp * d3_axis[cols, None]
        b3 = (r.gamma11 + 1j * wpd3) * (r.gamma41 + 1j * wpd3 + 1j * dd3) + om3
        a = w / (b1 * b3)
        rows = max(1, _CHI5_PAIRS // a.size)
        for i in range(0, d2_axis.size, rows):
            blk = slice(i, i + rows)
            # b2 = (Gamma21 + i s)(Gamma41 + i s + i DeltaD2) + |Omega2|^2 with
            # s = W- d2 + W+ d3, built in place: the only per-(d2, d3, v) work
            summand = 1j * (wm * d2_axis[blk, None, None] + wpd3)
            second = summand + r.gamma41
            second += jdd2
            summand += r.gamma21
            summand *= second
            summand += om2
            np.divide(a, summand, out=summand)
            total = summand.sum(axis=-1)
            if not np.all(np.isfinite(total)):
                bad = np.argwhere(~np.isfinite(summand))
                raise NumericalDomainError(
                    "non-finite chi5 integrand sample",
                    offending_value=float(v[bad[0, -1]]) if bad.size else None)
            out[blk, cols] = prefactor * total
    return out


def _chi5_points(d2, d3, params: ExperimentParams, quad: VelocityQuadrature):
    """chi5 at matched 1-D (d2, d3) arrays by the midpoint rule, one
    single-column grid per distinct d3, so that each point equals the map
    value exactly."""
    out = np.empty(d2.size, dtype=complex)
    cols, col_of = np.unique(d3, return_inverse=True)
    for k in range(cols.size):
        sel = np.flatnonzero(col_of == k)
        out[sel] = _chi5_grid(d2[sel], cols[k:k + 1], params, quad)[:, 0]
    return out


def _chi5_exact(d2, d3, params: ExperimentParams, quad: VelocityQuadrature):
    """chi5 at broadcast (d2, d3) in closed form, with the midpoint rule at
    the points _doppler_average rejects.

    1/(b1 b2 b3) = t2 t3 / (five linear factors): b1 = i k1 v + Gamma31 +
    i Delta1, and b2, b3 split by _quadratic_factors with
    s = W- d2 + W+ d3 = (d2 + d3) + v (d3 - d2) / c.
    """
    r, drv, c = params.rates, params.drive, C_LIGHT
    k1, k2 = OMEGA31 / c, OMEGA42 / c
    b1 = (1j * k1, -(r.gamma31 + 1j * drv.delta1))
    t3, b3 = _quadratic_factors(r.gamma11 + 1j * d3, 1j * d3 / c,
                                r.gamma41 + 1j * (d3 + drv.delta3),
                                1j * (d3 / c + k2), np.abs(drv.omega3) ** 2)
    s0, s1 = d2 + d3, (d3 - d2) / c
    t2, b2 = _quadratic_factors(r.gamma21 + 1j * s0, 1j * s1,
                                r.gamma41 + 1j * (s0 + drv.delta2),
                                1j * (s1 - k2), np.abs(drv.omega2) ** 2)
    val, ok = _doppler_average(t2 * t3, 0.0, (b1, *b3, *b2), params.sigma_v)
    out = _chi5_prefactor(params) * np.where(ok, val, 0.0)
    if not np.all(ok):
        bad = np.nonzero(~ok)
        d2b, d3b = np.broadcast_arrays(d2, d3)
        out[bad] = _chi5_points(d2b[bad], d3b[bad], params, quad)
    return out


# map points per block of the exact chi5 map: its (point,) temporaries stay
# in the tens of KB where the whole 256 x 256 grid at once costs ~60 MB
_EXACT_BLOCK = 4096


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
    d2, d3 = np.broadcast_arrays(np.atleast_1d(np.asarray(delta2, dtype=float)),
                                 np.atleast_1d(np.asarray(delta3, dtype=float)))
    if quad.scheme == "faddeeva":
        out = _chi5_exact(d2, d3, params, quad)
    else:
        out = _chi5_points(d2, d3, params, quad)
    if np.isscalar(delta2) and np.isscalar(delta3):
        return complex(out[0])
    return out


def chi5_map(grid_spec: GridSpec2D, params: ExperimentParams,
             quad: VelocityQuadrature = VelocityQuadrature()) -> ComplexGrid2D:
    """chi5 sampled over a rectangular (delta2, delta3) grid.

    The midpoint rule is _chi5_grid, which also evaluates scalar chi5 and
    the exact scheme's fallback points, one single-column grid per delta3.
    The exact scheme runs _chi5_exact on blocks of delta2 rows, the
    same elementwise code as scalar chi5.  Either way the map is pointwise
    identical to individual calls.
    """
    d2_axis, d3_axis = grid_spec.axes()
    if quad.scheme != "faddeeva":
        values = _chi5_grid(d2_axis, d3_axis, params, quad)
    else:
        values = np.empty((d2_axis.size, d3_axis.size), dtype=complex)
        rows = max(1, _EXACT_BLOCK // d3_axis.size)
        for i in range(0, d2_axis.size, rows):
            blk = slice(i, i + rows)
            values[blk] = _chi5_exact(d2_axis[blk, None], d3_axis, params, quad)
    return ComplexGrid2D(axis1=d2_axis, axis2=d3_axis, values=values,
                         label1="delta2", label2="delta3", unit="rad/s",
                         provenance=f"chi5_map {params_hash(params, grid_spec, quad)}")


# ---------------------------------------------------------------------------
# linear susceptibilities
# ---------------------------------------------------------------------------

def _chi_linear(mode, delta, params: ExperimentParams, quad: VelocityQuadrature):
    """Doppler-integrated linear susceptibility of the S2 or S3 photon
    [arbitrary units], at the detunings delta of that photon.

    The integrand is num / den with num = -4i N mu^2 X and
    den = eps0 hbar (4 X Y + |Omega|^2), where X = kin + i Gamma_ground and
    Y = kin - DeltaD + i Gamma_opt are linear in v (kin = (1 -+ v/c) delta);
    the exact scheme splits den with _quadratic_factors.  S2 takes
    (1 - v/c) d2, Gamma22, Gamma42 and the field-2 Rabi frequency (the
    printed subscript '22' of its coupling term has no separate
    definition); S3 takes (1 + v/c) d3, Gamma11, Gamma41 and field 3.
    """
    r, drv = params.rates, params.drive
    # DeltaD = delta0 + dslope v (doppler_detunings)
    if mode == "S2":
        sign, omega = -1.0, drv.omega2
        g_ground, g_opt = r.gamma22, r.gamma42
        delta0, dslope = drv.delta2, -OMEGA42 / C_LIGHT
    else:
        sign, omega = 1.0, drv.omega3
        g_ground, g_opt = r.gamma11, r.gamma41
        delta0, dslope = drv.delta3, OMEGA42 / C_LIGHT
    scalar = np.isscalar(delta)
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    out = np.empty(d.size, dtype=complex)
    ok = np.zeros(d.size, dtype=bool)
    if quad.scheme == "faddeeva":
        x0, x1 = d + 1j * g_ground, sign * d / C_LIGHT
        t, factors = _quadratic_factors(4.0 * x0, 4.0 * x1, d - delta0 + 1j * g_opt,
                                        x1 - dslope, np.abs(omega) ** 2)
        val, ok = _doppler_average(t * x0, t * x1, factors, params.sigma_v)
        out[ok] = (-4j * params.cell.density_N * NOMINAL_DIPOLE ** 2
                   / (EPS0 * HBAR) * val[ok])
    if not np.all(ok):
        v, w = quad.nodes_weights(params)
        _, dd2, dd3 = doppler_detunings(v, drv)
        dd = dd2 if mode == "S2" else dd3
        kin = (1.0 + sign * v / C_LIGHT) * d[~ok, None]
        num = -4j * params.cell.density_N * NOMINAL_DIPOLE ** 2 * (kin + 1j * g_ground)
        den = EPS0 * HBAR * (4.0 * (kin - dd + 1j * g_opt)
                                         * (kin + 1j * g_ground) + np.abs(omega) ** 2)
        summand = w * num / den
        if not np.all(np.isfinite(summand)):
            bad = np.argwhere(~np.isfinite(summand))
            raise NumericalDomainError(f"non-finite chi_linear_{mode.lower()} integrand sample",
                                       offending_value=float(v[bad[0][-1]]))
        out[~ok] = summand.sum(axis=1)
    return complex(out[0]) if scalar else out


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
    KBAR * L * max|Im chi| over the sampled axis equals the cell's optical
    depth.  That ties the dispersion strength to OD, which is the quantity
    that controls the group-delay regime.
    """
    axis = _check_axis(np.asarray(delta_axis, dtype=float), "delta_axis")
    if axis.size < 64:
        raise InvalidParameterError("delta_axis must have >= 64 points")
    if which not in ("S2", "S3"):
        raise InvalidParameterError(f"which must be 'S2' or 'S3', got '{which}'")
    chi_raw = _chi_linear(which, axis, params, quad)
    omega_c = OMEGA42 if which == "S2" else OMEGA41
    peak_abs = float(np.max(np.abs(np.imag(chi_raw))))
    if peak_abs == 0.0:
        chi = chi_raw.astype(complex)
    else:
        chi = chi_raw * (params.od / (KBAR * params.cell.length_L * peak_abs))
    if np.any(1.0 + np.real(chi) <= 0.0):
        raise DispersionDomainError("1 + Re(chi) <= 0 on the requested axis")
    n = np.sqrt(1.0 + np.real(chi))
    dn = np.gradient(n, axis)
    # group velocity from the definition (dk/domega)^-1 with the full carrier
    # frequency; the delta-only variant has no slow-light regime at any OD
    v_group = C_LIGHT / (n + omega_c * dn)
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
        return np.broadcast_to(C_LIGHT, np.shape(offs))
    if group_delay_mode == "central":
        return np.broadcast_to(prof.v_at(0.0), np.shape(offs))
    return prof.v_at(offs)


def phase_mismatch(delta2, delta3, v2=C_LIGHT, v3=C_LIGHT,
                   phase_convention: str = "si-eq-s8"):
    """Longitudinal wavenumber mismatch Delta_k(delta2, delta3) [rad/m].

    Each wave contributes k_j = kbar_j + offset/v_j; the central wavenumbers
    are phase matched by construction, so only the offset terms survive and
    Delta_k(0, 0) = 0 exactly.  The pump offsets are zero (monochromatic
    drives), and delta1 = -(delta2 + delta3) by energy conservation.

    v2 and v3 are the S2 and S3 group velocities at delta2 and delta3, as
    group_velocity gives them (default vacuum); S1 propagates at c.
    phase_convention 'si-eq-s8' uses the alternating signs +S1 -S2 +S3;
    'main-text' sums all three emitted waves.
    """
    if phase_convention not in ("si-eq-s8", "main-text"):
        raise InvalidParameterError(f"unknown phase_convention '{phase_convention}'")
    d2 = np.asarray(delta2, dtype=float)
    d3 = np.asarray(delta3, dtype=float)
    t1, t2, t3 = -(d2 + d3) / C_LIGHT, d2 / v2, d3 / v3
    dk = t1 - t2 + t3 if phase_convention == "si-eq-s8" else t1 + t2 + t3
    return float(dk) if dk.ndim == 0 else dk


def longitudinal_phi(dk, L: float):
    """Longitudinal phase-mismatch function Phi = sinc(x) exp(-i x), x = dk L/2.

    sinc(x) = sin(x)/x with sinc(0) = 1, from np.sinc as in spectral_kernel;
    sin(x)/x keeps full relative precision near the removable singularity.
    """
    if L <= 0:
        raise InvalidParameterError(f"L must be > 0, got {L}")
    x = np.asarray(dk, dtype=float) * (L / 2.0)
    out = np.sinc(x / np.pi) * np.exp(-1j * x)
    if out.ndim == 0:
        return complex(out)
    return out
