"""Physical parameter records, the SI constants and the fixed Rb transition
constants, Doppler kinematics and dressed-state analysis.

Everything internal is in SI with angular frequencies (rad/s).  Human-unit
conversion (MHz, degC, mW, ...) happens once, in the config layer; see
triphoton.config.  Keeping a single internal convention avoids silent 2*pi
mistakes when mixing linewidths quoted as "2pi x 6 MHz" with detunings quoted
as bare MHz.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sqrt, log

import numpy as np

from .errors import InvalidParameterError

TWO_PI = 2.0 * pi

# SI constants [m/s, J s, J/K, F/m], CODATA-2018 exact or recommended values,
# and the mass of one Rb-85 atom [kg]: 84.911789738 u (AME) times the 2018
# CODATA atomic mass constant.  Fixed data, never configurable.
C_LIGHT = 299792458.0
HBAR = 1.054571817e-34
K_B = 1.380649e-23
EPS0 = 8.8541878128e-12
M_RB = 84.911789738 * 1.66053906660e-27

# Dipole moment of every transition [C m].  Absolute dipole values are not
# known for this model, so susceptibility scales are arbitrary by design and
# only shapes and ratios matter.
NOMINAL_DIPOLE = 1.0e-29

# Transition frequencies [rad/s]: omega31 on the 795 nm line, omega41 and
# omega42 on the 780 nm line.  KBAR [rad/m], the S2 and S3 central wavenumber,
# scales the dispersion profiles to the optical depth; the waves are phase
# matched at line center, so the mismatch comes from the spectral offsets.
OMEGA31 = TWO_PI * C_LIGHT / 795e-9
OMEGA41 = OMEGA42 = TWO_PI * C_LIGHT / 780e-9
KBAR = TWO_PI / 780e-9


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VaporCell:
    """Vapor cell geometry and thermodynamic state.

    temperature [K], length_L [m], density_N [atoms/m^3].  The optical depth
    is derived from these: ExperimentParams.od.
    """

    temperature: float
    length_L: float
    density_N: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise InvalidParameterError(f"temperature must be > 0 K, got {self.temperature}")
        if self.length_L <= 0:
            raise InvalidParameterError(f"length_L must be > 0 m, got {self.length_L}")
        if self.density_N <= 0:
            raise InvalidParameterError(f"density_N must be > 0, got {self.density_N}")


@dataclass(frozen=True)
class DecayRates:
    """Coherence decay rates gamma_ij [rad/s].

    gamma31 and gamma41 are the optical coherence rates and must be positive;
    the ground-state rates (gamma11, gamma22) and the two-photon rate gamma21
    are pure configuration inputs with no further physical model behind them.
    """

    gamma31: float
    gamma41: float
    gamma21: float
    gamma11: float
    gamma22: float
    gamma42: float

    def __post_init__(self):
        for name in ("gamma31", "gamma41", "gamma21", "gamma11", "gamma22", "gamma42"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")
        if self.gamma31 <= 0 or self.gamma41 <= 0:
            raise InvalidParameterError("gamma31 and gamma41 must be > 0")


# rad/s per sqrt(W), back-fitted from (40 mW, 870 MHz) and (15 mW, 533 MHz)
POWER_TO_RABI = {2: TWO_PI * 870e6 / sqrt(40e-3), 3: TWO_PI * 533e6 / sqrt(15e-3)}


def rabi_from_power(field: int, power: float) -> float:
    """Rabi frequency [rad/s] of drive field 2 or 3 at input power [W]:
    omega_j = POWER_TO_RABI[j] * sqrt(power_j)."""
    if power < 0:
        raise InvalidParameterError(f"power{field} must be >= 0")
    return POWER_TO_RABI[field] * sqrt(power)


@dataclass(frozen=True)
class DriveFields:
    """Detunings of the three drive fields and Rabi frequencies of fields 2
    and 3 [rad/s] (field 1 enters chi5 only through delta1).  A drive power
    becomes a Rabi frequency before it gets here: rabi_from_power."""

    delta1: float
    delta2: float
    delta3: float
    omega2: float
    omega3: float

    def __post_init__(self):
        for name in ("omega2", "omega3"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DetuningOffsets:
    """Spectral offsets of the three emitted photons from their line centers.

    Energy conservation requires delta_s1 + delta_s2 + delta_s3 = 0, so
    delta_s1 is always derived from the other two.
    """

    delta_s2: float
    delta_s3: float
    delta_s1: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "delta_s1", -(self.delta_s2 + self.delta_s3))


@dataclass(frozen=True)
class ResonanceSet:
    """Dressed-state resonance centers and effective linewidths [rad/s].

    centers_d2 holds the four delta2 resonances sorted ascending; centers_d1
    and centers_d3 the two-member +/- pairs (minus first).
    """

    centers_d1: tuple[float, float]
    centers_d2: tuple[float, float, float, float]
    centers_d3: tuple[float, float]
    eff_rabi_E2: float
    eff_rabi_E3: float
    linewidth_d2: float
    linewidth_d3: float


@dataclass(frozen=True)
class ExperimentParams:
    """Physical configuration of one simulated experiment: the config's three
    records and the optical depth derived from them.  The transitions and
    dipoles are fixed atomic data, the module constants.  The thermal speed
    must be below c out to 6 sigma, the midpoint rule's velocity node span."""

    cell: VaporCell
    rates: DecayRates
    drive: DriveFields

    def __post_init__(self):
        if not 6 * self.sigma_v < C_LIGHT:
            raise InvalidParameterError(
                f"temperature = {self.cell.temperature:.4g} K puts the 6-sigma "
                f"thermal speed at {6 * self.sigma_v:.4g} m/s, not below c")

    @property
    def od(self) -> float:
        """Optical depth of the cell, optical_depth(cell)."""
        return optical_depth(self.cell)

    @property
    def sigma_v(self) -> float:
        """1-sigma thermal velocity sqrt(kB T / m) [m/s]."""
        return sqrt(K_B * self.cell.temperature / M_RB)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def maxwell_boltzmann_pdf(v, T: float):
    """1-D Maxwell-Boltzmann velocity density f(v) [s/m] at temperature T [K].

    f(v) = sqrt(m / 2 pi kB T) exp(-m v^2 / 2 kB T); even in v, peaks at 0.
    Accepts scalar or array v.
    """
    if T <= 0:
        raise InvalidParameterError(f"temperature must be > 0 K, got {T}")
    a = M_RB / (2.0 * K_B * T)
    return np.sqrt(a / pi) * np.exp(-a * np.square(v))


def doppler_detunings(v, drive: DriveFields):
    """Velocity-shifted detunings (DeltaD1, DeltaD2, DeltaD3) [rad/s].

    DeltaD1 = Delta1 + v omega31/c  (counter-propagating shift on the 795 line)
    DeltaD2 = Delta2 - v omega42/c
    DeltaD3 = Delta3 + v omega42/c
    Accepts scalar or array v.
    """
    v = np.asarray(v, dtype=float)
    dd1 = drive.delta1 + v * OMEGA31 / C_LIGHT
    dd2 = drive.delta2 - v * OMEGA42 / C_LIGHT
    dd3 = drive.delta3 + v * OMEGA42 / C_LIGHT
    if dd1.ndim == 0:
        return float(dd1), float(dd2), float(dd3)
    return dd1, dd2, dd3


def effective_rabi(deltaD, omega, gammaA, gammaB):
    """Dressed-state effective Rabi frequency [rad/s].

    OmegaE = sqrt(DeltaD^2 + 4 |Omega|^2 + 4 gammaA gammaB).  Reduces to
    |DeltaD| when Omega and the gammas vanish, and to 2|Omega| on resonance
    with no decay.
    """
    if np.any(np.asarray(gammaA) < 0) or np.any(np.asarray(gammaB) < 0):
        raise InvalidParameterError("decay rates must be >= 0")
    return np.sqrt(np.square(deltaD) + 4.0 * np.square(np.abs(omega))
                   + 4.0 * gammaA * gammaB)


def resonance_set(params: ExperimentParams, v: float = 0.0) -> ResonanceSet:
    """Resonance centers and effective linewidths of chi5 at velocity v.

    delta1_pm = (DeltaD2 +/- OmegaE2) / (2 (1 - v/c))
    delta2_pmpm = (DeltaD3 - DeltaD2 +/- OmegaE2 +/- OmegaE3) / (2 (1 + v/c))
    delta3_pm = (-DeltaD3 +/- OmegaE3) / (2 (1 - v/c))
    with OmegaE2 = sqrt(DeltaD2^2 + 4|Omega2|^2 + 4 gamma21 gamma41),
    OmegaE3 = sqrt(DeltaD3^2 + 4|Omega3|^2 + 4 gamma11 gamma41), and the
    asymmetric-split effective linewidths
    Gamma_d2 = (gamma21+gamma41)/2 + gamma21 DeltaD2 / (DeltaD2 + OmegaE2),
    Gamma_d3 = (gamma11+gamma41)/2 + gamma11 DeltaD3 / (DeltaD3 + OmegaE3),
    nan where that is 0 / 0 (no Rabi frequency, no ground decay, DeltaD <= 0).
    """
    if abs(v) >= C_LIGHT:
        raise InvalidParameterError(f"|v| must be < c, got {v}")
    r, d = params.rates, params.drive
    _, dd2, dd3 = doppler_detunings(v, d)
    oe2 = float(effective_rabi(dd2, d.omega2, r.gamma21, r.gamma41))
    oe3 = float(effective_rabi(dd3, d.omega3, r.gamma11, r.gamma41))
    wm = 1.0 - v / C_LIGHT
    wp = 1.0 + v / C_LIGHT
    c1 = tuple(sorted(((dd2 - oe2) / (2 * wm), (dd2 + oe2) / (2 * wm))))
    c2 = tuple(sorted((dd3 - dd2 + s2 * oe2 + s3 * oe3) / (2 * wp)
                      for s2 in (-1, 1) for s3 in (-1, 1)))
    c3 = tuple(sorted(((-dd3 - oe3) / (2 * wm), (-dd3 + oe3) / (2 * wm))))
    lw2 = 0.5 * (r.gamma21 + r.gamma41) + (r.gamma21 * dd2 / (dd2 + oe2)
                                           if dd2 + oe2 else np.nan)
    lw3 = 0.5 * (r.gamma11 + r.gamma41) + (r.gamma11 * dd3 / (dd3 + oe3)
                                           if dd3 + oe3 else np.nan)
    return ResonanceSet(centers_d1=c1, centers_d2=c2, centers_d3=c3,
                        eff_rabi_E2=oe2, eff_rabi_E3=oe3,
                        linewidth_d2=lw2, linewidth_d3=lw3)


def doppler_width(T: float) -> float:
    """FWHM Doppler width of the 780 nm line at temperature T [rad/s].

    DeltaD = (omega42/c) sqrt(8 ln2 kB T / m); scales as sqrt(T).
    """
    if T <= 0:
        raise InvalidParameterError(f"temperature must be > 0 K, got {T}")
    return OMEGA42 / C_LIGHT * sqrt(8.0 * log(2.0) * K_B * T / M_RB)


_REF_N, _REF_T, _REF_L, _REF_OD = 1.2e17, 353.15, 0.07, 4.6


def optical_depth(cell: VaporCell) -> float:
    """Optical depth OD = N sigma41 L of the S1/780 line for the given cell.

    The Doppler-broadened cross-section sigma41 falls as 1/sqrt(T).  Absolute
    dipoles are not known (NOMINAL_DIPOLE), so its prefactor is calibrated on
    one reference cell, which comes out at exactly 4.6:
    OD = 4.6 (N / 1.2e17 m^-3) (L / 0.07 m) sqrt(353.15 K / T).
    """
    return (_REF_OD * (cell.density_N / _REF_N) * (cell.length_L / _REF_L)
            * sqrt(_REF_T / cell.temperature))

