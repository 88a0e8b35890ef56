"""Physical constants (SI) used throughout the package.

All values are CODATA-2018 exact or recommended values; they are module-level
frozen data and are never configurable.
"""
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants plus the Rb-85 atomic mass, all in SI units.

    c     : speed of light in vacuum [m/s]
    hbar  : reduced Planck constant [J s]
    kB    : Boltzmann constant [J/K]
    eps0  : vacuum permittivity [F/m]
    mRb   : mass of one Rb-85 atom [kg]
    """

    c: float = 299792458.0
    hbar: float = 1.054571817e-34
    kB: float = 1.380649e-23
    eps0: float = 8.8541878128e-12
    # 84.911789738 u (AME) times the 2018 CODATA atomic mass constant
    mRb: float = 84.911789738 * 1.66053906660e-27


CONST = PhysicalConstants()
