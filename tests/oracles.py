"""Closed forms and direct sums that only the tests use: the Riemann double
sum that triphoton_amplitude_map's chirp-z transform evaluates, criterion 4's
conditional pair rate and the inverse of the calibrated optical depth."""
from math import sqrt

import numpy as np

from triphoton.correlation import ConditionalTrace, _nyquist_check, _unit_peak
from triphoton.errors import InvalidParameterError
from triphoton.params import _REF_L, _REF_N, _REF_OD, _REF_T
from triphoton.susceptibility import ComplexGrid2D, GridSpec2D


def amplitude_map_direct(tau_spec: GridSpec2D, kernel: ComplexGrid2D) -> ComplexGrid2D:
    """A3(tau21, tau31) as the explicit Riemann double sum of the spectral
    kernel times exp(+i delta2 tau21) exp(+i delta3 tau31), peak-normalized
    with its raw scale in the provenance, as triphoton_amplitude_map's."""
    tau21, tau31 = tau_spec.axes()
    _nyquist_check(kernel.axis1, tau21, "delta2")
    _nyquist_check(kernel.axis2, tau31, "delta3")
    dd2 = kernel.axis1[1] - kernel.axis1[0]
    dd3 = kernel.axis2[1] - kernel.axis2[0]
    e2 = np.exp(1j * np.outer(tau21, kernel.axis1))
    e3 = np.exp(1j * np.outer(kernel.axis2, tau31))
    a3 = (e2 @ kernel.values @ e3) * (dd2 * dd3)
    scale = float(np.max(np.abs(a3)))
    if scale > 0:
        a3 = a3 / scale
    return ComplexGrid2D(axis1=tau21, axis2=tau31, values=a3,
                         label1="tau21", label2="tau31", unit="s",
                         provenance=f"amplitude_map_direct raw_scale={scale!r}")


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


def density_for_od(od_target: float, temperature_K: float,
                   length_L: float = _REF_L) -> float:
    """The atomic density that yields od_target: params.optical_depth's inverse."""
    if temperature_K <= 0:
        raise InvalidParameterError(f"temperature must be > 0 K, got {temperature_K}")
    return (_REF_N * (od_target / _REF_OD) * (_REF_L / length_L)
            * sqrt(temperature_K / _REF_T))
