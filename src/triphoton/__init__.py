"""Simulation and analysis of six-wave-mixing triphoton correlations.

Its modules cover the physical parameter records and dressed-state analysis
(params), Doppler-integrated susceptibilities and dispersion
(susceptibility), temporal correlation maps (correlation), Monte Carlo
event-stream synthesis (eventsim), coincidence reconstruction (coincidence),
and configuration / file formats / CLI (config, io_formats, cli).
"""

from .params import (VaporCell, DecayRates, DriveFields, DetuningOffsets,
                     ResonanceSet, C_LIGHT, HBAR, K_B, EPS0, M_RB,
                     OMEGA31, OMEGA41, OMEGA42, KBAR, NOMINAL_DIPOLE,
                     ExperimentParams, maxwell_boltzmann_pdf,
                     doppler_detunings, effective_rabi, resonance_set,
                     optical_depth, doppler_width)
from .susceptibility import (VelocityQuadrature, ComplexGrid2D, GridSpec2D,
                             DispersionProfile, chi5, chi5_map, chi_linear_s1,
                             dispersion_profile, phase_mismatch,
                             longitudinal_phi)
from .correlation import (CorrelationMap, ConditionalTrace,
                          default_spectral_window, spectral_kernel,
                          triphoton_amplitude_map, conditional_r2_closed,
                          trace_map, diagonal_cut, oscillation_period,
                          visibility, cauchy_schwarz_factor)
from .eventsim import SourceConfig, EVENT_DTYPE, generate_stream
from .coincidence import (CoincidenceHistogram2D, RatesReport,
                          pairwise_histogram, reconstruct_triple_direct,
                          reconstruct_triple_delayed, estimate_floor,
                          subtract_accidentals, rates_report,
                          diagnose_crosscheck)
from .config import RunConfig, parse_config, default_config

__version__ = "0.1.0"
