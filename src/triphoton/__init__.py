"""Simulation and analysis of six-wave-mixing triphoton correlations.

Its modules cover the physical parameter records and dressed-state analysis
(params), Doppler-integrated susceptibilities and dispersion
(susceptibility), temporal correlation maps (correlation), Monte Carlo
event-stream synthesis (eventsim), coincidence reconstruction (coincidence),
and configuration / file formats / CLI (config, io_formats, cli).
"""

__version__ = "0.1.0"
