"""Flat key=value configuration with explicit unit suffixes.

Frequencies are written in linear units (MHz, GHz, ...) and converted to
angular rad/s at parse time; temperatures in C are converted to kelvin;
lengths, powers and times accept metric suffixes.  Unknown keys are a hard
error.  An empty file resolves to the full default parameter set (the
reference triphoton configuration).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .errors import ConfigError
from .params import (TWO_PI, DecayRates, DriveFields, VaporCell, ExperimentParams,
                     rabi_from_power)
from .susceptibility import VelocityQuadrature
from .eventsim import SourceConfig

_FREQ = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12,
         "min": 60.0, "h": 3600.0}
_LENGTH = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_POWER = {"W": 1.0, "mW": 1e-3, "uW": 1e-6}
_RATE = {"/s": 1.0, "/min": 1.0 / 60.0, "/h": 1.0 / 3600.0, "Hz": 1.0}
_DENSITY = {"m^-3": 1.0, "cm^-3": 1e6}


def _finite(val, text, key):
    """val, or a ConfigError if it is nan or infinite (also after a unit
    conversion overflowed)."""
    if not isfinite(val):
        raise ConfigError(f"{text!r} is not a finite number", key=key)
    return val


def _unit(table):
    """Parser of '<number> <unit>' with the unit looked up in table."""
    def parse(text, key):
        parts = text.split()
        if len(parts) != 2 or parts[1] not in table:
            raise ConfigError(
                f"expected '<number> <unit>' with unit in {sorted(table)}", key=key)
        try:
            val = float(parts[0])
        except ValueError:
            raise ConfigError(f"bad number {parts[0]!r}", key=key)
        return _finite(val * table[parts[1]], text, key)
    return parse


_parse_time = _unit(_TIME)
_parse_length = _unit(_LENGTH)
_parse_rate = _unit(_RATE)
_parse_density = _unit(_DENSITY)


def _parse_freq(text, key):
    """Linear frequency with unit -> angular rad/s (the x2pi convention)."""
    return _finite(TWO_PI * _unit(_FREQ)(text, key), text, key)


def _parse_power(text, key):
    if text.lower() == "none":
        return None
    return _unit(_POWER)(text, key)


def _parse_temperature(text, key):
    parts = text.split()
    if len(parts) != 2 or parts[1] not in ("C", "K"):
        raise ConfigError("expected '<number> C' or '<number> K'", key=key)
    try:
        val = float(parts[0])
    except ValueError:
        raise ConfigError(f"bad number {parts[0]!r}", key=key)
    kelvin = _finite(val + 273.15 if parts[1] == "C" else val, text, key)
    if not kelvin > 0:
        raise ConfigError(f"{text!r} is not above absolute zero", key=key)
    return kelvin


def _parse_int(text, key):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected integer, got {text!r}", key=key)


def _parse_float(text, key):
    try:
        val = float(text)
    except ValueError:
        raise ConfigError(f"expected number, got {text!r}", key=key)
    return _finite(val, text, key)


# Largest grid axis (spectral, tau or map points: one complex128 grid of
# _MAX_AXIS^2 points is 1 GiB) and largest midpoint node count
_MAX_AXIS, _MAX_NODES = 2 ** 13, 2 ** 16


def _parse_quad_nodes(text, key):
    """'exact' (closed-form Doppler integrals) or a midpoint node count."""
    return text if text == "exact" else _bounded(_parse_int, 8, _MAX_NODES)(text, key)


def _choice(*options):
    def parse(text, key):
        if text not in options:
            raise ConfigError(f"expected one of {options}, got {text!r}", key=key)
        return text
    return parse


def _bounded(parser, low, high=None, strict=False):
    """parser plus a range check on the parsed value; None passes.

    Every bound is 0, 1, a count or a number of thermal widths, so it reads
    the same in any unit.
    """
    def parse(text, key):
        val = parser(text, key)
        if val is None:
            return val
        ok = val > low if strict else val >= low
        if not (ok and (high is None or val <= high)):
            need = f"{'>' if strict else '>='} {low:g}"
            if high is not None:
                need += f" and <= {high:g}"
            raise ConfigError(f"{text!r} is out of range: need {need}", key=key)
        return val
    return parse


def _positive(parser):
    return _bounded(parser, 0, strict=True)


def _nonnegative(parser):
    return _bounded(parser, 0)


def _fraction(parser):
    return _bounded(parser, 0, 1)


# key -> (parser, default-as-written).  The written defaults are the
# documented configuration; print-defaults dumps exactly this table.
REGISTRY = {
    # vapor cell
    "temperature": (_parse_temperature, "80 C"),
    "cell_length": (_positive(_parse_length), "7 cm"),
    "density": (_positive(_parse_density), "1.2e11 cm^-3"),
    # decay rates (linear frequency; x2pi applied on parse)
    "gamma31": (_positive(_parse_freq), "6 MHz"),
    "gamma41": (_positive(_parse_freq), "6 MHz"),
    "gamma21": (_nonnegative(_parse_freq), "1.2 MHz"),
    "gamma11": (_nonnegative(_parse_freq), "2.4 MHz"),
    "gamma22": (_nonnegative(_parse_freq), "2.4 MHz"),
    "gamma42": (_nonnegative(_parse_freq), "6 MHz"),
    # drive fields
    "delta1": (_parse_freq, "-2 GHz"),
    "delta2": (_parse_freq, "-150 MHz"),
    "delta3": (_parse_freq, "50 MHz"),
    "omega2": (_nonnegative(_parse_freq), "870 MHz"),
    "omega3": (_nonnegative(_parse_freq), "533 MHz"),
    "power2": (_nonnegative(_parse_power), "none"),
    "power3": (_nonnegative(_parse_power), "none"),
    # numerics
    "quad_nodes": (_parse_quad_nodes, "exact"),
    "spectral_n2": (_bounded(_parse_int, 2, _MAX_AXIS), "512"),
    "spectral_n3": (_bounded(_parse_int, 2, _MAX_AXIS), "512"),
    "tau_max": (_positive(_parse_time), "20 ns"),
    "tau_points": (_bounded(_parse_int, 2, _MAX_AXIS), "128"),
    "map_range": (_positive(_parse_freq), "3 GHz"),
    "map_n2": (_bounded(_parse_int, 2, _MAX_AXIS), "256"),
    "map_n3": (_bounded(_parse_int, 2, _MAX_AXIS), "256"),
    "phase_convention": (_choice("si-eq-s8", "main-text"), "si-eq-s8"),
    "group_delay_mode": (_choice("local", "central"), "local"),
    "dispersion": (_choice("on", "off"), "off"),
    # simulation
    "triplet_rate": (_nonnegative(_parse_rate), "102 /min"),
    "singles_rate_ch1": (_nonnegative(_parse_rate), "800 /s"),
    "singles_rate_ch2": (_nonnegative(_parse_rate), "800 /s"),
    "singles_rate_ch3": (_nonnegative(_parse_rate), "800 /s"),
    "singles_rate_ch4": (_nonnegative(_parse_rate), "800 /s"),
    "dark_rate_ch1": (_nonnegative(_parse_rate), "200 /s"),
    "dark_rate_ch2": (_nonnegative(_parse_rate), "200 /s"),
    "dark_rate_ch3": (_nonnegative(_parse_rate), "200 /s"),
    "dark_rate_ch4": (_nonnegative(_parse_rate), "200 /s"),
    "dual_pair_rate": (_nonnegative(_parse_rate), "1000 /s"),
    "dual_pair_delay": (_positive(_parse_time), "1 us"),
    "efficiency_ch1": (_fraction(_parse_float), "1.0"),
    "efficiency_ch2": (_fraction(_parse_float), "1.0"),
    "efficiency_ch3": (_fraction(_parse_float), "1.0"),
    "efficiency_ch4": (_fraction(_parse_float), "1.0"),
    "fiber_coupling": (_fraction(_parse_float), "1.0"),
    "jitter_sigma": (_nonnegative(_parse_time), "0 ps"),
    "duration": (_positive(_parse_time), "3600 s"),
    "seed": (_bounded(_parse_int, 0, 2 ** 64 - 1), "20240817"),
    # analysis
    "window": (_positive(_parse_time), "195 ns"),
    "bin": (_positive(_parse_time), "0.25 ns"),
    "peak_rebin": (_bounded(_parse_int, 1), "8"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration (SI values, angular frequencies)."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def experiment_params(self) -> ExperimentParams:
        """A power2 or power3 that is set gives its field's Rabi frequency."""
        v = self.values
        rates = DecayRates(gamma31=v["gamma31"], gamma41=v["gamma41"],
                           gamma21=v["gamma21"], gamma11=v["gamma11"],
                           gamma22=v["gamma22"], gamma42=v["gamma42"])
        omega2, omega3 = (v[f"omega{j}"] if v[f"power{j}"] is None
                          else rabi_from_power(j, v[f"power{j}"]) for j in (2, 3))
        drive = DriveFields(delta1=v["delta1"], delta2=v["delta2"],
                            delta3=v["delta3"], omega2=omega2, omega3=omega3)
        cell = VaporCell(temperature=v["temperature"], length_L=v["cell_length"],
                         density_N=v["density"])
        return ExperimentParams(cell=cell, rates=rates, drive=drive)

    def quadrature(self) -> VelocityQuadrature:
        """quad_nodes 'exact' is the closed-form scheme (its fallback keeps
        the default node count); a number selects the midpoint rule."""
        nodes = self.values["quad_nodes"]
        if nodes == "exact":
            return VelocityQuadrature()
        return VelocityQuadrature(scheme="uniform-riemann", node_count=nodes)

    def source_config(self, duration=None, seed=None) -> SourceConfig:
        v = self.values
        return SourceConfig(
            triplet_rate=v["triplet_rate"],
            singles_rate=tuple(v[f"singles_rate_ch{c}"] for c in (1, 2, 3, 4)),
            dual_pair_rate=v["dual_pair_rate"], dual_pair_delay=v["dual_pair_delay"],
            dark_rate=tuple(v[f"dark_rate_ch{c}"] for c in (1, 2, 3, 4)),
            detector_efficiency=tuple(v[f"efficiency_ch{c}"] for c in (1, 2, 3, 4)),
            fiber_coupling=v["fiber_coupling"],
            jitter_sigma=v["jitter_sigma"],
            duration=v["duration"] if duration is None else duration,
            seed=v["seed"] if seed is None else seed,
        )


def default_config() -> RunConfig:
    return parse_config_text("")


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """The defaults overridden by text's lines (a later line wins); a Rabi
    frequency and its field's power may not both be set."""
    values = {k: parser(default, k) for k, (parser, default) in REGISTRY.items()}
    keys = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' in {source}",
                              key=line, line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in REGISTRY:
            raise ConfigError(f"unknown key in {source}", key=key, line=lineno)
        parser, _ = REGISTRY[key]
        try:
            values[key] = parser(val, key)
        except ConfigError as exc:
            raise ConfigError(f"{exc.message} in {source}", key=key,
                              line=lineno) from None
        keys.add(key)
    for j in (2, 3):
        if f"omega{j}" in keys and values[f"power{j}"] is not None:
            raise ConfigError(f"omega{j} and power{j} both set in {source}; give one")
    return RunConfig(values=values)


def parse_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def dump_defaults() -> str:
    lines = ["# fully resolved default configuration",
             "# frequencies are linear and multiplied by 2*pi on parse; "
             "temperatures in C are converted to K"]
    lines += [f"{k} = {default}" for k, (_, default) in REGISTRY.items()]
    return "\n".join(lines) + "\n"
