"""Flat key=value configuration parsing."""
import dataclasses
import inspect
from math import pi

import numpy as np
import pytest

from triphoton.errors import ConfigError
from triphoton.config import (REGISTRY, default_config, dump_defaults,
                              parse_config, parse_config_text)
from triphoton.eventsim import ORIGIN_DUAL_PAIR, _sources
from triphoton.susceptibility import VelocityQuadrature

TWO_PI = 2.0 * pi


def test_empty_text_gives_full_defaults():
    assert parse_config_text("").values == default_config().values


def test_defaults_dump_round_trips():
    cfg = parse_config_text(dump_defaults())
    assert cfg.values == default_config().values


def test_every_key_has_a_parseable_default():
    cfg = default_config()
    assert set(cfg.values) == set(REGISTRY)


def test_frequency_units_convert_to_angular():
    cfg = parse_config_text("delta2 = -150 MHz\nomega2 = 0.87 GHz\n"
                            "gamma31 = 6000 kHz\n")
    assert cfg["delta2"] == pytest.approx(-TWO_PI * 150e6)
    assert cfg["omega2"] == pytest.approx(TWO_PI * 870e6)
    assert cfg["gamma31"] == pytest.approx(TWO_PI * 6e6)


def test_temperature_units():
    assert parse_config_text("temperature = 80 C")["temperature"] == \
        pytest.approx(353.15)
    assert parse_config_text("temperature = 400 K")["temperature"] == 400.0


def test_time_length_power_rate_density_units():
    cfg = parse_config_text("\n".join([
        "tau_max = 25 ns",
        "duration = 2 h",
        "cell_length = 70 mm",
        "power2 = 40 mW",
        "triplet_rate = 120 /min",
        "density = 1.2e11 cm^-3",
    ]))
    assert cfg["tau_max"] == pytest.approx(25e-9)
    assert cfg["duration"] == pytest.approx(7200.0)
    assert cfg["cell_length"] == pytest.approx(0.07)
    assert cfg["power2"] == pytest.approx(0.04)
    assert cfg["triplet_rate"] == pytest.approx(2.0)
    assert cfg["density"] == pytest.approx(1.2e17)


def test_power_none():
    assert parse_config_text("power2 = none")["power2"] is None


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# leading comment\n\n"
                            "delta3 = 50 MHz  # trailing comment\n")
    assert cfg["delta3"] == pytest.approx(TWO_PI * 50e6)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("detuning2 = -150 MHz\n")
    assert exc.value.key == "detuning2"
    assert exc.value.line == 1
    # the midpoint rule spans a fixed +-6 thermal widths and the spectral
    # window fixed margins; the keys are gone
    for line in ("quad_range_sigmas = 6.0", "spectral_linewidth_multiple = 8.0",
                 "spectral_pad_fraction = 0.25"):
        with pytest.raises(ConfigError, match="unknown key") as exc:
            parse_config_text(line + "\n")
        assert exc.value.key == line.split()[0]


def test_bad_unit_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("delta2 = -150 mHz\n")
    with pytest.raises(ConfigError):
        parse_config_text("temperature = 80 F\n")
    with pytest.raises(ConfigError):
        parse_config_text("tau_max = fast ns\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("delta2 -150 MHz\n")


def test_choice_keys_validated():
    with pytest.raises(ConfigError):
        parse_config_text("group_delay_mode = frozen\n")
    with pytest.raises(ConfigError):
        parse_config_text("method = fastest\n")
    assert parse_config_text("dispersion = on\n")["dispersion"] == "on"


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 123\nduration = 10 s\n")
    cfg = parse_config(path)
    assert cfg["seed"] == 123
    assert cfg["duration"] == 10.0


# ---------------------------------------------------------------------------
# wiring into the physics and simulation records
# ---------------------------------------------------------------------------

def test_experiment_params_wiring():
    cfg = parse_config_text("temperature = 115 C\ndelta2 = -50 MHz\n"
                            "power2 = 15 mW\n")
    p = cfg.experiment_params()
    assert p.cell.temperature == pytest.approx(388.15)
    assert p.drive.delta2 == pytest.approx(-TWO_PI * 50e6)
    # power input overrides the Rabi frequency via the sqrt law
    assert p.drive.omega2 == pytest.approx(TWO_PI * 870e6 * np.sqrt(15 / 40),
                                           rel=1e-12)


def test_quadrature_wiring():
    cfg = parse_config_text("quad_nodes = 501\n")
    q = cfg.quadrature()
    assert q.node_count == 501
    assert q.range_sigmas == 6.0
    assert q.scheme == "uniform-riemann"
    assert default_config().quadrature() == VelocityQuadrature()
    q = parse_config_text("quad_nodes = exact\n").quadrature()
    assert (q.scheme, q.range_sigmas) == ("faddeeva", 6.0)


def _numeric_keys():
    """(key, unit suffix) for every REGISTRY key that holds a number."""
    for key, (_, text) in REGISTRY.items():
        val = default_config()[key]
        if key == "quad_nodes" or val is None or (
                isinstance(val, (int, float)) and not isinstance(val, bool)):
            unit = " mW" if val is None else "".join(" " + u for u in text.split()[1:])
            yield key, unit


# the detunings are signed, and -1 C is above absolute zero
_SIGNED = ("delta1", "delta2", "delta3", "temperature")


@pytest.mark.parametrize("line", ["quad_nodes = 2001.0", "quad_nodes = Exact"]
                         + [f"{key} = -1{unit}" for key, unit in _numeric_keys()
                            if key not in _SIGNED])
def test_numeric_bounds_name_the_key(line):
    key = line.split()[0]
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\n" + line + "\n")
    assert (err.value.key, err.value.line) == (key, 2)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_numbers_rejected(bad):
    keys = list(_numeric_keys())
    assert len(keys) > 40
    for key, unit in keys:
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"{key} = {bad}{unit}\n")
        assert (err.value.key, err.value.line) == (key, 1)


@pytest.mark.parametrize("line", ["delta1 = 1e300 GHz", "duration = 1e307 h",
                                  "density = 1e305 cm^-3"])
def test_unit_conversion_overflow_rejected(line):
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_config_text(line + "\n")


def test_source_config_wiring():
    cfg = parse_config_text("triplet_rate = 60 /min\nduration = 100 s\n"
                            "dual_pair_rate = 500 /s\nseed = 5\n")
    s = cfg.source_config()
    assert s.triplet_rate == pytest.approx(1.0)
    assert s.duration == 100.0
    assert s.seed == 5
    assert s.singles_rate == (800.0,) * 4
    assert s.dark_rate == (200.0,) * 4
    assert s.dual_pair_rate == pytest.approx(500.0)
    assert s.dual_pair_delay == pytest.approx(1e-6)


def test_library_defaults_equal_config_defaults():
    """The library functions' keyword defaults restate config defaults; each
    stays equal to its REGISTRY entry, at rel 1e-12 across a unit."""
    from triphoton.coincidence import (METHOD_LABELS, diagnose_crosscheck,
                                       rates_report, reconstruct_triple_delayed,
                                       reconstruct_triple_direct, triple_histogram)
    from triphoton.correlation import default_spectral_window, spectral_kernel
    from triphoton.eventsim import SourceConfig
    from triphoton.susceptibility import group_velocity, phase_mismatch

    cfg = default_config()

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert default(default_spectral_window, "n2") == cfg["spectral_n2"]
    assert default(default_spectral_window, "n3") == cfg["spectral_n3"]
    for fn in (spectral_kernel, phase_mismatch):
        assert default(fn, "phase_convention") == cfg["phase_convention"]
    for fn in (spectral_kernel, group_velocity):
        assert default(fn, "group_delay_mode") == cfg["group_delay_mode"]
    for fn in (reconstruct_triple_direct, reconstruct_triple_delayed,
               diagnose_crosscheck):
        assert default(fn, "window") == pytest.approx(cfg["window"], rel=1e-12)
        assert default(fn, "bin_width") == pytest.approx(cfg["bin"], rel=1e-12)
    assert default(rates_report, "peak_rebin") == cfg["peak_rebin"]
    assert default(triple_histogram, "method") == METHOD_LABELS[cfg["method"]]
    fields = {f.name: f.default for f in dataclasses.fields(SourceConfig)}
    for name in ("triplet_rate", "duration", "dual_pair_delay"):
        assert fields[name] == pytest.approx(cfg[name], rel=1e-12), name
    assert VelocityQuadrature() == cfg.quadrature()


def test_source_config_overrides():
    cfg = parse_config_text("duration = 100 s\nseed = 5\n")
    s = cfg.source_config(duration=7.0, seed=99)
    assert s.duration == 7.0 and s.seed == 99


def test_zero_dual_rate_drops_entry():
    cfg = parse_config_text("dual_pair_rate = 0 /s\ntriplet_rate = 0 /s\n")
    s = cfg.source_config(duration=1.0)
    assert s.dual_pair_rate == 0.0
    assert ORIGIN_DUAL_PAIR not in {tag for _, _, tag in _sources(None, s)}
