"""End-to-end command-line surface, run in process."""
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triphoton
from triphoton import cli
from triphoton.cli import main
from triphoton.config import default_config, parse_config_text
from triphoton.correlation import default_spectral_window, spectral_kernel
from triphoton.params import rabi_from_power
from triphoton.susceptibility import dispersion_profile
from triphoton.eventsim import EVENT_DTYPE, ORIGIN_DUAL_PAIR
from triphoton import io_formats

SMALL = """\
# reduced numerics for fast end-to-end runs
quad_nodes = 201
spectral_n2 = 128
spectral_n3 = 128
tau_max = 5 ns
tau_points = 16
map_n2 = 16
map_n3 = 16
"""


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(SMALL)
    return str(path)


def test_print_defaults_round_trips(capsys):
    assert main(["print-defaults"]) == 0
    text = capsys.readouterr().out
    assert parse_config_text(text).values == default_config().values


SELFTEST_CHECKS = [
    "maxwell-boltzmann normalization",
    "longitudinal phi trivials",
    "emitted-offset sum rule",
    "resonance center pair symmetry",
    "doppler detuning slopes",
    "midpoint velocity quadrature vs 20k-node oracle",
    "exact doppler integral vs 20k-node oracle",
    "chi_S1 identically zero",
    "cauchy-schwarz algebraic identity",
    "optical depth reference calibration",
    "doppler width sqrt(T) scaling",
    "config parsing round trip",
    "event file round trip",
]


def test_selftest_passes(capsys):
    """selftest prints one line per check, all 13 passing and in order."""
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == (
        [f"[PASS] {name}" for name in SELFTEST_CHECKS]
        + ["selftest: all checks passed"])


@pytest.mark.parametrize("command", ["print-defaults", "selftest"])
def test_config_refused_where_unread(command, tmp_path, capsys):
    """print-defaults and selftest read no config, so --config is refused."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "missing.cfg")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_chi5_map_command(small_cfg, tmp_path):
    out = tmp_path / "chi5.csv"
    assert main(["chi5-map", "--config", small_cfg, "--out", str(out)]) == 0
    grid = io_formats.read_complex_grid(out)
    assert grid.values.shape == (16, 16)
    assert np.all(np.isfinite(grid.values))


def test_linear_response_command(small_cfg, tmp_path):
    out = tmp_path / "lin"
    assert main(["linear-response", "--config", small_cfg,
                 "--out", str(out)]) == 0
    for name in ("dispersion_s2.csv", "dispersion_s3.csv"):
        rows = [l for l in (out / name).read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 128
        assert len(rows[0].split(",")) == 5


def test_correlation_map_command(small_cfg, tmp_path):
    out = tmp_path / "map.csv"
    assert main(["correlation-map", "--config", small_cfg,
                 "--out", str(out)]) == 0
    a1, a2, vals = io_formats.read_real_grid(out)
    assert vals.shape == (16, 16)
    assert a1[0] == 0.0 and a1[-1] == pytest.approx(5e-9)
    assert float(vals.max()) == pytest.approx(1.0)


def test_correlation_map_hash_covers_map_settings(small_cfg, tmp_path):
    """Settings that change the map's rows change its params_hash line."""
    def digest(extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(Path(small_cfg).read_text() + extra)
        out = tmp_path / "map.csv"
        assert main(["correlation-map", "--config", str(cfg),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        return ([l for l in lines if l.startswith("# params_hash: ")],
                [l for l in lines if not l.startswith("#")])

    for a, b in (("dispersion = on\ngroup_delay_mode = local\n",
                  "dispersion = on\ngroup_delay_mode = central\n"),
                 ("", "phase_convention = main-text\n")):
        (hash_a, rows_a), (hash_b, rows_b) = digest(a), digest(b)
        assert rows_a != rows_b
        assert len(hash_a) == len(hash_b) == 1 and hash_a != hash_b


def test_trace_commands(small_cfg, tmp_path):
    for kind in ("trace-out-S3", "trace-out-S2", "trace-out-S1"):
        out = tmp_path / f"{kind}.csv"
        assert main(["trace", "--config", small_cfg, "--kind", kind,
                     "--out", str(out)]) == 0
        axis, vals = io_formats.read_trace(out)
        assert np.all(vals >= 0)
        expected = 31 if kind == "trace-out-S1" else 16
        assert axis.size == expected
    out = tmp_path / "diag.csv"
    assert main(["trace", "--config", small_cfg, "--kind", "diag",
                 "--line", "5e-9", "--out", str(out)]) == 0
    axis, vals = io_formats.read_trace(out)
    assert axis.size == 16


def test_trace_diag_requires_line(small_cfg, tmp_path):
    code = main(["trace", "--config", small_cfg, "--kind", "diag",
                 "--out", str(tmp_path / "d.csv")])
    assert code == 2


@pytest.mark.parametrize("line", ["nan", "inf", "-inf", "-1e-12", "1.0001e-08"])
def test_trace_diag_bad_line_exit_code(small_cfg, tmp_path, capsys,
                                       monkeypatch, line):
    """A line off the delay grid (tau21 + tau31 in [0, 2 tau_max], 10 ns
    here) is a bad argument, refused before any map is computed."""
    def no_map(*args, **kwargs):
        raise AssertionError("the correlation map was computed")

    monkeypatch.setattr(cli, "triphoton_amplitude_map", no_map)
    code = main(["trace", "--config", small_cfg, "--kind", "diag",
                 f"--line={line}", "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "--line" in capsys.readouterr().err


@pytest.mark.parametrize("kind,line", [("trace-out-S1", "nan"), ("trace-out-S2", "-7"),
                                       ("trace-out-S3", "5e-9")])
def test_trace_line_off_diag_exit_code(small_cfg, tmp_path, capsys, monkeypatch,
                                       kind, line):
    """--line sets the diagonal cut only: with another kind it is refused
    before any map is computed, naming the flag and the kind."""
    def no_map(*args, **kwargs):
        raise AssertionError("the correlation map was computed")

    monkeypatch.setattr(cli, "triphoton_amplitude_map", no_map)
    code = main(["trace", "--config", small_cfg, "--kind", kind,
                 f"--line={line}", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--line" in err and kind in err


@pytest.mark.parametrize("line", ["0", "1e-08"])
def test_trace_diag_grid_corner_lines(small_cfg, tmp_path, line):
    out = tmp_path / "d.csv"
    assert main(["trace", "--config", small_cfg, "--kind", "diag",
                 "--line", line, "--out", str(out)]) == 0
    axis, _ = io_formats.read_trace(out)
    assert axis.size == 1


def test_simulate_analyze_round_trip(small_cfg, tmp_path):
    events = tmp_path / "run.tpe1"
    argv = ["simulate", "--config", small_cfg, "--out", str(events),
            "--duration", "5", "--seed", "7"]
    assert main(argv) == 0
    first = events.read_bytes()
    assert main(argv) == 0
    assert events.read_bytes() == first  # byte-identical for the same seed

    stream, header = io_formats.read_events(events)
    assert header["seed"] == 7
    assert header["duration_ps"] == 5 * 10 ** 12
    assert stream.size > 0

    outdir = tmp_path / "analysis"
    assert main(["analyze", "--config", small_cfg, str(events),
                 "--out", str(outdir)]) == 0
    assert (outdir / "histogram2d.csv").exists()
    report = json.loads((outdir / "report.json").read_text())
    for key in ("triplet_rate_per_min", "accidental_rate_per_min",
                "g3_peak", "cauchy_schwarz", "zero_floor", "method"):
        assert key in report
    assert report["method"].startswith("direct")

    delayed = tmp_path / "analysis_delayed"
    assert main(["analyze", "--config", small_cfg, str(events),
                 "--out", str(delayed), "--method", "delayed"]) == 0
    rep2 = json.loads((delayed / "report.json").read_text())
    assert rep2["method"].startswith("delayed")
    # the two matchers reconstruct the same histogram
    assert (delayed / "histogram2d.csv").read_text().splitlines()[3:] == \
        (outdir / "histogram2d.csv").read_text().splitlines()[3:]


@pytest.mark.parametrize("duration", ["0.5", "2"])
def test_simulate_summary_names_the_duration(small_cfg, tmp_path, capsys,
                                             duration):
    """The summary line gives the run's duration as set: a sub-second run is
    not rounded to 0 s, and a whole-second run prints no decimals."""
    assert main(["simulate", "--config", small_cfg, "--out",
                 str(tmp_path / "run.tpe1"), "--duration", duration]) == 0
    assert f" events over {duration} s (seed " in capsys.readouterr().out


# sha256 of the TPE1 file (origins kept) of a seeded 2 s run of SMALL whose
# dual-pair second clicks lag their first by 1 s on average
_PINNED_CLIPPED = "b34c95173dde0d06424849a2d75ab438de1a28d938db17ce29b3abfa3c25be67"


def test_simulate_clips_clicks_past_the_end(tmp_path):
    """A second click that falls past the run's end is dropped: every stamp
    lies below duration_ps, and about 43% of the pair-b second clicks
    (channel 3) are gone against the pair-a first clicks (channel 1)."""
    cfg = tmp_path / "late.cfg"
    cfg.write_text(SMALL + "dual_pair_delay = 1 s\n")
    events = tmp_path / "run.tpe1"
    assert main(["simulate", "--config", str(cfg), "--out", str(events),
                 "--duration", "2", "--seed", "3", "--keep-origin"]) == 0
    stream, header = io_formats.read_events(events)
    assert int(stream["timestamp_ps"].max()) < header["duration_ps"] == 2 * 10 ** 12
    dual = stream[stream["origin"] == ORIGIN_DUAL_PAIR]
    firsts, seconds = (np.count_nonzero(dual["channel"] == ch) for ch in (1, 3))
    assert seconds < 0.7 * firsts
    assert hashlib.sha256(events.read_bytes()).hexdigest() == _PINNED_CLIPPED


# sha256 of the TPE1 file (origins kept) of a seeded 5 s run of SMALL with
# channel 2 at half efficiency and 50 ps of jitter
_PINNED_THINNED = "824223ffcb18621e013ac6726e6c8651eaf94544710bdc5abc7f28c802f63f3a"


def test_simulate_thinned_channel_bytes_pinned(tmp_path):
    """Channel 2's series draw and compare their uniforms while every other
    series, at efficiency 1, skips its draws: the clicks kept and every
    later draw (the next series' uniforms, the jitter) stay as they were."""
    cfg = tmp_path / "thinned.cfg"
    cfg.write_text(SMALL + "efficiency_ch2 = 0.5\njitter_sigma = 50 ps\n")
    events = tmp_path / "run.tpe1"
    assert main(["simulate", "--config", str(cfg), "--out", str(events),
                 "--duration", "5", "--seed", "7", "--keep-origin"]) == 0
    stream, _ = io_formats.read_events(events)
    assert np.bincount(stream["channel"]).tolist() == [0, 9972, 7450, 10033, 5044]
    assert hashlib.sha256(events.read_bytes()).hexdigest() == _PINNED_THINNED


# sha256 of analyze's outputs for a seeded 0.2 s run of SMALL with 1 MHz
# singles on channels 1-3: ~600k events, ~0.2 stops per start and channel
# in the 780-bin window, and an accidental floor that is not zero
_PINNED_ANALYZE = {
    "direct": ("149a050b086046438970696b521c79277fbc83230efd1d1e9bc848d5efe773c2",
               "c3880b4412fd684a22450bdf6c2939472d5b2d8eb459c6aa86ea907ee3c35164"),
    "delayed": ("c4bb16885a160c8fa429b8ecdfe01cc4c86a93b26c11f6805c284d77bfbbc8f3",
                "31c6c1419e9edc4886b41fccefb3a6f77caa1da6a4ae8ffc72c0c52c12654c6a"),
}


def test_analyze_bytes_pinned(tmp_path):
    """analyze writes the same histogram2d.csv and report.json, byte for
    byte, for both methods."""
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(SMALL + "triplet_rate = 5000 /s\n" + "".join(
        f"singles_rate_ch{c} = 1000000 /s\n" for c in (1, 2, 3)))
    events = tmp_path / "run.tpe1"
    assert main(["simulate", "--config", str(cfg), "--out", str(events),
                 "--duration", "0.2", "--seed", "5"]) == 0
    for method, digests in _PINNED_ANALYZE.items():
        out = tmp_path / method
        assert main(["analyze", "--config", str(cfg), str(events),
                     "--out", str(out), "--method", method]) == 0
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("histogram2d.csv", "report.json"))
        assert got == digests, method


# sha256 of analyze's outputs for a seeded 60 s run of SMALL at the default
# source mix (singles, darks, dual pairs and triplets): ~480k events, of
# which about 0.1% lie in a three-record cluster, and a zero accidental floor
_PINNED_ANALYZE_SPARSE = {
    "direct": ("e0b1ae87f04dc0b360004a6323d1822770b55747f5168e2f18ef1d1f64649682",
               "cec46974fe473931922a1cb7b5d23ad7808154c260be0ca27dabb490e855c633"),
    "delayed": ("28816fb0be7bde4646956df537b8136e8c2f131dffacdcd99ec3a88de61199f1",
                "65421d417bae578a4174fadace5af63925be4d41e025a576fedb7559782c5112"),
}


def test_analyze_bytes_pinned_sparse(small_cfg, tmp_path):
    """analyze writes the same histogram2d.csv and report.json, byte for
    byte, for both methods on a sparse file, where the matcher sees only the
    few records that lie in a three-record cluster."""
    events = tmp_path / "run.tpe1"
    assert main(["simulate", "--config", small_cfg, "--out", str(events),
                 "--duration", "60", "--seed", "11"]) == 0
    for method, digests in _PINNED_ANALYZE_SPARSE.items():
        out = tmp_path / method
        assert main(["analyze", "--config", small_cfg, str(events),
                     "--out", str(out), "--method", method]) == 0
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("histogram2d.csv", "report.json"))
        assert got == digests, method


def test_analyze_leaves_numpy_ma_unimported(small_cfg, tmp_path):
    """No median on analyze's path goes through np.median, whose NaN check
    imports numpy.ma (about 10 ms) on first use."""
    events = tmp_path / "run.tpe1"
    assert main(["simulate", "--config", small_cfg, "--out", str(events),
                 "--duration", "5"]) == 0
    code = ("import sys\n"
            "from triphoton.cli import main\n"
            f"assert main(['analyze', {str(events)!r}, '--out', "
            f"{str(tmp_path / 'o')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


# sha256 of the data rows (the lines not starting with '#') the map commands
# write on SMALL, under the midpoint rule of SMALL and under the exact scheme
_PINNED_MAPS = {
    "201": {
        "chi5_map.csv":
            "f5d6348065650b9399299b05c1676932e243d01715562280b87adf7794d53364",
        "correlation_map.csv":
            "f0f659c24fabaed31f34eebd0f0ba85802c5d12d8ddd8e7826f9b520673782d2",
        "dispersion_s2.csv":
            "d761d57d262833f250e40842a2229a631d2f69d35fbc128a5361aa7a2368c0a8",
        "dispersion_s3.csv":
            "34f6eb69bfb9f9f14500fb180b0a5ae38e4cde89d5fc20239eb058a73d673d76",
        "sweep.csv":
            "dcb029e4aa16c889c27c35a75bb5cac4f3bb618eee4755413c72debd1607c1ff",
    },
    "exact": {
        "chi5_map.csv":
            "8903e4dbc9018a5d57729b84e163a04bfa6318d7e66da141d136dbf738a9c22f",
        "correlation_map.csv":
            "d3adcae6e4a18b3a08e63d7b38531fd72efc6786cc975c47527965fac37c95f3",
        "dispersion_s2.csv":
            "9abe694550ac126d17c0e12c309b695668f4b79c1713027147329f915b5fb360",
        "dispersion_s3.csv":
            "942d844f503746bed768e86c23d603c3311bd6b85e925c982564d14b13c02724",
        "sweep.csv":
            "950468c2f6da38d6f0043b45765c806bb95bdc6f37a13cafb677f8610707a6f9",
    },
}


@pytest.mark.parametrize("nodes", sorted(_PINNED_MAPS))
def test_map_bytes_pinned(tmp_path, nodes):
    """chi5-map, correlation-map, linear-response and sweep write the same
    data rows, byte for byte, under both velocity quadratures."""
    cfg = tmp_path / "maps.cfg"
    cfg.write_text(SMALL + f"quad_nodes = {nodes}\n")
    c = ["--config", str(cfg)]
    for argv in (["chi5-map", *c, "--out", str(tmp_path / "chi5_map.csv")],
                 ["correlation-map", *c, "--out", str(tmp_path / "correlation_map.csv")],
                 ["linear-response", *c, "--out", str(tmp_path)],
                 ["sweep", *c, "--from", "5mW", "--to", "40mW",
                  "--steps", "3", "--out", str(tmp_path / "sweep.csv")]):
        assert main(argv) == 0, argv[0]
    got = {}
    for name in _PINNED_MAPS[nodes]:
        lines = (tmp_path / name).read_bytes().splitlines(keepends=True)
        rows = b"".join(line for line in lines if not line.startswith(b"#"))
        got[name] = hashlib.sha256(rows).hexdigest()
    assert got == _PINNED_MAPS[nodes]


def _run_script(name, *args, env=None):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **(env or {}))
    return subprocess.run([sys.executable, str(root / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_reference_maps_script_runs(tmp_path):
    """scripts/make_reference_maps.py drives five CLI commands, at the
    defaults or with --config; it writes every map and trace to the output
    directory and leaves no temporary file behind."""
    user = tmp_path / "user.cfg"
    user.write_text(SMALL + "delta2 = -100 MHz")
    for case, extra, shape in (("plain", [], (256, 256)),
                               ("config", ["--config", str(user)], (16, 16))):
        tmp = tmp_path / case / "tmp"
        tmp.mkdir(parents=True)
        out = tmp_path / case / "maps"
        run = _run_script("make_reference_maps.py", "--out", str(out),
                          *extra, env={"TMPDIR": str(tmp)})
        assert run.returncode == 0, run.stderr
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "chi5_map.csv", "correlation_map.csv", "diag_10ns.csv",
            "dispersion_s2.csv", "dispersion_s3.csv",
            "trace-out-S1.csv", "trace-out-S2.csv", "trace-out-S3.csv"])
        assert list(tmp.iterdir()) == []
        grid = io_formats.read_complex_grid(out / "chi5_map.csv")
        assert grid.values.shape == shape


def test_stream_study_script_runs(tmp_path):
    """scripts/run_stream_study.py simulates 2 s on the quick-look grids and
    analyzes the file with both circuits."""
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("quad_nodes = 201\nspectral_n2 = 256\nspectral_n3 = 256\n"
                   "tau_max = 10 ns\ntau_points = 64\n")
    out = tmp_path / "stream"
    run = _run_script("run_stream_study.py", "--config", str(cfg),
                      "--duration", "2", "--out", str(out))
    assert run.returncode == 0, run.stderr
    for method in ("direct", "delayed"):
        assert (out / method / "histogram2d.csv").is_file()
        assert (out / method / "report.json").is_file()
        assert any(line.startswith(method) for line in run.stdout.splitlines())
    assert (out / "stream.tpe1").is_file()


def test_sweep_command(small_cfg, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", small_cfg, "--from", "5mW", "--to", "40mW",
                 "--steps", "3", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 3
    powers = [float(r.split(",")[0]) for r in rows]
    assert powers == pytest.approx([5e-3, 22.5e-3, 40e-3])


_SWEEP_SETTINGS = {
    "main-text": "phase_convention = main-text\n",
    "dispersion-local": "dispersion = on\ngroup_delay_mode = local\n",
    "dispersion-central": "dispersion = on\ngroup_delay_mode = central\n",
}


def _sweep_columns(cfg_path, out):
    assert main(["sweep", "--config", str(cfg_path), "--from", "5mW", "--to", "40mW",
                 "--steps", "3", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    return [[float(x) for x in r.split(",")] for r in rows]


@pytest.mark.parametrize("setting", sorted(_SWEEP_SETTINGS))
def test_sweep_runs_its_config(small_cfg, tmp_path, setting):
    """Each sweep row is P2 times the integral of |kernel|^2, for the kernel
    that the config's map settings give at that power: the phase convention,
    and the S2/S3 dispersion profiles under either group-delay mode, over the
    window frozen at the top power.  So the rows differ from the default
    config's."""
    text = SMALL + _SWEEP_SETTINGS[setting]
    (tmp_path / "set.cfg").write_text(text)
    default = _sweep_columns(small_cfg, tmp_path / "default.csv")
    got = _sweep_columns(tmp_path / "set.cfg", tmp_path / "set.csv")

    cfg = parse_config_text(text)
    quad = cfg.quadrature()
    base = cfg.experiment_params()
    at = [dataclasses.replace(base, drive=dataclasses.replace(
        base.drive, omega2=rabi_from_power(2, p))) for p, _ in got]
    spec = default_spectral_window(at[-1], n2=128, n3=128)
    expected = []
    for params, (p, _) in zip(at, got):
        profiles = None
        if cfg["dispersion"] == "on":
            profiles = {mode: dispersion_profile(mode, np.linspace(lo, hi, 128),
                                                 params, quad)
                        for mode, lo, hi in (("S2", spec.min1, spec.max1),
                                             ("S3", spec.min2, spec.max2))}
        kern = spectral_kernel(spec, params, quad, profiles,
                               cfg["phase_convention"], cfg["group_delay_mode"])
        dd2 = kern.axis1[1] - kern.axis1[0]
        dd3 = kern.axis2[1] - kern.axis2[0]
        expected.append([p, float(p * np.sum(np.abs(kern.values) ** 2) * dd2 * dd3)])
    assert got == expected
    assert [r for _, r in got] != [r for _, r in default]


def test_sweep_rejects_bad_arguments(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", small_cfg, "--param", "power3",
              "--from", "5mW", "--to", "40mW", "--out", out])
    assert exc.value.code == 2
    assert main(["sweep", "--config", small_cfg, "--from", "40mW", "--to", "5mW",
                 "--out", out]) == 2
    assert main(["sweep", "--config", small_cfg, "--from", "5mW", "--to", "40mW",
                 "--steps", "1", "--out", out]) == 2
    capsys.readouterr()
    # a power that is not a number, not finite, too weak for delta2 =
    # -150 MHz (0.1mW: a negative effective linewidth) or so strong that
    # the resonances leave the +-5 GHz window (1000W) names its flag
    for flag, value in (("--from", "abc"), ("--from", "5kW"),
                        ("--to", "inf"), ("--to", "1e400mW"),
                        ("--from", "0.1mW"), ("--to", "1000W")):
        powers = {"--from": "5mW", "--to": "40mW", flag: value}
        assert main(["sweep", "--config", small_cfg, "--from", powers["--from"],
                     "--to", powers["--to"], "--out", out]) == 2
        assert f"sweep {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("steps", [10 ** 18, 2 ** 63, 10 ** 30])
def test_sweep_too_many_steps_exit_code(small_cfg, tmp_path, capsys, steps):
    """numpy refuses these sizes (6.94 EiB and beyond the address space)
    before it touches any memory; the refusal names --steps."""
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", small_cfg, "--from", "5mW",
                 "--to", "40mW", "--steps", str(steps), "--out", str(out)]) == 2
    assert "--steps" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("detuning2 = -150 MHz\n")
    out = str(tmp_path / "x.csv")
    assert main(["chi5-map", "--config", str(bad), "--out", out]) == 2


def test_undersampled_delay_grid_exit_code(tmp_path, capsys):
    """A delay grid too fine for the spectral sampling exits 3, and the
    message names the axis and the spectral size that would suffice."""
    text = ("quad_nodes = 201\nspectral_n2 = 64\nspectral_n3 = 64\n"
            "tau_max = 100 ns\ntau_points = 16\n")
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(text)
    code = main(["correlation-map", "--config", str(cfg),
                 "--out", str(tmp_path / "m.csv")])
    assert code == 3
    run = parse_config_text(text)
    spec = cli._spectral_spec(run, run.experiment_params())
    need = int(np.ceil((spec.max1 - spec.min1) * 100e-9 / np.pi)) + 1
    assert need > 64
    assert f"delta2 needs at least {need} points" in capsys.readouterr().err


def test_dispersion_domain_exit_code(tmp_path, capsys):
    """A density so high that 1 + Re(chi) turns negative leaves the refractive
    index undefined: linear-response exits 3 and writes nothing."""
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(SMALL + "density = 1e300 cm^-3\n")
    out = tmp_path / "lin"
    assert main(["linear-response", "--config", str(cfg), "--out", str(out)]) == 3
    assert "1 + Re(chi) <= 0 on the requested axis" in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("quad_nodes", ["exact", "201"])
def test_non_finite_chi5_exit_code_prints_one_line(tmp_path, quad_nodes):
    """omega2 = gamma21 = 0 zeroes a midpoint-rule denominator.  numpy's
    divide-by-zero (and, at 201 nodes, invalid-reduce) RuntimeWarnings used
    to reach stderr ahead of the message; stderr is the message alone."""
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("omega2 = 0 Hz\ngamma21 = 0 Hz\nmap_n2 = 9\nmap_n3 = 9\n"
                   f"quad_nodes = {quad_nodes}\n")
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "triphoton.cli", "chi5-map",
                          "--config", str(cfg), "--out", str(tmp_path / "m.csv")],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert run.returncode == 3
    assert run.stderr == "numerical error: non-finite chi5 integrand sample\n"


def test_every_config_key_is_read(tmp_path, monkeypatch, capsys):
    """Each command runs on a tiny config, simulate without --duration;
    together they read every REGISTRY key, so no parsed key goes unread (as
    omega1 and quad_range_sigmas once did)."""
    from triphoton.config import REGISTRY, RunConfig
    read = set()

    class Reads(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    load = cli._load
    monkeypatch.setattr(cli, "_load",
                        lambda args: RunConfig(values=Reads(load(args).values)))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("spectral_n2 = 64\nspectral_n3 = 64\ntau_max = 4 ns\n"
                   "tau_points = 16\nmap_n2 = 8\nmap_n3 = 8\nduration = 0.5 s\n"
                   "window = 50 ns\nbin = 1 ns\n")
    conf = ["--config", str(cfg)]
    events = str(tmp_path / "run.tpe1")
    for argv in (["chi5-map", "--out", str(tmp_path / "chi5.csv")],
                 ["linear-response", "--out", str(tmp_path / "lin")],
                 ["correlation-map", "--out", str(tmp_path / "r3.csv")],
                 ["trace", "--kind", "trace-out-S3", "--out", str(tmp_path / "t.csv")],
                 ["simulate", "--out", events],
                 ["analyze", events, "--out", str(tmp_path / "an")],
                 ["sweep", "--from", "20mW", "--to", "40mW", "--steps", "2",
                  "--out", str(tmp_path / "sweep.csv")]):
        assert main([*argv, *conf]) == 0, capsys.readouterr().err
    assert read == set(REGISTRY)


def _event_file(path, n):
    """A small sorted TPE1 file of n events over 1 s."""
    rng = np.random.default_rng(11)
    s = np.zeros(n, dtype=EVENT_DTYPE)
    s["timestamp_ps"] = np.sort(rng.integers(0, 10 ** 12, n))
    s["channel"] = rng.integers(1, 5, n)
    io_formats.write_events(path, s, seed=11, duration_ps=10 ** 12)
    return str(path)


@pytest.mark.parametrize("line, command", [
    ("tau_points = 1", "correlation-map"),
    ("quad_nodes = 3", "chi5-map"),
    ("temperature = -300 C", "chi5-map"),
    ("bin = 0 ns", "analyze"),
    ("bin = 300 ns", "analyze"),   # valid alone, rejected against window
    ("quad_scheme = gauss-hermite", "chi5-map"),   # the key is gone
    ("delay_offset = 150 ns", "analyze"),          # so is this one
    ("quad_range_sigmas = 6.0", "chi5-map"),       # and this one
    ("spectral_linewidth_multiple = 8.0", "correlation-map"),   # the window's
    ("spectral_pad_fraction = 0.25", "correlation-map"),        # margins too
    ("omega1 = 300 MHz", "chi5-map"),              # field 1 enters only
    ("power1 = 4 mW", "chi5-map"),                 # through delta1
    ("omega2 = 500 MHz\npower2 = 40 mW", "chi5-map"),   # a power sets its
    ("power3 = 10 mW\nomega3 = 400 MHz", "chi5-map"),   # field's Rabi frequency
    # a field too weak for its detuning has a negative effective linewidth,
    # and the spectral window built from it missed the resonances
    ("omega2 = 10 MHz", "correlation-map"),                # -122.9 MHz
    ("omega3 = 5 MHz\ndelta3 = -50 MHz", "correlation-map"),   # -73.1 MHz
    ("omega2 = 0 Hz", "correlation-map"),
    # no Rabi frequency and no ground decay leave a field's linewidth 0 / 0
    # where its Doppler-shifted detuning is <= 0: ZeroDivisionError, exit 1
    ("omega2 = 0 Hz\ngamma21 = 0 Hz", "correlation-map"),
    ("omega3 = 0 Hz\ngamma11 = 0 Hz", "correlation-map"),
    ("omega3 = 0 Hz\ngamma11 = 0 Hz", "linear-response"),
    # a 6-sigma thermal speed past c puts Doppler nodes past c: every
    # command refuses it, also the ones whose 3-sigma window stays below c
    ("temperature = 1e15 K", "correlation-map"),
    ("temperature = 1e15 K", "chi5-map"),
    ("temperature = 5e13 K", "correlation-map"),   # 3 sigma is 0.70 c
    # a drive that moves a resonance past the window's +-5 GHz clip
    ("omega2 = 100 GHz", "correlation-map"),
    ("omega3 = 50 GHz", "correlation-map"),
])
def test_bad_config_value_exit_code(tmp_path, capsys, line, command):
    """The message names every key the config sets."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "analyze":
        argv.append(_event_file(tmp_path / "run.tpe1", 40))
    assert main(argv) == 2
    err = capsys.readouterr().err
    for row in line.splitlines():
        assert row.split()[0] in err


@pytest.mark.parametrize("key, bound, command", [
    ("spectral_n2", 2 ** 13, "correlation-map"),
    ("spectral_n3", 2 ** 13, "correlation-map"),
    ("tau_points", 2 ** 13, "correlation-map"),
    ("map_n2", 2 ** 13, "chi5-map"),
    ("map_n3", 2 ** 13, "chi5-map"),
    ("quad_nodes", 2 ** 16, "chi5-map"),
])
def test_grid_size_bound_exit_code(tmp_path, capsys, monkeypatch, key, bound,
                                   command):
    """Each grid size and the midpoint node count has an upper bound.  The
    bound reaches the compute stage; one past it exits 2 at parse time,
    naming the key (spectral_n2 = 2000000000 used to exit 1 with numpy's
    _ArrayMemoryError).  The compute stage is patched, so no size runs."""
    def unreached(*args, **kwargs):
        raise AssertionError("the compute stage was reached")
    monkeypatch.setattr(cli, "chi5_map", unreached)
    monkeypatch.setattr(cli, "spectral_kernel", unreached)
    cfg = tmp_path / "big.cfg"
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    cfg.write_text(f"{key} = {bound}\n")
    with pytest.raises(AssertionError, match="compute stage"):
        main(argv)
    cfg.write_text(f"{key} = {bound + 1}\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err and f"<= {bound}" in err, err
    assert not out.exists()


def _dense_event_file(path):
    """30k events on channels 1-3 over 1 ms: about one accidental
    coincidence per 1 ns x 1 ns bin of a 50 ns window."""
    rng = np.random.default_rng(12)
    s = np.zeros(30_000, dtype=EVENT_DTYPE)
    s["timestamp_ps"] = np.sort(rng.integers(0, 10 ** 9, s.size))
    s["channel"] = rng.integers(1, 4, s.size)
    io_formats.write_events(path, s, seed=12, duration_ps=10 ** 9)
    return str(path)


@pytest.mark.parametrize("config, names", [
    ("bin = 0.4 ps", ["bin"]),
    ("window = 0.4 ps\nbin = 0.3 ps", ["bin"]),
    ("window = 1 ms\nbin = 1 ps", ["window", "bin", "1000000000 x 1000000000"]),
    ("window = 1 s\nbin = 1 ps",
     ["window", "bin", "1000000000000 x 1000000000000"]),
    ("window = 50 ns\nbin = 1 ns\npeak_rebin = 60", ["peak_rebin"]),
    ("window = 3 ns\nbin = 1 ns\npeak_rebin = 1", ["window", "bin", "3 bins"]),
    ("window = 100000000 s\nbin = 10000000 s\npeak_rebin = 1", ["window", "2^63"]),
], ids=["bin-rounds-to-0", "window-and-bin-round-to-0", "grid-6.94-EiB",
        "grid-beyond-max-dimension", "peak-rebin-above-bins", "grid-without-floor-frame",
        "window-2^63-ps"])
def test_analyze_unusable_histogram_exit_code(tmp_path, capsys, config, names):
    """Window, bin and peak_rebin values that pass their own range checks but
    make no usable histogram exit 2 with a message, not with a traceback.
    numpy refuses the two grid sizes before it touches any memory, a grid
    of 3 x 3 bins leaves no border frame for the floor estimate, and a
    window of 2^63 ps or more is longer than any delay between stamps.  They are
    refused before the event file is read, so with a missing file the
    message still names the setting."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    events = _dense_event_file(tmp_path / "run.tpe1")
    missing = tmp_path / "absent.tpe1"
    for path in (events, str(missing)):
        assert main(["analyze", path, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert str(missing) not in err, err


@pytest.mark.parametrize("args, config, name", [
    (["--seed", "-1"], "", "seed"),
    (["--seed", str(2 ** 64)], "", "seed"),
    ([], "seed = -1\n", "seed"),
    (["--duration", "nan"], "", "duration"),
    (["--duration", "inf"], "", "duration"),
    (["--duration", "4e-13"], "", "duration 4e-13 s"),
], ids=["seed-negative", "seed-2^64", "config-seed-negative", "duration-nan",
        "duration-inf", "duration-rounds-to-0-ps"])
def test_simulate_bad_seed_or_duration_exit_code(tmp_path, capsys, args,
                                                 config, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "run.tpe1"
    assert main(["simulate", "--config", str(cfg), *args,
                 "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, names", [
    ("triplet_rate = 1e30 /s", ["triplet_rate"]),
    ("singles_rate_ch1 = 1e30 /s", ["singles_rate", "channel 1"]),
    ("dual_pair_rate = 1e30 /s", ["dual_pair_rate"]),
])
def test_simulate_rate_beyond_poisson_limit_exit_code(tmp_path, capsys,
                                                      monkeypatch, line, names):
    """An expected count past numpy's Poisson limit used to exit 1 with
    'lam value too large'; it is refused before any click is drawn."""
    def unreached(*args):
        raise AssertionError("a click series was drawn")
    monkeypatch.setattr(triphoton.eventsim, "_poisson_times", unreached)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "run.tpe1"
    assert main(["simulate", "--config", str(cfg), "--duration", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Poisson limit" in err, err
    assert not out.exists()


def test_simulate_rate_beyond_memory_exit_code(tmp_path, capsys, monkeypatch):
    """An expected count below numpy's Poisson limit but far past memory
    (7.11 PiB of uniform draws) used to exit 1 with numpy's
    _ArrayMemoryError; a trial allocation refuses it before any click is
    drawn."""
    def unreached(*args):
        raise AssertionError("a click series was drawn")
    monkeypatch.setattr(triphoton.eventsim, "_poisson_times", unreached)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("triplet_rate = 0 /s\nsingles_rate_ch1 = 1e15 /s\n")
    out = tmp_path / "run.tpe1"
    assert main(["simulate", "--config", str(cfg), "--duration", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "singles_rate channel 1" in err and "1e+15" in err \
        and "memory" in err, err
    assert not out.exists()


def test_timestamp_at_2_63_exit_code(tmp_path, capsys, raw_event_file):
    """A stamp past the int64 range is a bad input, not a matcher crash."""
    s = np.zeros(3001, dtype=EVENT_DTYPE)
    s["timestamp_ps"][:3000] = np.arange(3000) * 10 ** 6
    s["channel"][:3000] = np.arange(3000) % 4 + 1
    s[3000] = (2 ** 63 + 5, 2, 0)
    path = tmp_path / "late.tpe1"
    raw_event_file(path, s["timestamp_ps"], s["channel"], duration_ps=10 ** 12)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "record 3000" in err


def test_timestamp_after_duration_exit_code(tmp_path, capsys, monkeypatch,
                                            raw_event_file):
    """Counts divided by a header duration shorter than the stream would
    give scaled rates, so analyze refuses the file, before the matcher sees
    its first record chunk."""
    def no_match(*args, **kwargs):
        raise AssertionError("the file was matched")

    s = np.zeros(3, dtype=EVENT_DTYPE)
    s["timestamp_ps"] = (10, 20, 10 ** 13)
    s["channel"] = (1, 2, 3)
    path = tmp_path / "short.tpe1"
    raw_event_file(path, s["timestamp_ps"], s["channel"], duration_ps=10 ** 12)
    monkeypatch.setattr(io_formats, "RECORD_CHUNK", 1)
    monkeypatch.setattr(cli, "triple_histogram", no_match)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "record 2" in err and "duration_ps" in err


def test_missing_event_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "absent.tpe1"
    assert main(["analyze", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert str(missing) in capsys.readouterr().err


def test_report_json_strict_on_empty_stream(tmp_path):
    events = _event_file(tmp_path / "empty.tpe1", 0)
    out = tmp_path / "analysis"
    assert main(["analyze", events, "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    report = json.loads((out / "report.json").read_text(),
                        parse_constant=reject)
    for key in ("g3_peak", "cauchy_schwarz"):
        assert report[key] is None
        assert report[f"{key}_reason"]
    assert report["triplet_rate_per_min"] == 0.0


def test_report_json_null_visibility_has_a_reason(tmp_path, raw_event_file):
    """One coincidence puts the tau21 marginal's only count in its first
    bin, with no oscillation after it: visibility is null, and like every
    null it carries a reason."""
    path = raw_event_file(tmp_path / "one.tpe1", [10, 20, 30], [1, 2, 3],
                          duration_ps=10 ** 12)
    out = tmp_path / "analysis"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["visibility"] is None
    assert "oscillation" in report["visibility_reason"]
    assert all(report.get(f"{key}_reason") for key, val in report.items()
               if val is None)


def test_cli_import_loads_no_scipy():
    """The package and its CLI run on numpy alone; scipy is a test oracle.
    numpy.random, which only the simulator draws from, loads when it is
    first used: loading it costs every command about 10 ms of start-up."""
    code = ("import triphoton, triphoton.cli, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
    env = dict(os.environ, PYTHONPATH=str(Path(triphoton.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
