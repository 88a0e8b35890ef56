"""The benchmark's workloads: the CLI commands each runs and the checks on their outputs.

Each workload is one closed-loop client that runs its commands one after
another, each in a fresh ``python -m triphoton.cli`` process.  Inputs come
from the workload seed alone: it is passed as ``simulate --seed``, and the
map commands take no seed.  ``tiny=True`` shrinks every size for the smoke
test only; the runs BENCHMARK.json describes never set it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# the repo's quick-look spectral overrides (scripts/make_reference_maps.py),
# so the triplet delay density costs about a second per simulate
QUICK_LOOK = """\
quad_nodes = 201
spectral_n2 = 256
spectral_n3 = 256
tau_max = 10 ns
tau_points = 64
"""

DENSE_SOURCE = """\
triplet_rate = 20000 /s
singles_rate_ch1 = 20000 /s
singles_rate_ch2 = 20000 /s
singles_rate_ch3 = 20000 /s
singles_rate_ch4 = 0 /s
"""

# coarser coincidence grid for the smoke test: 50 x 50 bins, not 780 x 780
TINY_HISTOGRAM = """\
window = 50 ns
bin = 1 ns
"""


@dataclass(frozen=True)
class Step:
    """One CLI command.  ``kind`` names its time metric and ``group`` its
    peak-RSS metric; ``{work}`` and ``{seed}`` in ``args`` are filled in per
    cycle."""
    kind: str
    group: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, str]      # file name in the work directory -> text
    steps: tuple[Step, ...]
    check: Callable              # (work dir, stdout by step kind) -> [(name, ok, detail)]
    chi5_points: int = 0         # grid points the map commands evaluate


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

# chi5-map and linear-response run the shipped defaults.  correlation-map
# keeps the default physics, quadrature (2001 nodes) and 128 x 128 delay grid
# but samples the spectrum on 192 x 192 instead of 512 x 512 points, with
# tau_max 10 ns to stay within the Nyquist limit: at the defaults it alone
# takes about a minute, longer than one benchmark run may measure.
MAPS_CORRELATION = """\
spectral_n2 = 192
spectral_n3 = 192
tau_max = 10 ns
"""

TINY_MAPS = """\
quad_nodes = 201
map_n2 = 32
map_n3 = 32
spectral_n2 = 64
spectral_n3 = 64
tau_max = 4 ns
tau_points = 32
"""

# peak |chi5| of the chi5-map grid; an exact Doppler integral must stay
# within CHI5_RTOL of it (the quadrature-fidelity tolerance)
CHI5_PEAK = {False: 1.6109893554433234e-22, True: 1.764423033869693e-22}
CHI5_RTOL = 1e-6


def _check_maps(tiny: bool):
    from triphoton import io_formats
    import numpy as np

    chi5_shape = (32, 32) if tiny else (256, 256)
    r3_shape = (32, 32) if tiny else (128, 128)

    def check(work: Path, stdout: dict):
        grid = io_formats.read_complex_grid(work / "chi5.csv")
        tau21, tau31, r3 = io_formats.read_real_grid(work / "r3.csv")
        peak = float(np.max(np.abs(grid.values)))
        r3_peak = float(np.max(r3))
        linear = [work / "linear" / f"dispersion_{m}.csv" for m in ("s2", "s3")]
        return [
            ("chi5_shape", grid.values.shape == chi5_shape, grid.values.shape),
            ("chi5_finite", bool(np.all(np.isfinite(grid.values))), ""),
            ("chi5_peak", abs(peak / CHI5_PEAK[tiny] - 1) <= CHI5_RTOL, peak),
            ("r3_shape", r3.shape == r3_shape, r3.shape),
            ("r3_finite", bool(np.all(np.isfinite(r3))), ""),
            ("r3_peak_is_1", abs(r3_peak - 1.0) <= 1e-12, r3_peak),
            ("linear_response_files", all(p.stat().st_size > 0 for p in linear), ""),
        ]
    return check


def maps(tiny: bool = False) -> Workload:
    if tiny:
        configs = {"maps.cfg": TINY_MAPS}
        defaults = correlation = ("--config", "{work}/maps.cfg")
        chi5_points = 32 * 32 + 64 * 64
    else:
        configs = {"correlation.cfg": MAPS_CORRELATION}
        defaults, correlation = (), ("--config", "{work}/correlation.cfg")
        chi5_points = 256 * 256 + 192 * 192
    return Workload(
        name="maps",
        configs=configs,
        steps=(
            Step("chi5_map", "map", ("chi5-map", *defaults, "--out", "{work}/chi5.csv")),
            Step("correlation_map", "map", ("correlation-map", *correlation,
                                            "--out", "{work}/r3.csv")),
            Step("linear_response", "map", ("linear-response", *defaults,
                                            "--out", "{work}/linear")),
        ),
        check=_check_maps(tiny),
        chi5_points=chi5_points,
    )


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def _data_rows(path: Path) -> list[str]:
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def simulated_events(simulate_stdout: str) -> int:
    """Event count from the summary line ``simulate: N events over ...``."""
    return int(simulate_stdout.split("simulate: ", 1)[1].split()[0])


def _check_stream(rate_check):
    def check(work: Path, stdout: dict):
        events = simulated_events(stdout["simulate"])
        size = (work / "run.tpe1").stat().st_size
        results = [("tpe1_size", size == 32 + 16 * events, f"{size} B for {events} events"),
                   ("histograms_identical",
                    _data_rows(work / "direct" / "histogram2d.csv")
                    == _data_rows(work / "delayed" / "histogram2d.csv"), "")]
        for method in ("direct", "delayed"):
            with open(work / method / "report.json") as fh:
                report = json.load(fh)
            ok, detail = rate_check(report["triplet_rate_per_min"],
                                    report["triplet_rate_err"])
            results.append((f"triplet_rate_{method}", ok, detail))
        return results
    return check


def _within_sigma(expected, n_sigma):
    def rate_check(rate, err):
        return (abs(rate - expected) <= n_sigma * err,
                f"{rate:.1f}+-{err:.1f}/min vs {expected}/min")
    return rate_check


def _within_share(expected, share):
    def rate_check(rate, err):
        return (abs(rate / expected - 1) <= share,
                f"{rate:.1f}/min vs {expected:.4g}/min")
    return rate_check


def _stream_steps(config: str, duration: float):
    cfg = ("--config", "{work}/" + config)
    events = "{work}/run.tpe1"
    return (
        Step("simulate", "simulate", ("simulate", *cfg, "--duration", repr(duration),
                                      "--seed", "{seed}", "--out", events)),
        Step("analyze", "analyze", ("analyze", *cfg, events, "--method", "direct",
                                    "--out", "{work}/direct")),
        Step("analyze_delayed", "analyze", ("analyze", *cfg, events, "--method", "delayed",
                                            "--out", "{work}/delayed")),
    )


def stream_reference(tiny: bool = False) -> Workload:
    # half of the paper's one-hour run: 14.4M events, a 230 MB TPE1 file
    duration = 60.0 if tiny else 1800.0
    config = QUICK_LOOK + (TINY_HISTOGRAM if tiny else "")
    return Workload(
        name="stream-reference",
        configs={"stream.cfg": config},
        steps=_stream_steps("stream.cfg", duration),
        check=_check_stream(_within_sigma(102.0, 5.0)),
    )


def stream_dense(tiny: bool = False) -> Workload:
    duration = 0.5 if tiny else 30.0
    config = QUICK_LOOK + DENSE_SOURCE + (TINY_HISTOGRAM if tiny else "")
    return Workload(
        name="stream-dense",
        configs={"stream.cfg": config},
        steps=_stream_steps("stream.cfg", duration),
        check=_check_stream(_within_share(1.2e6, 0.05)),
    )


WORKLOADS = {"maps": maps, "stream-reference": stream_reference,
             "stream-dense": stream_dense}
