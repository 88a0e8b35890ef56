"""Command-line surface tying the pipeline together.

Exit codes: 0 success, 2 configuration or input error (a bad config value
or argument, an unreadable or malformed file), 3 numerical-domain error.
Each command that reads a config takes --config (flat key=value file;
omitted means full defaults), and each prints a one-line summary on success.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (ConfigError, InvalidParameterError, NumericalDomainError,
                     TriphotonError)
from .config import parse_config, default_config, dump_defaults, RunConfig
from .susceptibility import (GridSpec2D, chi5_map, dispersion_profile,
                             params_hash)
from .correlation import (default_spectral_window, spectral_kernel, trace_map,
                          triphoton_amplitude_map, diagonal_cut, _check_coverage)
from .eventsim import PS_PER_S, stream_windows
from .params import C_LIGHT, TWO_PI, rabi_from_power, resonance_set
from .coincidence import (METHOD_LABELS, check_histogram, estimate_floor,
                          floor_frame, rates_report, triple_histogram)
# the library entry points that perfbench/tracer.py times under these names;
# simulate and analyze go through stream_windows and triple_histogram instead
from .eventsim import generate_stream  # noqa: F401
from .coincidence import (reconstruct_triple_direct,  # noqa: F401
                          reconstruct_triple_delayed)
from . import io_formats


def _load(args) -> RunConfig:
    if args.config:
        return parse_config(args.config)
    return default_config()


def _spectral_spec(cfg: RunConfig, params):
    return default_spectral_window(params, n2=cfg["spectral_n2"],
                                   n3=cfg["spectral_n3"])


def _profiles(cfg: RunConfig, params, spec):
    """S2 and S3 dispersion profiles over the spectral window."""
    quad = cfg.quadrature()
    return {mode: dispersion_profile(mode, np.linspace(lo, hi, max(n, 64)),
                                     params, quad)
            for mode, lo, hi, n in (("S2", spec.min1, spec.max1, cfg["spectral_n2"]),
                                    ("S3", spec.min2, spec.max2, cfg["spectral_n3"]))}


def _tau_spec(cfg: RunConfig):
    return GridSpec2D(0.0, cfg["tau_max"], cfg["tau_points"],
                      0.0, cfg["tau_max"], cfg["tau_points"])


def _kernel(cfg: RunConfig, params, spec):
    """The spectral kernel over spec under every map setting of cfg."""
    return spectral_kernel(
        spec, params, cfg.quadrature(),
        _profiles(cfg, params, spec) if cfg["dispersion"] == "on" else None,
        cfg["phase_convention"], cfg["group_delay_mode"])


def _correlation_map(cfg: RunConfig, params):
    kernel = _kernel(cfg, params, _spectral_spec(cfg, params))
    return triphoton_amplitude_map(_tau_spec(cfg), kernel)


def cmd_chi5_map(args) -> int:
    cfg = _load(args)
    params = cfg.experiment_params()
    half = cfg["map_range"]
    spec = GridSpec2D(-half, half, cfg["map_n2"], -half, half, cfg["map_n3"])
    grid = chi5_map(spec, params, cfg.quadrature())
    peak = float(np.max(np.abs(grid.values)))
    io_formats.write_complex_grid(args.out, grid)
    print(f"chi5-map: {cfg['map_n2']}x{cfg['map_n3']} grid, "
          f"peak |chi5| {peak:.6e} (arb), wrote {args.out}")
    return 0


def cmd_linear_response(args) -> int:
    cfg = _load(args)
    params = cfg.experiment_params()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    profiles = _profiles(cfg, params, _spectral_spec(cfg, params))
    written = []
    for which, prof in profiles.items():
        path = outdir / f"dispersion_{which.lower()}.csv"
        io_formats.write_table(
            path, [f"dispersion profile {which}",
                   "columns: delta_rad_s,chi_real,chi_imag,n,v_group_m_s"],
            [prof.delta_axis, prof.chi.real, prof.chi.imag, prof.n, prof.v_group])
        written.append(str(path))
    min_vg = min(float(np.min(prof.v_group)) for prof in profiles.values())
    print(f"linear-response: wrote {written[0]} and {written[1]} "
          f"(min v_g/c {min_vg / C_LIGHT:.3e})")
    return 0


def cmd_correlation_map(args) -> int:
    cfg = _load(args)
    params = cfg.experiment_params()
    a3 = _correlation_map(cfg, params)
    r3 = np.abs(a3.values) ** 2
    digest = params_hash(params, _tau_spec(cfg), cfg.quadrature(), {k: cfg[k] for k in (
        "spectral_n2", "spectral_n3", "dispersion", "phase_convention",
        "group_delay_mode")})
    io_formats.write_real_grid(
        args.out, a3.axis1, a3.axis2, r3,
        header_lines=["r3 = |A3(tau21, tau31)|^2, peak-normalized",
                      f"provenance: {a3.provenance}",
                      f"params_hash: {digest}"])
    print(f"correlation-map: {r3.shape[0]}x{r3.shape[1]} tau grid, "
          f"wrote {args.out}")
    return 0


def cmd_trace(args) -> int:
    if args.kind != "diag" and args.line is not None:
        raise ConfigError(f"trace --line applies to --kind diag only, "
                          f"not --kind {args.kind}")
    cfg = _load(args)
    params = cfg.experiment_params()
    if args.kind == "diag":
        # the delay grid spans [0, tau_max] on both axes
        top = 2 * cfg["tau_max"]
        if args.line is None:
            raise ConfigError("trace --kind diag requires --line <seconds>")
        if not 0 <= args.line <= top:
            raise ConfigError(f"trace --line {args.line!r} s is outside the "
                              f"delay grid's tau21 + tau31 range [0, {top!r}] s")
    a3 = _correlation_map(cfg, params)
    trace = (diagonal_cut(a3, args.line) if args.kind == "diag"
             else trace_map(a3, args.kind))
    io_formats.write_trace(args.out, trace.axis, trace.values,
                           header_lines=[f"kind: {trace.kind}",
                                         f"line_spec: {trace.line_spec}"])
    print(f"trace: kind={args.kind}, {trace.axis.size} points, wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    params = cfg.experiment_params()
    scfg = cfg.source_config(duration=args.duration, seed=args.seed)
    a3 = _correlation_map(cfg, params) if scfg.triplet_rate > 0 else None
    events = io_formats.write_windows(
        args.out, stream_windows(a3, scfg), seed=scfg.seed,
        duration_ps=int(round(scfg.duration * PS_PER_S)),
        keep_origin=args.keep_origin)
    print(f"simulate: {events} events over {scfg.duration:g} s "
          f"(seed {scfg.seed}), wrote {args.out}")
    return 0


_UNDEFINED_REASONS = {
    "g3_peak": "zero accidental floor: the peak-to-floor ratio is unbounded",
    "cauchy_schwarz": "zero accidental floor: the peak-to-floor ratio is unbounded",
    "dominant_periods_s": "no oscillation period found in a marginal trace",
    "visibility": "the tau21 marginal has no full oscillation after its peak",
}


def _nulled(val):
    """(val with each None or non-finite float as None, whether any was)."""
    if val is None or isinstance(val, float) and not np.isfinite(val):
        return None, True
    if isinstance(val, (list, tuple)):
        items = [_nulled(v) for v in val]
        return [v for v, _ in items], any(hit for _, hit in items)
    return val, False


def _strict_json(rep: dict) -> dict:
    """rep as strict JSON: an undefined value (None or a non-finite
    number) becomes null plus a '<key>_reason' string."""
    out = {}
    for key, val in rep.items():
        out[key], hit = _nulled(val)
        if hit:
            out[f"{key}_reason"] = _UNDEFINED_REASONS.get(key, "not a finite number")
    return out


def cmd_analyze(args) -> int:
    cfg = _load(args)
    # an unusable histogram is refused before the event file is read
    w_ps, b_ps = check_histogram(cfg["window"], cfg["bin"], cfg["peak_rebin"])
    if floor_frame((w_ps // b_ps,) * 2) is None:
        raise ConfigError(f"window {w_ps} ps and bin {b_ps} ps make {w_ps // b_ps} bins "
                          "per axis, too few for the accidental floor's border frame")
    header, chunks = io_formats.read_channel_chunks(args.eventfile)
    duration = header["duration_ps"] / PS_PER_S
    # the delayed circuit's offset cancels (coincidence.METHOD_LABELS)
    hist = triple_histogram(chunks, cfg["window"], cfg["bin"], duration,
                            METHOD_LABELS[args.method])
    floor = estimate_floor(hist)
    report = rates_report(hist, floor, peak_rebin=cfg["peak_rebin"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io_formats.write_real_grid(
        out / "histogram2d.csv", hist.axis, hist.axis,
        hist.counts, header_lines=[f"method: {hist.method}",
                                   f"floor_per_bin: {floor!r}",
                                   f"duration_s: {duration!r}"])
    rep = dataclasses.asdict(report)
    rep["dominant_periods_s"] = list(rep.pop("dominant_periods"))
    rep["method"] = hist.method
    with open(out / "report.json", "w") as fh:
        json.dump(_strict_json(rep), fh, indent=2, sort_keys=True,
                  allow_nan=False)
    print(f"analyze: {args.method} method, triplets "
          f"{report.triplet_rate_per_min:.1f}+-{report.triplet_rate_err:.1f}/min, "
          f"accidentals {report.accidental_rate_per_min:.1f}"
          f"+-{report.accidental_rate_err:.1f}/min, wrote {out}")
    return 0


def sweep_rate(kern, power2) -> float:
    """Integrated triplet generation rate, arbitrary units.

    The emitted amplitude is proportional to the field-2 amplitude times the
    susceptibility, so the rate integrates P2 |kernel|^2 over the kernel's
    spectral window (fixed so sweep points are mutually comparable); kern
    is built at the Rabi frequency of the field-2 power power2 [W].
    """
    dd2 = kern.axis1[1] - kern.axis1[0]
    dd3 = kern.axis2[1] - kern.axis2[0]
    return float(power2 * np.sum(np.abs(kern.values) ** 2) * dd2 * dd3)


def _parse_power_arg(flag: str, text: str) -> float:
    """A power in W, or in mW, uW or W with the unit suffixed."""
    num, mult = text.strip(), 1.0
    for suffix, m in (("mW", 1e-3), ("uW", 1e-6), ("W", 1.0)):
        if num.endswith(suffix):
            num, mult = num[: -len(suffix)].strip(), m
            break
    try:
        value = float(num) * mult
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"sweep {flag} needs a finite power such as 40mW, "
                          f"got {text!r}")
    return value


def cmd_sweep(args) -> int:
    cfg = _load(args)
    lo = _parse_power_arg("--from", args.start)
    hi = _parse_power_arg("--to", args.stop)
    if args.steps < 2 or not hi > lo > 0:
        raise ConfigError("sweep needs --steps >= 2 and 0 < from < to")
    try:
        np.empty(args.steps)  # refused before any memory is touched
    except (MemoryError, ValueError):
        raise ConfigError(f"sweep --steps {args.steps} is too many to "
                          "allocate") from None
    powers = np.linspace(lo, hi, args.steps)
    base = cfg.experiment_params()
    steps = [dataclasses.replace(base, drive=dataclasses.replace(
        base.drive, omega2=rabi_from_power(2, float(p)))) for p in powers]
    lw2 = resonance_set(steps[0]).linewidth_d2  # grows with power2
    if not lw2 > 0:
        raise ConfigError(f"sweep --from {args.start} is too weak for delta2 = "
                          f"{base.drive.delta2 / TWO_PI / 1e6:.4g} MHz (field 2's "
                          f"effective linewidth {lw2 / TWO_PI / 1e6:.4g} MHz)")
    # spectral window frozen at the largest Rabi frequency (powers[-1] is hi)
    # so every sweep point is integrated over the same region
    spec = _spectral_spec(cfg, steps[-1])
    try:
        _check_coverage(spec, steps[-1])
    except InvalidParameterError as exc:
        raise ConfigError(f"sweep --to {args.stop}: {exc}") from None
    rates = np.asarray([sweep_rate(_kernel(cfg, params, spec), float(p))
                        for params, p in zip(steps, powers)])
    coeff = np.polyfit(powers, rates, 1)
    resid = rates - np.polyval(coeff, powers)
    rel_dev = float(np.max(np.abs(resid)) / np.max(rates))
    io_formats.write_table(
        args.out, ["columns: power2_W,integrated_rate_arb",
                   f"linear_fit_slope: {coeff[0]:.17g}",
                   f"linear_fit_intercept: {coeff[1]:.17g}",
                   f"max_relative_deviation_from_linear: {rel_dev:.17g}"],
        [powers, rates])
    mono = bool(np.all(np.diff(rates) >= -1e-12 * np.max(rates)))
    print(f"sweep: power2 {lo*1e3:.1f}-{hi*1e3:.1f} mW in {args.steps} steps, "
          f"monotone={mono}, max deviation from linear {rel_dev:.2%}, "
          f"wrote {args.out}")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest
    failures = selftest.run()
    if failures:
        print(f"selftest: {failures} check(s) FAILED")
        return 1
    print("selftest: all checks passed")
    return 0


def cmd_print_defaults(args) -> int:
    sys.stdout.write(dump_defaults())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="triphoton",
        description="Simulation and analysis of six-wave-mixing triphoton "
                    "correlations")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="flat key=value configuration file")
        p.set_defaults(fn=fn)
        return p

    p = add("chi5-map", cmd_chi5_map, help="write a chi5(delta2, delta3) grid CSV")
    p.add_argument("--out", required=True)

    p = add("linear-response", cmd_linear_response,
            help="write S2/S3 dispersion profile CSVs")
    p.add_argument("--out", required=True, help="output directory")

    p = add("correlation-map", cmd_correlation_map,
            help="write the |A3|^2 correlation grid CSV")
    p.add_argument("--out", required=True)

    p = add("trace", cmd_trace, help="write a 1-D conditional trace CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True,
                   choices=["trace-out-S3", "trace-out-S2", "trace-out-S1", "diag"])
    p.add_argument("--line", type=float,
                   help="tau21 + tau31 constant [s] for --kind diag")

    p = add("simulate", cmd_simulate, help="generate a time-tagged event file")
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=None,
                   help="override duration [s]")
    p.add_argument("--seed", type=int, default=None, help="override seed")
    p.add_argument("--keep-origin", action="store_true",
                   help="export simulation-truth origin tags in the flags byte")

    p = add("analyze", cmd_analyze,
            help="reconstruct and report on an event file")
    p.add_argument("eventfile")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--method", choices=["direct", "delayed"], default="direct")

    p = add("sweep", cmd_sweep, help="rate versus field-2 power trend CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--from", dest="start", required=True)
    p.add_argument("--to", dest="stop", required=True)
    p.add_argument("--steps", type=int, default=8)

    # these two read no config
    sub.add_parser("selftest", help="run the built-in oracle/property checks"
                   ).set_defaults(fn=cmd_selftest)
    sub.add_parser("print-defaults", help="dump the fully resolved default "
                   "configuration").set_defaults(fn=cmd_print_defaults)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except NumericalDomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except TriphotonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
