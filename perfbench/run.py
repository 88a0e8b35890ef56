#!/usr/bin/env python3
"""triphoton benchmark: runs one workload through the real CLI and prints its metrics.

    python3 perfbench/run.py --workload maps --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
Every CLI command runs in a fresh ``python -m triphoton.cli`` process, one at
a time.  Wall time is read in this process and peak RSS from ``os.wait4``.
A run first starts SETUP_SAMPLES fresh interpreters that import
``triphoton.cli`` (``setup_s``), then repeats the workload's command cycle
while another cycle fits in ``--seconds`` (at least once), checking the
outputs of every cycle outside the timed region.

With ``--trace 1`` cycles alternate between untraced and traced, the traced
ones run through ``tracer.py``; the run reports the per-layer metrics and the
tracing overhead (median traced minus median untraced cycle wall time).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the gated end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
list every metric of the run with its unit, and a JSON ``detail`` line with
the machine and provenance facts.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, simulated_events

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TRACER = Path(tracer.__file__).resolve()

SETUP_SAMPLES = 3
DEADLINE_S = 170          # a run must end within 180 s

# gated end-to-end metrics (BENCHMARK.json end_to_end); every workload has them
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# every end-to-end metric a run can print; which apply depends on the workload
DETAIL_UNITS = {
    **END_TO_END,
    "chi5_map_s": "s", "correlation_map_s": "s", "linear_response_s": "s",
    "chi5_points_per_s": "1/s", "map_rss_mb": "MB",
    "simulate_s": "s", "analyze_s": "s", "analyze_delayed_s": "s",
    "simulate_events_per_s": "1/s", "analyze_events_per_s": "1/s",
    "simulate_rss_mb": "MB", "analyze_rss_mb": "MB",
    "error_rate": "ratio",
}

# per-layer metrics (BENCHMARK.json per_layer), from the traced cycles.  A
# name "<span>.<field>" reads that field of the span totals, and a layer that
# a workload leaves idle reads 0; cli.self_s, coincidences_per_start and
# trace.overhead_s are computed from several spans or cycles.
PER_LAYER = {
    "susceptibility.chi5_map.s": "s",
    "susceptibility.chi5_map.points": "count",
    "susceptibility.chi5_map.integrand_evals": "count",
    "susceptibility.dispersion_profile.s": "s",
    "susceptibility.phase_mismatch.s": "s",
    "correlation.spectral_kernel.self_s": "s",
    "correlation.triphoton_amplitude_map.self_s": "s",
    "correlation.czt.s": "s",
    "correlation.czt.calls": "count",
    "correlation.czt.bytes": "B",
    "eventsim.generate_stream.s": "s",
    "eventsim.generate_stream.events": "count",
    "io_formats.write_events.s": "s",
    "io_formats.write_events.bytes": "B",
    "io_formats.read_events.s": "s",
    "io_formats.read_events.bytes": "B",
    "io_formats.write_real_grid.s": "s",
    "io_formats.write_real_grid.rows": "count",
    "io_formats.write_complex_grid.s": "s",
    "io_formats.write_complex_grid.rows": "count",
    "coincidence.reconstruct_triple_direct.s": "s",
    "coincidence.reconstruct_triple_direct.starts": "count",
    "coincidence.reconstruct_triple_direct.coincidences": "count",
    "coincidence.reconstruct_triple_delayed.s": "s",
    "coincidence.reconstruct_triple_delayed.starts": "count",
    "coincidence.reconstruct_triple_delayed.coincidences": "count",
    "coincidence.coincidences_per_start": "ratio",
    "coincidence.estimate_floor.s": "s",
    "coincidence.rates_report.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# a fresh interpreter importing the CLI, then reporting what it imported and
# whether any triphoton function carries a tracer wrapper
PROBE = f"""
import importlib, json
import triphoton, triphoton.cli, numpy, scipy
wrapped = [m + "." + a for m in {tracer.TRACED_MODULES!r}
           for a, v in vars(importlib.import_module(m)).items()
           if hasattr(v, {tracer.MARKER!r})]
print(json.dumps({{"triphoton": triphoton.__file__, "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "wrapped": wrapped}}))
"""


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {DEADLINE_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


class Tally:
    """Commands and output checks attempted and failed in this run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


def run_child(argv, cwd: Path, env: dict, log: Path):
    """Run one process to completion; returns (exit code, wall s, peak RSS MB, output)."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, log.read_text()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env, work: Path, tally: Tally):
    """Median wall time of fresh interpreters importing triphoton.cli."""
    walls, info = [], {}
    for k in range(SETUP_SAMPLES):
        code, wall, _, out = run_child([sys.executable, "-c", PROBE], work, env,
                                       work / f"setup{k}.log")
        if not tally.add("setup_import", code == 0, out.strip()[-500:]):
            continue
        walls.append(wall)
        info = json.loads(out.strip().splitlines()[-1])
    if info:
        tally.add("setup_imports_checkout",
                  Path(info["triphoton"]).resolve().is_relative_to(SRC),
                  info["triphoton"])
        # the untraced commands run in exactly this environment
        tally.add("untraced_no_wrappers", not info["wrapped"], info["wrapped"])
    return (statistics.median(walls) if walls else None), info


def run_cycle(workload, seed, index, traced, env, run_dir: Path, tally: Tally):
    """One pass through the workload's commands; returns its measurements."""
    work = run_dir / f"cycle{index}"
    work.mkdir()
    try:
        for name, text in workload.configs.items():
            (work / name).write_text(text)
        steps, stdout, spans = {}, {}, {}
        start = time.perf_counter()
        for step in workload.steps:
            args = [a.format(work=work, seed=seed) for a in step.args]
            if traced:
                spans_path = work / f"{step.kind}.spans.json"
                run_id = f"{workload.name}:{seed}:{index}:{step.kind}"
                argv = [sys.executable, str(TRACER), str(spans_path), run_id, *args]
            else:
                argv = [sys.executable, "-m", "triphoton.cli", *args]
            code, wall, rss, out = run_child(argv, work, env, work / f"{step.kind}.log")
            if not tally.add(f"command {step.kind}", code == 0,
                             f"exit {code}: {out.strip()[-500:]}"):
                return None
            steps[step.kind] = (step.group, wall, rss)
            stdout[step.kind] = out
            if traced:
                with open(spans_path) as fh:
                    spans[step.kind] = json.load(fh)
        wall = time.perf_counter() - start
        try:
            checks = workload.check(work, stdout)
        except Exception as exc:  # a missing or malformed output is a failed check
            checks = [("outputs_readable", False, repr(exc))]
        for name, ok, detail in checks:
            tally.add(f"check {name}", ok, detail)
        return {"traced": traced, "wall": wall, "steps": steps,
                "stdout": stdout, "spans": spans}
    finally:
        shutil.rmtree(work)


def end_to_end(cycle, workload) -> dict:
    m = {"wall_s": cycle["wall"],
         "peak_rss_mb": max(rss for _, _, rss in cycle["steps"].values())}
    for kind, (group, wall, rss) in cycle["steps"].items():
        m[f"{kind}_s"] = wall
        m[f"{group}_rss_mb"] = max(rss, m.get(f"{group}_rss_mb", 0.0))
    if workload.chi5_points:
        m["chi5_points_per_s"] = workload.chi5_points / (
            m["chi5_map_s"] + m["correlation_map_s"])
    if "simulate" in cycle["stdout"]:
        events = simulated_events(cycle["stdout"]["simulate"])
        m["simulate_events_per_s"] = events / m["simulate_s"]
        m["analyze_events_per_s"] = events / m["analyze_s"]
    return m


def per_layer(cycle) -> dict:
    totals: dict[str, dict[str, float]] = {}
    cli_self = 0.0
    for kind, spans in cycle["spans"].items():
        # span ids are per command, so totals are taken command by command
        for name, fields in tracer.layer_totals(spans).items():
            acc = totals.setdefault(name, {})
            for field, value in fields.items():
                acc[field] = acc.get(field, 0.0) + value
        cli_self += cycle["steps"][kind][1] - tracer.top_level_seconds(spans)
    m = {}
    for name in PER_LAYER:
        span, field = name.rsplit(".", 1)
        m[name] = totals.get(span, {}).get(field, 0.0)
    m["cli.self_s"] = cli_self
    matchers = [totals.get(f"coincidence.reconstruct_triple_{k}", {})
                for k in ("direct", "delayed")]
    starts = sum(t.get("starts", 0) for t in matchers)
    m["coincidence.coincidences_per_start"] = (
        sum(t.get("coincidences", 0) for t in matchers) / starts if starts else 0.0)
    return m


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, probe: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": sys.version.split()[0],
        "numpy": probe.get("numpy"), "scipy": probe.get("scipy"),
        "git_commit": _git_commit(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def measure(args, workload, run_dir: Path, tally: Tally, started: float):
    env = child_env()
    setup_s, probe = measure_setup(env, run_dir, tally)
    cycles = []
    begin = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(cycles) % 2 == 1
        cycle = run_cycle(workload, args.seed, len(cycles), traced, env, run_dir, tally)
        if cycle is None:
            break
        cycles.append(cycle)
        elapsed = time.perf_counter() - begin
        kinds_done = args.trace == 0 or len(cycles) >= 2
        if kinds_done and elapsed + cycle["wall"] > args.seconds:
            break
        if time.perf_counter() - started + cycle["wall"] > DEADLINE_S - 10:
            if not kinds_done:
                tally.add("traced_cycle_fits", False, "no time left for a traced cycle")
            break
    return setup_s, probe, cycles


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (smoke test only)")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "triphoton" / "cli.py").is_file():
        print(f"perfbench: no triphoton sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](tiny=args.tiny)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(DEADLINE_S)
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    try:
        with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as tmp:
            setup_s, probe, cycles = measure(args, workload, Path(tmp), tally, started)
    except RunTimeout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    plain = [c for c in cycles if not c["traced"]]
    traced = [c for c in cycles if c["traced"]]
    e2e = medians([end_to_end(c, workload) for c in plain])
    if setup_s is not None:
        e2e["setup_s"] = setup_s
    e2e["error_rate"] = len(tally.failures) / tally.attempted
    layers = medians([per_layer(c) for c in traced])
    if traced and plain:
        layers["trace.overhead_s"] = (statistics.median(c["wall"] for c in traced)
                                      - statistics.median(c["wall"] for c in plain))
        spans = [s for c in traced for step in c["spans"].values() for s in step]
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(spans, fh)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced cycle(s); values are medians over cycles")
    for name, value in e2e.items():
        print(f"  {name:<44} {value:>14.6g} {DETAIL_UNITS[name]}")
    for name, value in layers.items():
        print(f"  {name:<44} {value:>14.6g} {PER_LAYER[name]}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({"detail": {"provenance": provenance(args, probe),
                                 "end_to_end": e2e, "per_layer": layers}}))

    wanted = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else e2e
    correct = not tally.failures and all(name in source for name in wanted)
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in wanted.items() if name in source}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
