#!/usr/bin/env python3
"""Call-site spans for the traced benchmark run.

Run as a script, this is the traced counterpart of ``python -m triphoton.cli``:

    python perfbench/tracer.py SPANS.json RUN_ID <triphoton arguments...>

It replaces the public functions of each triphoton module at the module
attribute their callers look them up through (``triphoton.cli.chi5_map``,
``triphoton.correlation.czt``, ...), runs ``triphoton.cli.main`` inside a
root span named ``cli.main`` and writes every recorded span to SPANS.json
when the command ends.  Spans are kept in memory until then.  The untraced
run never imports this file, and nothing under ``src/`` changes.

The parent process reads the span files back with ``layer_totals``.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# attribute set on every installed wrapper, so a process can tell whether any
# triphoton function it sees is traced
MARKER = "__perfbench_span__"

ROOT_SPAN = "cli.main"


def _chi5_counts(args, kwargs, grid):
    quad = args[2] if len(args) > 2 else kwargs.get("quad")
    if quad is None:
        from triphoton.susceptibility import VelocityQuadrature
        quad = VelocityQuadrature()
    return {"points": grid.values.size,
            "integrand_evals": grid.values.size * quad.node_count}


def _czt_counts(args, kwargs, out):
    values = args[0] if args else kwargs["x"]
    return {"calls": 1, "bytes": values.nbytes + out.nbytes}


def _tpe1_bytes(n_events):
    # TPE1: 32-byte header plus one 16-byte record per event
    return 32 + 16 * n_events


def _match_counts(args, kwargs, hist):
    stream = args[0] if args else kwargs["stream"]
    return {"starts": int((stream["channel"] == 1).sum()),
            "coincidences": int(hist.counts.sum())}


# (module, attribute the caller looks up, span name, counter or None).  The
# same function may be reached through several modules; each is wrapped.
TARGETS = (
    ("triphoton.cli", "chi5_map", "susceptibility.chi5_map", _chi5_counts),
    ("triphoton.correlation", "chi5_map", "susceptibility.chi5_map", _chi5_counts),
    ("triphoton.cli", "dispersion_profile", "susceptibility.dispersion_profile", None),
    ("triphoton.correlation", "phase_mismatch", "susceptibility.phase_mismatch", None),
    ("triphoton.cli", "spectral_kernel", "correlation.spectral_kernel", None),
    ("triphoton.correlation", "spectral_kernel", "correlation.spectral_kernel", None),
    ("triphoton.cli", "triphoton_amplitude_map",
     "correlation.triphoton_amplitude_map", None),
    ("triphoton.correlation", "czt", "correlation.czt", _czt_counts),
    ("triphoton.cli", "generate_stream", "eventsim.generate_stream",
     lambda a, k, stream: {"events": stream.size}),
    ("triphoton.io_formats", "write_events", "io_formats.write_events",
     lambda a, k, _: {"bytes": _tpe1_bytes(a[1].size)}),
    ("triphoton.io_formats", "read_events", "io_formats.read_events",
     lambda a, k, res: {"bytes": _tpe1_bytes(res[0].size)}),
    ("triphoton.io_formats", "write_real_grid", "io_formats.write_real_grid",
     lambda a, k, _: {"rows": a[3].size}),
    ("triphoton.io_formats", "write_complex_grid", "io_formats.write_complex_grid",
     lambda a, k, _: {"rows": a[1].values.size}),
    ("triphoton.cli", "reconstruct_triple_direct",
     "coincidence.reconstruct_triple_direct", _match_counts),
    ("triphoton.cli", "reconstruct_triple_delayed",
     "coincidence.reconstruct_triple_delayed", _match_counts),
    ("triphoton.cli", "estimate_floor", "coincidence.estimate_floor", None),
    ("triphoton.cli", "rates_report", "coincidence.rates_report", None),
)

# modules whose attributes a check scans for MARKER
TRACED_MODULES = tuple(sorted({module for module, *_ in TARGETS}))


class Recorder:
    """Spans of one command, kept in memory in the order they opened."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "run_id": self.run_id, "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _wrap(fn, name, counter, recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name) as rec:
            result = fn(*args, **kwargs)
        # counted after the span closes, so counting is not charged to the layer
        if counter is not None:
            rec["counts"] = counter(args, kwargs, result)
        return result
    setattr(traced, MARKER, name)
    return traced


def install(recorder: Recorder):
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    saved = []
    for module_name, attr, name, counter in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(original, name, counter, recorder))
    return saved


def uninstall(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def wrapped_functions() -> list[str]:
    """Every attribute of the traced modules that carries a wrapper."""
    found = []
    for module_name in TRACED_MODULES:
        module = importlib.import_module(module_name)
        found += [f"{module_name}.{attr}" for attr, value in vars(module).items()
                  if hasattr(value, MARKER)]
    return found


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds ``s``, self seconds ``self_s`` and summed counts.

    Self time is a span's duration minus the time its child spans cover.
    The program is single-threaded, so children never overlap and that is the
    sum of their durations.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s["name"], defaultdict(float))
        duration = s["end"] - s["start"]
        t["s"] += duration
        t["self_s"] += duration - child_time[s["id"]]
        for key, value in s["counts"].items():
            t[key] += value
    return totals


def top_level_seconds(spans: list[dict]) -> float:
    """Time covered by the layer spans directly under the root span."""
    roots = {s["id"] for s in spans if s["parent"] is None}
    return sum(s["end"] - s["start"] for s in spans if s["parent"] in roots)


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    recorder = Recorder(run_id)
    saved = install(recorder)
    from triphoton import cli
    try:
        with recorder.span(ROOT_SPAN):
            code = cli.main(cli_args)
    finally:
        uninstall(saved)
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
