#!/usr/bin/env python3
"""Check that two source trees give the same outputs, byte for byte.

    python scripts/compare_outputs.py OLD NEW [--work DIR]

OLD and NEW are two source roots, each with a src/triphoton package.  Every
command below runs in a fresh ``python -m triphoton.cli`` process under each
root, in a fresh work directory:

- chi5-map, correlation-map, linear-response, the four trace kinds (diag at
  10 ns), a 3-step sweep, selftest and print-defaults, at the defaults and
  at the benchmark's quick-look config;
- simulate, with and without --keep-origin, then analyze --method direct
  and --method delayed on each event file, at the benchmark's
  stream-reference (1800 s, seed 901) and stream-dense (30 s, seed 43)
  configs.

Exit codes, stdout and stderr are compared with the work directory and the
source root masked, and every output file by its sha256.  One line is
printed per difference; the exit status is 1 if there is any, else 0.
JOBS cases run at once, and a case's work directories are removed once
hashed, so the disk holds at most JOBS cases (the stream-reference event
files are about 230 MB each).
"""
from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import DENSE_SOURCE, QUICK_LOOK  # noqa: E402

CONFIGS = {"defaults": None, "quick-look": QUICK_LOOK}
STREAMS = {"stream-reference": (QUICK_LOOK, "1800", "901"),
           "stream-dense": (QUICK_LOOK + DENSE_SOURCE, "30", "43")}
JOBS = 2


def _map_steps(cfg):
    steps = [("chi5-map", *cfg, "--out", "{work}/chi5.csv"),
             ("correlation-map", *cfg, "--out", "{work}/r3.csv"),
             ("linear-response", *cfg, "--out", "{work}/linear")]
    for kind in ("trace-out-S3", "trace-out-S2", "trace-out-S1"):
        steps.append(("trace", *cfg, "--kind", kind, "--out", f"{{work}}/{kind}.csv"))
    steps += [("trace", *cfg, "--kind", "diag", "--line", "10e-9",
               "--out", "{work}/diag.csv"),
              ("sweep", *cfg, "--from", "5mW", "--to", "40mW", "--steps", "3",
               "--out", "{work}/sweep.csv"),
              ("selftest", *cfg),
              ("print-defaults", *cfg)]
    return steps


def _stream_steps(cfg, duration, seed):
    steps = []
    for name, origin in (("run", ()), ("origin", ("--keep-origin",))):
        events = f"{{work}}/{name}.tpe1"
        steps.append(("simulate", *cfg, "--duration", duration, "--seed", seed,
                      *origin, "--out", events))
        for method in ("direct", "delayed"):
            steps.append(("analyze", *cfg, events, "--method", method,
                          "--out", f"{{work}}/{name}-{method}"))
    return steps


def cases():
    """(case name, config text or None, command argument tuples)."""
    cfg = ("--config", "{work}/run.cfg")
    out = []
    for name, text in CONFIGS.items():
        out.append((f"maps-{name}", text, _map_steps(cfg if text else ())))
    for name, (text, duration, seed) in STREAMS.items():
        out.append((name, text, _stream_steps(cfg, duration, seed)))
    return out


def run_case(root: Path, text, steps, parent: Path):
    """Each step's (argv, exit code, stdout, stderr) and {file: sha256}."""
    work = Path(tempfile.mkdtemp(dir=parent))
    try:
        if text is not None:
            (work / "run.cfg").write_text(text)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        results = []
        for step in steps:
            argv = [a.replace("{work}", str(work)) for a in step]
            proc = subprocess.run([sys.executable, "-m", "triphoton.cli", *argv],
                                  capture_output=True, text=True, env=env, cwd=work)
            mask = [(str(work), "{work}"), (str(root), "{root}")]
            outs = []
            for s in (proc.stdout, proc.stderr):
                for path, tag in mask:
                    s = s.replace(path, tag)
                outs.append(s)
            results.append((" ".join(step), proc.returncode, *outs))
        files = {}
        for path in sorted(work.rglob("*")):
            if path.is_file():
                with open(path, "rb") as fh:
                    files[str(path.relative_to(work))] = hashlib.file_digest(
                        fh, "sha256").hexdigest()
        return results, files
    finally:
        shutil.rmtree(work)


def compare(name, old, new):
    """One line per difference between two run_case results."""
    lines = []
    for (cmd, *a), (_, *b) in zip(old[0], new[0]):
        for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                detail = f" {x} != {y}" if what == "exit code" else ""
                lines.append(f"{name}: `{cmd}`: {what} differs{detail}")
    for path in sorted(old[1].keys() | new[1].keys()):
        x, y = old[1].get(path), new[1].get(path)
        if x is None or y is None:
            lines.append(f"{name}: {path} only in {'NEW' if x is None else 'OLD'}")
        elif x != y:
            lines.append(f"{name}: {path} sha256 differs")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path, help="source root of the old tree")
    ap.add_argument("new", type=Path, help="source root of the new tree")
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the work directories (default: a temp dir)")
    args = ap.parse_args()
    roots = [p.resolve() for p in (args.old, args.new)]
    for root in roots:
        if not (root / "src" / "triphoton").is_dir():
            ap.error(f"{root} has no src/triphoton")
    parent = Path(tempfile.mkdtemp(dir=args.work))

    def one(case):
        name, text, steps = case
        old, new = (run_case(root, text, steps, parent) for root in roots)
        return name, len(steps), len(old[1]), compare(name, old, new)

    try:
        with ThreadPoolExecutor(JOBS) as pool:
            done = list(pool.map(one, cases()))
    finally:
        shutil.rmtree(parent)
    diffs = [line for *_, lines in done for line in lines]
    for name, n_steps, n_files, lines in done:
        print(f"{name}: {n_steps} commands, {n_files} files: "
              f"{'identical' if not lines else f'{len(lines)} differences'}")
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
