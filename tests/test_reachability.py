"""Every function under src/triphoton is entered by some command, unless
UNREACHED names it with its reason.

A fresh interpreter sets a profile hook before it imports triphoton (config's
bound checkers run at import time), runs every command through cli.main on
tiny configs, exits 2 and 3 included, and writes out the (file, first line)
of each code object it entered.  Each def under src/triphoton is matched by
its first line, which for a decorated function is its first decorator's.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "triphoton"

TINY = """\
quad_nodes = 201
spectral_n2 = 128
spectral_n3 = 128
tau_max = 5 ns
tau_points = 8
map_n2 = 8
map_n3 = 8
duration = 2 s
triplet_rate = 6000 /min
window = 20 ns
bin = 1 ns
peak_rebin = 2
"""

CONFIGS = {
    "tiny.cfg": TINY,
    "exact.cfg": TINY.replace("quad_nodes = 201", "quad_nodes = exact"),
    "local.cfg": TINY + "dispersion = on\ngroup_delay_mode = local\n",
    "central.cfg": TINY + "dispersion = on\ngroup_delay_mode = central\n"
                          "phase_convention = main-text\npower2 = 40 mW\n",
    # poles on the real axis: the exact scheme falls back to the midpoint rule
    "fallback.cfg": TINY.replace("quad_nodes = 201", "quad_nodes = exact")
                    + "omega3 = 0 Hz\ngamma11 = 0 Hz\n",
    "bad.cfg": TINY + "seed = -1\n",
    "undersampled.cfg": TINY + "tau_max = 100 ns\n",
}

# (argv, exit code); {cfg} is the config directory, {out} the output one
RUNS = [
    (["print-defaults"], 0),
    (["selftest"], 0),
    (["chi5-map", "--config", "{cfg}/exact.cfg", "--out", "{out}/chi5.csv"], 0),
    (["chi5-map", "--config", "{cfg}/fallback.cfg", "--out", "{out}/fallback.csv"], 0),
    (["linear-response", "--config", "{cfg}/tiny.cfg", "--out", "{out}/linear"], 0),
    (["correlation-map", "--config", "{cfg}/local.cfg", "--out", "{out}/local.csv"], 0),
    (["correlation-map", "--config", "{cfg}/central.cfg", "--out", "{out}/central.csv"], 0),
    *[(["trace", "--config", "{cfg}/tiny.cfg", "--kind", kind,
        "--out", f"{{out}}/{kind}.csv"], 0)
      for kind in ("trace-out-S3", "trace-out-S2", "trace-out-S1")],
    (["trace", "--config", "{cfg}/tiny.cfg", "--kind", "diag", "--line", "5e-9",
      "--out", "{out}/diag.csv"], 0),
    (["simulate", "--config", "{cfg}/tiny.cfg", "--seed", "5", "--keep-origin",
      "--out", "{out}/run.tpe1"], 0),
    (["analyze", "--config", "{cfg}/tiny.cfg", "{out}/run.tpe1", "--out", "{out}/direct"], 0),
    (["analyze", "--config", "{cfg}/tiny.cfg", "{out}/run.tpe1", "--method", "delayed",
      "--out", "{out}/delayed"], 0),
    (["sweep", "--config", "{cfg}/tiny.cfg", "--from", "5mW", "--to", "40mW",
      "--steps", "2", "--out", "{out}/sweep.csv"], 0),
    (["chi5-map", "--config", "{cfg}/bad.cfg", "--out", "{out}/bad.csv"], 2),
    (["analyze", "--config", "{cfg}/tiny.cfg", "{out}/missing.tpe1", "--out", "{out}/x"], 2),
    (["print-defaults", "--config", "{cfg}/tiny.cfg"], 2),
    (["correlation-map", "--config", "{cfg}/undersampled.cfg", "--out", "{out}/u.csv"], 3),
]

_TRACER = "perfbench/tracer.py times it by name"
_ITEM_4 = "ROADMAP items 1 and 4 put it on analyze's path"
_CSV_READER = "reads back a CSV that the commands write"
UNREACHED = {
    "coincidence._reconstruct": _TRACER,
    "coincidence.reconstruct_triple_direct": _TRACER,
    "coincidence.reconstruct_triple_delayed": _TRACER,
    "eventsim.generate_stream": _TRACER,
    "io_formats.write_events": _TRACER,
    "io_formats.read_events": _TRACER,
    "coincidence.pairwise_histogram": _ITEM_4,
    "coincidence.diagnose_crosscheck": _ITEM_4,
    "coincidence._poisson_sum": _ITEM_4,
    "coincidence._poisson_tails": _ITEM_4,
    "correlation.conditional_r2_closed": "criterion 4's closed-form oracle",
    "params.density_for_od": "the inverse of ExperimentParams.od, for the tests",
    "io_formats._read_rows": _CSV_READER,
    "io_formats._scan_rows": _CSV_READER,
    "io_formats._read_grid": _CSV_READER,
    "io_formats.read_complex_grid": _CSV_READER,
    "io_formats.read_real_grid": _CSV_READER,
    "io_formats.read_trace": _CSV_READER,
}

_RECORDER = r"""
import json, os, sys
package, runs, report = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
entered = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((os.path.basename(frame.f_code.co_filename),
                     frame.f_code.co_firstlineno))

sys.setprofile(profile)
from triphoton import cli
codes = []
for argv in runs:
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
sys.setprofile(None)
with open(report, "w") as fh:
    json.dump({"codes": codes, "entered": sorted(entered)}, fh)
"""


def _functions():
    """{(file name, first line): qualified name} of each def in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path.name, line)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, f"{path.stem}.")
    return found


def test_every_function_is_reached_or_listed(tmp_path):
    cfg_dir, out_dir = tmp_path / "cfg", tmp_path / "out"
    cfg_dir.mkdir()
    out_dir.mkdir()
    for name, text in CONFIGS.items():
        (cfg_dir / name).write_text(text)
    runs = [[a.format(cfg=cfg_dir, out=out_dir) for a in argv] for argv, _ in RUNS]
    report = tmp_path / "entered.json"
    run = subprocess.run(
        [sys.executable, "-c", _RECORDER, str(PACKAGE) + os.sep, json.dumps(runs),
         str(report)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert run.returncode == 0, run.stderr
    result = json.loads(report.read_text())
    assert result["codes"] == [code for _, code in RUNS], run.stderr

    functions = _functions()
    reached = {functions[key] for key in map(tuple, result["entered"])
               if key in functions}
    unreached = set(functions.values()) - reached
    missing = sorted(unreached - set(UNREACHED))
    assert not missing, f"no command reaches {missing}, and UNREACHED does not list it"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"UNREACHED lists {stale}, which a command reaches or which is gone"

