"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests

Runs every workload through ``perfbench/run.py --tiny`` and checks that each
metric BENCHMARK.json names is reported with its unit, plus the tracer's
install/uninstall and self-time bookkeeping.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# end-to-end metrics each workload prints besides the gated ones
PRINTED = {
    "maps": ("chi5_map_s", "correlation_map_s", "chi5_points_per_s", "map_rss_mb"),
    "stream-reference": ("simulate_s", "analyze_s", "analyze_delayed_s",
                         "simulate_events_per_s", "analyze_events_per_s",
                         "simulate_rss_mb", "analyze_rss_mb"),
}
PRINTED["stream-dense"] = PRINTED["stream-reference"]


def _bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result, json.loads(lines[-2])["detail"], out.stdout


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_untraced_run_reports_gated_metrics():
    result, detail, text = _result("maps", 0)
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert detail["end_to_end"]["error_rate"] == 0
    assert detail["provenance"]["nproc"] >= 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_metric(workload):
    result, detail, text = _result(workload, 1)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, unit in run.PER_LAYER.items():
        assert result["metrics"][name]["unit"] == unit
    printed = (*run.END_TO_END, "error_rate", *PRINTED[workload])
    for name in printed:
        assert f"  {name} " in text and name in detail["end_to_end"]
    for name in run.PER_LAYER:
        assert f"  {name} " in text


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "maps", 0)
    assert out.returncode != 0
    assert out.stdout == ""


def test_wrappers_install_record_and_uninstall():
    import numpy as np
    from triphoton import correlation

    recorder = tracer.Recorder("unit")
    saved = tracer.install(recorder)
    try:
        assert len(tracer.wrapped_functions()) == len(tracer.TARGETS)
        with recorder.span(tracer.ROOT_SPAN):
            correlation.czt(np.ones(8, dtype=complex))
    finally:
        tracer.uninstall(saved)
    assert tracer.wrapped_functions() == []
    root, czt = recorder.spans
    assert czt["name"] == "correlation.czt" and czt["parent"] == root["id"]
    assert czt["counts"] == {"calls": 1, "bytes": 2 * 8 * 16}
    assert czt["run_id"] == "unit"


def test_self_time_subtracts_children():
    def span(i, name, parent, start, end):
        return {"id": i, "name": name, "parent": parent, "start": start,
                "end": end, "counts": {}}
    spans = [span(0, "cli.main", None, 0.0, 10.0),
             span(1, "a", 0, 1.0, 5.0),
             span(2, "b", 1, 2.0, 3.0),
             span(3, "b", 0, 6.0, 7.5)]
    totals = tracer.layer_totals(spans)
    assert totals["cli.main"]["self_s"] == pytest.approx(4.5)
    assert totals["a"]["s"] == pytest.approx(4.0)
    assert totals["a"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["s"] == pytest.approx(2.5)
    assert tracer.top_level_seconds(spans) == pytest.approx(5.5)
