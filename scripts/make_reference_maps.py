#!/usr/bin/env python3
"""Produce the reference spectral and temporal maps plus their 1-D traces.

Runs the documented command-line surface end to end with the default
configuration (optionally overridden with --config) and collects every
output in one directory.
"""
import argparse
import sys
from pathlib import Path

from triphoton.cli import main as cli


def run(argv):
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/reference", help="output directory")
    ap.add_argument("--config", default=None, help="flat key=value config file")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg = ["--config", args.config] if args.config else []

    run(["chi5-map", *cfg, "--out", str(out / "chi5_map.csv")])
    run(["linear-response", *cfg, "--out", str(out)])
    run(["correlation-map", *cfg, "--out", str(out / "correlation_map.csv")])
    for kind in ("trace-out-S3", "trace-out-S2", "trace-out-S1"):
        run(["trace", *cfg, "--kind", kind,
             "--out", str(out / f"{kind}.csv")])
    run(["trace", *cfg, "--kind", "diag", "--line", "10e-9",
         "--out", str(out / "diag_10ns.csv")])
    print(f"reference maps written to {out}")


if __name__ == "__main__":
    main()
