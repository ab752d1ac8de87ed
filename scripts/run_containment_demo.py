#!/usr/bin/env python3
"""End-to-end containment demo on a generated instance.

Runs the greedy edge-removal loop three times on the same instance: with the
exact estimator and the linear finder, with the exact estimator and the
Grover minimum finder, so the traces and work accounting can be compared
side by side, and with the Monte Carlo estimator (2000 trials), whose
candidates of each greedy iteration share one live-edge draw.

Usage: python3 scripts/run_containment_demo.py [outdir]
"""
import pathlib
import sys

from qcontain.cli import main

outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
outdir.mkdir(parents=True, exist_ok=True)
instance = outdir / "demo_instance.txt"

rc = main(["gen", "--nodes", "7", "--edge-prob", "0.3", "--seeds", "1",
           "--lam", "0.7", "--rng", "21", "--out", str(instance)])
runs = [("exact", "linear", []), ("exact", "gmf", []), ("mc", "linear", ["--trials", "2000"])]
for estimator, finder, flags in runs:
    if rc != 0:
        break
    print(f"\n== estimator: {estimator}, finder: {finder} ==")
    rc = main(["contain", "--instance", str(instance), "--estimator", estimator, *flags,
               "--finder", finder, "--k-max", "3", "--rng", "5",
               "--out", str(outdir / f"containment_{estimator}_{finder}.csv")])
sys.exit(rc)
