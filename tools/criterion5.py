#!/usr/bin/env python3
"""The criterion-5 ratio, measured in fresh processes per source tree.

Each process runs the loop of
``tests/test_acceptance.py::test_criterion_5_pf_much_faster_than_opf``:
one warm-up power flow on case57, then per loop five repeats of a cold
``nr_solve`` and a cold ``ipm_solve``, each on a freshly built network,
and the ratio of the median ``ipm_solve`` time to the median ``nr_solve``
time.  The test passes when that ratio is at least 10.  The machine's
speed drifts between processes, so the ratio is taken in several fresh
processes; with two trees, their processes alternate.

For each process it prints the median ratio over its loops, the median
``nr_solve`` and ``ipm_solve`` times (of the loops' medians), each side's
median factor share (the solution's ``factor_s`` over the timed call, over
every call), each side's median LU factors per call (its
``factorizations``), the median ``fill`` of the Newton factors (the
entries SuperLU stored for L and U, from the trace; "-" for a tree whose
trace has none) and how many loops fell below 10.  A change to the LU
moves both sides of the ratio; the shares show by how much.  It exits 0
whatever the ratios: the test is the gate.  Unless the environment sets
them, each process runs with one BLAS thread.

Usage: python tools/criterion5.py [--processes N] [TREE ...]

A TREE is the root of a checkout (the directory holding ``src/gridsim``);
the default is this one.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOOPS = 16  # loops of the test per process

# The calls and the repeat count of test_criterion_5_pf_much_faster_than_opf;
# argv is (case57 path, loops), and the output one JSON object.
CHILD = r"""
import json, statistics, sys, time
from gridsim.opf import IpmOptions, ipm_solve, opf_build
from gridsim.parsers import load_network
from gridsim.powerflow import PfOptions, model_build, nr_solve

case, loops = sys.argv[1], int(sys.argv[2])
net, _ = load_network(case)
nr_solve(model_build(net), PfOptions(tol_pu=1e-8))
out = {"ratio": [], "pf_s": [], "opf_s": [], "pf_share": [], "opf_share": [],
       "pf_factors": [], "opf_factors": [], "pf_fill": []}
for _ in range(loops):
    pf_times, opf_times = [], []
    for _ in range(5):
        net, _ = load_network(case)
        model = model_build(net)
        t0 = time.perf_counter()
        sol = nr_solve(model, PfOptions(tol_pu=1e-8))
        pf_times.append(time.perf_counter() - t0)
        assert sol.converged
        out["pf_share"].append(sol.factor_s / pf_times[-1])
        out["pf_factors"].append(sol.factorizations)
        out["pf_fill"] += [it["fill"] for it in sol.trace
                           if it["factored"] and "fill" in it]
        net, _ = load_network(case)
        prob = opf_build(net)
        t0 = time.perf_counter()
        osol = ipm_solve(prob, IpmOptions(tol=1e-6))
        opf_times.append(time.perf_counter() - t0)
        assert osol.status == "optimal"
        out["opf_share"].append(osol.factor_s / opf_times[-1])
        out["opf_factors"].append(osol.factorizations)
    pf, opf = statistics.median(pf_times), statistics.median(opf_times)
    out["ratio"].append(opf / pf)
    out["pf_s"].append(pf)
    out["opf_s"].append(opf)
print(json.dumps(out))
"""


def run_process(tree: pathlib.Path) -> dict:
    env = dict(os.environ)
    for name in THREADS:
        env.setdefault(name, "1")
    env["PYTHONPATH"] = str(tree / "src")
    case = tree / "src" / "gridsim" / "data" / "cases" / "case57.m"
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(case), str(LOOPS)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=pathlib.Path, default=[ROOT])
    parser.add_argument("--processes", type=int, default=3,
                        help="fresh processes per tree (default 3)")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    print(f"{args.processes} processes x {LOOPS} loops per tree; "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '1')}")
    print(f"{'tree':<40} {'ratio':>7} {'nr_solve ms':>12} "
          f"{'ipm_solve ms':>13} {'nr LU %':>8} {'ipm LU %':>9} "
          f"{'nr LUs':>7} {'ipm LUs':>8} {'nr fill':>8} {'below 10':>9}")
    ratios = {tree: [] for tree in trees}
    for _ in range(args.processes):
        for tree in trees:
            out = run_process(tree)
            below = sum(r < 10.0 for r in out["ratio"])
            fill = (f"{statistics.median(out['pf_fill']):g}"
                    if out["pf_fill"] else "-")
            ratios[tree].append(out["ratio"])
            print(f"{str(tree)[-40:]:<40} {statistics.median(out['ratio']):7.2f} "
                  f"{1e3 * statistics.median(out['pf_s']):12.3f} "
                  f"{1e3 * statistics.median(out['opf_s']):13.2f} "
                  f"{1e2 * statistics.median(out['pf_share']):8.1f} "
                  f"{1e2 * statistics.median(out['opf_share']):9.1f} "
                  f"{statistics.median(out['pf_factors']):7g} "
                  f"{statistics.median(out['opf_factors']):8g} "
                  f"{fill:>8} "
                  f"{below:>5} of {len(out['ratio'])}", flush=True)
    for tree, per_process in ratios.items():
        loops = [r for process in per_process for r in process]
        print(f"{str(tree)[-40:]}: process medians "
              + ", ".join(f"{statistics.median(p):.2f}" for p in per_process)
              + f"; {sum(r < 10.0 for r in loops)} of {len(loops)} loops below 10")
    return 0


if __name__ == "__main__":
    sys.exit(main())
