#!/usr/bin/env python3
"""Compare the pvdemo output digests of two benchmark runs.

    python3 perfbench/compare_digest.py BEFORE.json AFTER.json

Both files are perfbench/out/pvdemo-24h.seed<n>.trace0.json records of runs
with the same seed.  Each digest row is one timestep: time, min and max bus
|V| (pu), the summed inverter reactive power (kvar) and the volt-VAR
controller's slack total.  Exits 1 if any value differs by more than its
tolerance, which is set from the solvers' own tolerances (power flow 1e-8 pu
residual, IPM 1e-6 KKT residual on a 100 MVA base).
"""

import argparse
import json
import sys

COLUMNS = ("t_s", "v_min_pu", "v_max_pu", "q_inverters_kvar", "vvc_slack")
TOLERANCE = (0.0, 1e-5, 1e-5, 1.0, 1e-5)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)
    a, b = (json.load(open(p)) for p in (args.before, args.after))
    if a["args"]["seed"] != b["args"]["seed"]:
        ap.error("the two runs used different seeds")
    days_a = {d["day"]: d["rows"] for d in a["digest"]}
    days_b = {d["day"]: d["rows"] for d in b["digest"]}
    worst = [0.0] * len(COLUMNS)
    ok = days_a.keys() == days_b.keys()
    for day in sorted(days_a.keys() & days_b.keys()):
        rows_a, rows_b = days_a[day], days_b[day]
        ok &= len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            for c, (x, y) in enumerate(zip(ra, rb)):
                worst[c] = max(worst[c], abs(x - y))
    for name, diff, tol in zip(COLUMNS, worst, TOLERANCE):
        ok &= diff <= tol
        print(f"{name:18s} max |diff| {diff:.3e}  (tolerance {tol:g})")
    print("digests agree" if ok else "digests DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
