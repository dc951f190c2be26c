#!/usr/bin/env python3
"""gridsim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ieee57-cold, synthetic-scale, pvdemo-24h (see perfbench/README.md).
Without ``--workload`` every workload runs in turn, each in its own process;
``--seconds`` defaults to the run length in BENCHMARK.json.
With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it runs the seeded ops untraced for half the time, replays
the same ops traced, checks that the replay reproduces every solver
iteration count and objective, and reports the per-layer metrics.

Times are scaled to a nominal machine speed by a calibration kernel timed
between ops (see ``workloads.Speed``); wall times are kept as ``wall.*``.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and the metrics declared in
BENCHMARK.json.  The full record
(environment, every metric with its sample count, the pvdemo output digest,
and the spans of a traced run) goes to perfbench/out/.
"""

import os
import sys

# One BLAS thread, set before numpy is first imported: on pvdemo two threads
# on small dense solves cost 13.3 s against 11.3 s with one.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def _import_gridsim():
    """Import gridsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "gridsim" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no gridsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridsim

    if Path(gridsim.__file__).resolve().parent != SRC / "gridsim":
        raise SystemExit(f"run.py: imported gridsim from {gridsim.__file__}")


def percentile(values, q):
    """Nearest-rank percentile; failed ops are +inf and sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def timing_metrics(pass_):
    """(name, unit, value, sample count) for every timing a pass yields:
    speed-scaled first, then the same as wall time under ``wall.``."""
    s = pass_.samples
    rows = []
    for prefix in ("", "wall."):
        name = prefix + "setup_s"
        rows.append((name, "s", statistics.median(s[name]), len(s[name])))
        for base in ("pf_ms", "opf_ms", "step_ms"):
            name = prefix + base
            if s[name]:
                rows.append((f"{name}.p50", "ms", statistics.median(s[name]), len(s[name])))
                # a p90 needs at least ten samples beyond it
                if len(s[name]) >= 100 or base == "pf_ms":
                    rows.append((f"{name}.p90", "ms", percentile(s[name], 90), len(s[name])))
    if s["wall.sim_wall_s"]:
        rows.append(("wall.sim_wall_s", "s", statistics.median(s["wall.sim_wall_s"]),
                     len(s["wall.sim_wall_s"])))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    rows.append(("peak_rss_mb", "MB", rss_mb, 1))
    return rows


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {v: os.environ.get(v) for v in PIN_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit():
    """HEAD of the repository rooted here, or None outside one."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _finite(x):
    return x if math.isfinite(x) else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="default: every workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_gridsim()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload is None:
        return _run_all(args, [w["name"] for w in declared["workloads"]])
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    case14_ok = workloads.case14_check()
    print(f"case14 PF voltages and OPF objective: {'ok' if case14_ok else 'WRONG'}")

    record = {"args": vars(args), "environment": environment(), "case14_ok": case14_ok}
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        plain, traced, tracer, missing = workloads.traced_replay(workload, args.seconds)
        neutral = plain.fingerprints == traced.fingerprints
        layers = workloads.per_layer(plain, traced, tracer)
        passes = (plain, traced)
        correct = case14_ok and neutral and not missing
        print(f"traced replay reproduces iterations and objectives: {neutral}")
        print(f"declared spans not fired: {missing or 'none'}")
        for name, value in layers.items():
            print(f"  {name:40s} {value:.6g}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
        record.update(neutral=neutral, missing_spans=missing, per_layer=layers,
                      untraced=_timings(plain), traced=_timings(traced))
    else:
        pass_ = workloads.measure(workload, args.seconds)
        passes = (pass_,)
        correct = case14_ok
        rows = timing_metrics(pass_)
        for name, unit, value, n in rows:
            print(f"  {name:19s} {value:12.4f} {unit:3s} (n={n})")
        values = {name: value for name, _unit, value, _n in rows}
        metrics = {m["name"]: {"value": _finite(values[m["name"]]), "unit": m["unit"]}
                   for m in declared["end_to_end"]}
        record.update(end_to_end=_timings(pass_), digest=pass_.digest,
                      plan=pass_.plan, fingerprints=pass_.fingerprints,
                      intervals=pass_.intervals,
                      kernels=list(zip(pass_.speed.times, pass_.speed.kernels)))

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    correct = correct and failed == 0 and attempted > 0
    print(f"  fail_ratio          {failed / max(attempted, 1):.4f} ({failed} of {attempted} ops)")
    for line in errors[:10]:
        print(f"  error: {line}")
    record.update(correct=correct, attempted=attempted, failed=failed, errors=errors)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _run_all(args, names):
    """Each workload in a child process; exit 1 unless all are correct."""
    all_correct = True
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        all_correct &= (child.returncode == 0 and bool(lines)
                        and json.loads(lines[-1])["correct"])
    print(f"every workload correct: {all_correct}")
    return 0 if all_correct else 1


def _timings(pass_):
    return [{"name": n, "unit": u, "value": _finite(v), "n": k}
            for n, u, v, k in timing_metrics(pass_)]


if __name__ == "__main__":
    sys.exit(main())
