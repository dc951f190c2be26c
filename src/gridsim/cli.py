"""Command-line entry point: power flow, OPF, simulation runs, benchmarks.

Exit codes: 0 success/converged, 1 input or configuration error (a
command-line usage error among them), 2 solver non-convergence.  Solve
timings exclude file I/O but include model building, measured on a
monotonic clock; a report's ``network_s`` is the time to build the network
from the parsed case, and its ``factor_s`` the part of ``solve_s`` spent in
LU factors.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .opf import IpmOptions, NumericalBreakdownError, ipm_solve, opf_build
from .parsers import (
    YamlConfigError,
    apply_yaml_file,
    load_case,
    case_to_network,
)
from .powerflow import PfOptions, SingularJacobianError, solve_network
from .simlib import ChannelWriter, PowerFlowAbort, SimNetwork, VoltVarController
from .simulation import ComponentError, CsvSink

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_CONVERGENCE = 2


def _read_case(path):
    try:
        return load_case(path)
    except OSError as exc:
        raise SystemExit(_fail(f"cannot read {path}: {exc}"))
    except ValueError as exc:
        raise SystemExit(_fail(f"{path}: {exc}"))


def _timed_network(case):
    """The network of a parsed case, and the seconds it took to build."""
    t0 = time.perf_counter()
    net = case_to_network(case)
    return net, time.perf_counter() - t0


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def report_schema() -> dict:
    """The JSON schema that pf/opf reports are validated against."""
    from importlib.resources import files

    raw = files("gridsim.data.schemas").joinpath("report.schema.json").read_text()
    return json.loads(raw)


def _write_report(path, command, case, status, sol, network_s, fields,
                  index, v, **extra) -> None:
    """Validate the JSON report of a pf or opf solve and write it to path.

    ``fields`` are the solver's own top-level facts.  The ``solution``
    holds only what no other key states: the voltage ``v`` of each node of
    ``index``, and ``extra``; it is None unless the solve converged.
    """
    import jsonschema

    report = {
        "command": command,
        "case": case.name,
        "status": status,
        "iterations": sol.iterations,
        "factorizations": sol.factorizations,
        **fields,
        "timing": {"network_s": network_s, "build_s": sol.build_s,
                   "solve_s": sol.solve_s, "factor_s": sol.factor_s},
        "solution": None,
        "trace": sol.trace,
    }
    if sol.converged:
        nodes = zip(index.nodes, np.abs(v).tolist(),
                    np.angle(v, deg=True).tolist())
        report["solution"] = {"nodes": [
            {"bus": bus, "phase": phase.name, "Vmag_pu": mag, "Varg_deg": arg}
            for (bus, phase), mag, arg in nodes], **extra}
    jsonschema.validate(report, report_schema())
    Path(path).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def cmd_pf(args) -> int:
    case = _read_case(args.case)
    try:
        net, network_s = _timed_network(case)
        opts = PfOptions(tol_pu=args.tol, max_iter=args.max_iter)
        sol = solve_network(net, opts)
    except ValueError as exc:
        return _fail(str(exc))
    except SingularJacobianError as exc:
        print(f"error: {case.name}: power flow broke down: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    status = "converged" if sol.converged else "did-not-converge"
    if sol.stalled_at is not None:
        status = "stalled"
        print(f"error: {case.name}: power flow stalled at iteration "
              f"{sol.stalled_at}: no step length lowers the max residual",
              file=sys.stderr)
    if args.json:
        _write_report(args.json, "pf", case, status, sol, network_s,
                      {"residual_pu": sol.residual_norm}, sol.model.index,
                      sol.v)
    if not args.quiet:
        print(f"{case.name}: {status} in {sol.iterations} iterations, "
              f"residual {sol.residual_norm:.3e} pu")
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


def cmd_opf(args) -> int:
    case = _read_case(args.case)
    try:
        opts = IpmOptions(tol=args.tol, max_iter=args.max_iter)
        net, network_s = _timed_network(case)
        t0 = time.perf_counter()
        problem = opf_build(net)
        build_s = time.perf_counter() - t0
        sol = ipm_solve(problem, opts)
        sol.build_s = build_s
    except ValueError as exc:
        return _fail(str(exc))
    except NumericalBreakdownError as exc:
        print(f"error: {case.name}: optimization broke down: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    if args.json:
        _write_report(args.json, "opf", case, sol.status, sol, network_s,
                      {"objective": sol.objective,
                       "kkt": {k: float(v) for k, v in sol.kkt.items()}},
                      problem.index, sol.node_voltages(),
                      gens=sol.gen_dispatch(),
                      binding_constraints=sol.binding_constraints())
    if not args.quiet:
        print(f"{case.name}: {sol.status} in {sol.iterations} iterations, "
              f"objective {sol.objective:.2f}")
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


def cmd_sim(args) -> int:
    try:
        ctx = apply_yaml_file(args.config)
    except OSError as exc:
        return _fail(f"cannot read {args.config}: {exc}")
    except YamlConfigError as exc:
        return _fail(str(exc))
    if not ctx.sim_configured:
        return _fail("configuration has no `simulation` entry with start/end times")
    out_dir = Path(args.out or "sim_out")
    try:
        ctx.sim.initialize()
        with ChannelWriter(ctx.sim, out_dir) as writer:
            if args.log:
                with open(out_dir / "updates.csv", "w") as log_fh:
                    ctx.sim.add_sink(CsvSink(log_fh))
                    ctx.sim.run()
            else:
                ctx.sim.run()
    except Exception as exc:
        # a power flow that fails, or a solver that breaks down, is a solver
        # failure; anything else is an input error
        cause = exc.cause if isinstance(exc, ComponentError) else None
        if isinstance(exc, PowerFlowAbort) or isinstance(
                cause, (NumericalBreakdownError, SingularJacobianError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        return _fail(f"simulation failed: {exc}")
    if not args.quiet:
        parts = [f"simulation complete at t={ctx.sim.current_time:g}",
                 f"outputs in {out_dir}"]
        for comp in ctx.sim.components:
            if isinstance(comp, SimNetwork):
                mean = comp.newton_iterations / max(comp.solve_count, 1)
                parts.append(f"network {comp.id}: {comp.solve_count} solves, "
                             f"{mean:.2f} iterations per solve, "
                             f"{comp.factorizations} LU factors, "
                             f"{comp.full_refreshes} full refreshes, "
                             f"{comp.generation_refreshes} generation-only "
                             f"refreshes, {comp.model_builds} model builds")
            elif isinstance(comp, VoltVarController):
                mean = comp.ipm_iterations / max(comp.solve_count, 1)
                parts.append(f"volt-var {comp.id}: {comp.solve_count} solves, "
                             f"{mean:.2f} IPM iterations per solve, "
                             f"{comp.problem_builds} problem builds, "
                             f"{comp.failed_solves} failed solves")
        print("; ".join(parts))
    return EXIT_OK


# the columns of a bench row, in order; an unmeasured value prints as "-"
_BENCH_COLUMNS = ("case", "n_bus", "pf_ms", "opf_ms", "pf_iters", "opf_iters",
                  "pf_factors", "opf_factors", "status")


def _bench_case(path, repeat, opts):
    case = _read_case(path)
    row = dict.fromkeys(_BENCH_COLUMNS)
    row.update(case=case.name, n_bus=case.n_bus, status="ok")
    try:
        pf_times = []
        for _ in range(repeat):
            net = case_to_network(case)
            t0 = time.perf_counter()
            sol = solve_network(net, opts)
            pf_times.append(time.perf_counter() - t0)
            if not sol.converged:
                raise RuntimeError("power flow did not converge")
            row["pf_iters"], row["pf_factors"] = sol.iterations, sol.factorizations
        opf_times = []
        for _ in range(repeat):
            net = case_to_network(case)
            t0 = time.perf_counter()
            problem = opf_build(net)
            osol = ipm_solve(problem, IpmOptions(tol=1e-6))
            opf_times.append(time.perf_counter() - t0)
            if osol.status != "optimal":
                raise RuntimeError(f"opf status {osol.status}")
            row["opf_iters"], row["opf_factors"] = osol.iterations, osol.factorizations
        row["pf_ms"] = statistics.median(pf_times) * 1e3
        row["opf_ms"] = statistics.median(opf_times) * 1e3
    except Exception as exc:
        row["status"] = f"failed: {exc}"
    return row


def cmd_bench(args) -> int:
    paths = sorted(args.cases)
    if not paths:
        return _fail("no case files given")
    if args.repeat < 1:
        return _fail("--repeat must be at least 1")
    try:
        opts = PfOptions(tol_pu=args.tol)
    except ValueError as exc:
        return _fail(str(exc))
    print("\t".join(_BENCH_COLUMNS))
    any_ok = False
    for path in paths:
        row = _bench_case(path, args.repeat, opts)
        any_ok = any_ok or row["status"] == "ok"
        print("\t".join("-" if row[k] is None
                         else f"{row[k]:.2f}" if k.endswith("_ms")
                         else str(row[k]) for k in _BENCH_COLUMNS))
    return EXIT_OK if any_ok else EXIT_NO_CONVERGENCE


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on a usage error, which here means
    non-convergence; this parser exits with EXIT_INPUT_ERROR instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridsim",
        description="AC network power flow, optimal power flow, and "
                    "quasi-steady-state simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pf = sub.add_parser("pf", help="solve a power flow from a case file")
    p_pf.add_argument("case")
    p_pf.add_argument("--tol", type=float, default=1e-8)
    p_pf.add_argument("--max-iter", type=int, default=50)
    p_pf.add_argument("--json", help="write a JSON report to this path")
    p_pf.add_argument("--quiet", action="store_true")
    p_pf.set_defaults(func=cmd_pf)

    p_opf = sub.add_parser("opf", help="solve an optimal power flow")
    p_opf.add_argument("case")
    p_opf.add_argument("--tol", type=float, default=1e-6)
    p_opf.add_argument("--max-iter", type=int, default=100)
    p_opf.add_argument("--json", help="write a JSON report to this path")
    p_opf.add_argument("--quiet", action="store_true")
    p_opf.set_defaults(func=cmd_opf)

    p_sim = sub.add_parser("sim", help="run a YAML-configured simulation")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", help="output directory (default sim_out)")
    p_sim.add_argument("--log", action="store_true",
                       help="also write the engine update log")
    p_sim.add_argument("--quiet", action="store_true")
    p_sim.set_defaults(func=cmd_sim)

    p_bench = sub.add_parser("bench", help="benchmark PF and OPF on cases")
    p_bench.add_argument("cases", nargs="+")
    p_bench.add_argument("--repeat", type=int, default=5)
    p_bench.add_argument("--tol", type=float, default=1e-8)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # raised by input helpers after printing
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
