"""The benchmark's workloads, the per-op correctness checks and the traced
replay.

Each workload drives gridsim's public API from one process, one caller in a
closed loop.  Op inputs come from ``numpy.random.default_rng([seed, kind,
index])``, so a replay of the same (kind, index) plan sees the same inputs.
A failed op counts in ``failed`` and enters the percentiles as +inf.

Every time is kept twice: as wall time (``wall.<metric>``) and scaled to a
nominal machine speed (``<metric>``), see :class:`Speed`.
"""

from __future__ import annotations

import bisect
import dataclasses
import importlib.util
import json
import math
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from gridsim.opf import IpmOptions, kkt_residual
from gridsim.opf import ipm as ipm_mod
from gridsim.opf import problem as problem_mod
from gridsim.parsers import matpower as mp_mod
from gridsim.parsers import yaml_config as yaml_mod
from gridsim.powerflow import PfOptions
from gridsim.powerflow import solver as solver_mod
from gridsim.simlib import PvInverter, SimNetwork, TimeSeriesZip, VoltVarController
from gridsim.simulation import ListSink, SimulationError

import spans
import synthetic

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "gridsim" / "data"
CASE57 = DATA / "cases" / "case57.m"
CASE14 = DATA / "cases" / "case14.m"
PVDEMO = DATA / "pvdemo" / "pvdemo_ieee57.yaml"

PF_TOL_PU = 1e-6
IPM = IpmOptions(tol=1e-6)
LOAD_SPREAD = 0.05             # each op's loads scaled by U(1 - s, 1 + s)
COLD_SETUP_REPEATS = 20
PVDEMO_EXTRA_SETUPS = 10
CASE14_OBJECTIVE = 8081.53     # MATPOWER's published case14 OPF cost, $/h
KIND_CODE = {"pf": 1, "opf": 2, "day": 3}


def load_oracle():
    """tools/oracle_pf.py: an independent dense polar Newton power flow."""
    spec = importlib.util.spec_from_file_location(
        "oracle_pf", ROOT / "tools" / "oracle_pf.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_voltages(oracle, case):
    vm, va, _iters, ok = oracle.oracle_solve(case)
    return vm * np.exp(1j * va) if ok else None


class Speed:
    """Scales op times to a nominal machine speed.

    On a shared 2-vCPU Xeon VM (2.0 GHz, OpenBLAS 0.3.31) the wall time of
    one and the same op swings by up to 1.6x within seconds, and 30 s run
    medians drift by 25-30% over minutes, as co-tenants load the machine.  A fixed calibration kernel that does not
    touch gridsim (dict and small-array work plus a 100x100 dense solve, the
    mix gridsim's solvers run) is timed after every op.  An op's time is
    multiplied by ``NOMINAL_S`` over the median kernel time around it: the
    kernels just before and just after the op, and every kernel within one
    op duration of it.

    This suits ops of milliseconds to a fraction of a second, whose cost is
    mostly interpreter work like the kernel's.  The 456-bus OPF of
    synthetic-scale runs for seconds, spending most of them in one dense
    LAPACK solve per iteration: it averages the contention over its own
    length and feels it less than the kernel, so scaling made its spread
    worse (0.25 against 0.10 for wall time) and it is reported as wall time.
    """

    NOMINAL_S = 0.55e-3     # kernel time on that VM when uncontended

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((100, 100)) + 100.0 * np.eye(100)
        self._b = rng.standard_normal(100)
        self.times: list[float] = []        # kernel midpoints
        self.kernels: list[float] = []      # kernel durations
        self._kernel()                      # warm-up, not recorded
        self.probe()

    def _kernel(self):
        table = {}
        for i in range(400):
            table[(i, "x")] = 0.5 * i
        total = 0.0
        for value in table.values():
            total += value
        x = np.arange(50.0)
        for _ in range(60):
            x = np.abs(x * 1.0001 - 0.5)
        np.linalg.solve(self._a, self._b)

    def probe(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.kernels.append(t1 - t0)

    def factor(self, t0: float, t1: float) -> float:
        d = t1 - t0
        lo = min(bisect.bisect_left(self.times, t0 - d),
                 max(bisect.bisect_left(self.times, t0) - 1, 0))
        hi = max(bisect.bisect_right(self.times, t1 + d),
                 min(bisect.bisect_right(self.times, t1) + 1, len(self.times)))
        return self.NOMINAL_S / statistics.median(self.kernels[lo:hi])


@dataclasses.dataclass
class Pass:
    """Samples and outcomes of one pass over a workload.

    Timings are collected as (metric, start, end) intervals; ``finish``
    turns them into samples once the calibration kernels after the last op
    have run.
    """

    speed: Speed = dataclasses.field(default_factory=Speed)
    intervals: list = dataclasses.field(default_factory=list)
    samples: dict = dataclasses.field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    plan: list = dataclasses.field(default_factory=list)
    # solver iteration counts and objectives, op by op
    fingerprints: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)
    digest: list = dataclasses.field(default_factory=list)
    sim: dict = dataclasses.field(default_factory=lambda: defaultdict(int))

    def add(self, metric, t0, t1, ok=True, unit=1e3, scaled=True):
        """One timing sample; a failed one is +inf."""
        self.intervals.append((metric, t0, t1, ok, unit, scaled))

    def record(self, metric, t0, t1, ok, fingerprint, scaled=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.add(metric, t0, t1, ok, scaled=scaled)
        self.fingerprints.append(fingerprint)

    def fail(self, metric, kind, index):
        """Count the op that raised the exception being handled."""
        self.attempted += 1
        self.failed += 1
        self.add(metric, 0.0, 0.0, ok=False)
        self.fingerprints.append((kind, "error"))
        self.errors.append(f"{kind}:{index}: {traceback.format_exc(limit=-3)}")

    def finish(self) -> None:
        """Samples ``<metric>`` at nominal speed and ``wall.<metric>``."""
        for metric, t0, t1, ok, unit, scaled in self.intervals:
            wall = (t1 - t0) * unit if ok else math.inf
            factor = self.speed.factor(t0, t1) if ok and scaled else 1.0
            self.samples[metric].append(wall * factor)
            self.samples["wall." + metric].append(wall)


def _paused(tracer):
    return tracer.paused() if tracer is not None else nullcontext()


def _opf_ok(problem, sol, tracer) -> bool:
    if sol.status != "optimal":
        return False
    with _paused(tracer):
        return max(kkt_residual(problem, sol).values()) <= IPM.tol


def _solve_opf(net, pass_, tracer, scaled=True):
    t0 = time.perf_counter()
    problem = problem_mod.opf_build(net)
    sol = ipm_mod.ipm_solve(problem, IPM)
    t1 = time.perf_counter()
    pass_.speed.probe()
    pass_.record("opf_ms", t0, t1, _opf_ok(problem, sol, tracer),
                 ("opf", sol.iterations, sol.objective), scaled)


def _solve_pf(net, v_ref, pass_):
    t0 = time.perf_counter()
    sol = solver_mod.solve_network(net, PfOptions(start="flat"))
    t1 = time.perf_counter()
    pass_.speed.probe()
    v = np.array([bus.v[0] for bus in net.buses])
    ok = (sol.converged and v_ref is not None
          and float(np.max(np.abs(v - v_ref))) <= PF_TOL_PU)
    pass_.record("pf_ms", t0, t1, ok, ("pf", sol.iterations))


class Ieee57Cold:
    """Cold PF and OPF solves on the bundled case57, loads scaled per op."""

    name = "ieee57-cold"
    kinds = ("pf", "opf")

    def __init__(self, seed: int):
        self.seed = seed
        self.oracle = load_oracle()
        self.case = mp_mod.load_case(CASE57)

    def setup(self, pass_):
        for _ in range(COLD_SETUP_REPEATS):
            t0 = time.perf_counter()
            mp_mod.case_to_network(mp_mod.load_case(CASE57))
            pass_.add("setup_s", t0, time.perf_counter(), unit=1.0)
            pass_.speed.probe()

    def _scaled_case(self, kind, index):
        rng = np.random.default_rng([self.seed, KIND_CODE[kind], index])
        bus = self.case.bus.copy()
        bus[:, 2:4] *= rng.uniform(1.0 - LOAD_SPREAD, 1.0 + LOAD_SPREAD)
        return dataclasses.replace(self.case, bus=bus)

    def op(self, kind, index, pass_, tracer=None):
        case = self._scaled_case(kind, index)
        net = mp_mod.case_to_network(case)      # fresh: no earlier op touched it
        if kind == "pf":
            _solve_pf(net, oracle_voltages(self.oracle, case), pass_)
        else:
            _solve_opf(net, pass_, tracer)


class SyntheticScale:
    """Manufactured-solution tilings of case57: PF at 64 tiles, OPF at 8.

    Every op solves its own seeded member, so no two ops share an input.
    ``setup_s`` is parse plus ``case_to_network`` of each PF member;
    ``opf_ms`` is wall time (see :class:`Speed`).
    """

    name = "synthetic-scale"
    kinds = ("pf", "opf")

    def __init__(self, seed: int, pf_tiles: int = 64, opf_tiles: int = 8):
        self.seed = seed
        self.tiles = {"pf": pf_tiles, "opf": opf_tiles}
        self.base = mp_mod.load_case(CASE57)
        self.base_v = oracle_voltages(load_oracle(), self.base)

    def setup(self, pass_):
        pass

    def op(self, kind, index, pass_, tracer=None):
        rng = np.random.default_rng([self.seed, KIND_CODE[kind], index])
        text, v_star = synthetic.tiled_case(self.base, self.base_v,
                                            self.tiles[kind], rng)
        t0 = time.perf_counter()
        net = mp_mod.case_to_network(mp_mod.matpower_parse(text, name=f"{kind}{index}"))
        t1 = time.perf_counter()
        pass_.speed.probe()
        if kind == "pf":
            pass_.add("setup_s", t0, t1, unit=1.0)
            _solve_pf(net, v_star, pass_)
        else:
            _solve_opf(net, pass_, tracer, scaled=False)   # see Speed


class Pvdemo:
    """The bundled 24 h pvdemo scenario; one op is one engine timestep.

    Each day is one (kind "day") entry of the plan with its own seeded load
    scale.  ``pf_ms`` and ``opf_ms`` are the wall times of the SimNetwork
    re-solves and VoltVarController updates, taken from update-log sink
    timestamps; ``step_ms`` comes from the timestep listener.
    """

    name = "pvdemo-24h"
    kinds = ("day",)

    def __init__(self, seed: int):
        self.seed = seed

    def _build(self, pass_, factor):
        t0 = time.perf_counter()
        sim = yaml_mod.apply_yaml_file(PVDEMO).sim
        for comp in sim.components:
            if isinstance(comp, TimeSeriesZip):
                comp.scale = factor
        sim.initialize()
        pass_.add("setup_s", t0, time.perf_counter(), unit=1.0)
        pass_.speed.probe()
        return sim

    def setup(self, pass_):
        for _ in range(PVDEMO_EXTRA_SETUPS):
            self._build(pass_, 1.0)

    def op(self, kind, index, pass_, tracer=None):
        rng = np.random.default_rng([self.seed, KIND_CODE[kind], index])
        sim = self._build(pass_, rng.uniform(1.0 - LOAD_SPREAD, 1.0 + LOAD_SPREAD))
        network = next(c for c in sim.components if isinstance(c, SimNetwork))
        vvc = next(c for c in sim.components if isinstance(c, VoltVarController))
        inverters = [c for c in sim.components if isinstance(c, PvInverter)]
        expected = int((sim.end_time - sim.start_time) // vvc.interval_s) + 1
        now = time.perf_counter
        state = {"mark": 0.0, "step": 0.0, "net": 0, "vvc": 0, "n": 0}
        updates = []        # (metric, start, end) of the step running now
        day = []

        def sink(t, component_id, kind_, rank):
            # update wall time: since the previous update or step boundary
            t_now = now()
            if component_id == network.id and network.solve_count > state["net"]:
                state["net"] = network.solve_count
                updates.append(("pf_ms", state["mark"], t_now))
            elif component_id == vvc.id and vvc.solve_count > state["vvc"]:
                state["vvc"] = vvc.solve_count
                updates.append(("opf_ms", state["mark"], t_now))
            state["mark"] = t_now

        def listener(t):
            pass_.add("step_ms", state["step"], now())
            for update in updates:
                pass_.add(*update)
            updates.clear()
            pass_.speed.probe()
            state["n"] += 1
            vmag = [abs(v) for bus in network.network.buses for v in bus.v]
            day.append([t, min(vmag), max(vmag),
                        sum(inv.q_ac_kvar for inv in inverters),
                        vvc.last_slack_total])
            pass_.fingerprints.append((
                "step", network.solve_count, network.solution.iterations,
                vvc.last_solution.iterations, vvc.last_solution.objective))
            if tracer is not None:
                tracer.op = f"day{index}:step{state['n']}"
            state["step"] = state["mark"] = now()

        log = ListSink()
        if tracer is not None:
            tracer.op = f"day{index}:step0"
            tracer.wrap_components(sim)
            listener = tracer.wrap("perfbench.listener", listener)
            sim.add_sink(log)
        sim.add_sink(sink)
        sim.add_timestep_listener(listener)
        error = None
        t0 = state["step"] = state["mark"] = now()
        try:
            sim.run()
        except SimulationError as exc:       # PowerFlowAbort among them
            error = exc
        wall = now() - t0
        done = state["n"]
        pass_.samples["wall.sim_wall_s"].append(wall)
        bad = expected - done
        if error is not None:
            pass_.errors.append(f"day{index}: {type(error).__name__}: {error}")
        if vvc.solve_count != done:
            bad = expected
        for _ in range(expected - done):
            pass_.add("step_ms", 0.0, 0.0, ok=False)
        pass_.attempted += expected
        pass_.failed += bad
        pass_.digest.append({"day": index, "rows": day})
        for t, cid, kind_, rank in log.records:
            pass_.sim[kind_] += 1
        pass_.sim["timesteps"] += done
        pass_.sim["network_solves"] += network.solve_count
        pass_.sim["vvc_solves"] += vvc.solve_count
        pass_.sim["days"] += 1


WORKLOADS = {w.name: w for w in (Ieee57Cold, SyntheticScale, Pvdemo)}


def run_for(workload, seconds, pass_):
    """Run ops for about ``seconds``, giving each kind an equal time share.

    Each kind runs at least once; another op starts only if one more of
    that kind, at its last duration, still fits.
    """
    spent = dict.fromkeys(workload.kinds, 0.0)
    last = dict.fromkeys(workload.kinds, 0.0)
    count = dict.fromkeys(workload.kinds, 0)
    t_start = time.perf_counter()
    while True:
        left = seconds - (time.perf_counter() - t_start)
        fits = [k for k in workload.kinds if count[k] == 0 or last[k] <= left]
        if not fits:
            break
        kind = min(fits, key=spent.get)
        t0 = time.perf_counter()
        _guarded_op(workload, kind, count[kind], pass_, None)
        last[kind] = time.perf_counter() - t0
        spent[kind] += last[kind]
        pass_.plan.append((kind, count[kind]))
        count[kind] += 1


def _guarded_op(workload, kind, index, pass_, tracer):
    try:
        workload.op(kind, index, pass_, tracer)
    except Exception:       # one bad op must not end the run
        pass_.fail(f"{kind}_ms", kind, index)


def case14_check() -> bool:
    """Once per run, untimed: case14 PF against the frozen solution and
    case14 OPF against the published objective."""
    ref = json.loads((DATA / "cases" / "case14_solution.json").read_text())
    net = mp_mod.case_to_network(mp_mod.load_case(CASE14))
    sol = solver_mod.solve_network(net, PfOptions(tol_pu=1e-10, start="flat"))
    v = np.array([net.buses[str(b)].v[0] for b in ref["bus_id"]])
    v_ref = np.asarray(ref["vm_pu"]) * np.exp(1j * np.deg2rad(ref["va_deg"]))
    pf_ok = sol.converged and float(np.max(np.abs(v - v_ref))) <= PF_TOL_PU
    net = mp_mod.case_to_network(mp_mod.load_case(CASE14))
    osol = ipm_mod.ipm_solve(problem_mod.opf_build(net), IPM)
    opf_ok = osol.status == "optimal" and abs(osol.objective - CASE14_OBJECTIVE) <= 0.005
    return bool(pf_ok and opf_ok)


def measure(workload, seconds) -> Pass:
    """The untraced run: set-up samples, then ops for ``seconds``."""
    pass_ = Pass()
    workload.setup(pass_)
    run_for(workload, seconds, pass_)
    pass_.finish()
    return pass_


def traced_replay(workload, seconds):
    """Untraced ops for half the time, then the same plan traced.

    Returns both passes, the tracer, and the declared spans that did not
    fire on this workload.
    """
    plain = measure(workload, seconds / 2)
    traced = Pass()
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.setup(traced)
        for kind, index in plain.plan:
            tracer.op = f"{kind}{index}"
            _guarded_op(workload, kind, index, traced, tracer)
            traced.plan.append((kind, index))
    finally:
        tracer.uninstall()
    traced.finish()
    missing = sorted(name for name, where in spans.SPAN_COVERAGE.items()
                     if workload.name in where and name not in tracer.fired())
    return plain, traced, tracer, missing


def per_layer(plain, traced, tracer) -> dict[str, float]:
    """Per-layer metrics of a traced replay, with the tracing overhead."""
    n_ops = traced.sim["timesteps"] if traced.sim else len(traced.plan)
    metrics = spans.layer_metrics(tracer.spans, n_ops, traced.sim)
    metrics["trace.overhead_pct"] = 100.0 * (_typical_s(traced) / _typical_s(plain) - 1.0)
    return metrics


def _typical_s(pass_):
    """Median op time times op count, summed over the pass's op kinds:
    total time in the timed regions, with one-off stalls left out."""
    names = ("step_ms",) if pass_.samples["step_ms"] else ("pf_ms", "opf_ms")
    return sum(statistics.median(pass_.samples[n]) * len(pass_.samples[n])
               for n in names if pass_.samples[n])
