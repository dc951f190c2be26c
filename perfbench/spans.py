"""In-memory spans around gridsim's public entry points, and the per-layer
metrics derived from them.

A span records its name, start, end, parent span and the op id current when
it opened.  Spans are wrapped around functions from the benchmark's side:
module attributes are replaced where the caller looks them up (several
modules import a name by value, so wrapping it in its home module alone
records nothing), class methods are replaced on the class, and simulation
components are wrapped per instance.  ``uninstall`` puts every original
back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from gridsim.network import network as net_mod
from gridsim.opf import ipm as ipm_mod
from gridsim.opf import problem as problem_mod
from gridsim.parsers import matpower as mp_mod
from gridsim.parsers import yaml_config as yaml_mod
from gridsim.powerflow import solver as solver_mod
from gridsim.simlib import control as control_mod
from gridsim.simlib import network as simnet_mod
from gridsim.simulation import engine as engine_mod

SIMLIB_CLASSES = ("SimNetwork", "VoltVarController", "TimeSeriesZip",
                  "Weather", "SolarPv", "PvInverter")

# A SolarPv has no engine update of its own: inverters pull its output when
# they update, so that call is its update span.
ENTRY_POINT = {"SolarPv": "dc_power_kw"}

# Every span the tracer declares, and the workloads that must fire it.
ALL = ("ieee57-cold", "synthetic-scale", "pvdemo-24h")
SPAN_COVERAGE = {
    "parsers.matpower_parse": ALL,
    "parsers.case_to_network": ALL,
    "parsers.apply_yaml_file": ("pvdemo-24h",),
    "network.ybus": ALL,
    "powerflow.solve_network": ALL,
    "powerflow.model_build": ALL,
    "powerflow.nr_solve": ALL,
    "powerflow.apply_solution": ALL,
    "opf.opf_build": ALL,
    "opf.ipm_solve": ALL,
    "opf.eval_all": ALL,
    "opf.hess": ALL,
    "simulation.step": ("pvdemo-24h",),
    **{f"simlib.{c}.update": ("pvdemo-24h",) for c in SIMLIB_CLASSES},
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, op id, attrs or None]
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._paused = False

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(out)`` returns attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                rec[5] = after(out)
            return out

        return traced

    def patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    @contextmanager
    def paused(self):
        """Run the harness's own checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def install(self):
        self.patch(mp_mod, "matpower_parse", "parsers.matpower_parse")
        self.patch(mp_mod, "case_to_network", "parsers.case_to_network")
        self.patch(yaml_mod, "apply_yaml_file", "parsers.apply_yaml_file")
        self.patch(net_mod.Network, "ybus", "network.ybus",
                   lambda out: {"nnz": int(out[0].nnz)})
        for owner in (solver_mod, problem_mod):
            self.patch(owner, "model_build", "powerflow.model_build")
        for owner in (solver_mod, simnet_mod):
            self.patch(owner, "solve_network", "powerflow.solve_network")
            self.patch(owner, "apply_solution", "powerflow.apply_solution")
        self.patch(solver_mod, "nr_solve", "powerflow.nr_solve",
                   lambda sol: {"iters": sol.iterations, "lu_s": sol.factor_s})
        for owner in (problem_mod, control_mod):
            self.patch(owner, "opf_build", "opf.opf_build",
                       lambda p: {"kkt_dim": p.n_var + p.n_eq})
        for owner in (ipm_mod, control_mod):
            self.patch(owner, "ipm_solve", "opf.ipm_solve",
                       lambda sol: {"iters": sol.iterations})

        def wrap_hess(res):
            res.hess = self.wrap("opf.hess", res.hess)

        self.patch(problem_mod.OpfProblem, "eval_all", "opf.eval_all", wrap_hess)
        self.patch(engine_mod.Simulation, "do_timestep", "simulation.step")

    def wrap_components(self, sim):
        for comp in sim.components:
            cls = type(comp).__name__
            attr = ENTRY_POINT.get(cls, "update")
            setattr(comp, attr, self.wrap(f"simlib.{cls}.update", getattr(comp, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def fired(self) -> set[str]:
        return {rec[0] for rec in self.spans}

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _aggregate(spans):
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    attrs = defaultdict(list)
    for name, start, end, parent, _op, extra in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur
        if parent >= 0:
            self_s[spans[parent][0]] -= dur
        if extra is not None:
            attrs[name].append(extra)
    return calls, total, self_s, attrs


def layer_metrics(spans, n_ops: int, sim: dict | None) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``_ms`` values are self time per call unless noted; ``_calls`` and
    ``updates`` are per op (per timestep on pvdemo-24h).  ``sim`` carries
    the simulation counters of a pvdemo pass, summed over its days:
    timesteps, update counts by kind from a ListSink, and component solve
    counts; timesteps and controller solves are reported per day.  Layers
    a workload never enters report 0.
    """
    calls, total, self_s, attrs = _aggregate(spans)

    def per_call(d, name):
        return 1e3 * d[name] / calls[name] if calls[name] else 0.0

    def mean_attr(name, key, scale=1.0):
        vals = [a[key] for a in attrs[name]]
        return scale * sum(vals) / len(vals) if vals else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    n_pf = calls["powerflow.nr_solve"]
    n_opf = calls["opf.ipm_solve"]
    dims = [a["kkt_dim"] for a in attrs["opf.opf_build"]]
    m = {
        "parsers.matpower_ms": per_call(self_s, "parsers.matpower_parse"),
        "parsers.to_network_ms": per_call(self_s, "parsers.case_to_network"),
        "parsers.yaml_apply_ms": per_call(self_s, "parsers.apply_yaml_file"),
        "network.ybus_ms": per_call(self_s, "network.ybus"),
        "network.ybus_calls": ratio(calls["network.ybus"], n_ops),
        "network.ybus_nnz": mean_attr("network.ybus", "nnz"),
        "powerflow.model_build_ms": per_call(self_s, "powerflow.model_build"),
        "powerflow.model_builds": ratio(calls["powerflow.model_build"], n_ops),
        "powerflow.nr_ms": per_call(total, "powerflow.nr_solve"),
        "powerflow.lu_ms": mean_attr("powerflow.nr_solve", "lu_s", 1e3),
        "powerflow.nr_iters": mean_attr("powerflow.nr_solve", "iters"),
        "powerflow.apply_calls": ratio(calls["powerflow.apply_solution"], n_pf),
        "powerflow.apply_ms": per_call(self_s, "powerflow.apply_solution"),
        "opf.build_ms": per_call(self_s, "opf.opf_build"),
        "opf.eval_all_ms": per_call(self_s, "opf.eval_all"),
        "opf.eval_all_calls": ratio(calls["opf.eval_all"], n_opf),
        "opf.hess_ms": per_call(self_s, "opf.hess"),
        "opf.hess_calls": ratio(calls["opf.hess"], n_opf),
        "opf.ipm_self_ms": per_call(self_s, "opf.ipm_solve"),
        "opf.ipm_iters": mean_attr("opf.ipm_solve", "iters"),
        # computed from the problem sizes, not measured
        "opf.kkt_dim": ratio(sum(dims), len(dims)),
        "opf.kkt_dense_mb": ratio(sum(8.0 * d * d / 1e6 for d in dims), len(dims)),
        "opf.kkt_factor_gflop": ratio(sum(2.0 * d ** 3 / 3e9 for d in dims), len(dims)),
    }
    sim = sim or {}
    steps = sim.get("timesteps", 0)
    days = sim.get("days", 0)
    m["simulation.timesteps"] = ratio(steps, days)
    m["simulation.updates_scheduled"] = ratio(sim.get("scheduled", 0), steps)
    m["simulation.updates_contingent"] = ratio(sim.get("contingent", 0), steps)
    m["simulation.engine_self_ms"] = per_call(self_s, "simulation.step")
    for cls in SIMLIB_CLASSES:
        name = f"simlib.{cls}.update"
        m[f"simlib.{cls}.update_ms"] = per_call(self_s, name)
        m[f"simlib.{cls}.updates"] = ratio(calls[name], steps)
    m["simlib.SimNetwork.solves_per_step"] = ratio(sim.get("network_solves", 0), steps)
    m["simlib.VoltVarController.solves"] = ratio(sim.get("vvc_solves", 0), days)
    return m
