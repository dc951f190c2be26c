"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line for its criterion so the overall
verdict can be read off the run log directly.
"""

import json
import math
import random
import sys
import time

import numpy as np
import yaml

from gridsim.network import Branch, Bus, Gen, GenericBranch, Network, Phase, Zip
from gridsim.network import kron_reduce
from gridsim.opf import IpmOptions, ipm_solve, kkt_residual, opf_build
from gridsim.parsers import (
    YamlContext,
    YamlScope,
    default_registry,
    load_case,
    load_network,
    load_yaml_file,
    loop_expand,
    yaml_apply,
)
from gridsim.powerflow import (
    PfOptions,
    jacobian_rect,
    model_build,
    nr_solve,
    recover_flows,
    residual_current,
    solve_network,
)
from gridsim.simlib import Battery, Building
from gridsim.simulation import Simulation

import conftest
from conftest import CASES, DATA, GOLDEN


def _verdict(number, description, ok):
    line = f"CRITERION {number} ({description}): {'PASS' if ok else 'FAIL'}"
    conftest.VERDICTS.append(line)
    print(line)
    assert ok, line


# -- 1: power-flow convergence on the standard cases ------------------------


def test_criterion_1_power_flow_convergence():
    ok = True
    for case in ("case14", "case30", "case57"):
        net, _ = load_network(CASES / f"{case}.m")
        t0 = time.perf_counter()
        sol = solve_network(net, PfOptions(tol_pu=1e-8, start="flat"))
        wall = time.perf_counter() - t0
        ok &= sol.converged and sol.iterations <= 10
        ok &= sol.residual_norm < 1e-8
        ok &= wall < 1.0
    net, _ = load_network(CASES / "case14.m")
    sol = solve_network(net, PfOptions(tol_pu=1e-10))
    frozen = json.loads((DATA / "cases" / "case14_solution.json").read_text())
    for bus, vm, va in zip(frozen["bus_id"], frozen["vm_pu"], frozen["va_deg"]):
        node = sol.model.index.index(str(bus), Phase.BAL)
        ok &= abs(abs(sol.v[node]) - vm) < 1e-4
        ok &= abs(np.angle(sol.v[node], deg=True) - va) < 0.01
    _verdict(1, "power flow converges and matches the frozen solution", ok)


# -- 2: analytic Jacobian vs finite differences -----------------------------


def _fd_jacobian(model, v, eps=1e-7):
    n = model.n_node

    def f(x):
        r = residual_current(model, x[:n] + 1j * x[n:])
        return np.concatenate([r.real, r.imag])

    x0 = np.concatenate([v.real, v.imag])
    jac = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        step = np.zeros(2 * n)
        step[j] = eps
        jac[:, j] = (f(x0 + step) - f(x0 - step)) / (2 * eps)
    return jac


def _mixed_zip_network():
    net = Network()
    abc = (Phase.A, Phase.B, Phase.C)
    net.add_bus(Bus("s", phases=abc, bus_type="SL"))
    net.add_bus(Bus("l", phases=abc))
    y6 = np.zeros((6, 6), dtype=complex)
    ys = 1.0 / (0.02 + 0.1j)
    for i in range(3):
        y6[i, i] = y6[i + 3, i + 3] = ys
        y6[i, i + 3] = y6[i + 3, i] = -ys
    net.add_branch(Branch("ln", GenericBranch(y6, 3, 3)), "s", "l")
    net.add_gen(Gen("g", n_phase=3), "s")
    z = Zip("ld", n_phase=3)
    z.set_wye(0, s=0.3 + 0.1j, y=0.05 - 0.02j)
    z.set_wye(1, i=0.1 + 0.02j)
    z.set_delta(0, 1, s=0.2 + 0.05j)
    z.set_delta(1, 2, i=0.07)
    net.add_zip(z, "l")
    return net


def test_criterion_2_jacobian_finite_difference():
    ok = True
    models = []
    for case in ("case14", "case30", "case57"):
        net, _ = load_network(CASES / f"{case}.m")
        models.append((model_build(net), 0.05))
    models.append((model_build(_mixed_zip_network()), 0.15))
    rng = np.random.default_rng(42)
    for model, spread in models:
        for _ in range(10):
            n = model.n_node
            v = 1.0 + spread * (rng.standard_normal(n)
                                + 1j * rng.standard_normal(n))
            analytic = jacobian_rect(model, v).toarray()
            fd = _fd_jacobian(model, v)
            scale = max(1.0, float(np.max(np.abs(fd))))
            ok &= float(np.max(np.abs(analytic - fd))) < 1e-6 * scale
    _verdict(2, "rectangular Jacobian matches finite differences", ok)


# -- 3: node elimination vs the dense Schur complement ----------------------


def test_criterion_3_elimination_matches_schur():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        y += 4.0 * np.eye(6)
        k = int(rng.integers(1, 6))
        keep = sorted(rng.choice(6, size=k, replace=False).tolist())
        elim = [i for i in range(6) if i not in keep]
        schur = (y[np.ix_(keep, keep)]
                 - y[np.ix_(keep, elim)]
                 @ np.linalg.inv(y[np.ix_(elim, elim)])
                 @ y[np.ix_(elim, keep)])
        ok &= float(np.max(np.abs(kron_reduce(y, keep) - schur))) < 1e-12
    _verdict(3, "node elimination equals the dense Schur complement", ok)


# -- 4: optimization correctness --------------------------------------------


def _case3_sample_cost(rng):
    """One random dispatch sample: returns (feasible, cost_usd_per_h)."""
    net, _ = load_network(CASES / "case3.m")
    p2 = float(rng.uniform(0.0, 250.0))
    vs1 = float(rng.uniform(0.95, 1.08))
    vs2 = float(rng.uniform(0.95, 1.08))
    net.buses["1"].v_nom = np.array([vs1 + 0.0j])
    net.gens["gen_1_2"].v_setpoint = vs2
    net.gens["gen_1_2"].s = np.array([complex(p2, 0.0)])
    sol = solve_network(net, PfOptions(tol_pu=1e-10, max_iter=40))
    if not sol.converged:
        return False, math.inf
    p1 = float(net.gens["gen_0_1"].s.real.sum())
    q1 = float(net.gens["gen_0_1"].s.imag.sum())
    q2 = float(net.gens["gen_1_2"].s.imag.sum())
    if not (0.0 <= p1 <= 250.0 and -150.0 <= q1 <= 150.0
            and -150.0 <= q2 <= 150.0):
        return False, math.inf
    if not all(0.9 <= abs(v) <= 1.1 for v in sol.v):
        return False, math.inf
    flows = recover_flows(net, sol)
    s_lim = flows["branch_1_1_3"]
    if max(abs(s_lim["S0"][0]), abs(s_lim["S1"][0])) > 0.6:
        return False, math.inf
    cost = sum(c0 + c1 * p + c2 * p * p for p, (c0, c1, c2) in (
        (p1, net.gens["gen_0_1"].cost), (p2, net.gens["gen_1_2"].cost)))
    return True, cost


def test_criterion_4_optimization_correctness():
    t0 = time.perf_counter()
    ok = True

    # (a) with dispatch pinned and voltages held, the optimum is the
    # power-flow state
    net, _ = load_network(CASES / "case14.m")
    pf = solve_network(net, PfOptions(tol_pu=1e-12))
    slack_id = next(
        g.id for g in net.gens
        if net.buses[g.terminal.bus_id].bus_type == "SL"
    )
    for g in net.gens:
        if g.id != slack_id:
            g.p_min = g.p_max = float(g.s.real.sum())
        else:
            g.p_min, g.p_max = -np.inf, np.inf
        g.q_min, g.q_max = -np.inf, np.inf
    prob = opf_build(net, hold_power_flow=True, v_min=0.5, v_max=1.5,
                     start="state")
    deg = ipm_solve(prob)
    ok &= deg.status == "optimal"
    ok &= float(np.max(np.abs(np.abs(deg.node_voltages()) - np.abs(pf.v)))) < 1e-6

    # (b) the rate-limited line binds exactly at its limit
    net3, _ = load_network(CASES / "case3.m")
    prob3 = opf_build(net3)
    sol3 = ipm_solve(prob3)
    ok &= sol3.status == "optimal"
    ok &= max(kkt_residual(prob3, sol3).values()) <= 1e-6
    br = net3.branches["branch_1_1_3"]
    nodes, y = next((g.nodes[k], g.y[k]) for g in model_build(net3).branch_groups
                    for k, b in enumerate(g.branches) if b is br)
    vt = sol3.node_voltages()[nodes]
    n0 = br.model.n_phase0
    s0 = abs(np.sum(vt[:n0] * np.conj((y @ vt)[:n0])))
    ok &= abs(s0 - br.s_max_mva / net3.s_base_mva) < 1e-6

    # (c) no feasible sampled dispatch beats the reported optimum
    rng = np.random.default_rng(2024)
    feasible = 0
    for _ in range(200):
        is_feasible, cost = _case3_sample_cost(rng)
        if is_feasible:
            feasible += 1
            ok &= cost >= sol3.objective - 1e-6
    ok &= feasible > 0
    ok &= time.perf_counter() - t0 < 10.0
    _verdict(4, "optimization reproduces power flow, binds limits, "
                "and beats sampling", ok)


# -- 5: relative solver cost -------------------------------------------------


def test_criterion_5_pf_much_faster_than_opf():
    # warm caches so the first repeat is not an outlier
    net, _ = load_network(CASES / "case57.m")
    nr_solve(model_build(net), PfOptions(tol_pu=1e-8))
    pf_times, opf_times = [], []
    for _ in range(5):
        net, _ = load_network(CASES / "case57.m")
        model = model_build(net)
        t0 = time.perf_counter()
        sol = nr_solve(model, PfOptions(tol_pu=1e-8))
        pf_times.append(time.perf_counter() - t0)
        assert sol.converged
        net, _ = load_network(CASES / "case57.m")
        prob = opf_build(net)
        t0 = time.perf_counter()
        osol = ipm_solve(prob, IpmOptions(tol=1e-6))
        opf_times.append(time.perf_counter() - t0)
        assert osol.status == "optimal"
    ok = float(np.median(pf_times)) <= float(np.median(opf_times)) / 10.0
    _verdict(5, "median power-flow time is under a tenth of the "
                "optimization time", ok)


# -- 6: engine determinism ---------------------------------------------------


class _Ticker:
    pass


def _random_dag_run(seed):
    from gridsim.simulation import SimComponent

    class Ticker(SimComponent):
        def __init__(self, id, period, log, dependencies=()):
            super().__init__(id, dependencies)
            self.period = period
            self.log = log

        def initialize(self, sim):
            self.next_update_time = sim.start_time

        def update(self, t):
            self.log.append((t, self.id))
            self.next_update_time = t + self.period

    rng = random.Random(seed)
    n = rng.randint(2, 9)
    log = []
    sim = Simulation(0, 25)
    ids = [f"c{i}" for i in range(n)]
    for i, cid in enumerate(ids):
        deps = [ids[j] for j in range(i) if rng.random() < 0.35]
        sim.add(Ticker(cid, rng.choice([1, 2, 3, 4, 5]), log, deps))
    sim.run()
    return sim, log


def test_criterion_6_engine_causality_and_determinism():
    t0 = time.perf_counter()
    ok = True
    for seed in range(100):
        sim, log = _random_dag_run(seed)
        by_time = {}
        for t, cid in log:
            by_time.setdefault(t, []).append(cid)
        for cids in by_time.values():
            ok &= len(cids) == len(set(cids))
            order = {cid: k for k, cid in enumerate(cids)}
            for cid in cids:
                for dep in sim.components[cid].dependencies:
                    if dep in order:
                        ok &= order[dep] < order[cid]
        _, log2 = _random_dag_run(seed)
        ok &= log2 == log
    ok &= time.perf_counter() - t0 < 5.0
    _verdict(6, "random dependency graphs run causally, exactly once, "
                "deterministically", ok)


# -- 7: closed-loop voltage control demo -------------------------------------


def _run_pvdemo(with_controller):
    path = DATA / "pvdemo" / "pvdemo_ieee57.yaml"
    doc = load_yaml_file(path)
    if not with_controller:
        doc = [e for e in doc if "volt_var_controller" not in e]
    ctx = YamlContext(base_dir=path.parent)
    yaml_apply(doc, default_registry(), ctx)
    grid = ctx.networks["grid"]
    vvc = ctx.sim.components.get("vvc")
    stats = {"violations": 0, "timesteps": 0, "zero_slack_violations": 0}

    def listener(t):
        count = 0
        for bus in grid.network.buses:
            for vm in np.abs(bus.v):
                if vm < 0.94 - 1e-9 or vm > 1.06 + 1e-9:
                    count += 1
        stats["violations"] += count
        stats["timesteps"] += 1
        if vvc is not None and vvc.last_slack_total < 1e-6 and count:
            stats["zero_slack_violations"] += count

    ctx.sim.add_timestep_listener(listener)
    ctx.sim.run()
    if vvc is not None:
        assert vvc.solve_count > 0
        assert vvc.last_solution is not None
        assert vvc.last_solution.status == "optimal"
    return stats


def test_criterion_7_volt_var_control_demo():
    t0 = time.perf_counter()
    controlled = _run_pvdemo(with_controller=True)
    uncontrolled = _run_pvdemo(with_controller=False)
    wall = time.perf_counter() - t0
    ok = controlled["timesteps"] == uncontrolled["timesteps"] > 0
    ok &= controlled["violations"] < uncontrolled["violations"]
    ok &= controlled["zero_slack_violations"] == 0
    ok &= wall < 60.0
    _verdict(7, "reactive-power control reduces voltage violations "
                f"({controlled['violations']} vs "
                f"{uncontrolled['violations']})", ok)


# -- 8: device models ---------------------------------------------------------


def test_criterion_8_device_conservation_and_thermal_solution():
    ok = True
    rng = np.random.default_rng(99)
    bat = Battery("b", capacity_kwh=8.0, charge_kwh=4.0,
                  eta_charge=0.93, eta_discharge=0.88,
                  max_charge_kw=6.0, max_discharge_kw=5.0)
    energy = bat.charge_kwh
    worst = 0.0
    for _ in range(10_000):
        dt = float(rng.uniform(1.0, 1800.0))
        p = bat.step(dt, float(rng.uniform(-8.0, 8.0)))
        dt_h = dt / 3600.0
        if p >= 0:
            energy += bat.eta_charge * p * dt_h
        else:
            energy -= (-p / bat.eta_discharge) * dt_h
        worst = max(worst, abs(bat.charge_kwh - energy))
        ok &= -1e-12 <= bat.charge_kwh <= bat.capacity_kwh + 1e-12
    ok &= worst < 1e-9

    bld = Building("house", "wx", r_deg_per_kw=4.0, c_kwh_per_deg=1.5,
                   t_initial_c=21.0)
    bld.q_hvac_kw = 2.0
    bld.q_gain_kw = 0.5
    t_ext = -5.0
    t_inf = t_ext + bld.r * (bld.q_hvac_kw + bld.q_gain_kw)
    rc_s = bld.r * bld.c * 3600.0
    t_state = 21.0
    for dt in (60.0, 600.0, 3600.0, 7200.0):
        bld.step(dt, t_ext)
        t_state = t_inf + (t_state - t_inf) * math.exp(-dt / rc_s)
        ok &= abs(bld.t_int - t_state) < 1e-12
    _verdict(8, "storage conserves energy and the thermal model is exact", ok)


# -- 9: deterministic serialization -------------------------------------------


def test_criterion_9_serialization_goldens():
    ok = True
    for case in ("case14", "case30", "case57"):
        parsed = load_case(CASES / f"{case}.m")
        golden = (GOLDEN / f"{case}_canonical.json").read_text()
        ok &= parsed.to_canonical_json() == golden
    doc = load_yaml_file(DATA / "pvdemo" / "pvdemo_ieee57.yaml")
    scope = YamlScope()
    params = next(e["parameters"] for e in doc if "parameters" in e)
    for k, v in params.items():
        scope.bind(k, v)
    pv_loop = [e["loop"] for e in doc if "loop" in e][1]
    expanded = [entry for entry, _ in loop_expand(pv_loop, scope)]
    golden = yaml.safe_load((GOLDEN / "pvdemo_loop_expanded.yaml").read_text())
    ok &= expanded == golden
    _verdict(9, "canonical case dumps and loop expansion are byte-stable", ok)
