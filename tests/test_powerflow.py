import copy
import dataclasses
import json
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from gridsim.cli import main
from gridsim.network import (
    Branch,
    Bus,
    CommonBranch,
    Gen,
    GenericBranch,
    Network,
    NodeIndex,
    Phase,
    Zip,
)
from gridsim.parsers import apply_yaml_file, load_network
from gridsim.powerflow import (
    HeldPowerFlow,
    NoSlackInIslandError,
    PfOptions,
    PfSolution,
    SingularJacobianError,
    ZeroVoltageError,
    apply_solution,
    flat_start,
    model_build,
    network_current,
    nr_solve,
    recover_flows,
    residual_current,
    residual_power,
    solve_network,
    total_balance,
)
from gridsim.powerflow.model import (PQ, PV, SL, _check_islands,
                                    generation_refresh, model_refresh)
from gridsim.powerflow.pattern import FrozenCsc
from gridsim.powerflow import solver as solver_mod
from gridsim.powerflow.solver import CHORD_CONTRACTION, NewtonSystem
from gridsim.simlib import network as simnet_mod

from conftest import CASES, DATA, GOLDEN
from networks import _loaded_mixed_net, _mixed_net, _pv_delta_net


def _small_net():
    """Slack + PV + PQ three-bus network with a mixed ZIP load."""
    net = Network(s_base_mva=100.0)
    net.add_bus(Bus("1", bus_type="SL"))
    net.add_bus(Bus("2", bus_type="PV"))
    net.add_bus(Bus("3"))
    ys = 1.0 / (0.01 + 0.08j)
    net.add_branch(Branch("a", CommonBranch(ys, y_shunt=0.02j)), "1", "2")
    net.add_branch(Branch("b", CommonBranch(ys)), "2", "3")
    net.add_branch(Branch("c", CommonBranch(ys)), "1", "3")
    net.add_gen(Gen("g1"), "1")
    net.add_gen(Gen("g2", s=40.0, v_setpoint=1.02), "2")
    load = Zip("ld", n_phase=1)
    load.set_wye(0, s=0.9 + 0.3j, i=0.05, y=0.02 - 0.01j)
    net.add_zip(load, "3")
    return net


# the arrays of a built model a golden pins, complex ones as (re, im)
# lists: JSON round-trips every float exactly
_MODEL_ARRAYS = ("node_type", "s_g", "v_sl", "v_set_pv", "s_wye", "i_wye",
                 "v_nom", "v_state", "di", "dk", "ds", "dc", "gen_node")


def _model_arrays(model) -> dict:
    out = {f"y.{k}": getattr(model.y, k) for k in ("data", "indices", "indptr")}
    out.update({k: getattr(model, k) for k in _MODEL_ARRAYS})
    return {k: ([v.real.tolist(), v.imag.tolist()] if np.iscomplexobj(v)
                else v.tolist()) for k, v in out.items()}


@pytest.mark.parametrize("name", ["mixed", "pv_delta", "case57"])
def test_model_build_arrays_pinned(name):
    # recorded before the ZIP terms were scattered in one pass (case57
    # before the terminal nodes were gathered per device kind); the
    # arrays must stay bit-identical
    pinned = json.loads((GOLDEN / "model_build_arrays.json").read_text())[name]
    net = {"mixed": _loaded_mixed_net, "pv_delta": _pv_delta_net,
           "case57": lambda: load_network(CASES / "case57.m")[0]}[name]()
    assert _model_arrays(model_build(net)) == pinned


def _newton_arrays(net) -> dict:
    """The Newton system of a network's model: the flat-start Jacobian,
    the column order of its first factor and the kept-order layout that
    factor lays out for the next."""
    model = model_build(net)
    system = NewtonSystem(model)
    jac = system.jacobian(flat_start(model), model.s_g)
    pattern = system.pattern
    out = {f"jac.{k}": getattr(jac, k).copy() for k in ("data", "indices", "indptr")}
    pattern.factor(jac.data)
    out.update({"perm_c": pattern.perm_c, "gather": pattern._gather,
                "permuted.indices": pattern._permuted.indices,
                "permuted.indptr": pattern._permuted.indptr})
    return {k: v.tolist() for k, v in out.items()}


@pytest.mark.parametrize("name", ["mixed", "pv_delta", "case57"])
def test_newton_system_pinned(name):
    # recorded before the set-up of a cold power flow was trimmed, the
    # order and layout again when the Newton pattern's first factor took
    # minimum degree on A + A^T: the Jacobian SuperLU sees, so its order,
    # must stay bit-identical
    pinned = json.loads((GOLDEN / "newton_system.json").read_text())[name]
    net = {"mixed": _loaded_mixed_net, "pv_delta": _pv_delta_net,
           "case57": lambda: load_network(CASES / "case57.m")[0]}[name]()
    assert _newton_arrays(net) == pinned


def _zip_terms_by_loop(net, index):
    """The ZIP terms of a model, gathered slot by slot: the reference for
    the vectorised gather in ``model_build``."""
    s_wye = np.zeros(len(index), dtype=complex)
    i_wye = np.zeros(len(index), dtype=complex)
    delta = []
    for zip_ in net.zips:
        if not (zip_.in_service and zip_.terminal.connected):
            continue
        nodes = index.terminal_nodes(zip_.terminal)
        for i in range(zip_.n_phase):
            s_wye[nodes[i]] += zip_.s_const[i + 1, 0]
            i_wye[nodes[i]] += zip_.i_const[i + 1, 0]
            for k in range(zip_.n_phase):
                s_d = zip_.s_const[i + 1, k + 1]
                i_d = zip_.i_const[i + 1, k + 1]
                if k != i and (s_d != 0.0 or i_d != 0.0):
                    delta.append((nodes[i], nodes[k], s_d, i_d))
    di, dk, ds, dc = zip(*delta) if delta else ((), (), (), ())
    return {"s_wye": s_wye, "i_wye": i_wye, "di": di, "dk": dk, "ds": ds,
            "dc": dc}


@pytest.mark.parametrize("name", ["mixed", "pv_delta", "pvdemo"])
def test_model_zip_terms_match_a_slot_loop(name):
    if name == "pvdemo":
        net = apply_yaml_file(DATA / "pvdemo" / "pvdemo_ieee57.yaml").sim.get(
            "grid").network
    else:
        net = _loaded_mixed_net() if name == "mixed" else _pv_delta_net()
    model = model_build(net)
    for key, ref in _zip_terms_by_loop(net, model.index).items():
        got = getattr(model, key)
        assert got.tobytes() == np.asarray(ref, dtype=got.dtype).tobytes(), key


def test_model_build_gathers_each_terminal_once(monkeypatch):
    # Network.ybus gathers the nodes of the ZIPs it stamps, and the refresh
    # plan takes them from it instead of gathering them again.  Devices
    # share terminals, so the gathered ones are counted, not told apart:
    # two per stamped branch, one per in-service ZIP and generator.
    gathered = []
    gather = NodeIndex.gather

    def counting(self, terminals):
        terminals = list(terminals)
        gathered.extend(terminals)
        return gather(self, terminals)

    monkeypatch.setattr(NodeIndex, "gather", counting)
    for net in (_pv_delta_net(), _loaded_mixed_net()):
        gathered.clear()
        model_build(net)
        in_service = [sum(d.in_service for d in devices)
                      for devices in (net.branches, net.zips, net.gens)]
        assert in_service[1] and in_service[2]
        assert len(gathered) == (2 * in_service[0] + in_service[1]
                                 + in_service[2])
        assert {z.terminal for z in net.zips if z.in_service} <= set(gathered)


def _assert_same_fields(held, fresh, skip=()):
    """Every dataclass field of ``held`` equals ``fresh``'s: arrays byte
    for byte (dtype and shape too), lists of network members by id."""
    for f in dataclasses.fields(held):
        if f.name in skip:
            continue
        mine, theirs = getattr(held, f.name), getattr(fresh, f.name)
        if isinstance(mine, np.ndarray):
            assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), f.name
            assert mine.tobytes() == theirs.tobytes(), f.name
        elif f.name in ("gens", "zips", "set_gens"):
            assert [m.id for m in mine] == [m.id for m in theirs], f.name
        else:
            assert mine == theirs, f.name


def _assert_same_model(held, fresh):
    """A held model equals a fresh build byte for byte: its values, its
    Y-bus, node index and branch groups, and its refresh plan."""
    _assert_same_fields(held, fresh, skip=("y", "index", "branch_groups", "plan"))
    for name in ("data", "indices", "indptr"):
        assert getattr(held.y, name).tobytes() == getattr(fresh.y, name).tobytes()
    assert held.index.nodes == fresh.index.nodes
    assert len(held.branch_groups) == len(fresh.branch_groups)
    for mine, theirs in zip(held.branch_groups, fresh.branch_groups):
        assert [b.id for b in mine.branches] == [b.id for b in theirs.branches]
        assert np.array_equal(mine.nodes, theirs.nodes)
        assert np.array_equal(mine.y, theirs.y)
    _assert_same_fields(held.plan, fresh.plan)


def _with_zips_reversed(net):
    """The same network objects, with the ZIPs listed in reverse order."""
    other = Network(net.s_base_mva, net.frequency_hz)
    for name in ("buses", "branches", "gens"):
        for item in getattr(net, name):
            getattr(other, name).insert(item.id, item)
    for zip_ in reversed(list(net.zips)):
        other.zips.insert(zip_.id, zip_)
    return other


def test_refreshed_model_equals_a_fresh_build():
    """In-place edits of every kind of injection value: each refresh
    shares the structure and equals a fresh build byte for byte."""
    net = _loaded_mixed_net()
    model = model_build(net)
    n_delta = len(model.di)
    edits = [
        # wye power and current
        lambda: net.zips["zw"].set_wye(0, s=0.03 - 0.01j, i=0.02),
        lambda: net.zips["zd"].set_wye(2, s=0.002j, i=-0.001),
        # delta power and current on nodes ZIPs share, one through the
        # reordered phase map of zw2
        lambda: net.zips["zw2"].set_delta(2, 0, s=0.004 + 0.002j, i=0.001),
        lambda: net.zips["zd"].set_delta(1, 2, i=0.009 - 0.002j),
        # a power term to 0 while the entry's current term stays
        lambda: net.zips["zd"].set_delta(0, 2, s=0.0),
        # the setpoint a PV bus takes (its first generator's) and output
        lambda: setattr(net.gens["ga"], "v_setpoint", 1.03),
        lambda: net.gens["gt"].s.__setitem__(slice(None), [0.01, 0.03j]),
        lambda: setattr(net.gens["ga"], "s", np.array([0.04, 0.01, 0.0j])),
        # a solved state
        lambda: apply_solution(net, nr_solve(model)),
    ]
    for edit in edits:
        edit()
        refreshed = model_refresh(model, net)
        assert refreshed.y is model.y and refreshed.plan is model.plan
        _assert_same_model(refreshed, model_build(net))
        model = refreshed
    # no entry came or went: zd's pairs (1, 2) and now (0, 2) hold a
    # current term alone, in both directions
    assert len(model.di) == n_delta
    assert np.sum((model.ds == 0.0) & (model.dc != 0.0)) == 4

    # mutation check: a plan built for the ZIPs in another order gathers
    # the same values to the wrong entries, and the comparison sees it
    stale = replace(model, plan=model_build(_with_zips_reversed(net)).plan)
    wrong = model_refresh(stale, net)
    assert wrong.ds.tobytes() != model.ds.tobytes()
    with pytest.raises(AssertionError):
        _assert_same_model(replace(wrong, plan=model.plan), model_build(net))


def test_generation_refresh_shares_the_zip_terms():
    """Generator and state edits: each generation-only refresh equals a
    fresh build and shares the ZIP terms, which it never gathers."""
    net = _loaded_mixed_net()
    model = model_build(net)
    edits = [
        lambda: setattr(net.gens["ga"], "v_setpoint", 1.03),
        lambda: net.gens["gt"].s.__setitem__(slice(None), [0.01, 0.03j]),
        lambda: apply_solution(net, nr_solve(model)),
    ]
    for edit in edits:
        edit()
        refreshed = generation_refresh(model, net)
        for name in ("y", "plan", "s_wye", "i_wye", "ds", "dc", "di", "dk"):
            assert getattr(refreshed, name) is getattr(model, name), name
        _assert_same_model(refreshed, model_build(net))
        model = refreshed
    # a ZIP edit stays unseen: only a full refresh gathers it
    net.zips["zw"].set_wye(0, s=0.05 - 0.02j)
    assert generation_refresh(model, net).s_wye is model.s_wye
    _assert_same_model(model_refresh(model, net), model_build(net))


def test_a_told_holder_refreshes_what_each_change_touched():
    net, _ = load_network(CASES / "case14.m")
    held = HeldPowerFlow()
    first = held.model(net)
    # generation marks alone: generation only
    net.gens["gen_1_2"].s[:] = 0.5 + 0.1j
    held.changed("generation")
    gen = held.model(net)
    assert gen.s_wye is first.s_wye and gen.y is first.y
    _assert_same_model(gen, model_build(net))
    # one injections mark among generation marks: a full refresh
    net.zips["load_3"].set_wye(0, s=0.9 + 0.2j)
    held.changed("generation")
    held.changed("injections")
    held.changed("generation")
    full = held.model(net)
    assert full.s_wye is not gen.s_wye and full.y is first.y
    _assert_same_model(full, model_build(net))
    # the marks are used up by the model they asked for: an edit nobody
    # told of gets a full refresh
    net.zips["load_3"].set_wye(0, s=0.7 + 0.2j)
    untold = held.model(net)
    assert untold.s_wye is not full.s_wye
    _assert_same_model(untold, model_build(net))
    held.changed("structure")
    assert held.model(net).y is not first.y
    assert (held.builds, held.full_refreshes, held.generation_refreshes) \
        == (2, 2, 1)
    with pytest.raises(ValueError, match="unknown change kind 'taps'"):
        held.changed("taps")


def test_model_build_partition():
    model = model_build(_small_net())
    assert model.node_type.tolist() == [SL, PV, PQ]
    assert model.v_set_pv[1] == 1.02
    assert model.s_g[1] == pytest.approx(0.4)
    assert model.s_wye[2] == pytest.approx(0.9 + 0.3j)
    assert model.i_wye[2] == pytest.approx(0.05)


def test_gen_bus_without_gen_falls_back_to_pq():
    net = _small_net()
    net.gens["g2"].in_service = False
    model = model_build(net)
    assert model.node_type[1] == PQ


def _partly_served_pv_net():
    """Three-phase slack, load and PV buses; one single-phase generator
    serves the PV bus, on phase A."""
    abc = (Phase.A, Phase.B, Phase.C)
    net = Network(s_base_mva=10.0)
    net.add_bus(Bus("s", phases=abc, bus_type="SL"))
    net.add_bus(Bus("l", phases=abc))
    net.add_bus(Bus("p", phases=abc, bus_type="PV"))
    net.add_branch(Branch("sl", _three_phase_line(0.02 + 0.1j)), "s", "l")
    net.add_branch(Branch("lp", _three_phase_line(0.03 + 0.12j)), "l", "p")
    net.add_gen(Gen("s1", n_phase=3), "s")
    net.add_gen(Gen("pa", s=0.5, v_setpoint=1.02), "p", phase_map=(Phase.A,))
    z = Zip("ld", n_phase=3)
    z.set_wye(0, s=0.6 + 0.2j)
    z.set_wye(1, s=0.5 + 0.25j)
    z.set_wye(2, s=0.7 + 0.1j)
    net.add_zip(z, "l")
    return net


def test_a_regulated_bus_regulates_only_the_nodes_a_generator_serves():
    net = _partly_served_pv_net()
    sol = solve_network(net, PfOptions(tol_pu=1e-10))
    assert sol.converged
    # the written-back network balances at every node: no node draws
    # reactive power that no generator supplies
    fresh = model_build(net)
    assert np.abs(residual_power(fresh, fresh.v_state)).max() < 1e-8
    assert fresh.node_type[fresh.index.bus_nodes("p")].tolist() == [PV, PQ, PQ]


def test_island_without_slack_rejected():
    net = _small_net()
    net.add_bus(Bus("island"))
    net.add_bus(Bus("island2"))
    net.add_branch(Branch("iso", CommonBranch(3.0)), "island", "island2")
    with pytest.raises(NoSlackInIslandError):
        model_build(net)


def _slackless_island_by_loop(y, node_type, index):
    """The first five nodes of the first island without a slack node,
    island by island: the reference for ``_check_islands``."""
    n_comp, labels = connected_components(y, directed=False)
    for comp in range(n_comp):
        members = np.flatnonzero(labels == comp)
        if not np.any(node_type[members] == SL):
            return [f"{b}:{p.name}" for b, p in (index.nodes[i] for i in members[:5])]
    return None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=60))))
def test_island_check_matches_a_loop(graph):
    slack, edges = graph
    n = len(slack)
    a, b = np.array(edges, dtype=int).reshape(-1, 2).T
    y = sp.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    node_type = np.where(slack, SL, PQ)
    index = NodeIndex([Bus(str(i)) for i in range(n)])
    names = _slackless_island_by_loop(y, node_type, index)
    if names is None:
        _check_islands(y, node_type, index)
    else:
        with pytest.raises(NoSlackInIslandError, match=re.escape(
                f"island containing nodes {names} has no slack bus")):
            _check_islands(y, node_type, index)

def test_nr_converges_small_net():
    model = model_build(_small_net())
    sol = nr_solve(model, PfOptions(tol_pu=1e-10))
    assert sol.converged
    assert sol.iterations <= 6
    r = residual_current(model, sol.v, sol.s_g)
    assert np.max(np.abs(r)) < 1e-10
    assert abs(sol.v[1]) == pytest.approx(1.02, abs=1e-10)
    assert sol.v[0] == pytest.approx(1.0 + 0.0j)


def test_power_residual_matches_current_residual():
    model = model_build(_small_net())
    rng = np.random.default_rng(5)
    v = 1.0 + 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    rc = residual_current(model, v)
    rp = residual_power(model, v)
    np.testing.assert_allclose(rp, v * np.conj(rc), atol=1e-14)


def test_zero_voltage_guard():
    model = model_build(_small_net())
    v = np.array([1.0, 1.0, 0.0], dtype=complex)
    with pytest.raises(ZeroVoltageError):
        residual_current(model, v)


def test_zero_voltage_guard_on_solver_path():
    # a loaded PQ bus with zero nominal voltage starts at 0 V
    net = _small_net()
    net.buses["3"].v_nom = np.zeros(1, dtype=complex)
    with pytest.raises(ZeroVoltageError, match="node 3:"):
        nr_solve(model_build(net))


@pytest.mark.parametrize("case", ["case3", "case14", "case30", "case57"])
def test_flat_start_iterates_pinned(case):
    # recorded when every solve began trying chord steps; neither the
    # counts nor the voltages may move.  ``newton`` is the record of the
    # solver before, which factored at every step: the chord steps land
    # within 1e-9 pu of where it landed
    pinned = json.loads((GOLDEN / "pf_flat_iterates.json").read_text())[case]
    net, _ = load_network(CASES / f"{case}.m")
    sol = nr_solve(model_build(net), PfOptions(tol_pu=1e-8))
    assert sol.iterations == pinned["iterations"]
    assert sol.factorizations == pinned["factorizations"]
    for record, atol in [(pinned, 1e-12), (pinned["newton"], 1e-9)]:
        v = np.array(record["v_re"]) + 1j * np.array(record["v_im"])
        np.testing.assert_allclose(sol.v, v, rtol=0, atol=atol)


def test_solve_trace():
    net, _ = load_network(CASES / "case57.m")
    model = model_build(net)
    sol = nr_solve(model)
    assert sol.converged and len(sol.trace) == sol.iterations
    system = NewtonSystem(model)
    first = np.abs(system.residual(flat_start(model), model.s_g)).max()
    assert sol.trace[0]["residual_pu"] == first
    norms = [it["residual_pu"] for it in sol.trace] + [sol.residual_norm]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert all(it["alpha"] == 1.0 and it["halvings"] == 0 for it in sol.trace)
    assert sol.factor_s == pytest.approx(sum(it["factor_s"] for it in sol.trace))
    # two Newton steps factor, then chord steps reuse the second factor
    assert [it["factored"] for it in sol.trace] == [True, True] + [False] * 4
    assert all((it["factor_s"] > 0) is it["factored"] for it in sol.trace)
    assert all((it["fill"] > 0) is it["factored"] for it in sol.trace)


def _assert_chord_steps_contract(sol, tight_v):
    """Every chord step in ``sol.trace`` cut the max residual to at most
    CHORD_CONTRACTION times the residual before it, was taken whole and
    factored nothing; ``factorizations`` counts the steps that factored;
    and ``sol.v`` lies within 1e-8 pu of ``tight_v``, the voltages of a
    ``tol_pu=1e-12`` solve of the same network."""
    after = [it["residual_pu"] for it in sol.trace[1:]] + [sol.residual_norm]
    for it, new in zip(sol.trace, after):
        if not it["factored"]:
            assert new <= CHORD_CONTRACTION * it["residual_pu"]
            assert it["factor_s"] == 0.0 and it["halvings"] == 0
    assert sol.factorizations == sum(it["factored"] for it in sol.trace)
    assert np.abs(sol.v - tight_v).max() <= 1e-8


def _tight_v(net):
    """The voltages of a flat, ``tol_pu=1e-12`` solve of a copy of ``net``."""
    tight = solve_network(copy.deepcopy(net), PfOptions(tol_pu=1e-12))
    assert tight.converged
    return tight.v


def _pvdemo_held_solves(monkeypatch, hours=3):
    """The held solves of the first ``hours`` of pvdemo, each with a copy
    of the network as the solve found it."""
    real, solves = simnet_mod.solve_network, []

    def solve(net, *args, **kwargs):
        before = copy.deepcopy(net)
        sol = real(net, *args, **kwargs)
        solves.append((before, sol))
        return sol

    monkeypatch.setattr(simnet_mod, "solve_network", solve)
    sim = apply_yaml_file(DATA / "pvdemo" / "pvdemo_ieee57.yaml").sim
    sim.end_time = hours * 3600.0
    sim.run()
    return solves


@pytest.mark.parametrize("case", ["case3", "case14", "case30", "case57",
                                  "pv_delta", "pvdemo"])
def test_chord_steps_contract(case, monkeypatch):
    """Cold flat solves, and held pvdemo re-solves that start on an
    earlier solve's factor: each solve tries chord steps on its newest
    factor, keeps only those that contract tenfold, and lands as close
    to the answer as a Newton solve would."""
    if case == "pvdemo":
        solves = _pvdemo_held_solves(monkeypatch)
        assert len(solves) == 20
    else:
        net = (_pv_delta_net() if case == "pv_delta"
               else load_network(CASES / f"{case}.m")[0])
        solves = [(copy.deepcopy(net), solve_network(net))]
    for before, sol in solves:
        assert sol.converged
        _assert_chord_steps_contract(sol, _tight_v(before))
    # every solve here takes chord steps, and reuses a factor
    assert all(sol.factorizations < sol.iterations for _, sol in solves)


def test_held_factor_absorbs_small_steps_and_falls_back_on_a_jump():
    net, _ = load_network(CASES / "case14.m")
    held = HeldPowerFlow()
    opts = PfOptions(start="warm", tol_pu=1e-10)

    def resolve(scale):
        for z in net.zips:
            z.s_const *= scale
        tight_v = _tight_v(net)
        sol = solve_network(net, opts, held=held)
        assert sol.converged
        _assert_chord_steps_contract(sol, tight_v)
        np.testing.assert_allclose(sol.v, tight_v, rtol=0, atol=1e-9)
        return sol

    # nothing is held yet: the first step factors, and chord steps on
    # that factor finish the solve
    first = resolve(1.0)
    assert [it["factored"] for it in first.trace] == [True, False, False]
    # a 1% load step: held chord steps alone
    small = resolve(1.01)
    assert small.factorizations == 0 and small.iterations >= 2
    # an 80% load jump: the first held chord step misses and is discarded,
    # and a Newton step from the start point factors; the solve then
    # reuses its newest factor
    jump = resolve(1.8)
    assert jump.trace[0]["factored"] and 1 <= jump.factorizations
    assert jump.factorizations < jump.iterations
    # the jump's newest factor is the one held next
    assert resolve(1.01).factorizations == 0


def test_trace_records_halvings():
    # the absurd load of test_non_convergence_reported: no full step helps,
    # and no step that raises the max residual is taken
    net = _small_net()
    net.zips["ld"].set_wye(0, s=500.0 + 100.0j)
    sol = nr_solve(model_build(net), PfOptions(max_iter=15))
    assert len(sol.trace) == 15
    for it in sol.trace:
        assert it["alpha"] == 0.5 ** it["halvings"]
    assert max(it["halvings"] for it in sol.trace) > 4
    norms = [it["residual_pu"] for it in sol.trace] + [sol.residual_norm]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_a_newton_step_no_length_helps_stalls(monkeypatch, tmp_path, capsys):
    # an ascent direction: every length raises the max residual
    factor = FrozenCsc.factor

    def ascent(self, values):
        solve = factor(self, values)
        return lambda rhs: -solve(rhs)

    monkeypatch.setattr(FrozenCsc, "factor", ascent)
    net, _ = load_network(CASES / "case14.m")
    model = model_build(net)
    sol = nr_solve(model)
    assert not sol.converged
    assert sol.stalled_at == 1 and sol.iterations == 0 and sol.trace == []
    assert sol.factorizations == 1
    assert sol.residual_norm == np.abs(
        NewtonSystem(model).residual(flat_start(model), model.s_g)).max()

    report = tmp_path / "pf.json"
    argv = ["pf", str(CASES / "case14.m"), "--json", str(report), "--quiet"]
    assert main(argv) == 2
    assert "stalled at iteration 1" in capsys.readouterr().err
    report = json.loads(report.read_text())
    assert report["status"] == "stalled" and report["iterations"] == 0


def test_singular_later_factor_reported(monkeypatch):
    # a factor in the kept ordering fails as the first one would;
    # case57's second step factors (its chord step misses)
    splu = spla.splu

    def failing(jac, permc_spec="COLAMD", **kwargs):
        if permc_spec == "NATURAL":
            raise RuntimeError("Factor is exactly singular")
        return splu(jac, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", failing)
    net, _ = load_network(CASES / "case57.m")
    with pytest.raises(SingularJacobianError, match="at iteration 2"):
        nr_solve(model_build(net))


def test_non_finite_step_reported(monkeypatch):
    splu = spla.splu

    class Overflowing:
        def __init__(self, lu):
            self.lu = lu
            self.nnz = lu.nnz

        def solve(self, rhs):
            return self.lu.solve(rhs) * np.inf

    def natural_overflows(jac, permc_spec="COLAMD", **kwargs):
        lu = splu(jac, permc_spec=permc_spec, **kwargs)
        return Overflowing(lu) if permc_spec == "NATURAL" else lu

    monkeypatch.setattr(spla, "splu", natural_overflows)
    net, _ = load_network(CASES / "case57.m")
    with pytest.raises(SingularJacobianError,
                       match="non-finite Newton step at iteration 2"):
        nr_solve(model_build(net))


def test_non_finite_residual_reported(monkeypatch):
    # before, a NaN trial residual was taken and Newton ran to max_iter
    residual = NewtonSystem.residual
    calls = []

    def nan_after_first_step(self, v, s_g):
        calls.append(1)
        r = residual(self, v, s_g)
        return r * np.nan if len(calls) > 2 else r

    monkeypatch.setattr(NewtonSystem, "residual", nan_after_first_step)
    net, _ = load_network(CASES / "case14.m")
    with pytest.raises(SingularJacobianError, match="residual .* at iteration 2"):
        nr_solve(model_build(net))


def _slack_power_recomputed(sol):
    """``sol.s_g`` with the slack generation recomputed at ``sol.v``."""
    model = sol.model
    sl = model.node_type == SL
    s_g = sol.s_g.copy()
    s_g[sl] = sol.v[sl] * np.conj(network_current(model, sol.v)[sl])
    return s_g


@pytest.mark.parametrize("case", ["case3", "case14", "case30", "case57",
                                  "stalled", "stalled-unhalved", "held"])
def test_slack_power_is_the_one_at_the_final_point(case, monkeypatch):
    # nr_solve recovers it from the currents its residual at the last
    # accepted point subtracted; a stalled solve's last residual is that of
    # a rejected trial, which must not be the one read.  With no halving,
    # that trial is a whole Newton step away from the final point.
    if case.startswith("stalled"):
        if case == "stalled-unhalved":
            monkeypatch.setattr(solver_mod, "MAX_HALVINGS", 0)
        sol = nr_solve(model_build(_loaded_mixed_net()))
        assert sol.stalled_at == (4 if case == "stalled-unhalved" else 10)
    elif case == "held":
        net, held = load_network(CASES / "case57.m")[0], HeldPowerFlow()
        solve_network(net, held=held)
        net.zips["load_3"].set_wye(0, s=0.5 + 0.21j)
        sol = solve_network(net, PfOptions(start="warm"), held)
        assert sol.converged and not sol.trace[0]["factored"]
    else:
        sol = nr_solve(model_build(load_network(CASES / f"{case}.m")[0]))
        assert sol.converged
    assert sol.s_g.tobytes() == _slack_power_recomputed(sol).tobytes()


def test_non_convergence_reported():
    net = _small_net()
    # an absurd load makes the equations infeasible
    net.zips["ld"].set_wye(0, s=500.0 + 100.0j)
    model = model_build(net)
    sol = nr_solve(model, PfOptions(max_iter=15))
    assert not sol.converged


def test_total_balance_and_flows():
    net = _small_net()
    sol = solve_network(net, PfOptions(tol_pu=1e-12))
    assert abs(total_balance(net, sol)) < 1e-10
    flows = recover_flows(net, sol)
    assert set(flows) == {"a", "b", "c"}
    # terminal powers on a shunt-free branch differ only by the series loss
    s0 = flows["b"]["S0"][0]
    s1 = flows["b"]["S1"][0]
    i = flows["b"]["I0"][0]
    z = 0.01 + 0.08j
    np.testing.assert_allclose(s0 + s1, z * abs(i) ** 2, atol=1e-10)


def test_recover_flows_matches_a_per_branch_product():
    # lines, a cable, transformer banks, a tapped single-phase branch and a
    # generic 3-to-1 branch, in five branch groups; out-of-service ones left out
    net = _mixed_net()
    net.add_gen(Gen("gs", n_phase=3), "s")
    model = model_build(net)
    assert len(model.branch_groups) == 5
    rng = np.random.default_rng(3)
    v = model.v_nom * (1.0 + 0.05 * (rng.standard_normal(model.n_node)
                                     + 1j * rng.standard_normal(model.n_node)))
    sol = PfSolution(v=v, s_g=model.s_g, iterations=0, converged=False,
                     residual_norm=0.0, model=model)
    flows = recover_flows(net, sol)
    live = [b for b in net.branches if b.in_service]
    assert list(flows) == [b.id for b in live]
    for branch in live:
        y = branch.model.y_matrix()
        if branch.model.physical_units:
            v_base = net.buses[branch.terminals[0].bus_id].v_base
            y = y * (v_base**2 / (net.s_base_mva * 1e6))
        nodes = [k for t in branch.terminals
                 for k in model.index.terminal_nodes(t)]
        i = y @ v[nodes]
        s = v[nodes] * np.conj(i)
        n0 = branch.model.n_phase0
        expect = {"I0": i[:n0], "I1": i[n0:], "S0": s[:n0], "S1": s[n0:]}
        assert flows[branch.id].keys() == expect.keys()
        for key, value in expect.items():
            np.testing.assert_allclose(flows[branch.id][key], value,
                                       rtol=1e-12, atol=1e-12)


def test_apply_solution_updates_network():
    net = _small_net()
    sol = solve_network(net)
    assert net.buses["3"].v[0] == pytest.approx(sol.v[2])
    # slack gen picked up the recovered injection
    assert abs(net.gens["g1"].s[0]) > 0
    # PV gen kept its active power, gained reactive
    assert net.gens["g2"].s[0].real == pytest.approx(40.0)


def _three_phase_line(z):
    y6 = np.zeros((6, 6), dtype=complex)
    for i in range(3):
        y6[i, i] = y6[i + 3, i + 3] = 1.0 / z
        y6[i, i + 3] = y6[i + 3, i] = -1.0 / z
    return GenericBranch(y6, 3, 3)


def _shared_gen_net():
    """Three-phase slack, load and PV buses with generators sharing nodes.

    Two gens share every slack node and a single-phase gen adds a third on
    phase B.  Two gens with unequal fixed Q share every PV node and a
    single-phase gen adds a third on phase C; an out-of-service gen sits on
    the PV bus too.  A single-phase gen on the load bus is a PQ injection.
    """
    abc = (Phase.A, Phase.B, Phase.C)
    net = Network(s_base_mva=10.0)
    net.add_bus(Bus("s", phases=abc, bus_type="SL"))
    net.add_bus(Bus("l", phases=abc))
    net.add_bus(Bus("p", phases=abc, bus_type="PV"))
    net.add_branch(Branch("sl", _three_phase_line(0.02 + 0.1j)), "s", "l")
    net.add_branch(Branch("lp", _three_phase_line(0.03 + 0.12j)), "l", "p")
    net.add_gen(Gen("s1", n_phase=3), "s")
    net.add_gen(Gen("s2", n_phase=3, s=[1 + 0.5j, 2.0, 0.0]), "s")
    net.add_gen(Gen("s3", s=0.5 + 0.1j), "s", phase_map=(Phase.B,))
    net.add_gen(Gen("q1", s=0.5 + 0.1j), "l", phase_map=(Phase.A,))
    net.add_gen(Gen("p1", n_phase=3, s=2.0 + 0.3j, v_setpoint=1.02), "p")
    net.add_gen(Gen("p2", n_phase=3, s=[1 - 0.4j, 1 + 0.1j, 1 + 0.7j],
                    v_setpoint=0.95), "p")
    net.add_gen(Gen("off", n_phase=3, s=5 + 5j, in_service=False), "p")
    net.add_gen(Gen("p3", s=0.8 + 0.2j), "p", phase_map=(Phase.C,))
    z = Zip("ld", n_phase=3)
    z.set_wye(0, s=0.6 + 0.2j)
    z.set_wye(1, s=0.5 + 0.25j, i=0.05)
    z.set_wye(2, s=0.7 + 0.1j)
    net.add_zip(z, "l")
    return net


# gen.s (MVA) after solve_network: slack output split equally, the
# missing PV reactive power split equally, PQ and out-of-service gens
# untouched.  Recorded when every solve began trying chord steps.
SHARED_GEN_S = {
    "s1": [
        1.2738863862686067 + 0.1914165922212696j,
        0.8485116969094203 + 0.23872875517336858j,
        1.6339872551684522 - 0.01023074720771653j,
    ],
    "s2": [
        1.2738863862686067 + 0.1914165922212696j,
        0.8485116969094203 + 0.23872875517336858j,
        1.6339872551684522 - 0.01023074720771653j,
    ],
    "s3": [0.8485116969094203 + 0.23872875517336858j],
    "q1": [0.5 + 0.1j],
    "p1": [
        2 + 1.2107666205625474j,
        2 + 1.1019305447365153j,
        2 + 0.33790656262964885j,
    ],
    "p2": [
        1 + 0.5107666205625474j,
        1 + 0.9019305447365152j,
        1 + 0.7379065626296488j,
    ],
    "off": [5 + 5j, 5 + 5j, 5 + 5j],
    "p3": [0.8 + 0.23790656262964888j],
}

# the same, recorded before model_build kept the generator-to-node map,
# by the solver of then, which factored at every step
NEWTON_SHARED_GEN_S = {
    "s1": [1.273886376024319 + 0.19141659631083385j,
           0.8485116933672205 + 0.23872875669656812j,
           1.63398725516506 - 0.01023074720390111j],
    "s2": [1.273886376024319 + 0.19141659631083385j,
           0.8485116933672205 + 0.23872875669656812j,
           1.63398725516506 - 0.01023074720390111j],
    "s3": [0.8485116933672205 + 0.23872875669656812j],
    "q1": [0.5 + 0.1j],
    "p1": [2 + 1.2107666150358376j, 2 + 1.10193054161759j,
           2 + 0.33790656262470775j],
    "p2": [1 + 0.5107666150358375j, 1 + 0.9019305416175899j,
           1 + 0.7379065626247078j],
    "off": [5 + 5j, 5 + 5j, 5 + 5j],
    "p3": [0.8 + 0.2379065626247078j],
}


def test_apply_solution_shares_generation():
    net = _shared_gen_net()
    sol = solve_network(net)
    assert sol.converged
    assert [g.id for g in sol.model.gens] == [
        "s1", "s2", "s3", "q1", "p1", "p2", "p3"
    ]
    # the PV bus holds the setpoint of its first generator
    np.testing.assert_allclose(np.abs(net.buses["p"].v), 1.02, atol=1e-8)
    # the Newton record holds to the solve's tolerance, 1e-8 pu
    for pinned, atol in [(SHARED_GEN_S, 1e-12),
                         (NEWTON_SHARED_GEN_S, 1e-8 * net.s_base_mva)]:
        for gen in net.gens:
            np.testing.assert_allclose(
                gen.s, pinned[gen.id], rtol=0, atol=atol, err_msg=gen.id
            )
    assert net.gens["off"].s.tolist() == [5 + 5j] * 3


def test_warm_start_resumes_from_state():
    net = _small_net()
    solve_network(net, PfOptions(tol_pu=1e-12))
    model = model_build(net)
    model.v_nom = np.concatenate([net.buses[b].v for b in ("1", "2", "3")])
    sol = nr_solve(model, PfOptions(start="warm", tol_pu=1e-8))
    assert sol.converged
    assert sol.iterations <= 1


def test_warm_start_resolves_a_solved_network_at_once():
    net, _ = load_network(CASES / "case57.m")
    flat = solve_network(net, PfOptions(start="flat"))
    assert flat.iterations > 1
    warm = solve_network(net, PfOptions(start="warm"))
    assert warm.converged
    assert warm.iterations <= 1
    assert np.max(np.abs(warm.v - flat.v)) < 1e-8


def test_warm_start_falls_back_to_flat_at_zero_state():
    net = _small_net()
    for bus in net.buses:
        bus.v[:] = 0.0
    model = model_build(net)
    flat = nr_solve(model, PfOptions(start="flat"))
    warm = nr_solve(model, PfOptions(start="warm"))
    assert warm.iterations == flat.iterations
    assert np.array_equal(warm.v, flat.v)


@pytest.mark.parametrize("case", ["case14", "case30", "case57"])
def test_standard_cases_converge(case):
    net, _ = load_network(CASES / f"{case}.m")
    sol = solve_network(net, PfOptions(tol_pu=1e-8))
    assert sol.converged
    assert sol.iterations <= 10
    model = model_build(net)
    assert np.max(np.abs(residual_current(model, sol.v, sol.s_g))) < 1e-8


def test_case14_against_frozen_solution():
    net, _ = load_network(CASES / "case14.m")
    sol = solve_network(net, PfOptions(tol_pu=1e-10))
    frozen = json.loads((DATA / "cases" / "case14_solution.json").read_text())
    for bus, vm, va in zip(frozen["bus_id"], frozen["vm_pu"], frozen["va_deg"]):
        node = sol.model.index.index(str(bus), Phase.BAL)
        assert abs(sol.v[node]) == pytest.approx(vm, abs=1e-4)
        assert np.angle(sol.v[node], deg=True) == pytest.approx(va, abs=0.01)


def test_gauge_rotation_property():
    # rotating the slack voltage rotates the whole solution rigidly
    phi = np.deg2rad(30.0)
    net_a = _small_net()
    net_b = _small_net()
    net_b.buses["1"].v_nom = net_b.buses["1"].v_nom * np.exp(1j * phi)
    # remove the constant-current part, which is gauge invariant anyway,
    # keeping the test focused on the power/admittance terms
    sol_a = solve_network(net_a, PfOptions(tol_pu=1e-12))
    sol_b = solve_network(net_b, PfOptions(tol_pu=1e-12))
    np.testing.assert_allclose(sol_b.v, sol_a.v * np.exp(1j * phi), atol=1e-9)


def test_flat_start_shape():
    model = model_build(_small_net())
    v0 = flat_start(model)
    assert abs(v0[0]) == pytest.approx(1.0)
    assert abs(v0[1]) == pytest.approx(1.02)
    assert abs(v0[2]) == pytest.approx(1.0)
    # a zero nominal voltage stays zero at a PQ node; a PV node starts at
    # its setpoint with zero angle
    net = _small_net()
    net.buses["2"].v_nom = np.zeros(1, dtype=complex)
    net.buses["3"].v_nom = np.zeros(1, dtype=complex)
    v0 = flat_start(model_build(net))
    assert v0[1] == 1.02 and v0[2] == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_loading_keeps_balance(seed):
    rng = np.random.default_rng(seed)
    net = _small_net()
    p, q = rng.uniform(0.1, 1.2), rng.uniform(-0.3, 0.4)
    net.zips["ld"].set_wye(0, s=p + 1j * q)
    sol = solve_network(net, PfOptions(tol_pu=1e-10, max_iter=30))
    if sol.converged:
        assert abs(total_balance(net, sol)) < 1e-8
