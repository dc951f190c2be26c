import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gridsim.network import (
    Branch,
    Bus,
    CommonBranch,
    Gen,
    GenericBranch,
    Network,
    Phase,
    Transformer,
    Zip,
    clock_ratio,
)
from gridsim.opf import (
    CallbackConstraint,
    InconsistentBoundsError,
    IpmOptions,
    LinearConstraint,
    OpfExtension,
    UnsupportedLoadError,
    ipm_solve,
    kkt_residual,
    opf_build,
    opf_refresh,
    voltage_slack_extension,
)
from gridsim.opf.ipm import NumericalBreakdownError
from gridsim.parsers import load_network
from gridsim.powerflow import PfOptions, model_build, solve_network

from conftest import CASES


def _opf_net():
    """Two dispatchable generators feeding one loaded bus."""
    net = Network(s_base_mva=100.0)
    net.add_bus(Bus("1", bus_type="SL", v_mag_min=0.9, v_mag_max=1.1))
    net.add_bus(Bus("2", bus_type="PV", v_mag_min=0.9, v_mag_max=1.1))
    net.add_bus(Bus("3", v_mag_min=0.9, v_mag_max=1.1))
    ys = 1.0 / (0.01 + 0.08j)
    net.add_branch(Branch("a", CommonBranch(ys)), "1", "2")
    net.add_branch(Branch("b", CommonBranch(ys)), "2", "3")
    net.add_branch(Branch("c", CommonBranch(ys)), "1", "3")
    net.add_gen(
        Gen("g1", p_min=0, p_max=300, q_min=-100, q_max=100, cost=(0, 10, 0.05)),
        "1",
    )
    net.add_gen(
        Gen("g2", p_min=0, p_max=150, q_min=-80, q_max=80, cost=(0, 20, 0.1)),
        "2",
    )
    load = Zip("ld", n_phase=1)
    load.set_wye(0, s=1.2 + 0.4j)
    net.add_zip(load, "3")
    return net


def _fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for j in range(len(x)):
        step = np.zeros_like(x)
        step[j] = eps
        g[j] = (f(x + step) - f(x - step)) / (2 * eps)
    return g


def test_eval_all_derivatives_match_finite_differences():
    net = _opf_net()
    net.branches["b"].s_max_mva = 80.0
    prob = opf_build(net)
    rng = np.random.default_rng(8)
    x = prob.x0 + 0.01 * rng.standard_normal(prob.n_var)
    res = prob.eval_all(x)

    fd_grad = _fd_grad(lambda z: prob.eval_all(z).f, x)
    np.testing.assert_allclose(res.grad, fd_grad, atol=1e-5)

    for row in range(len(res.g)):
        fd = _fd_grad(lambda z, r=row: prob.eval_all(z).g[r], x)
        np.testing.assert_allclose(res.jac_g.toarray()[row], fd, atol=1e-5)
    for row in range(len(res.h)):
        fd = _fd_grad(lambda z, r=row: prob.eval_all(z).h[r], x)
        np.testing.assert_allclose(res.jac_h.toarray()[row], fd, atol=1e-5)


def test_lagrangian_hessian_matches_finite_differences():
    net = _opf_net()
    net.branches["b"].s_max_mva = 80.0
    prob = opf_build(net)
    rng = np.random.default_rng(9)
    x = prob.x0 + 0.01 * rng.standard_normal(prob.n_var)
    res = prob.eval_all(x)
    lam = rng.standard_normal(len(res.g))
    mu = np.abs(rng.standard_normal(len(res.h)))

    def lag_grad(z):
        r = prob.eval_all(z)
        return r.grad + r.jac_g.T @ lam + r.jac_h.T @ mu

    n = prob.n_var
    fd_h = np.zeros((n, n))
    eps = 1e-6
    for j in range(n):
        step = np.zeros(n)
        step[j] = eps
        fd_h[:, j] = (lag_grad(x + step) - lag_grad(x - step)) / (2 * eps)
    fd_h = 0.5 * (fd_h + fd_h.T)
    np.testing.assert_allclose(res.hess(lam, mu).toarray(), fd_h, atol=2e-4)


def test_economic_dispatch_merit_order():
    prob = opf_build(_opf_net())
    sol = ipm_solve(prob)
    assert sol.status == "optimal"
    disp = sol.gen_dispatch()
    # the cheap unit carries most of the load
    assert disp["g1"]["P_MW"] > disp["g2"]["P_MW"]
    total = disp["g1"]["P_MW"] + disp["g2"]["P_MW"]
    assert total == pytest.approx(120.0, abs=2.0)  # load plus small losses
    assert max(kkt_residual(prob, sol).values()) <= 1e-6


def test_binding_branch_limit():
    net, _ = load_network(CASES / "case3.m")
    prob = opf_build(net)
    sol = ipm_solve(prob)
    assert sol.status == "optimal"
    assert "flow:branch_1_1_3:0" in sol.binding_constraints()
    br = net.branches["branch_1_1_3"]
    nodes, y = next((g.nodes[k], g.y[k]) for g in model_build(net).branch_groups
                    for k, b in enumerate(g.branches) if b is br)
    V = sol.node_voltages()
    vt = V[nodes]
    n0 = br.model.n_phase0
    s0 = np.sum(vt[:n0] * np.conj((y @ vt)[:n0]))
    assert abs(s0) == pytest.approx(br.s_max_mva / net.s_base_mva, abs=1e-5)


def _hold_by_hand(net):
    """Set the boxes a power flow holds on ``net`` by hand: every generator
    pinned to its solved dispatch except for the slack's P and reactive
    power at regulated buses (every generator here sits on one)."""
    for g in net.gens:
        if net.buses[g.terminal.bus_id].bus_type != "SL":
            g.p_min = g.p_max = float(g.s.real.sum())
        else:
            g.p_min, g.p_max = -np.inf, np.inf
        g.q_min, g.q_max = -np.inf, np.inf


def _second_gen_on_a_pv_bus():
    """case14 with a second generator on PV bus 2 whose setpoint is not
    the one the bus holds: the power flow holds the first one's."""
    net, _ = load_network(CASES / "case14.m")
    net.add_gen(Gen("g_extra", s=10.0 + 2.0j, p_min=0, p_max=50, q_min=-20,
                    q_max=20, v_setpoint=1.065), "2")
    return net


def _slack_setpoint_off_its_v_nom():
    """The slack generator's setpoint (1.05) is not its bus's ``v_nom``
    (1.0), at which the power flow holds the slack."""
    net = _opf_net()
    net.gens["g1"].v_setpoint = 1.05
    return net


def test_degenerate_problem_reproduces_power_flow():
    kwargs = dict(hold_power_flow=True, v_min=0.5, v_max=1.5, start="state")
    for net in (_opf_net(), load_network(CASES / "case14.m")[0],
                _second_gen_on_a_pv_bus(), _slack_setpoint_off_its_v_nom()):
        pf = solve_network(net, PfOptions(tol_pu=1e-12))
        held = opf_build(net, **kwargs)
        # the option holds what the hand-set boxes hold, to the byte
        _hold_by_hand(net)
        prob = opf_build(net, **kwargs)
        for name in ("lb", "ub", "free", "box_ub", "box_lb"):
            assert getattr(held, name).tobytes() == getattr(prob, name).tobytes(), name
        sol = ipm_solve(prob)
        assert sol.status == "optimal"
        np.testing.assert_allclose(np.abs(sol.node_voltages()), np.abs(pf.v),
                                   atol=1e-6)
        np.testing.assert_allclose(
            np.angle(sol.node_voltages()), np.angle(pf.v), atol=1e-6
        )


def test_hold_power_flow_skips_unregulated_buses():
    net = _opf_net()
    # a generator on a plain load bus is just negative load; its bus
    # voltage must stay free
    net.add_gen(Gen("aux", s=5.0, p_min=5, p_max=5, q_min=0, q_max=0), "3")
    prob = opf_build(net, hold_power_flow=True)
    iv3 = prob.iv[prob.node_index("3")]
    assert prob.lb[iv3] != prob.ub[iv3]
    iv1 = prob.iv[prob.node_index("1")]
    assert prob.lb[iv1] == prob.ub[iv1] == net.gens["g1"].v_setpoint
    # and it keeps its own Q box, while P is pinned at its output and the
    # regulated generators' Q is free
    net.gens["aux"].q_min, net.gens["aux"].q_max = -3.0, 4.0
    net.gens["aux"].p_min, net.gens["aux"].p_max = 0.0, 10.0
    prob = opf_build(net, hold_power_flow=True)
    p, q = prob.var_index("pg:aux"), prob.var_index("qg:aux")
    assert (prob.lb[p], prob.ub[p]) == (0.05, 0.05)
    assert (prob.lb[q], prob.ub[q]) == (-0.03, 0.04)
    for gid in ("g1", "g2"):
        q = prob.var_index(f"qg:{gid}")
        assert (prob.lb[q], prob.ub[q]) == (-np.inf, np.inf)
    p = prob.var_index("pg:g1")
    assert (prob.lb[p], prob.ub[p]) == (-np.inf, np.inf)


def test_inconsistent_bounds_rejected():
    net = _opf_net()
    net.gens["g1"].p_min = 10.0
    net.gens["g1"].p_max = 10.0
    net.gens["g1"].p_min = 50.0  # now p_min > p_max
    with pytest.raises(InconsistentBoundsError):
        opf_build(net)


def test_delta_loads_rejected():
    net = Network()
    net.add_bus(Bus("s", phases=(Phase.A, Phase.B, Phase.C), bus_type="SL"))
    net.add_gen(Gen("g", n_phase=3), "s")
    z = Zip("d", n_phase=3)
    z.set_delta(0, 1, s=0.1)
    net.add_zip(z, "s")
    import scipy.sparse  # noqa: F401  (ybus needs at least one stamp)

    net.add_branch(
        Branch("self", CommonBranch(1.0)), "s", "s",
        phase_map0=(Phase.A,), phase_map1=(Phase.B,),
    )
    with pytest.raises(UnsupportedLoadError):
        opf_build(net)


def test_linear_extension_constraint():
    net = _opf_net()
    ext = OpfExtension(name="policy")
    # force the expensive unit to carry at least 60 MW
    ext.linear_constraints.append(
        LinearConstraint(
            name="g2_floor", terms=[(("pg", "g2"), -1.0)], const=0.6
        )
    )
    prob = opf_build(net, extensions=(ext,))
    sol = ipm_solve(prob)
    assert sol.status == "optimal"
    assert sol.gen_dispatch()["g2"]["P_MW"] >= 60.0 - 1e-4
    base = ipm_solve(opf_build(net))
    assert sol.objective > base.objective


def test_extension_variable_with_cost():
    net = _opf_net()
    ext = OpfExtension(name="aux")
    ext.add_variable("t", lb=0.0, ub=10.0, x0=5.0, cost_lin=1.0)
    prob = opf_build(net, extensions=(ext,))
    # at tolerance eps the complementarity gap leaves the variable about
    # sqrt(eps) from its bound, so solve tightly
    sol = ipm_solve(prob, IpmOptions(tol=1e-10))
    assert sol.status == "optimal"
    # a pure-cost variable is driven to its lower bound
    assert sol.extension_value("aux", "t") == pytest.approx(0.0, abs=1e-4)


def test_callback_constraint():
    net = _opf_net()
    prob0 = opf_build(net)
    j = prob0.var_index("pg:g1")

    def value(x):
        return x[j] - 0.7

    def grad(x):
        g = np.zeros(len(x))
        g[j] = 1.0
        return g

    ext = OpfExtension(
        name="cap",
        callback_constraints=[CallbackConstraint("g1_cap", value, grad)],
    )
    prob = opf_build(net, extensions=(ext,))
    sol = ipm_solve(prob)
    assert sol.status == "optimal"
    assert sol.gen_dispatch()["g1"]["P_MW"] <= 70.0 + 1e-3


def test_voltage_slack_extension_soft_band():
    net = _opf_net()
    # an impossibly tight band is infeasible hard but solvable softly
    ext = voltage_slack_extension(net, v_min=0.999, v_max=1.0, weight=100.0)
    prob = opf_build(net, extensions=(ext,), v_min=0.5, v_max=1.5)
    sol = ipm_solve(prob)
    assert sol.status == "optimal"
    V = np.abs(sol.node_voltages())
    for i, (bid, ph) in enumerate(prob.index.nodes):
        sigma = sol.extension_value("vslack", f"s_{bid}_{ph.name}")
        assert sigma >= -1e-8
        assert V[i] <= 1.0 + sigma + 1e-6
        assert V[i] >= 0.999 - sigma - 1e-6


def test_ipm_options_validation():
    with pytest.raises(ValueError):
        IpmOptions(tol=0.0)
    with pytest.raises(ValueError):
        IpmOptions(max_iter=0)
    with pytest.raises(ValueError):
        opf_build(_opf_net(), start="hot")


@pytest.mark.parametrize(
    "case,objective",
    [("case14", 8081.53), ("case30", 802.2), ("case57", 41737.79)],
)
def test_standard_case_objectives(case, objective):
    net, _ = load_network(CASES / f"{case}.m")
    prob = opf_build(net)
    sol = ipm_solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(objective, rel=1e-3)
    assert max(kkt_residual(prob, sol).values()) <= 1e-6


def _three_phase_opf():
    """Unbalanced three-phase feeder behind a delta/wye-grounded bank.

    It carries every row family of the model: the equal-magnitude and
    angle-spacing rows of multi-phase generators (``lin_eq``), a soft
    voltage band (``lin_ineq``), a callback constraint with a Hessian, and
    a branch flow limit.
    """
    abc = (Phase.A, Phase.B, Phase.C)
    net = Network(s_base_mva=1.0)
    net.add_bus(Bus("s", phases=abc, bus_type="SL", v_mag_min=0.9, v_mag_max=1.1))
    net.add_bus(Bus("m", phases=abc, bus_type="PV", v_mag_min=0.9, v_mag_max=1.1))
    net.add_bus(Bus("l", phases=abc, v_mag_min=0.8, v_mag_max=1.2))
    bank = Transformer("delta", "wye-grounded", ratio1=clock_ratio(1) / np.sqrt(3),
                       y_leak=1.0 / (0.01 + 0.08j))
    net.add_branch(Branch("t", bank), "s", "m")
    y6 = np.zeros((6, 6), dtype=complex)
    ys = 1.0 / (0.02 + 0.1j)
    for i in range(3):
        y6[i, i] = y6[i + 3, i + 3] = ys
        y6[i, i + 3] = y6[i + 3, i] = -ys
    y6[0, 4] = y6[4, 0] = y6[1, 3] = y6[3, 1] = 0.1 * ys
    net.add_branch(Branch("ln", GenericBranch(y6, 3, 3), s_max_mva=0.9), "m", "l")
    net.add_gen(Gen("g", n_phase=3, p_min=0, p_max=3, q_min=-2, q_max=2,
                    cost=(0, 10, 0.5)), "s")
    net.add_gen(Gen("g2", n_phase=3, p_min=0, p_max=1, q_min=-1, q_max=1,
                    cost=(0, 20, 1.0)), "m")
    z = Zip("ld", n_phase=3)
    z.set_wye(0, s=0.3 + 0.1j)
    z.set_wye(1, s=0.25 + 0.08j, i=0.05 - 0.01j)
    z.set_wye(2, i=0.1 + 0.02j)
    net.add_zip(z, "l")

    vslack = voltage_slack_extension(net, v_min=0.95, v_max=1.05, weight=10.0,
                                      bus_ids=["l"])
    names = opf_build(net, extensions=(vslack,)).names
    j, a, b = (names.index(k) for k in ("pg:g2", "v:l:A", "v:l:B"))

    def value(x):
        return x[j] ** 2 + x[a] * x[b] - 1.5

    def grad(x):
        g = np.zeros(len(x))
        g[j] = 2.0 * x[j]
        g[a] = x[b]
        g[b] = x[a]
        return g

    def hess(x, mu):
        h = np.zeros((len(x), len(x)))
        h[j, j] = 2.0 * mu
        h[a, b] = h[b, a] = mu
        return h

    cap = OpfExtension(name="cap", callback_constraints=[
        CallbackConstraint("cap", value, grad, hess)])
    prob = opf_build(net, extensions=(vslack, cap))
    assert prob.lin_eq and prob.lin_ineq and prob.flow_ids
    assert prob.callback_ineq[0].hess is not None
    return prob


def test_three_phase_derivatives_match_finite_differences():
    prob = _three_phase_opf()
    rng = np.random.default_rng(12)
    x = prob.x0 + 0.02 * rng.standard_normal(prob.n_var)
    res = prob.eval_all(x)
    n = prob.n_var
    eps = 1e-6

    def fd(fn):
        cols = []
        for k in range(n):
            step = np.zeros(n)
            step[k] = eps
            cols.append((fn(x + step) - fn(x - step)) / (2 * eps))
        return np.array(cols).T

    np.testing.assert_allclose(res.grad, fd(lambda z: prob.eval_all(z).f), atol=1e-5)
    np.testing.assert_allclose(res.jac_g.toarray(),
                               fd(lambda z: prob.eval_all(z).g), atol=1e-5)
    np.testing.assert_allclose(res.jac_h.toarray(),
                               fd(lambda z: prob.eval_all(z).h), atol=1e-5)

    lam = rng.standard_normal(len(res.g))
    mu = np.abs(rng.standard_normal(len(res.h)))

    def lag_grad(z):
        r = prob.eval_all(z)
        return r.grad + r.jac_g.T @ lam + r.jac_h.T @ mu

    fd_h = fd(lag_grad)
    np.testing.assert_allclose(res.hess(lam, mu).toarray(),
                               0.5 * (fd_h + fd_h.T), atol=2e-4)


def test_flow_rows_follow_network_order_across_branch_classes():
    # the rated branches fall into two model classes (two Y-bus branch
    # groups), and the GenericBranch sits between the two CommonBranches
    net = Network(s_base_mva=100.0)
    for bus_id, kind in (("1", "SL"), ("2", "PV"), ("3", "PQ")):
        net.add_bus(Bus(bus_id, bus_type=kind, v_mag_min=0.9, v_mag_max=1.1))
    ys = 1.0 / (0.01 + 0.08j)
    net.add_branch(Branch("a", CommonBranch(ys, 0.02j, tap=0.98),
                          s_max_mva=90.0), "1", "2")
    y2 = np.array([[ys, -0.9 * ys], [-1.1 * ys, ys + 0.01j]])
    net.add_branch(Branch("g", GenericBranch(y2, 1, 1), s_max_mva=70.0), "2", "3")
    net.add_branch(Branch("b", CommonBranch(ys)), "2", "3")
    net.add_branch(Branch("c", CommonBranch(ys), s_max_mva=80.0), "1", "3")
    net.add_gen(Gen("g1", p_min=0, p_max=300, q_min=-100, q_max=100,
                    cost=(0, 10, 0.05)), "1")
    net.add_gen(Gen("g2", p_min=0, p_max=150, q_min=-80, q_max=80,
                    cost=(0, 20, 0.1)), "2")
    load = Zip("ld", n_phase=1)
    load.set_wye(0, s=1.2 + 0.4j)
    net.add_zip(load, "3")
    groups = model_build(net).branch_groups
    assert [[b.id for b in g.branches] for g in groups] == [["a", "b", "c"], ["g"]]

    prob = opf_build(net)
    assert prob.flow_ids == ["a", "g", "c"]
    base = len(prob.box_ub) + len(prob.box_lb)
    assert prob.ineq_names[base:base + 6] == [
        "flow:a:0", "flow:a:1", "flow:g:0", "flow:g:1", "flow:c:0", "flow:c:1"]

    rng = np.random.default_rng(14)
    x = prob.x0 + 0.01 * rng.standard_normal(prob.n_var)
    res = prob.eval_all(x)
    # each flow row against the branch's own admittance, side by side
    V = prob.node_voltages(prob.expand(x))
    for k, br_id in enumerate(prob.flow_ids):
        br = net.branches[br_id]
        nodes = [prob.node_index(t.bus_id) for t in br.terminals]
        i = br.model.y_matrix() @ V[nodes]
        s_max2 = (br.s_max_mva / net.s_base_mva) ** 2
        for side in (0, 1):
            s_side = V[nodes[side]] * np.conj(i[side])
            assert res.h[base + 2 * k + side] == pytest.approx(
                abs(s_side) ** 2 - s_max2, rel=1e-12, abs=1e-12)

    n = prob.n_var
    eps = 1e-6

    def fd(fn):
        cols = []
        for k in range(n):
            step = np.zeros(n)
            step[k] = eps
            cols.append((fn(x + step) - fn(x - step)) / (2 * eps))
        return np.array(cols).T

    np.testing.assert_allclose(res.jac_g.toarray(),
                               fd(lambda z: prob.eval_all(z).g), atol=1e-5)
    np.testing.assert_allclose(res.jac_h.toarray(),
                               fd(lambda z: prob.eval_all(z).h), atol=1e-5)
    lam = rng.standard_normal(len(res.g))
    mu = np.abs(rng.standard_normal(len(res.h)))

    def lag_grad(z):
        r = prob.eval_all(z)
        return r.grad + r.jac_g.T @ lam + r.jac_h.T @ mu

    fd_h = fd(lag_grad)
    np.testing.assert_allclose(res.hess(lam, mu).toarray(),
                               0.5 * (fd_h + fd_h.T), atol=2e-4)


def test_kkt_pattern_matches_dense_assembly():
    prob = _three_phase_opf()
    rng = np.random.default_rng(13)
    x = prob.x0 + 0.02 * rng.standard_normal(prob.n_var)
    res = prob.eval_all(x)
    lam = rng.standard_normal(len(res.g))
    mu = np.abs(rng.standard_normal(len(res.h)))
    sigma = np.abs(rng.standard_normal(len(res.h)))
    H = res.hess(lam, mu)
    jg, jh = res.jac_g.toarray(), res.jac_h.toarray()
    nx = prob.n_var
    dense = np.zeros((nx + len(res.g),) * 2)
    dense[:nx, :nx] = H.toarray() + jh.T @ (sigma[:, None] * jh)
    dense[:nx, nx:] = jg.T
    dense[nx:, :nx] = jg
    values = prob.kkt.values(H, res.jac_g, res.jac_h, sigma)
    np.testing.assert_allclose(prob.kkt.pattern.matrix(values).toarray(), dense,
                               atol=1e-12, rtol=1e-12)
    # both diagonals are stored, so regularization keeps the structure
    assert len(prob.kkt.diag) == nx + len(res.g)


@pytest.mark.parametrize(
    "case,iterations,objective",
    [
        ("case3", 18, 3996.335932270492),
        ("case14", 11, 8081.530236429117),
        ("case30", 13, 802.2047003999057),
        ("case57", 14, 41737.7885707136),
    ],
)
def test_standard_case_iterations_pinned(case, iterations, objective):
    # recorded with the dense KKT solve this sparse path replaced; the
    # iterates agree to round-off, so the counts must not move
    net, _ = load_network(CASES / f"{case}.m")
    sol = ipm_solve(opf_build(net), IpmOptions(tol=1e-6))
    assert sol.iterations == iterations
    assert sol.objective == pytest.approx(objective, rel=1e-8)


# -- a held problem: refresh and warm start -----------------------------------

_VALUES = ("lb", "ub", "fixed_values", "x0_full", "s_wye", "i_wye")
_STRUCTURE = ("names", "free", "box_ub", "box_lb")


def test_refresh_takes_the_values_of_a_fresh_build():
    net = _opf_net()
    # the option holds the P of every generator and the Q of g1 and g2;
    # only g3's Q box, on a PQ node, stays the network's
    net.add_gen(Gen("g3", s=10.0, q_min=-20.0, q_max=20.0), "3")
    solve_network(net)
    model = model_build(net)
    kwargs = dict(hold_power_flow=True, start="state")
    prob = opf_build(net, model=model, **kwargs)
    held = {name: np.copy(getattr(prob, name)) for name in _VALUES}

    net.zips["ld"].set_wye(0, s=1.5 + 0.5j)
    net.gens["g3"].q_max = 15.0
    solve_network(net)
    model = model_build(net)
    fresh = opf_build(net, model=model, **kwargs)
    # the caller vouches for the structure; a model of another build does
    # not carry the Y-bus the problem was built on
    assert opf_refresh(prob, net, model) is None
    model.y = prob.y
    refreshed = opf_refresh(prob, net, model)
    for name in _VALUES + _STRUCTURE:
        assert np.array_equal(getattr(refreshed, name), getattr(fresh, name)), name
    assert refreshed.kkt is prob.kkt
    # the held problem keeps its own values
    for name in _VALUES:
        assert np.array_equal(getattr(prob, name), held[name]), name

    # other extension variables change the structure, even as many with
    # the same bounds
    ext = OpfExtension(name="aux")
    ext.add_variable("t", lb=0.0, ub=1.0)
    with_ext = opf_build(net, extensions=[ext], model=model, **kwargs)
    assert opf_refresh(with_ext, net, model, [ext]) is not None
    ext.variables[0].name = "u"
    assert opf_refresh(with_ext, net, model, [ext]) is None
    # so does a variable that becomes fixed
    net.gens["g3"].q_min = net.gens["g3"].q_max
    assert opf_refresh(prob, net, model) is None
    # so does a box that turns infinite
    net.gens["g3"].q_min, net.gens["g3"].q_max = -np.inf, 15.0
    assert opf_refresh(prob, net, model) is None


def test_warm_start_rejects_a_solution_of_another_structure():
    net = _opf_net()
    sol = ipm_solve(opf_build(net))
    net.branches["b"].s_max_mva = 80.0          # two more inequality rows
    with pytest.raises(ValueError, match="another structure"):
        ipm_solve(opf_build(net), warm=sol)
    # structure is identity: a separate build of an equal-shape problem is
    # another structure too
    net.branches["b"].s_max_mva = np.inf
    with pytest.raises(ValueError, match="another structure"):
        ipm_solve(opf_build(net), warm=sol)


@pytest.mark.parametrize("case", ["case3", "case14", "case57"])
def test_warm_resolve_from_its_own_optimum_takes_two_steps(case):
    net, _ = load_network(CASES / f"{case}.m")
    prob = opf_build(net)
    sol = ipm_solve(prob)
    prob.x0_full = sol.x
    again = ipm_solve(prob, warm=sol)
    assert again.status == "optimal"
    # ``iterations`` also counts the pass that finds the point optimal and
    # takes no step; the barrier restarts at WARM_MU_B and the slacks at
    # 10·WARM_MU_B, which two Newton steps bring back to tol
    steps = [it for it in again.trace if it["alpha_p"] is not None]
    assert len(steps) <= 2
    assert again.iterations == len(steps) + 1
    # both points are optimal to tol = 1e-6, which bounds how far apart
    # their costs may sit (case3: 1.5e-6 relative)
    assert again.objective == pytest.approx(sol.objective, rel=1e-5)
    assert max(kkt_residual(prob, again).values()) <= 1e-6


# -- the kept column order ----------------------------------------------------

def test_the_first_factor_orders_and_every_later_one_keeps_it():
    # COLAMD orders a structure's first factor; every later one, in the
    # same cold solve or in a warm one, keeps that order
    net, _ = load_network(CASES / "case57.m")
    prob = opf_build(net)
    sol = ipm_solve(prob)
    steps = sol.trace[:-1]
    assert [it["kept_order"] for it in sol.trace] == \
        [False] + [True] * (len(steps) - 1) + [False]
    assert all(it["reg"] == 0.0 for it in sol.trace)
    assert all(it["factor_s"] > 0 for it in steps)
    assert sol.trace[-1]["factor_s"] == 0.0
    assert sol.factorizations == len(steps)
    assert sol.factor_s == sum(it["factor_s"] for it in steps)
    # the first factor's order is recorded on the pattern
    assert prob.kkt.pattern.perm_c is not None

    prob.x0_full = sol.x
    again = ipm_solve(prob, warm=sol)
    assert again.status == "optimal" and again.iterations >= 2
    assert all(it["kept_order"] for it in again.trace[:-1])
    assert not again.trace[-1]["kept_order"]
    assert again.factorizations == again.iterations - 1


def test_a_warm_solve_that_cannot_factor_breaks_down(monkeypatch):
    net, _ = load_network(CASES / "case14.m")
    prob = opf_build(net)
    sol = ipm_solve(prob)
    specs = []

    def singular(matrix, permc_spec="COLAMD", **kwargs):
        specs.append(permc_spec)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(NumericalBreakdownError):
        ipm_solve(prob, warm=sol)
    # every attempt, the regularized retries too, in the kept order
    assert specs == ["NATURAL"] * 6
