"""Hand-built test networks that several test modules share."""

import numpy as np

from gridsim.network import (
    Branch,
    Bus,
    CommonBranch,
    Gen,
    GenericBranch,
    Network,
    OverheadLine,
    Phase,
    Transformer,
    UndergroundCable,
    Zip,
)

ABC = (Phase.A, Phase.B, Phase.C)


def _zip_net(delta=False, const_current=True):
    net = Network()
    net.add_bus(Bus("s", phases=(Phase.A, Phase.B, Phase.C), bus_type="SL"))
    net.add_bus(Bus("l", phases=(Phase.A, Phase.B, Phase.C)))
    y6 = np.zeros((6, 6), dtype=complex)
    ys = 1.0 / (0.02 + 0.1j)
    for i in range(3):
        y6[i, i] = y6[i + 3, i + 3] = ys
        y6[i, i + 3] = y6[i + 3, i] = -ys
    net.add_branch(Branch("ln", GenericBranch(y6, 3, 3)), "s", "l")
    net.add_gen(Gen("g", n_phase=3), "s")
    z = Zip("ld", n_phase=3)
    z.set_wye(0, s=0.3 + 0.1j, y=0.05 - 0.02j)
    z.set_wye(1, s=0.25 + 0.08j)
    if const_current:
        z.set_wye(2, i=0.1 + 0.02j)
    if delta:
        z.set_delta(0, 1, s=0.2 + 0.05j)
        z.set_delta(1, 2, i=0.07)
    net.add_zip(z, "l")
    return net


def _pv_delta_net():
    """Three-phase slack, PV and load buses; delta constant-power and
    constant-current ZIP terms on the load bus and on the slack bus.  One
    PV phase has no fixed generation, so its injection is the reactive
    unknown alone."""
    net = _zip_net(delta=True)
    net.add_bus(Bus("p", phases=(Phase.A, Phase.B, Phase.C), bus_type="PV"))
    y6 = np.zeros((6, 6), dtype=complex)
    ys = 1.0 / (0.03 + 0.12j)
    for i in range(3):
        y6[i, i] = y6[i + 3, i + 3] = ys
        y6[i, i + 3] = y6[i + 3, i] = -ys
    net.add_branch(Branch("lp", GenericBranch(y6, 3, 3)), "l", "p")
    net.add_gen(Gen("gp", n_phase=3, s=[0.2, 0.0, 0.1], v_setpoint=1.01), "p")
    z = Zip("ds", n_phase=3)
    z.set_delta(0, 2, s=0.1 + 0.02j, i=0.03)
    net.add_zip(z, "s")
    return net


def _mixed_net():
    """Three-phase feeder with every branch class: lines with and without a
    neutral, a cable, delta/wye-grounded and ungrounded-wye banks, a
    single-phase tapped branch, a generic 3-to-1 branch; wye and delta ZIP
    admittances; out-of-service branches and ZIPs of each kind."""
    net = Network(s_base_mva=1.0)
    for name, v_base in (("s", 11e3), ("a", 11e3), ("b", 11e3), ("c", 11e3),
                         ("t", 400.0), ("u", 400.0)):
        net.add_bus(Bus(name, phases=ABC, v_base=v_base,
                        bus_type="SL" if name == "s" else "PQ"))
    net.add_bus(Bus("x", phases=(Phase.A, Phase.C), v_base=400.0))
    z3 = np.array([[0.35 + 0.8j, 0.05 + 0.3j, 0.05 + 0.25j],
                   [0.05 + 0.3j, 0.36 + 0.8j, 0.05 + 0.3j],
                   [0.05 + 0.25j, 0.05 + 0.3j, 0.34 + 0.8j]])
    z4 = np.pad(z3, (0, 1)) + np.diag([0, 0, 0, 0.4 + 0.9j])
    z4[3, :3] = z4[:3, 3] = 0.05 + 0.28j
    b3 = 3e-6j * (np.eye(3) * 2.0 - 0.3)
    net.add_branch(Branch("l1", OverheadLine(z4, 2.0, n_neutral=1)), "s", "a")
    net.add_branch(Branch("l2", OverheadLine(z3, 1.2, b3)), "a", "b")
    net.add_branch(Branch("l3", OverheadLine(z3, 0.7)), "b", "c")
    net.add_branch(Branch("c1", UndergroundCable(z3 * 0.4, 0.9, b3 * 20)), "a", "c")
    off = net.add_branch(Branch("l4", OverheadLine(z3, 3.0)), "s", "c")
    off.in_service = False
    net.add_branch(Branch("t1", Transformer(
        "delta", "wye-grounded", ratio0=1.0, ratio1=np.exp(-1j * np.pi / 6),
        y_leak=1.0 / (0.01 + 0.06j), y_mag=0.002 - 0.01j)), "b", "t")
    net.add_branch(Branch("t2", Transformer(
        "wye", "wye-grounded", ratio0=1.02, y_leak=1.0 / (0.02 + 0.05j))),
        "c", "u")
    off = net.add_branch(Branch("t3", Transformer("delta", "delta")), "b", "u")
    off.in_service = False
    net.add_branch(Branch("p1", CommonBranch(
        1.0 / (0.02 + 0.04j), 0.01j, tap=0.98, phase_shift_deg=-2.5)),
        "t", "u", phase_map0=("B",), phase_map1=("B",))
    off = net.add_branch(Branch("p2", CommonBranch(3.0 - 9.0j)), "t", "u",
                         phase_map0=("A",), phase_map1=("A",))
    off.in_service = False
    y4 = np.arange(16, dtype=float).reshape(4, 4) * (0.1 - 0.3j)
    y4[0, 1] = 0.0
    net.add_branch(Branch("g1", GenericBranch(y4 + y4.T, 3, 1)), "u", "x",
                   phase_map1=("C",))
    wye = Zip("zw", n_phase=3)
    wye.set_wye(0, y=0.3 - 0.1j)
    wye.set_wye(2, y=0.2 - 0.05j)
    net.add_zip(wye, "t")
    delta = Zip("zd", n_phase=3)
    delta.set_delta(0, 1, y=0.4 - 0.2j)
    delta.set_delta(1, 2, y=0.1 + 0.3j)
    delta.set_wye(1, y=0.05)
    net.add_zip(delta, "u")
    pair = Zip("zp", n_phase=2)
    pair.set_delta(0, 1, y=0.25 - 0.1j)
    net.add_zip(pair, "x")
    off = Zip("zo", n_phase=3, in_service=False)
    off.set_wye(0, y=1.0)
    net.add_zip(off, "c")
    return net


def _loaded_mixed_net():
    """``_mixed_net`` with generators, and constant-power and
    constant-current terms (wye and delta, on shared nodes, through a
    reordered phase map) beside its ZIP admittances."""
    net = _mixed_net()
    net.add_gen(Gen("gs", n_phase=3), "s")
    net.add_gen(Gen("gt", n_phase=2, s=[0.02 + 0.01j, 0.015]), "t",
                phase_map=("C", "A"))
    net.add_gen(Gen("gu", n_phase=3, s=0.01, in_service=False), "u")
    net.buses["a"].bus_type = "PV"
    net.add_gen(Gen("ga", n_phase=3, s=[0.03, 0.02, 0.025], v_setpoint=1.01), "a")
    net.add_gen(Gen("ga2", n_phase=1, s=0.01 - 0.004j, v_setpoint=0.99), "a",
                phase_map=("B",))
    net.zips["zw"].set_wye(0, s=0.02 + 0.01j, i=0.01 - 0.004j)
    net.zips["zw"].set_wye(1, s=0.015 + 0.005j)
    net.zips["zd"].set_delta(0, 1, s=0.01 + 0.003j)
    net.zips["zd"].set_delta(1, 2, i=0.006 - 0.001j)
    net.zips["zd"].set_delta(0, 2, s=0.004 + 0.002j, i=0.003)
    net.zips["zd"].set_wye(2, s=0.007 + 0.001j, i=0.002j)
    net.zips["zp"].set_delta(0, 1, s=0.004 + 0.001j, i=0.002)
    net.zips["zo"].set_wye(1, s=5.0, i=1.0)
    again = Zip("zw2", n_phase=3)
    again.set_wye(0, s=0.01 + 0.02j)
    again.set_delta(2, 0, s=0.003 - 0.001j)
    net.add_zip(again, "t", phase_map=("B", "C", "A"))
    net.buses["u"].v = net.buses["u"].v * 0.97
    return net
