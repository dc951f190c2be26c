import numpy as np
import pytest

import scipy.sparse as sp

from gridsim.network import (
    Branch,
    Bus,
    CommonBranch,
    Gen,
    GenericBranch,
    Network,
    NetworkModelError,
    OverheadLine,
    Phase,
    PhaseNotOnBusError,
    Terminal,
    TerminalIndexError,
    UnconnectedTerminalError,
    UnknownIdError,
    Zip,
)
from gridsim.parsers import case_to_network, load_case, load_network

from conftest import CASES
from networks import ABC, _mixed_net


def _two_bus_net():
    net = Network(s_base_mva=10.0)
    net.add_bus(Bus("b0", phases=ABC, bus_type="SL"))
    net.add_bus(Bus("b1", phases=ABC))
    return net


def test_node_index_ordering():
    net = Network()
    net.add_bus(Bus("x", phases=(Phase.C, Phase.A)))
    net.add_bus(Bus("y", phases=(Phase.BAL,)))
    idx = net.node_index()
    # bus insertion order, canonical phase order within each bus
    assert idx.nodes == [("x", Phase.A), ("x", Phase.C), ("y", Phase.BAL)]
    assert idx.index("x", Phase.C) == 1
    assert idx.bus_nodes("y") == slice(2, 3)
    assert len(idx) == 3


def test_duplicate_bus_and_unknown_ids():
    net = Network()
    net.add_bus(Bus("b"))
    from gridsim.core import DuplicateKeyError

    with pytest.raises(DuplicateKeyError):
        net.add_bus(Bus("b"))
    with pytest.raises(UnknownIdError):
        net.connect_terminal(Gen("g"), 0, "nope")
    with pytest.raises(UnknownIdError):
        net.find_device("nothing")


def test_connect_terminal_validation():
    net = _two_bus_net()
    br = net.add_branch(Branch("ln", GenericBranch(np.eye(6), 3, 3)))
    with pytest.raises(TerminalIndexError):
        net.connect_terminal(br, 2, "b0")
    gen = net.add_gen(Gen("g", n_phase=1))
    with pytest.raises(TerminalIndexError):
        net.connect_terminal(gen, 1, "b0")
    with pytest.raises(NetworkModelError):
        net.connect_terminal(br, 0, "b0", phase_map=(Phase.A,))  # wrong arity
    with pytest.raises(PhaseNotOnBusError):
        net.connect_terminal(gen, 0, "b0", phase_map=(Phase.N,))
    # default map follows the bus phase order
    net.connect_terminal(br, 0, "b0")
    assert br.terminals[0].phase_map == ABC
    # string ids and string phases are accepted
    net.connect_terminal("g", 0, "b1", phase_map=("b",))
    assert gen.terminal.bus_id == "b1"
    assert gen.terminal.phase_map == (Phase.B,)


def test_connect_terminal_rejects_repeated_phase():
    # two slots on one bus phase would stamp both onto one node
    net = _two_bus_net()
    gen = net.add_gen(Gen("g", n_phase=2))
    with pytest.raises(NetworkModelError, match="twice"):
        net.connect_terminal(gen, 0, "b0", phase_map=("A", "A"))
    assert not gen.terminal.connected
    br = net.add_branch(Branch("ln", GenericBranch(np.eye(6), 3, 3)))
    with pytest.raises(NetworkModelError, match="twice"):
        net.connect_terminal(br, 1, "b1", phase_map=("A", "B", "B"))
    with pytest.raises(NetworkModelError, match="twice"):
        net.add_zip(Zip("z", n_phase=2), "b1", phase_map=("C", "C"))


@pytest.mark.parametrize("field", ["bus_id", "phase_map"])
def test_a_terminal_cannot_be_changed(field):
    # devices share terminals, so a write into one would move them all
    net = _two_bus_net()
    gen = net.add_gen(Gen("g", n_phase=3), "b0")
    for terminal in (gen.terminal, Gen("open").terminal):
        with pytest.raises(AttributeError, match="cannot be changed"):
            setattr(terminal, field, "b1" if field == "bus_id" else ABC)
    assert (gen.terminal.bus_id, gen.terminal.phase_map) == ("b0", ABC)


def test_reconnecting_a_device_leaves_the_others_where_they_were():
    net = _two_bus_net()
    br = net.add_branch(Branch("ln", GenericBranch(np.eye(6), 3, 3)), "b0", "b1")
    gen = net.add_gen(Gen("g", n_phase=3), "b1")
    zip_ = net.add_zip(Zip("z", n_phase=3), "b1")
    # a map onto all of a bus's phases in order is the bus's own terminal
    assert gen.terminal is zip_.terminal is br.terminals[1]
    net.connect_terminal(gen, 0, "b0")
    assert gen.terminal is br.terminals[0]
    assert (zip_.terminal.bus_id, zip_.terminal.phase_map) == ("b1", ABC)
    assert [t.bus_id for t in br.terminals] == ["b0", "b1"]
    net.connect_terminal(br, 1, "b0")
    assert [t.bus_id for t in br.terminals] == ["b0", "b0"]
    assert zip_.terminal.bus_id == "b1" and gen.terminal.bus_id == "b0"
    # unconnected devices share one open terminal, which nothing moves
    open_gen, open_zip = net.add_gen(Gen("g2")), net.add_zip(Zip("z2"))
    assert open_gen.terminal is open_zip.terminal
    net.connect_terminal(open_gen, 0, "b0", phase_map=("A",))
    assert not open_zip.terminal.connected


@pytest.mark.parametrize("phase_map", [("A",), ("C", "B", "A"), ("A", "B")])
def test_a_partial_or_reordered_phase_map_gets_its_own_terminal(phase_map):
    net = _two_bus_net()
    gen = net.add_gen(Gen("g", n_phase=len(phase_map)), "b0", phase_map)
    other = net.add_gen(Gen("h", n_phase=len(phase_map)), "b0", phase_map)
    assert gen.terminal is not other.terminal
    assert gen.terminal is not net.buses["b0"].terminal
    assert gen.terminal.phase_map == tuple(Phase[p] for p in phase_map)


def test_a_matpower_network_holds_at_most_one_terminal_per_bus(monkeypatch):
    # every device of a single-phase case is wired onto its bus's one phase
    case = load_case(CASES / "case57.m")
    made = []
    init = Terminal.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Terminal, "__init__", counting)
    net = case_to_network(case)
    assert 0 < len(made) <= case.n_bus
    assert len({id(b.phases) for b in net.buses}) == 1


@pytest.mark.parametrize("n_phase", [0, -1])
def test_a_generator_needs_a_phase(n_phase):
    # a phaseless generator would pass a power flow and break the OPF build
    with pytest.raises(NetworkModelError, match="g0: needs at least one phase"):
        Gen("g0", n_phase=n_phase)


def test_ybus_single_phase_line():
    net = Network()
    net.add_bus(Bus("s", bus_type="SL"))
    net.add_bus(Bus("l"))
    ys = 1.0 / (0.01 + 0.1j)
    net.add_branch(Branch("ln", CommonBranch(ys, y_shunt=0.02j)), "s", "l")
    y, idx, _, _ = net.ybus()
    dense = y.toarray()
    np.testing.assert_allclose(dense[0, 0], ys + 0.01j)
    np.testing.assert_allclose(dense[0, 1], -ys)
    np.testing.assert_allclose(dense[1, 1], ys + 0.01j)


def test_ybus_requires_connected_branch_terminals():
    net = _two_bus_net()
    net.add_branch(Branch("ln", GenericBranch(np.eye(6), 3, 3)), "b0")
    with pytest.raises(UnconnectedTerminalError):
        net.ybus()


def test_ybus_requires_connected_devices():
    net = Network()
    net.add_bus(Bus("b"))
    net.add_gen(Gen("g"))
    with pytest.raises(UnconnectedTerminalError):
        net.ybus()
    net2 = Network()
    net2.add_bus(Bus("b"))
    net2.add_zip(Zip("z"))
    with pytest.raises(UnconnectedTerminalError):
        net2.ybus()
    # out-of-service devices are skipped
    net.gens["g"].in_service = False
    net.ybus()


def test_ybus_zip_stamping():
    net = Network()
    net.add_bus(Bus("b", phases=ABC))
    z = Zip("ld", n_phase=3)
    z.set_wye(0, y=2.0 - 1.0j)
    z.set_delta(1, 2, y=0.5 + 0.25j)
    net.add_zip(z, "b")
    y = net.ybus()[0].toarray()
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 0] = 2.0 - 1.0j
    ypp = 0.5 + 0.25j
    expect[1, 1] += ypp
    expect[2, 2] += ypp
    expect[1, 2] = expect[2, 1] = -ypp
    np.testing.assert_allclose(y, expect)


def test_ybus_phase_map_permutation():
    # swapping wires via the phase map must permute the stamp accordingly
    y6 = np.arange(36, dtype=float).reshape(6, 6) + 1j
    net = _two_bus_net()
    net.add_branch(
        Branch("ln", GenericBranch(y6, 3, 3)),
        "b0",
        "b1",
        phase_map0=(Phase.B, Phase.A, Phase.C),
    )
    y = net.ybus()[0].toarray()
    perm = [1, 0, 2, 3, 4, 5]
    expect = np.zeros((6, 6), dtype=complex)
    for a in range(6):
        for b in range(6):
            expect[perm[a], perm[b]] += y6[a, b]
    np.testing.assert_allclose(y, expect)


def test_branch_y_pu_physical_units():
    z = np.array([[0.2 + 0.8j]])
    net = Network(s_base_mva=10.0)
    net.add_bus(Bus("a", phases=(Phase.A,), v_base=11e3))
    net.add_bus(Bus("b", phases=(Phase.A,), v_base=11e3))
    br = net.add_branch(Branch("ln", OverheadLine(z, 2.0)), "a", "b")
    zb = 11e3**2 / 10e6
    (group,) = net.ybus()[2]
    assert group.branches == [br]
    ypu = group.y[0]
    np.testing.assert_allclose(ypu[0, 0], zb / (z[0, 0] * 2.0))


def test_branch_y_pu_mismatched_bases_rejected():
    z = np.array([[0.2 + 0.8j]])
    net = Network(s_base_mva=10.0)
    net.add_bus(Bus("a", phases=(Phase.A,), v_base=11e3))
    net.add_bus(Bus("b", phases=(Phase.A,), v_base=400.0))
    br = net.add_branch(Branch("ln", OverheadLine(z, 2.0)), "a", "b")
    with pytest.raises(NetworkModelError):
        net.ybus()
    net.add_branch(Branch("ln2", OverheadLine(z, 2.0)), "a")
    with pytest.raises(UnconnectedTerminalError):
        net.ybus()


def test_out_of_service_branch_skipped():
    net = Network()
    net.add_bus(Bus("s", bus_type="SL"))
    net.add_bus(Bus("l"))
    br = net.add_branch(Branch("ln", CommonBranch(5.0)), "s", "l")
    br.in_service = False
    assert net.ybus()[0].nnz == 0


def test_to_json_dict_shape():
    net = Network()
    net.add_bus(Bus("s", bus_type="SL"))
    net.add_bus(Bus("l"))
    net.add_branch(Branch("ln", CommonBranch(5.0)), "s", "l")
    net.add_gen(Gen("g"), "s")
    d = net.to_json_dict()
    assert [b["id"] for b in d["buses"]] == ["s", "l"]
    assert d["branches"][0]["bus0"] == "s"
    assert d["nodes"] == [["s", "BAL"], ["l", "BAL"]]
    assert all(len(t) == 4 for t in d["ybus_triplets"])


def _ybus_entry_loop(net):
    """Reference Y-bus: every nonzero entry of every branch block and ZIP
    term stamped one at a time, in network order."""
    index = net.node_index()
    rows, cols, vals = [], [], []

    def stamp(i, k, y):
        rows.append(i)
        cols.append(k)
        vals.append(y)

    for branch in net.branches:
        if not branch.in_service:
            continue
        y = branch.model.y_matrix()
        if branch.model.physical_units:
            v_base = net.buses[branch.terminals[0].bus_id].v_base
            y = y * (v_base**2 / (net.s_base_mva * 1e6))
        gidx = index.terminal_nodes(branch.terminals[0])
        gidx += index.terminal_nodes(branch.terminals[1])
        for a, ga in enumerate(gidx):
            for b, gb in enumerate(gidx):
                if y[a, b] != 0.0:
                    stamp(ga, gb, y[a, b])
    for zip_ in net.zips:
        if not zip_.in_service:
            continue
        gidx = index.terminal_nodes(zip_.terminal)
        yc = zip_.y_const
        m = zip_.n_phase
        for i in range(m):
            if yc[i + 1, 0] != 0.0:
                stamp(gidx[i], gidx[i], yc[i + 1, 0])
            for k in range(i + 1, m):
                y_pp = yc[i + 1, k + 1]
                if y_pp != 0.0:
                    stamp(gidx[i], gidx[i], y_pp)
                    stamp(gidx[k], gidx[k], y_pp)
                    stamp(gidx[i], gidx[k], -y_pp)
                    stamp(gidx[k], gidx[i], -y_pp)
    n = len(index)
    return sp.coo_matrix(
        (np.asarray(vals, complex), (rows, cols)), shape=(n, n)
    ).tocsr()


@pytest.mark.parametrize("case", ["case3", "case14", "case30", "case57", "mixed"])
def test_ybus_matches_entry_loop(case):
    net = _mixed_net() if case == "mixed" else load_network(CASES / f"{case}.m")[0]
    y = net.ybus()[0]
    ref = _ybus_entry_loop(net)
    np.testing.assert_array_equal(y.indptr, ref.indptr)
    np.testing.assert_array_equal(y.indices, ref.indices)
    scale = np.abs(ref.data).max()
    np.testing.assert_allclose(y.data, ref.data, rtol=1e-13, atol=1e-13 * scale)
