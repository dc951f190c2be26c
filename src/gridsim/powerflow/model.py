"""Flattened solver model: nodes, partition, and injection parameters."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ..network import BranchGroup, Network, NodeIndex


class NoSlackInIslandError(ValueError):
    pass


class ZeroVoltageError(ZeroDivisionError):
    pass


SL, PV, PQ = 0, 1, 2
_TYPE_CODE = {"SL": SL, "PV": PV, "PQ": PQ}


@dataclass
class PfOptions:
    """Newton settings.

    ``start="flat"`` begins at the nominal angles, with unit magnitude at
    PQ nodes and the setpoint magnitude at PV nodes.  ``start="warm"``
    begins at the network's bus voltages as they were when the model was
    built (``PowerFlowModel.v_state``), so re-solving a solved network
    starts at its answer; slack nodes still start at their setpoint, and
    a node whose state voltage is 0 takes its flat-start value.
    """

    tol_pu: float = 1e-8
    max_iter: int = 50
    start: str = "flat"  # flat | warm

    def __post_init__(self):
        if self.tol_pu <= 0:
            raise ValueError("tol_pu must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.start not in ("flat", "warm"):
            raise ValueError(f"unknown start mode {self.start!r}")


@dataclass
class PowerFlowModel:
    y: sp.csr_matrix
    index: NodeIndex
    node_type: np.ndarray          # int codes SL/PV/PQ per node
    s_g: np.ndarray                # fixed complex gen injection per node (pu)
    v_sl: np.ndarray               # slack complex voltage per node (nonzero at SL)
    v_set_pv: np.ndarray           # PV magnitude setpoint per node
    s_wye: np.ndarray              # constant-power wye component per node (pu)
    i_wye: np.ndarray              # constant-current wye component per node (pu)
    v_nom: np.ndarray              # nominal complex voltage per node (pu)
    v_state: np.ndarray            # bus voltages when built (pu): the warm start
    s_base_mva: float
    # Directed delta entries: entry j couples node di[j] to node dk[j].
    di: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    dk: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    ds: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    dc: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    # In-service, connected generators in network order, and the node of
    # each of their phase slots (the gens' slots concatenated).
    gens: list = field(default_factory=list)
    gen_node: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # The same for in-service, connected ZIPs.
    zips: list = field(default_factory=list)
    zip_node: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # The branch groups ``y`` was stamped from (see Network.ybus).
    branch_groups: list[BranchGroup] = field(default_factory=list)

    @property
    def n_node(self) -> int:
        return len(self.node_type)

    def partition_counts(self) -> dict[str, int]:
        return {
            "SL": int(np.sum(self.node_type == SL)),
            "PV": int(np.sum(self.node_type == PV)),
            "PQ": int(np.sum(self.node_type == PQ)),
        }


def model_build(net: Network) -> PowerFlowModel:
    """Assemble the power-flow model from a network.

    PV nodes are gen buses holding a voltage magnitude setpoint; gen buses
    without an in-service generator fall back to PQ.  Every electrical
    island must contain at least one slack node.
    """
    y, index, branch_groups = net.ybus()
    n = len(index)
    node_type = np.full(n, PQ, dtype=int)
    v_sl = np.zeros(n, dtype=complex)
    v_nom = np.zeros(n, dtype=complex)

    gens = [g for g in net.gens if g.in_service and g.terminal.connected]
    gen_node = np.array(
        [node for g in gens for node in index.terminal_nodes(g.terminal)],
        dtype=int,
    )
    zips = [z for z in net.zips if z.in_service and z.terminal.connected]
    zip_node = np.array(
        [node for z in zips for node in index.terminal_nodes(z.terminal)],
        dtype=int,
    )
    regulated = {g.terminal.bus_id for g in gens}
    for bus in net.buses:
        sl = index.bus_nodes(bus.id)
        v_nom[sl] = bus.v_nom
        code = _TYPE_CODE[bus.bus_type] if bus.id in regulated else PQ
        node_type[sl] = code
        if code == SL:
            v_sl[sl] = bus.v_nom

    _check_islands(y, node_type, index)

    return PowerFlowModel(
        y=y,
        index=index,
        node_type=node_type,
        v_sl=v_sl,
        v_nom=v_nom,
        s_base_mva=net.s_base_mva,
        gens=gens,
        gen_node=gen_node,
        zips=zips,
        zip_node=zip_node,
        branch_groups=branch_groups,
        **_injections(net, index, node_type, gens, gen_node, zips, zip_node),
    )


def model_refresh(model: PowerFlowModel, net: Network) -> PowerFlowModel | None:
    """``model`` with the injection values and state voltages of ``net``.

    The structure (Y-bus, node index, node types, generators, ZIPs, branch
    groups and delta entries) is taken from ``model`` unchanged and
    shared; every value array is new, so ``model`` itself is left as it
    was.  The caller vouches that nothing structural changed since
    ``model`` was built.  Returns None when the set of delta entries,
    which fixes the Jacobian pattern, has changed (a delta term became or
    stopped being zero): the model must then be rebuilt with
    :func:`model_build`.
    """
    fresh = _injections(net, model.index, model.node_type, model.gens,
                        model.gen_node, model.zips, model.zip_node)
    if not (np.array_equal(fresh["di"], model.di)
            and np.array_equal(fresh["dk"], model.dk)):
        return None
    fresh["di"], fresh["dk"] = model.di, model.dk
    return replace(model, **fresh)


def _injections(net: Network, index: NodeIndex, node_type: np.ndarray,
                gens: list, gen_node: np.ndarray, zips: list,
                zip_node: np.ndarray) -> dict:
    """The value fields of a model: injections, setpoints, state voltages.

    Delta entries are kept where a power or current term is nonzero.
    """
    n = len(node_type)
    s_g = np.zeros(n, dtype=complex)
    v_set_pv = np.ones(n, dtype=float)
    s_wye = np.zeros(n, dtype=complex)
    i_wye = np.zeros(n, dtype=complex)

    # a regulated bus takes the setpoint of its first generator
    setpoint: dict[str, float] = {}
    for gen in gens:
        setpoint.setdefault(gen.terminal.bus_id, gen.v_setpoint)
    for node in (node_type == PV).nonzero()[0]:
        v_set_pv[node] = setpoint[index.nodes[node][0]]

    if gens:
        slot_s = np.concatenate([g.s for g in gens]) / net.s_base_mva
        np.add.at(s_g, gen_node, slot_s)

    di = dk = np.zeros(0, dtype=int)
    ds = dc = np.zeros(0, dtype=complex)
    if zips:
        # every ZIP's (m+1)x(m+1) term matrices, flattened end to end; per
        # phase slot: its ZIP, its row in that ZIP and the flat position of
        # its wye entry (row, 0)
        m = np.array([z.n_phase for z in zips])
        size = (m + 1) ** 2
        s_all = np.concatenate([z.s_const.ravel() for z in zips])
        i_all = np.concatenate([z.i_const.ravel() for z in zips])
        zip_of = np.repeat(np.arange(len(zips)), m)
        slot = np.arange(len(zip_of)) - (np.cumsum(m) - m)[zip_of]
        wye = (np.cumsum(size) - size)[zip_of] + (slot + 1) * (m + 1)[zip_of]
        # np.add.at adds in index order: the slots' order in the network
        np.add.at(s_wye, zip_node, s_all[wye])
        np.add.at(i_wye, zip_node, i_all[wye])
        # each slot paired with every slot k of its ZIP, row-major as the
        # entries (row, k+1) lie; the diagonal and all-zero pairs drop out
        width = m[zip_of]
        row = np.repeat(np.arange(len(zip_of)), width)
        k = np.arange(len(row)) - np.repeat(np.cumsum(width) - width, width)
        pos = wye[row] + 1 + k
        keep = (k != slot[row]) & ((s_all[pos] != 0.0) | (i_all[pos] != 0.0))
        row, pos = row[keep], pos[keep]
        di = zip_node[row]
        dk = zip_node[row - slot[row] + k[keep]]
        ds, dc = s_all[pos], i_all[pos]

    # node order is bus order, then phase order within a bus
    v_state = np.concatenate([np.zeros(0, complex)] + [b.v for b in net.buses])
    return dict(
        s_g=s_g,
        v_set_pv=v_set_pv,
        s_wye=s_wye,
        i_wye=i_wye,
        v_state=v_state,
        di=di,
        dk=dk,
        ds=ds,
        dc=dc,
    )


def _check_islands(y: sp.csr_matrix, node_type: np.ndarray, index: NodeIndex):
    n = y.shape[0]
    structure = sp.csr_matrix(
        (np.ones(len(y.data)), y.indices, y.indptr), shape=(n, n)
    )
    n_comp, labels = connected_components(structure, directed=False)
    for comp in range(n_comp):
        members = np.flatnonzero(labels == comp)
        if not np.any(node_type[members] == SL):
            names = [f"{b}:{p.name}" for b, p in (index.nodes[i] for i in members[:5])]
            raise NoSlackInIslandError(
                f"island containing nodes {names} has no slack bus"
            )
