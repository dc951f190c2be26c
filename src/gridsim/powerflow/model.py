"""Flattened solver model: nodes, partition, and injection parameters."""

from __future__ import annotations

from dataclasses import dataclass, replace

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
class InjectionPlan:
    """Where the injection values of a model sit in its network: the
    refresh plan.

    It is structure, built once by :func:`model_build` from the node
    index, the node types and the in-service, connected generators and
    ZIPs; :func:`model_refresh` only gathers values at these positions and
    scatters them onto the nodes, and :func:`~gridsim.powerflow.apply_solution`
    writes generation back through it.

    A ZIP's term matrices are laid end to end, each flattened row-major,
    as one flat array per kind (``s_const``, ``i_const``): ``zip_wye`` is
    the flat position of each ZIP phase slot's wye entry (row slot+1,
    column 0), and the delta candidates are every pair of distinct slots
    of one ZIP, row-major as the entries (row, k+1) lie.  The candidates
    with a nonzero power or current term when the model was built
    (``delta_keep``) are its delta entries; they fix the Jacobian pattern.
    """

    zips: list                     # in-service, connected ZIPs, network order
    zip_node: np.ndarray           # node of each of their phase slots
    zip_wye: np.ndarray            # flat position of each slot's wye entry
    delta_pos: np.ndarray          # flat position of each delta candidate
    delta_i: np.ndarray            # node of its row slot
    delta_k: np.ndarray            # node of its column slot
    delta_keep: np.ndarray         # bool: candidate is a delta entry
    pv_node: np.ndarray            # PV nodes
    pv_gen: np.ndarray             # gen whose setpoint each holds (in gens)
    # The generators a solution sets (those on slack and PV nodes), the
    # node of each of their phase slots, the number of generator slots on
    # that node, whether it is a slack node, and each generator's slots in
    # that list.
    set_gens: list
    set_node: np.ndarray
    set_count: np.ndarray
    set_slack: np.ndarray
    set_slots: list[slice]


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
    di: np.ndarray
    dk: np.ndarray
    ds: np.ndarray
    dc: np.ndarray
    # In-service, connected generators in network order, and the node of
    # each of their phase slots (the gens' slots concatenated).
    gens: list
    gen_node: np.ndarray
    # The branch groups ``y`` was stamped from (see Network.ybus).
    branch_groups: list[BranchGroup]
    plan: InjectionPlan            # the refresh plan (structure)

    @property
    def n_node(self) -> int:
        return len(self.node_type)


def model_build(net: Network) -> PowerFlowModel:
    """Assemble the power-flow model from a network.

    A PV or slack bus regulates the nodes its in-service generators
    serve; its other nodes, and every node of a bus without such a
    generator, are PQ.  A PV node holds the magnitude setpoint of the
    first generator serving it, a slack node its bus's ``v_nom``.  Every
    electrical island must contain at least one slack node.
    """
    y, index, branch_groups, zip_node = net.ybus()
    n = len(index)
    node_type = np.full(n, PQ, dtype=int)
    gens = [g for g in net.gens if g.in_service and g.terminal.connected]
    gen_node = index.gather([g.terminal for g in gens])
    buses = net.buses
    node_type[gen_node] = np.repeat(
        np.array([_TYPE_CODE[buses[g.terminal.bus_id].bus_type] for g in gens], int),
        [len(g.terminal.phase_map) for g in gens])
    # node order is bus order, then phase order within a bus
    v_nom = np.concatenate([np.zeros(0, complex)] + [b.v_nom for b in buses])
    v_sl = np.where(node_type == SL, v_nom, 0.0)
    mag = np.abs(v_sl)
    bad = (node_type == SL) & ~((mag > 0.0) & (mag < np.inf))
    if bad.any():
        bus, phase = index.nodes[int(bad.argmax())]
        raise ValueError(f"slack node {bus}:{phase.name} has voltage magnitude "
                         f"{mag[bad][0]}, which must be positive and finite")

    _check_islands(y, node_type, index)

    plan = _plan(net, node_type, gens, gen_node, zip_node)
    terms, plan.delta_keep = _zip_terms(plan, n)
    return PowerFlowModel(
        y=y,
        index=index,
        node_type=node_type,
        v_sl=v_sl,
        v_nom=v_nom,
        s_base_mva=net.s_base_mva,
        di=plan.delta_i[plan.delta_keep],
        dk=plan.delta_k[plan.delta_keep],
        gens=gens,
        gen_node=gen_node,
        branch_groups=branch_groups,
        plan=plan,
        **terms,
        **_generation(net, gens, gen_node, plan, n),
    )


def model_refresh(model: PowerFlowModel, net: Network) -> PowerFlowModel | None:
    """``model`` with the injection values and state voltages of ``net``.

    The structure (Y-bus, node index, node types, generators, branch
    groups, delta entries and the refresh plan) is taken from ``model``
    unchanged and shared; every value array is new, so ``model`` itself is
    left as it was.  The values are gathered through ``model.plan``.  The
    caller vouches that nothing structural changed since ``model`` was
    built.  Returns None when the set of delta entries, which fixes the
    Jacobian pattern, has changed (a delta term became or stopped being
    zero): the model must then be rebuilt with :func:`model_build`.
    """
    terms, keep = _zip_terms(model.plan, model.n_node)
    if not np.array_equal(keep, model.plan.delta_keep):
        return None
    return replace(model, **terms, **_generation(
        net, model.gens, model.gen_node, model.plan, model.n_node))


def generation_refresh(model: PowerFlowModel, net: Network) -> PowerFlowModel:
    """``model`` with the generation, setpoints and state voltages of
    ``net``: a :func:`model_refresh` that gathers no ZIP term.

    ``s_g``, ``v_set_pv`` and ``v_state`` are new arrays; the ZIP terms
    (``s_wye``, ``i_wye``, ``ds``, ``dc``) and the delta entries are
    shared with ``model`` along with its structure.  The caller vouches
    that no ZIP term changed since ``model`` was built or refreshed: only
    generator outputs, setpoints or bus voltages did.
    """
    return replace(model, **_generation(net, model.gens, model.gen_node,
                                        model.plan, model.n_node))


def _plan(net: Network, node_type: np.ndarray, gens: list,
          gen_node: np.ndarray, zip_node: np.ndarray) -> InjectionPlan:
    """The refresh plan of a model's structure, but for ``delta_keep``,
    which :func:`model_build` sets from the values.  ``zip_node`` is the
    node of each phase slot of the in-service ZIPs (see Network.ybus)."""
    empty = np.zeros(0, dtype=int)
    zips = [z for z in net.zips if z.in_service]
    wye = pos = di = dk = empty
    if zips:
        # per phase slot: its ZIP, its row in that ZIP and the flat
        # position of its wye entry (row, 0)
        m = np.array([z.n_phase for z in zips])
        size = (m + 1) ** 2
        zip_of = np.arange(len(zips)).repeat(m)
        slot = np.arange(len(zip_of)) - (m.cumsum() - m)[zip_of]
        wye = (size.cumsum() - size)[zip_of] + (slot + 1) * (m + 1)[zip_of]
        # each slot paired with every other slot k of its ZIP
        width = m[zip_of]
        row = np.arange(len(zip_of)).repeat(width)
        k = np.arange(len(row)) - (width.cumsum() - width).repeat(width)
        pair = k != slot[row]
        row, k = row[pair], k[pair]
        pos = wye[row] + 1 + k
        di = zip_node[row]
        dk = zip_node[row - slot[row] + k]

    # a PV node takes the setpoint of the first generator serving it
    gen_of = np.repeat(np.arange(len(gens)), [g.n_phase for g in gens])
    served, first = np.unique(gen_node, return_index=True)
    pv_node = (node_type == PV).nonzero()[0]
    pv_gen = gen_of[first[np.searchsorted(served, pv_node)]]

    # generators on slack and PV nodes; a generator's nodes share its
    # bus's type
    regulated = node_type[gen_node] != PQ
    set_gens, set_slots, start, end = [], [], 0, 0
    for gen in gens:
        if regulated[start]:
            set_gens.append(gen)
            set_slots.append(slice(end, end + gen.n_phase))
            end += gen.n_phase
        start += gen.n_phase
    set_node = gen_node[regulated]
    return InjectionPlan(
        zips=zips,
        zip_node=zip_node,
        zip_wye=wye,
        delta_pos=pos,
        delta_i=di,
        delta_k=dk,
        delta_keep=np.zeros(0, dtype=bool),
        pv_node=pv_node,
        pv_gen=pv_gen,
        set_gens=set_gens,
        set_node=set_node,
        set_count=np.bincount(gen_node)[set_node],
        set_slack=node_type[set_node] == SL,
        set_slots=set_slots,
    )


def _generation(net: Network, gens: list, gen_node: np.ndarray,
                plan: InjectionPlan, n: int) -> dict:
    """The generation, PV setpoints and state voltages of a model,
    gathered through ``plan``.  A PV setpoint that is not positive and
    finite raises ValueError naming the bus and the generator."""
    s_g = np.zeros(n, dtype=complex)
    v_set_pv = np.ones(n, dtype=float)
    if len(plan.pv_node):
        setpoint = np.array([g.v_setpoint for g in gens])[plan.pv_gen]
        bad = ~((setpoint > 0.0) & (setpoint < np.inf))
        if bad.any():
            gen = gens[plan.pv_gen[bad.argmax()]]
            raise ValueError(f"PV bus {gen.terminal.bus_id!r}: generator {gen.id!r} "
                             f"has voltage setpoint {gen.v_setpoint}, which must "
                             f"be positive and finite")
        v_set_pv[plan.pv_node] = setpoint
    if gens:
        slot_s = np.concatenate([g.s for g in gens]) / net.s_base_mva
        np.add.at(s_g, gen_node, slot_s)
    # node order is bus order, then phase order within a bus
    v_state = np.concatenate([np.zeros(0, complex)] + [b.v for b in net.buses])
    return dict(s_g=s_g, v_set_pv=v_set_pv, v_state=v_state)


def _zip_terms(plan: InjectionPlan, n: int) -> tuple[dict, np.ndarray]:
    """The ZIP power and current terms of a model gathered through
    ``plan``, and which of its delta candidates have a nonzero one."""
    s_wye = np.zeros(n, dtype=complex)
    i_wye = np.zeros(n, dtype=complex)
    keep = np.zeros(0, dtype=bool)
    ds = dc = np.zeros(0, dtype=complex)
    if plan.zips:
        # every ZIP's (m+1)x(m+1) term matrices, flattened end to end
        s_all = np.concatenate([z.s_const for z in plan.zips], axis=None)
        i_all = np.concatenate([z.i_const for z in plan.zips], axis=None)
        # np.add.at adds in index order: the slots' order in the network
        np.add.at(s_wye, plan.zip_node, s_all[plan.zip_wye])
        np.add.at(i_wye, plan.zip_node, i_all[plan.zip_wye])
        if len(plan.delta_pos):
            ds, dc = s_all[plan.delta_pos], i_all[plan.delta_pos]
            keep = (ds != 0.0) | (dc != 0.0)
            ds, dc = ds[keep], dc[keep]
    return dict(s_wye=s_wye, i_wye=i_wye, ds=ds, dc=dc), keep


def _check_islands(y: sp.csr_matrix, node_type: np.ndarray, index: NodeIndex):
    n = y.shape[0]
    structure = sp.csr_matrix(
        (np.ones(len(y.data)), y.indices, y.indptr), shape=(n, n)
    )
    # the strong components are the islands when no entry joins two, as in
    # a structurally symmetric Y, and their search builds no transpose
    n_comp, labels = connected_components(structure, connection="strong")
    rows = np.repeat(np.arange(n), np.diff(y.indptr))
    if not np.array_equal(labels[rows], labels[y.indices]):
        n_comp, labels = connected_components(structure, directed=False)
    slacks = np.bincount(labels[node_type == SL], minlength=n_comp)
    orphan = np.flatnonzero(slacks[labels] == 0)
    if len(orphan):
        members = np.flatnonzero(labels == labels[orphan[0]])
        names = [f"{b}:{p.name}" for b, p in (index.nodes[i] for i in members[:5])]
        raise NoSlackInIslandError(
            f"island containing nodes {names} has no slack bus"
        )
