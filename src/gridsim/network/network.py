"""The Network container and nodal admittance assembly."""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from ..core import ComponentCollection
from .branches import BranchModel
from .components import (
    OPEN,
    Bus,
    Gen,
    NetworkModelError,
    PhaseNotOnBusError,
    Terminal,
    TerminalIndexError,
    Zip,
)
from .phases import Phase, parse_phase


def _zip_blocks(y_const: np.ndarray) -> np.ndarray:
    """Nodal admittance blocks (k, m, m) of a (k, m+1, m+1) stack of ZIP
    constant-admittance matrices (slot 0 is ground, see :class:`Zip`).

    A wye term adds to its phase's diagonal; a delta term between slots i
    and k (read from the upper triangle) adds to both diagonals and
    subtracts from the (i, k) and (k, i) entries.
    """
    upper = np.triu(y_const[:, 1:, 1:], 1)
    delta = upper + upper.transpose(0, 2, 1)
    out = -delta
    m = out.shape[1]
    out[:, np.arange(m), np.arange(m)] = y_const[:, 1:, 0] + delta.sum(axis=2)
    return out


class UnknownIdError(NetworkModelError):
    pass


class UnconnectedTerminalError(NetworkModelError):
    pass


class Branch:
    """A branch instance: a model plus its two terminals and a rating."""

    def __init__(
        self,
        id: str,
        model: BranchModel,
        s_max_mva: float = np.inf,
        in_service: bool = True,
    ):
        self.id = id
        self.model = model
        self.terminals = (OPEN, OPEN)
        self.s_max_mva = float(s_max_mva)
        self.in_service = bool(in_service)

    def __repr__(self) -> str:
        return f"Branch({self.id!r}, {type(self.model).__name__})"


class BranchGroup(NamedTuple):
    """In-service branches of one model class and terminal size, in network
    order, with the node of each terminal slot and the per-unit terminal
    admittance block of each branch."""

    branches: list[Branch]
    nodes: np.ndarray            # (k, m) node numbers
    y: np.ndarray                # (k, m, m) per-unit admittance blocks


class NodeIndex:
    """Deterministic (bus, phase) -> flat node numbering.

    Nodes are ordered by bus insertion order, then by the canonical phase
    order within each bus.  This ordering is part of the public contract.
    A lookup goes through the bus's first node (``starts``) and its own
    phase tuple, where a phase is found by identity, so the index makes no
    object per bus for the cyclic GC to track (``nodes`` is built on use).
    """

    def __init__(self, buses: Iterable[Bus]):
        self.starts: dict[str, int] = {}
        self._phases: dict[str, tuple[Phase, ...]] = {}
        n = 0
        for bus in buses:
            self.starts[bus.id], self._phases[bus.id] = n, bus.phases
            n += len(bus.phases)
        self._n = n

    @functools.cached_property
    def nodes(self) -> list[tuple[str, Phase]]:
        return [(b, p) for b, phases in self._phases.items() for p in phases]

    def __len__(self) -> int:
        return self._n

    def index(self, bus_id: str, phase: Phase) -> int:
        phases = self._phases[bus_id]
        if phase not in phases:
            raise KeyError((bus_id, phase))
        return self.starts[bus_id] + phases.index(phase)

    def bus_nodes(self, bus_id: str) -> slice:
        start = self.starts[bus_id]
        return slice(start, start + len(self._phases[bus_id]))

    def terminal_nodes(self, terminal) -> list[int]:
        """Node of each phase slot of a connected terminal."""
        return self.gather([terminal]).tolist()

    def gather(self, terminals) -> np.ndarray:
        """Node of each phase slot of each connected terminal, the
        terminals' slots concatenated in order."""
        starts, bus_phases = self.starts, self._phases
        nodes = []
        for terminal in terminals:
            start, phases = starts[terminal.bus_id], bus_phases[terminal.bus_id]
            for phase in terminal.phase_map:
                nodes.append(start + phases.index(phase))
        return np.array(nodes, dtype=int)


class Network:
    def __init__(self, s_base_mva: float = 100.0, frequency_hz: float = 50.0):
        self.buses = ComponentCollection()
        self.branches = ComponentCollection()
        self.gens = ComponentCollection()
        self.zips = ComponentCollection()
        self.s_base_mva = float(s_base_mva)
        self.frequency_hz = float(frequency_hz)

    # -- construction -----------------------------------------------------

    def add_bus(self, bus: Bus) -> Bus:
        self.buses.insert(bus.id, bus)
        return bus

    def add_branch(
        self,
        branch: Branch,
        bus0: Optional[str] = None,
        bus1: Optional[str] = None,
        phase_map0=None,
        phase_map1=None,
    ) -> Branch:
        self.branches.insert(branch.id, branch)
        if bus0 is not None:
            self.connect_terminal(branch, 0, bus0, phase_map0)
        if bus1 is not None:
            self.connect_terminal(branch, 1, bus1, phase_map1)
        return branch

    def add_gen(self, gen: Gen, bus: Optional[str] = None, phase_map=None) -> Gen:
        self.gens.insert(gen.id, gen)
        if bus is not None:
            self.connect_terminal(gen, 0, bus, phase_map)
        return gen

    def add_zip(self, zip_: Zip, bus: Optional[str] = None, phase_map=None) -> Zip:
        self.zips.insert(zip_.id, zip_)
        if bus is not None:
            self.connect_terminal(zip_, 0, bus, phase_map)
        return zip_

    def find_device(self, device_id: str):
        for coll in (self.branches, self.gens, self.zips):
            item = coll.get(device_id)
            if item is not None:
                return item
        raise UnknownIdError(f"no branch/gen/zip with id {device_id!r}")

    def connect_terminal(self, device, terminal_index: int, bus_id: str, phase_map=None):
        """Bind one device terminal to a bus through a phase map.

        phase_map lists the bus phase wired to each device phase slot, each
        bus phase at most once; by default slots map onto the bus phases in
        order.  The device's terminal is replaced (see :class:`Terminal`).
        """
        if isinstance(device, str):
            device = self.find_device(device)
        bus = self.buses.get(bus_id)
        if bus is None:
            raise UnknownIdError(f"no bus with id {bus_id!r}")
        if isinstance(device, Branch):
            if terminal_index not in (0, 1):
                raise TerminalIndexError(
                    f"branch terminal index must be 0 or 1, got {terminal_index}"
                )
            n_slot = device.model.n_phase1 if terminal_index else device.model.n_phase0
        else:
            if terminal_index != 0:
                raise TerminalIndexError(
                    f"{type(device).__name__.lower()} has a single terminal 0, "
                    f"got index {terminal_index}"
                )
            n_slot = device.n_phase
        explicit = phase_map is not None
        if explicit:
            phase_map = tuple(parse_phase(p) for p in phase_map)
        else:
            phase_map = bus.phases[:n_slot]
        if len(phase_map) != n_slot:
            raise NetworkModelError(
                f"{device.id}: phase map has {len(phase_map)} entries, "
                f"terminal has {n_slot} slots"
            )
        # the default map is the bus's own phases: on the bus and distinct
        for phase in phase_map if explicit else ():
            if phase not in bus.phases:
                raise PhaseNotOnBusError(
                    f"{device.id}: phase {phase.name} not on bus {bus_id}"
                )
            if phase_map.count(phase) > 1:
                raise NetworkModelError(
                    f"{device.id}: phase map names bus phase {phase.name} twice"
                )
        terminal = bus.terminal if phase_map == bus.phases else Terminal(bus_id, phase_map)
        if isinstance(device, Branch):
            t0, t1 = device.terminals
            device.terminals = (t0, terminal) if terminal_index else (terminal, t1)
        else:
            device.terminal = terminal

    # -- assembly ---------------------------------------------------------

    def node_index(self) -> NodeIndex:
        return NodeIndex(self.buses)

    def _z_base_ohm(self, bus: Bus) -> float:
        return bus.v_base**2 / (self.s_base_mva * 1e6)

    def _pu_scale(self, branch: Branch) -> float:
        """Factor turning the branch model's admittance into per unit."""
        if not branch.model.physical_units:
            return 1.0
        zb0, zb1 = (self._z_base_ohm(self.buses[t.bus_id])
                    for t in branch.terminals)
        if not np.isclose(zb0, zb1):
            raise NetworkModelError(
                f"branch {branch.id}: physical-unit model between buses "
                "with different impedance bases"
            )
        return zb0

    def ybus(self) -> tuple[sp.csr_matrix, NodeIndex, list[BranchGroup],
                            np.ndarray]:
        """Assemble the sparse nodal admittance matrix, per unit on S_base.

        In-service branches are grouped by model class and block size, and
        each group's admittance blocks come from one ``y_stack`` call; ZIP
        constant-admittance terms become nodal blocks grouped by phase
        count.  The terminal nodes of all of them come from one gather, and
        every nonzero block entry is then stamped at once.
        Returns the matrix, its node index, the branch groups it stamped,
        in order of each group's first branch, and the node of each phase
        slot of the in-service ZIPs, in network order.
        """
        index = self.node_index()
        n = len(index)
        branches: dict[tuple[type, int], list[Branch]] = {}
        for branch in self.branches:
            if not branch.in_service:
                continue
            t0, t1 = branch.terminals
            if t0.bus_id is None or t1.bus_id is None:
                raise UnconnectedTerminalError(
                    f"branch {branch.id} terminal {int(t0.bus_id is not None)} "
                    "is not connected"
                )
            # a connected terminal has one phase per slot of its model
            key = (type(branch.model), len(t0.phase_map) + len(t1.phase_map))
            branches.setdefault(key, []).append(branch)

        for kind, devices in (("zip", self.zips), ("gen", self.gens)):
            for device in devices:
                if device.in_service and device.terminal.bus_id is None:
                    raise UnconnectedTerminalError(
                        f"{kind} {device.id} terminal is not connected"
                    )

        zips = [z for z in self.zips if z.in_service]
        term_node = index.gather([t for group in branches.values()
                                  for b in group for t in b.terminals]
                                 + [z.terminal for z in zips])
        groups, start = [], 0
        for (cls, m), group in branches.items():
            y = cls.y_stack([b.model for b in group])
            if cls.physical_units:
                y = y * np.array([self._pu_scale(b) for b in group])[:, None, None]
            end = start + len(group) * m
            nodes = term_node[start:end].reshape(len(group), m)
            groups.append(BranchGroup(group, nodes, y))
            start = end
        zip_node = term_node[start:]
        # (k, m) node numbers and (k, m, m) admittance blocks per group
        blocks = [(g.nodes, g.y) for g in groups]
        m_zip = [len(z.terminal.phase_map) for z in zips]
        m_slot = np.repeat(m_zip, m_zip)  # the slot count of each slot's ZIP
        for m in dict.fromkeys(m_zip):
            blocks.append((
                zip_node[m_slot == m].reshape(m_zip.count(m), m),
                _zip_blocks(np.array([z.y_const for z, k in zip(zips, m_zip)
                                      if k == m])),
            ))

        # entry (a, b) of a block sits at (nodes[a], nodes[b])
        rows = [np.zeros(0, int)]
        cols = [np.zeros(0, int)]
        vals = [np.zeros(0, complex)]
        for nodes, y in blocks:
            m = nodes.shape[1]
            rows.append(nodes.repeat(m, axis=1).ravel())
            cols.append(nodes[:, None, :].repeat(m, axis=1).ravel())
            vals.append(y.ravel())
        vals = np.concatenate(vals)
        keep = vals != 0.0
        vals = vals[keep]
        rows = np.concatenate(rows)[keep]
        cols = np.concatenate(cols)[keep]
        # What coo_matrix(...).tocsr() does, with less Python around it,
        # mirrored from scipy 1.17 (checked on 1.17.1): its C++ coo_tocsr
        # buckets the entries by row, stably, then tocsr calls
        # sum_duplicates, which sorts each row and sums duplicates in that
        # order.  test_model_build_arrays_pinned holds the result.
        small = n <= 1 << 16  # 16-bit rows sort by radix
        order = (rows.astype(np.uint16) if small else rows).argsort(kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.bincount(rows, minlength=n).cumsum(out=indptr[1:])
        y = sp.csr_matrix((vals[order], cols[order].astype(np.int32), indptr),
                          shape=(n, n))
        y.sum_duplicates()
        return y, index, groups, zip_node

    # -- diagnostics --------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Diagnostic dump: ids, phases, and Y-bus triplets."""
        y, index = self.ybus()[:2]
        coo = y.tocoo()
        return {
            "s_base_mva": self.s_base_mva,
            "frequency_hz": self.frequency_hz,
            "buses": [
                {
                    "id": b.id,
                    "type": b.bus_type,
                    "phases": [p.name for p in b.phases],
                    "v_base": b.v_base,
                }
                for b in self.buses
            ],
            "branches": [
                {
                    "id": br.id,
                    "model": type(br.model).__name__,
                    "bus0": br.terminals[0].bus_id,
                    "bus1": br.terminals[1].bus_id,
                    "in_service": br.in_service,
                }
                for br in self.branches
            ],
            "gens": [
                {"id": g.id, "bus": g.terminal.bus_id, "in_service": g.in_service}
                for g in self.gens
            ],
            "zips": [
                {"id": z.id, "bus": z.terminal.bus_id, "in_service": z.in_service}
                for z in self.zips
            ],
            "nodes": [[bus_id, phase.name] for bus_id, phase in index.nodes],
            "ybus_triplets": [
                [int(i), int(k), v.real, v.imag]
                for i, k, v in zip(coo.row, coo.col, coo.data)
            ],
        }
