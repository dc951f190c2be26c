"""Buses, terminals, generators, and ZIP loads."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .phases import Phase, nominal_voltage, sorted_phases


class NetworkModelError(ValueError):
    pass


class PhaseNotOnBusError(NetworkModelError):
    pass


class TerminalIndexError(NetworkModelError):
    pass


def _per_phase(value, n: int, dtype) -> np.ndarray:
    """``value`` for each of ``n`` phases, as a new array: a number
    repeated, or an array broadcast to ``n`` entries and copied."""
    if isinstance(value, (int, float, complex)):
        return np.array([value] * n, dtype=dtype)
    return np.broadcast_to(np.asarray(value, dtype), (n,)).copy()


class Terminal:
    """Connection of one device terminal to a bus.

    phase_map lists, per device phase slot, the bus phase the slot is
    wired to.  It is ordered: slot j maps to phase_map[j].  A terminal
    cannot be changed, so devices share them: every unconnected device
    holds :data:`OPEN`, and every device wired onto all of a bus's phases
    in order holds that bus's own ``terminal``.
    """

    __slots__ = ("bus_id", "phase_map")

    def __init__(self, bus_id: Optional[str] = None, phase_map: tuple[Phase, ...] = ()):
        object.__setattr__(self, "bus_id", bus_id)
        object.__setattr__(self, "phase_map", tuple(phase_map))

    def __setattr__(self, *args):
        raise AttributeError("a Terminal cannot be changed: connect its device again")

    def __reduce__(self):  # copies and pickles construct it, never assign
        return Terminal, (self.bus_id, self.phase_map)

    @property
    def connected(self) -> bool:
        return self.bus_id is not None

    def __repr__(self) -> str:
        return f"Terminal(bus={self.bus_id!r}, phases={[p.name for p in self.phase_map]})"


OPEN = Terminal()


class Bus:
    def __init__(
        self,
        id: str,
        phases=(Phase.BAL,),
        v_base: float = 1.0,
        bus_type: str = "PQ",
        v_nom=None,
        v_mag_min: float = 0.0,
        v_mag_max: float = np.inf,
    ):
        self.id = id
        self.phases = sorted_phases(phases)
        self.terminal = Terminal(id, self.phases)  # onto all its phases
        self.v_base = float(v_base)
        if bus_type not in ("SL", "PV", "PQ"):
            raise NetworkModelError(f"bus {id}: unknown type {bus_type!r}")
        self.bus_type = bus_type
        n = len(self.phases)
        if v_nom is None:
            v_nom = np.array([nominal_voltage(p) for p in self.phases])
        self.v_nom = np.asarray(v_nom, dtype=complex)
        if self.v_nom.shape != (n,):
            raise NetworkModelError(f"bus {id}: v_nom must have {n} entries")
        self.v = self.v_nom.copy()  # solution state, per unit
        self.v_mag_min = _per_phase(v_mag_min, n, float)
        self.v_mag_max = _per_phase(v_mag_max, n, float)
        if np.count_nonzero(self.v_mag_min > self.v_mag_max):
            raise NetworkModelError(f"bus {id}: v_mag_min > v_mag_max")

    @property
    def n_phase(self) -> int:
        return len(self.phases)

    def __repr__(self) -> str:
        return f"Bus({self.id!r}, {[p.name for p in self.phases]}, {self.bus_type})"


class Gen:
    """Generator injecting complex power at one terminal.

    Powers are in MW / MVAr; the per-unit conversion happens when a solver
    model is built.
    """

    def __init__(
        self,
        id: str,
        n_phase: int = 1,
        s: complex = 0.0,
        p_min: float = -np.inf,
        p_max: float = np.inf,
        q_min: float = -np.inf,
        q_max: float = np.inf,
        v_setpoint: float = 1.0,
        cost=(0.0, 1.0, 0.0),
        in_service: bool = True,
    ):
        if n_phase < 1:
            raise NetworkModelError(f"gen {id}: needs at least one phase")
        self.id = id
        self.terminal = OPEN
        self.s = _per_phase(s, n_phase, complex)
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self.q_min = float(q_min)
        self.q_max = float(q_max)
        if self.p_min > self.p_max:
            raise NetworkModelError(f"gen {id}: p_min > p_max")
        if self.q_min > self.q_max:
            raise NetworkModelError(f"gen {id}: q_min > q_max")
        self.v_setpoint = float(v_setpoint)
        c0, c1, c2 = cost
        self.cost = (float(c0), float(c1), float(c2))
        self.in_service = bool(in_service)

    @property
    def n_phase(self) -> int:
        return len(self.s)

    def __repr__(self) -> str:
        return f"Gen({self.id!r}, S={self.s})"


class Zip:
    """ZIP load between phases and/or phase to ground, in per unit.

    The component matrices are (n+1) x (n+1) with slot 0 representing
    ground and slot j >= 1 representing terminal phase slot j-1.  Entry
    (i, 0) is a phase-to-ground (wye) component on slot i-1; entry (i, k)
    with i, k >= 1 and i != k is a phase-to-phase (delta) component and is
    stored symmetrically.  Diagonal entries are unused and stay zero.
    """

    def __init__(self, id: str, n_phase: int = 1, in_service: bool = True):
        self.id = id
        self.terminal = OPEN
        m = n_phase + 1
        self.y_const = np.zeros((m, m), dtype=complex)
        self.i_const = np.zeros((m, m), dtype=complex)
        self.s_const = np.zeros((m, m), dtype=complex)
        self.in_service = bool(in_service)

    @property
    def n_phase(self) -> int:
        return self.y_const.shape[0] - 1

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.n_phase:
            raise NetworkModelError(f"zip {self.id}: phase slot {slot} out of range")

    def set_wye(self, slot: int, s: complex = None, i: complex = None, y: complex = None):
        self._check_slot(slot)
        if s is not None:
            self.s_const[slot + 1, 0] = s
        if i is not None:
            self.i_const[slot + 1, 0] = i
        if y is not None:
            self.y_const[slot + 1, 0] = y

    def set_delta(self, slot_a: int, slot_b: int, s: complex = None, i: complex = None, y: complex = None):
        self._check_slot(slot_a)
        self._check_slot(slot_b)
        if slot_a == slot_b:
            raise NetworkModelError(f"zip {self.id}: delta needs two distinct slots")
        a, b = slot_a + 1, slot_b + 1
        if s is not None:
            self.s_const[a, b] = self.s_const[b, a] = s
        if i is not None:
            self.i_const[a, b] = self.i_const[b, a] = i
        if y is not None:
            self.y_const[a, b] = self.y_const[b, a] = y

    def __repr__(self) -> str:
        return f"Zip({self.id!r}, n_phase={self.n_phase})"
