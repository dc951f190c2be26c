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
        phases = sorted_phases(phases)
        v_base = float(v_base)
        if bus_type not in ("SL", "PV", "PQ"):
            raise NetworkModelError(f"bus {id}: unknown type {bus_type!r}")
        n = len(phases)
        if v_nom is None:
            v_nom = np.array([nominal_voltage(p) for p in phases])
        v_nom = np.asarray(v_nom, dtype=complex)
        if v_nom.shape != (n,):
            raise NetworkModelError(f"bus {id}: v_nom must have {n} entries")
        v_mag_min = _per_phase(v_mag_min, n, float)
        v_mag_max = _per_phase(v_mag_max, n, float)
        if np.count_nonzero(v_mag_min > v_mag_max):
            raise NetworkModelError(f"bus {id}: v_mag_min > v_mag_max")
        self._set(id, phases, Terminal(id, phases), v_base, bus_type,
                  v_nom, v_nom.copy(), v_mag_min, v_mag_max)

    def _set(self, id, phases, terminal, v_base, bus_type, v_nom, v,
             v_mag_min, v_mag_max) -> "Bus":
        """Set every attribute, unchecked; the one place that lists them."""
        self.id = id
        self.phases = phases
        self.terminal = terminal  # onto all its phases
        self.v_base = v_base
        self.bus_type = bus_type
        self.v_nom = v_nom
        self.v = v  # solution state, per unit
        self.v_mag_min = v_mag_min
        self.v_mag_max = v_mag_max
        return self

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
        s = _per_phase(s, n_phase, complex)
        p_min, p_max, q_min, q_max = map(float, (p_min, p_max, q_min, q_max))
        if p_min > p_max:
            raise NetworkModelError(f"gen {id}: p_min > p_max")
        if q_min > q_max:
            raise NetworkModelError(f"gen {id}: q_min > q_max")
        c0, c1, c2 = cost
        self._set(id, OPEN, s, p_min, p_max, q_min, q_max, float(v_setpoint),
                  (float(c0), float(c1), float(c2)), bool(in_service))

    def _set(self, id, terminal, s, p_min, p_max, q_min, q_max, v_setpoint,
             cost, in_service) -> "Gen":
        """Set every attribute, unchecked; the one place that lists them."""
        self.id = id
        self.terminal = terminal
        self.s = s
        self.p_min = p_min
        self.p_max = p_max
        self.q_min = q_min
        self.q_max = q_max
        self.v_setpoint = v_setpoint
        self.cost = cost
        self.in_service = in_service
        return self

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
        m = n_phase + 1
        self._set(id, OPEN, *np.zeros((3, m, m), dtype=complex),
                  bool(in_service))

    def _set(self, id, terminal, y_const, i_const, s_const,
             in_service) -> "Zip":
        """Set every attribute, unchecked; the one place that lists them."""
        self.id = id
        self.terminal = terminal
        self.y_const = y_const
        self.i_const = i_const
        self.s_const = s_const
        self.in_service = in_service
        return self

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
