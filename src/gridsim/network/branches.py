"""Branch models and their two-terminal nodal admittance matrices.

Every model produces a square complex matrix over the stacked terminal
nodes [terminal-0 phases..., terminal-1 phases...] such that I = Y V with
currents flowing from the bus into the terminal.  CommonBranch and
GenericBranch are already per-unit; line and cable models work in physical
units (ohms, siemens) and are normalized during Y-bus assembly.
"""

from __future__ import annotations

import cmath

import numpy as np

from .admittance import SingularEliminatedBlockError, kron_reduce
from .components import NetworkModelError


class BranchModel:
    #: True when y_matrix() is in siemens and needs per-unit conversion.
    physical_units = False

    @property
    def n_phase0(self) -> int:
        raise NotImplementedError

    @property
    def n_phase1(self) -> int:
        raise NotImplementedError

    def y_matrix(self) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def y_stack(cls, models: list["BranchModel"]) -> np.ndarray:
        """Admittance matrices of several models of this class and one
        terminal size, stacked into a (k, m, m) array."""
        return np.stack([model.y_matrix() for model in models])


class GenericBranch(BranchModel):
    """Branch given directly by its nodal admittance matrix (per unit)."""

    def __init__(self, y: np.ndarray, n_phase0: int, n_phase1: int):
        y = np.asarray(y, dtype=complex)
        n = n_phase0 + n_phase1
        if y.shape != (n, n):
            raise NetworkModelError(
                f"GenericBranch admittance must be {n}x{n}, got {y.shape}"
            )
        self._y = y
        self._n0 = n_phase0
        self._n1 = n_phase1

    @property
    def n_phase0(self) -> int:
        return self._n0

    @property
    def n_phase1(self) -> int:
        return self._n1

    def y_matrix(self) -> np.ndarray:
        return self._y.copy()


class CommonBranch(BranchModel):
    """Matpower-style single-phase branch: series element plus shunt,
    behind an ideal transformer with complex ratio on terminal 0."""

    def __init__(
        self,
        y_series: complex,
        y_shunt: complex = 0.0,
        tap: float = 1.0,
        phase_shift_deg: float = 0.0,
    ):
        if not cmath.isfinite(complex(y_series)):
            raise NetworkModelError("CommonBranch series admittance must be finite")
        if tap <= 0.0:
            raise NetworkModelError(f"CommonBranch tap must be positive, got {tap}")
        self.y_series = complex(y_series)
        self.y_shunt = complex(y_shunt)
        self.tap = float(tap)
        self.phase_shift_deg = float(phase_shift_deg)

    @property
    def n_phase0(self) -> int:
        return 1

    @property
    def n_phase1(self) -> int:
        return 1

    def y_matrix(self) -> np.ndarray:
        return self.y_stack([self])[0]

    @classmethod
    def y_stack(cls, models: list["CommonBranch"]) -> np.ndarray:
        """The pi-model admittance of each branch, vectorised over them."""
        y = np.array([m.y_series for m in models])
        ysh2 = np.array([m.y_shunt for m in models]) / 2.0
        tap = np.array([m.tap for m in models])
        shift = np.array([m.phase_shift_deg for m in models])
        t = tap * np.exp(1j * np.pi / 180.0 * shift)
        out = np.empty((len(models), 2, 2), dtype=complex)
        out[:, 0, 0] = (y + ysh2) / (tap * tap)
        out[:, 0, 1] = -y / t.conj()
        out[:, 1, 0] = -y / t
        out[:, 1, 1] = y + ysh2
        return out


class OverheadLine(BranchModel):
    """Multi-conductor line given per-length impedance/admittance matrices.

    The conductor matrices cover n_phase + n_neutral wires, phases first.
    Grounded neutral wires are eliminated by Kron reduction before the
    two-port admittance is formed.
    """

    physical_units = True

    def __init__(
        self,
        z_series_per_km: np.ndarray,
        length_km: float,
        y_shunt_per_km: np.ndarray | None = None,
        n_neutral: int = 0,
    ):
        z = np.atleast_2d(np.asarray(z_series_per_km, dtype=complex))
        n_wire = z.shape[0]
        if z.shape != (n_wire, n_wire):
            raise NetworkModelError("line impedance matrix must be square")
        if not np.allclose(z, z.T):
            raise NetworkModelError("line impedance matrix must be symmetric")
        if not 0 <= n_neutral < n_wire:
            raise NetworkModelError(
                f"n_neutral {n_neutral} invalid for {n_wire} wires"
            )
        self.z_series_per_km = z
        self.length_km = float(length_km)
        if y_shunt_per_km is None:
            y_shunt_per_km = np.zeros_like(z)
        self.y_shunt_per_km = np.atleast_2d(np.asarray(y_shunt_per_km, dtype=complex))
        if self.y_shunt_per_km.shape != z.shape:
            raise NetworkModelError("shunt admittance matrix shape mismatch")
        self.n_neutral = int(n_neutral)

    @property
    def n_wire(self) -> int:
        return self.z_series_per_km.shape[0]

    @property
    def n_phase0(self) -> int:
        return self.n_wire - self.n_neutral

    @property
    def n_phase1(self) -> int:
        return self.n_phase0

    def y_matrix(self) -> np.ndarray:
        n_ph = self.n_phase0
        keep = range(n_ph)
        z = self.z_series_per_km * self.length_km
        if self.n_neutral:
            z = kron_reduce(z, keep)  # Schur complement on impedance
        try:
            y = np.linalg.inv(z)
        except np.linalg.LinAlgError:
            raise SingularEliminatedBlockError(
                "line series impedance is singular (zero length?)"
            ) from None
        cond = np.linalg.cond(z)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularEliminatedBlockError(
                "line series impedance is numerically singular"
            )
        ysh = self.y_shunt_per_km * self.length_km
        if self.n_neutral:
            ysh = kron_reduce(ysh, keep) if np.any(ysh[n_ph:, :]) or np.any(
                ysh[:, n_ph:]
            ) else ysh[:n_ph, :n_ph]
        out = np.zeros((2 * n_ph, 2 * n_ph), dtype=complex)
        out[:n_ph, :n_ph] = y + ysh / 2.0
        out[n_ph:, n_ph:] = y + ysh / 2.0
        out[:n_ph, n_ph:] = -y
        out[n_ph:, :n_ph] = -y
        return out


class UndergroundCable(OverheadLine):
    """Cable model; electrically identical shape to OverheadLine."""


_CONNECTIONS = ("wye-grounded", "wye", "delta")


def clock_ratio(clock: int) -> complex:
    """Unit complex ratio realizing a vector-group clock number.

    Apply to the terminal-1 winding ratio; each clock hour shifts the
    terminal-1 voltages by 30 degrees.
    """
    return cmath.exp(-1j * cmath.pi / 6.0 * clock)


class Transformer(BranchModel):
    """Two-winding transformer bank with selectable winding connections.

    Each of the n_phase winding pairs couples terminal 0 to terminal 1
    through complex turns ratios ratio0 : ratio1 and a series leakage
    admittance y_leak (per unit).  Ungrounded-wye star points become
    internal nodes that are Kron-eliminated; the magnetizing admittance
    sits on the terminal-0 diagonal.
    """

    def __init__(
        self,
        connection0: str,
        connection1: str,
        ratio0: complex = 1.0,
        ratio1: complex = 1.0,
        y_leak: complex = 1.0,
        y_mag: complex = 0.0,
        n_phase: int = 3,
    ):
        if connection0 not in _CONNECTIONS or connection1 not in _CONNECTIONS:
            raise NetworkModelError(
                f"invalid connection pair ({connection0!r}, {connection1!r}); "
                f"choose from {_CONNECTIONS}"
            )
        if n_phase < 2 and "delta" in (connection0, connection1):
            raise NetworkModelError("delta connection needs at least 2 phases")
        if ratio0 == 0 or ratio1 == 0:
            raise NetworkModelError("turns ratios must be nonzero")
        self.connection0 = connection0
        self.connection1 = connection1
        self.ratio0 = complex(ratio0)
        self.ratio1 = complex(ratio1)
        self.y_leak = complex(y_leak)
        self.y_mag = complex(y_mag)
        self._n_phase = int(n_phase)

    @property
    def n_phase0(self) -> int:
        return self._n_phase

    @property
    def n_phase1(self) -> int:
        return self._n_phase

    def _side_incidence(self, connection: str, ratio: complex, offset: int, n_node: int, star: int | None):
        """Rows of the winding voltage map for one side."""
        n = self._n_phase
        rows = np.zeros((n, n_node), dtype=complex)
        inv_t = 1.0 / ratio
        for w in range(n):
            if connection == "wye-grounded":
                rows[w, offset + w] = inv_t
            elif connection == "wye":
                rows[w, offset + w] = inv_t
                rows[w, star] = -inv_t
            else:  # delta, winding w across phases w and w+1
                rows[w, offset + w] = inv_t
                rows[w, offset + (w + 1) % n] = -inv_t
        return rows

    def y_matrix(self) -> np.ndarray:
        n = self._n_phase
        n_node = 2 * n
        star0 = star1 = None
        if self.connection0 == "wye":
            star0 = n_node
            n_node += 1
        if self.connection1 == "wye":
            star1 = n_node
            n_node += 1
        c0 = self._side_incidence(self.connection0, self.ratio0, 0, n_node, star0)
        c1 = self._side_incidence(self.connection1, self.ratio1, n, n_node, star1)
        c = c0 - c1  # winding voltage: V0/t0 - V1/t1
        y = self.y_leak * (c.conj().T @ c)
        for w in range(n):
            y[w, w] += self.y_mag
        if n_node > 2 * n:
            y = kron_reduce(y, range(2 * n))
        return y
