"""Generalized power-flow residuals in current and power injection form.

The nonzero injection terms of a model (generation, wye constant-power,
wye constant-current and delta entries) are located once in an
:class:`Injections`; every residual and derivative evaluation then
gathers and scatters over those index sets instead of re-deriving masks
from the model.

The complex residual r(V, V*) is differentiated in Wirtinger form
(A = dr/dV, B = dr/dV*); the real 2x2 block Jacobian over (Re V, Im V)
follows from

    d Re r / d Re V =  Re(A + B)      d Re r / d Im V = -Im(A - B)
    d Im r / d Re V =  Im(A + B)      d Im r / d Im V =  Re(A - B)

A is -Y plus state-dependent terms and B has state-dependent terms only,
all of them on the diagonal or at the delta-load triplets
(:meth:`Injections.wirtinger_parts`).

:func:`residual_current`, :func:`residual_power` and
:func:`network_current` are one-call conveniences that locate the sets
and evaluate once; a solver builds one :class:`Injections` per model.
"""

from __future__ import annotations

import numpy as np

from .model import PowerFlowModel, ZeroVoltageError


class Injections:
    """Index sets of a model's nonzero injection terms, located once.

    ``gens`` lists the nodes whose generation may be nonzero; every
    ``s_g`` later passed in must vanish outside them.  It defaults to the
    nonzeros of ``model.s_g`` (a solver that moves PV reactive power adds
    the PV nodes).  The zero-voltage guard covers the nodes where
    ``model.s_g``, ``model.s_wye`` or ``model.i_wye`` is nonzero, and every
    delta entry (a model keeps only those with a nonzero term).

    Every delta entry carries both its power and its current term, a zero
    one adding nothing, so the Jacobian positions located here depend on
    the model's structure alone: a solver may keep its pattern across
    models that share a structure and differ in injection values.
    """

    # Delta sets of a model without delta entries: ``d_rows``/``d_cols``
    # are the positions of the off-diagonal Jacobian triplets (see
    # wirtinger_parts).
    d_rows = d_cols = np.zeros(0, int)
    _vd_empty = np.zeros(0, dtype=complex)

    def __init__(self, model: PowerFlowModel, gens: np.ndarray | None = None):
        self.model = model
        self.gens = model.s_g.nonzero()[0] if gens is None else gens
        s_nz, i_nz = model.s_wye != 0.0, model.i_wye != 0.0
        self.ws = ws = s_nz.nonzero()[0]
        self.s_wye_conj = model.s_wye[ws].conj()
        self.wi = wi = i_nz.nonzero()[0]
        self.i_wye = model.i_wye[wi]
        self.guard = (s_nz | i_nz | (model.s_g != 0.0)).nonzero()[0]
        self.di = di = model.di
        self.dk = dk = model.dk
        if not len(di):
            return
        self.ds_conj = model.ds.conj()
        self.dc = model.dc
        self.d_rows = np.concatenate([di, di])
        self.d_cols = np.concatenate([di, dk])

    def check_voltages(self, v: np.ndarray) -> np.ndarray:
        """Guard the divisions: wye terms divide by V_i, delta terms by V_ik.

        Returns the phase-phase voltage across each delta entry.
        """
        if not v[self.guard].all():
            node = int(self.guard[v[self.guard] == 0.0][0])
            bus, phase = self.model.index.nodes[node]
            raise ZeroVoltageError(
                f"zero voltage at node {bus}:{phase.name} with nonzero power term"
            )
        if not len(self.di):
            return self._vd_empty
        vd = v[self.di] - v[self.dk]
        if not vd.all():
            j = int((vd == 0.0).nonzero()[0][0])
            bus, phase = self.model.index.nodes[int(self.di[j])]
            raise ZeroVoltageError(
                f"zero phase-phase voltage on delta load at {bus}:{phase.name}"
            )
        return vd

    def load_current(self, v: np.ndarray) -> np.ndarray:
        """Current drawn by the non-admittance ZIP components, per node."""
        vd = self.check_voltages(v)
        i_load = np.zeros(self.model.n_node, dtype=complex)
        ws, wi = self.ws, self.wi
        i_load[ws] = self.s_wye_conj / v[ws].conj()
        if len(wi):
            vv = v[wi]
            i_load[wi] += self.i_wye * vv / np.abs(vv)
        if len(vd):
            contrib = self.ds_conj / vd.conj() + self.dc * vd / np.abs(vd)
            np.add.at(i_load, self.di, contrib)
        return i_load

    def network_current(self, v: np.ndarray) -> np.ndarray:
        """Current that must be injected by generation: Y v + ZIP draw."""
        return self.model.y @ v + self.load_current(v)

    def residual(self, v: np.ndarray, s_g: np.ndarray) -> np.ndarray:
        """Complex current mismatch per node; zero iff v solves the network.
        ``drawn`` keeps the currents it subtracts, (Y v, ZIP draw)."""
        i_load = self.load_current(v)
        g = self.gens
        # i_gen - Y v - i_load, subtracted in place in that order
        r = np.zeros(self.model.n_node, dtype=complex)
        r[g] = s_g[g].conj() / v[g].conj()
        yv = self.model.y @ v
        r -= yv
        r -= i_load
        self.drawn = yv, i_load
        return r

    def wirtinger_parts(
        self, v: np.ndarray, s_g: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """State-dependent corrections to A = dr/dV and B = dr/dV*.

        The constant part of A is -Y; everything else is returned here as
        a diagonal vector per matrix, then the values of A+B and of A-B at
        the off-diagonal delta-load triplets ``(d_rows, d_cols)``.  The
        triplet positions are fixed by the model's structure (never by the
        state or the injection values), so callers may freeze sparsity
        patterns across iterations and across refreshed models.
        """
        n = self.model.n_node
        a_diag = np.zeros(n, dtype=complex)
        b_diag = np.zeros(n, dtype=complex)

        g = self.gens
        b_diag[g] -= s_g[g].conj() / v[g].conj() ** 2
        ws = self.ws
        b_diag[ws] += self.s_wye_conj / v[ws].conj() ** 2
        wi = self.wi
        if len(wi):
            vv = v[wi]
            mag = np.abs(vv)
            a_diag[wi] += -self.i_wye / (2.0 * mag)
            b_diag[wi] += self.i_wye * vv**2 / (2.0 * mag**3)

        apb = amb = np.zeros(0, dtype=complex)
        if len(self.di):
            vd = v[self.di] - v[self.dk]
            mag = np.abs(vd)
            # constant-current part in A and B, constant-power part in B
            d_a = -self.dc / (2.0 * mag)
            d_b = self.ds_conj / vd.conj() ** 2 + self.dc * vd**2 / (2.0 * mag**3)
            apb, amb = d_a + d_b, d_a - d_b
            apb, amb = np.concatenate([apb, -apb]), np.concatenate([amb, -amb])
        return a_diag, b_diag, apb, amb


def _real_values(apb: np.ndarray, amb: np.ndarray) -> np.ndarray:
    """The four real blocks' values of complex entries of A+B and A-B."""
    return np.concatenate([apb.real, -amb.imag, apb.imag, amb.real])


def residual_current(
    model: PowerFlowModel, v: np.ndarray, s_g: np.ndarray | None = None
) -> np.ndarray:
    """Complex current mismatch per node; zero iff v solves the network."""
    if s_g is None:
        s_g = model.s_g
    inj = Injections(model, np.flatnonzero(s_g))
    return inj.residual(np.asarray(v, dtype=complex), s_g)


def residual_power(
    model: PowerFlowModel, v: np.ndarray, s_g: np.ndarray | None = None
) -> np.ndarray:
    """Complex power mismatch per node; equals v * conj(current residual)."""
    if s_g is None:
        s_g = model.s_g
    v = np.asarray(v, dtype=complex)
    return s_g - v * np.conj(network_current(model, v))


def network_current(model: PowerFlowModel, v: np.ndarray) -> np.ndarray:
    """Current that must be injected by generation: Y v + ZIP draw."""
    return Injections(model).network_current(np.asarray(v, dtype=complex))
