"""Analytic rectangular Jacobian of the current-injection residuals.

The complex residual r(V, V*) is differentiated in Wirtinger form first
(A = dr/dV, B = dr/dV*); the real 2x2 block Jacobian over (Re V, Im V)
follows from

    d Re r / d Re V =  Re(A + B)      d Re r / d Im V = -Im(A - B)
    d Im r / d Re V =  Im(A + B)      d Im r / d Im V =  Re(A - B)

A is -Y plus state-dependent terms and B has state-dependent terms only,
all of them on the diagonal or at the delta-load triplets.  Their
positions come from the index sets of an :class:`~.residuals.Injections`.

:class:`JacobianAssembler` is the one builder of the real matrix: it
fills the constant -Y part once and rewrites only those entries per
call.  The Newton solver runs it over the non-slack nodes, once per
solve; :func:`jacobian_rect` is the same assembler over all nodes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .model import PowerFlowModel
from .pattern import FrozenCsc
from .residuals import Injections


def wirtinger_parts(
    inj: Injections, v: np.ndarray, s_g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """State-dependent corrections to A = dr/dV and B = dr/dV*.

    The constant part of A is -Y; everything else is returned here as a
    diagonal vector per matrix, then the values of A+B and of A-B at the
    off-diagonal delta-load triplets ``(inj.d_rows, inj.d_cols)``.  The
    triplet positions are fixed by the model's structure (never by the
    state or the injection values), so callers may freeze sparsity
    patterns across iterations and across refreshed models.
    """
    n = inj.model.n_node
    a_diag = np.zeros(n, dtype=complex)
    b_diag = np.zeros(n, dtype=complex)

    g = inj.gens
    b_diag[g] -= s_g[g].conj() / v[g].conj() ** 2
    ws = inj.ws
    b_diag[ws] += inj.s_wye_conj / v[ws].conj() ** 2
    wi = inj.wi
    if len(wi):
        vv = v[wi]
        mag = np.abs(vv)
        a_diag[wi] += -inj.i_wye / (2.0 * mag)
        b_diag[wi] += inj.i_wye * vv**2 / (2.0 * mag**3)

    apb = amb = np.zeros(0, dtype=complex)
    if len(inj.di):
        vd = v[inj.di] - v[inj.dk]
        mag = np.abs(vd)
        # constant-current part in A and B, constant-power part in B
        d_a = -inj.dc / (2.0 * mag)
        d_b = inj.ds_conj / vd.conj() ** 2 + inj.dc * vd**2 / (2.0 * mag**3)
        apb, amb = d_a + d_b, d_a - d_b
        apb, amb = np.concatenate([apb, -apb]), np.concatenate([amb, -amb])
    return a_diag, b_diag, apb, amb


def _real_values(apb, amb):
    """The four real blocks' values of complex entries of A+B and A-B."""
    return np.concatenate([apb.real, -amb.imag, apb.imag, amb.real])


class JacobianAssembler:
    """Reusable assembler for the reduced Newton matrix.

    The complex entries of A+B and A-B live at fixed positions: the Y
    pattern, the diagonal, and the delta-load triplets that ``inj`` lists.
    The real pattern restricted to the ``free`` nodes, its CSC structure
    (the :class:`FrozenCsc` ``pattern``) and the constant ``-Y`` values are
    fixed once, in one CSC matrix that every call reuses: a call rewrites
    only the state-dependent diagonal, delta and extra entries.

    ``extra_pattern`` is (rows, cols, n_extra_var) appending fixed
    positions (e.g. PV magnitude rows and reactive-power columns) beyond
    the 2*nf voltage unknowns; their values are passed per call.
    """

    def __init__(self, inj: Injections, free: np.ndarray,
                 extra_pattern=None):
        self.inj = inj
        self.free = free
        y = inj.model.y.tocsr()
        n, nf, ny = y.shape[0], len(free), y.nnz
        # Complex entries: Y, then the diagonal, then the delta triplets.
        # Slack nodes map far enough below zero that no block offset makes
        # them valid, so FrozenCsc drops their rows and columns.
        col_of = np.full(n, -2 * n)
        col_of[free] = np.arange(nf)
        y_rows = np.repeat(np.arange(n), y.indptr[1:] - y.indptr[:-1])
        r = col_of[np.concatenate([y_rows, free, inj.d_rows])]
        c = col_of[np.concatenate([y.indices, free, inj.d_cols])]
        m = len(r)
        r_im, c_im = nf + r, nf + c
        rows = [r, r, r_im, r_im]
        cols = [c, c_im, c, c_im]
        size = 2 * nf
        if extra_pattern is not None:
            er, ec, n_extra = extra_pattern
            rows.append(er)
            cols.append(ec)
            size += n_extra
        self.size = size
        self.pattern = pattern = FrozenCsc(
            np.concatenate(rows), np.concatenate(cols), (size, size)
        )
        slots = pattern.slots[: 4 * m].reshape(4, m)
        self._diag_pos = slots[:, ny : ny + nf].ravel()
        delta = slots[:, ny + nf :].ravel()
        self._delta_keep = (delta >= 0).nonzero()[0]
        self._delta_pos = delta[self._delta_keep]
        self._extra_pos = pattern.slots[4 * m :]
        y_val = np.zeros(m, dtype=complex)
        y_val[:ny] = -y.data
        base = pattern.sum(np.concatenate(
            [_real_values(y_val, y_val), np.zeros(len(self._extra_pos))]
        ))
        self._diag_base = base[self._diag_pos]
        self._delta_base = base[self._delta_pos]
        self._jac = pattern.matrix(base)

    def assemble(
        self, v: np.ndarray, s_g: np.ndarray, extra_vals=None
    ) -> sp.csc_matrix:
        """Reduced real Jacobian at state v (plus any extra entry values).

        The same matrix object is returned by every call: only its
        diagonal, delta and extra entries are rewritten, the rest keep -Y.
        """
        a_diag, b_diag, apb, amb = wirtinger_parts(self.inj, v, s_g)
        data = self._jac.data
        data[self._delta_pos] = self._delta_base
        a_diag, b_diag = a_diag[self.free], b_diag[self.free]
        data[self._diag_pos] = self._diag_base + _real_values(
            a_diag + b_diag, a_diag - b_diag
        )
        if len(self._delta_pos):
            vals = _real_values(apb, amb)
            np.add.at(data, self._delta_pos, vals[self._delta_keep])
        if extra_vals is not None:
            data[self._extra_pos] = extra_vals
        return self._jac


def jacobian_rect(
    model: PowerFlowModel, v: np.ndarray, s_g: np.ndarray | None = None
) -> sp.csc_matrix:
    """Real Jacobian d(Re r, Im r)/d(Re V, Im V) over all nodes."""
    if s_g is None:
        s_g = model.s_g
    inj = Injections(model, np.flatnonzero(s_g))
    assembler = JacobianAssembler(inj, np.arange(model.n_node))
    return assembler.assemble(np.asarray(v, dtype=complex), s_g)
