"""Analytic rectangular Jacobian of the current-injection residuals.

The complex residual r(V, V*) is differentiated in Wirtinger form first
(A = dr/dV, B = dr/dV*); the real 2x2 block Jacobian over (Re V, Im V)
follows from

    d Re r / d Re V =  Re(A + B)      d Re r / d Im V = -Im(A - B)
    d Im r / d Re V =  Im(A + B)      d Im r / d Im V =  Re(A - B)
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .model import PowerFlowModel
from .pattern import FrozenCsc


def wirtinger_parts(
    model: PowerFlowModel, v: np.ndarray, s_g: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
    """State-dependent corrections to A = dr/dV and B = dr/dV*.

    The constant part of A is -Y; everything else is returned here as a
    diagonal vector per matrix plus off-diagonal COO triplets (from delta
    loads).  The triplet *positions* depend only on the model, never on the
    state, so callers may cache sparsity patterns across iterations.
    """
    if s_g is None:
        s_g = model.s_g
    v = np.asarray(v, dtype=complex)
    n = model.n_node

    a_diag = np.zeros(n, dtype=complex)
    b_diag = np.zeros(n, dtype=complex)

    has_gen = s_g != 0.0
    b_diag[has_gen] -= s_g[has_gen].conj() / v[has_gen].conj() ** 2

    wye_s = model.s_wye != 0.0
    b_diag[wye_s] += model.s_wye[wye_s].conj() / v[wye_s].conj() ** 2

    wye_i = model.i_wye != 0.0
    if np.any(wye_i):
        vv = v[wye_i]
        mag = np.abs(vv)
        a_diag[wye_i] += -model.i_wye[wye_i] / (2.0 * mag)
        b_diag[wye_i] += model.i_wye[wye_i] * vv**2 / (2.0 * mag**3)

    a_r = np.zeros(0, dtype=int)
    a_c = np.zeros(0, dtype=int)
    a_v = np.zeros(0, dtype=complex)
    b_r = np.zeros(0, dtype=int)
    b_c = np.zeros(0, dtype=int)
    b_v = np.zeros(0, dtype=complex)
    if len(model.di):
        vd = v[model.di] - v[model.dk]
        mag = np.abs(vd)
        ws = model.ds != 0.0
        wc = model.dc != 0.0
        if np.any(ws):
            # Constant-power delta component.
            d_b = model.ds[ws].conj() / vd[ws].conj() ** 2
            b_r = np.concatenate([b_r, model.di[ws], model.di[ws]])
            b_c = np.concatenate([b_c, model.di[ws], model.dk[ws]])
            b_v = np.concatenate([b_v, d_b, -d_b])
        if np.any(wc):
            # Constant-current delta component.
            d_a = -model.dc[wc] / (2.0 * mag[wc])
            d_b = model.dc[wc] * vd[wc] ** 2 / (2.0 * mag[wc] ** 3)
            a_r = np.concatenate([model.di[wc], model.di[wc]])
            a_c = np.concatenate([model.di[wc], model.dk[wc]])
            a_v = np.concatenate([d_a, -d_a])
            b_r = np.concatenate([b_r, model.di[wc], model.di[wc]])
            b_c = np.concatenate([b_c, model.di[wc], model.dk[wc]])
            b_v = np.concatenate([b_v, d_b, -d_b])
    return a_diag, b_diag, (a_r, a_c, a_v), (b_r, b_c, b_v)


def wirtinger_derivatives(
    model: PowerFlowModel, v: np.ndarray, s_g: np.ndarray | None = None
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Return (dr/dV, dr/dV*) of residual_current at state v."""
    n = model.n_node
    a_diag, b_diag, a_x, b_x = wirtinger_parts(model, v, s_g)
    y = model.y.tocsr()
    a = sp.csr_matrix((-y.data, y.indices, y.indptr), shape=(n, n))
    if np.any(a_diag):
        a = a + sp.diags(a_diag)
    if len(a_x[2]):
        a = a + sp.csr_matrix((a_x[2], (a_x[0], a_x[1])), shape=(n, n))
    b = sp.diags(b_diag, format="csr")
    if len(b_x[2]):
        b = b + sp.csr_matrix((b_x[2], (b_x[0], b_x[1])), shape=(n, n))
    return a.tocsr(), b.tocsr()


def real_block_jacobian(
    a: sp.csr_matrix, b: sp.csr_matrix
) -> sp.csr_matrix:
    """Assemble [[dRer/dReV, dRer/dImV], [dImr/dReV, dImr/dImV]]."""
    n = a.shape[0]
    apb = (a + b).tocoo()
    amb = (a - b).tocoo()
    rows = np.concatenate([apb.row, amb.row, apb.row + n, amb.row + n])
    cols = np.concatenate([apb.col, amb.col + n, apb.col, amb.col + n])
    data = np.concatenate(
        [apb.data.real, -amb.data.imag, apb.data.imag, amb.data.real]
    )
    return sp.coo_matrix((data, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()


def jacobian_rect(
    model: PowerFlowModel, v: np.ndarray, s_g: np.ndarray | None = None
) -> sp.csr_matrix:
    """Real Jacobian d(Re r, Im r)/d(Re V, Im V) over all nodes."""
    a, b = wirtinger_derivatives(model, v, s_g)
    return real_block_jacobian(a, b)


class JacobianAssembler:
    """Reusable assembler for the reduced Newton matrix.

    The complex entries of A+B and A-B live at fixed positions (the Y
    pattern, the diagonal, and the delta-load triplets), so the expanded
    real pattern, its restriction to non-slack nodes, and the frozen CSC
    structure (:class:`FrozenCsc`) are all computed once; each call only
    rebuilds the value array.

    ``extra_pattern`` is (rows, cols, n_extra_var) appending fixed
    positions (e.g. PV magnitude rows and reactive-power columns) beyond
    the 2*nf voltage unknowns; their values are passed per call.
    """

    def __init__(self, model: PowerFlowModel, free: np.ndarray,
                 extra_pattern=None):
        self.model = model
        n = model.n_node
        nf = len(free)
        self.nf = nf
        col_of = np.full(n, -1, dtype=int)
        col_of[free] = np.arange(nf)
        ycoo = model.y.tocoo()
        self._ydata = ycoo.data
        diag = np.arange(n)
        # probe at an arbitrary state with distinct node voltages (so no
        # phase-phase difference vanishes) to fix the extras pattern
        probe = 1.0 + 0.01j * (1.0 + np.arange(n))
        _, _, a_x, b_x = wirtinger_parts(model, probe)
        rows = np.concatenate([ycoo.row, diag, a_x[0], b_x[0]])
        cols = np.concatenate([ycoo.col, diag, a_x[1], b_x[1]])
        keep = (col_of[rows] >= 0) & (col_of[cols] >= 0)
        self._keep = keep
        ri = col_of[rows[keep]]
        ci = col_of[cols[keep]]
        rows = np.concatenate([ri, ri, nf + ri, nf + ri])
        cols = np.concatenate([ci, nf + ci, ci, nf + ci])
        size = 2 * nf
        if extra_pattern is not None:
            er, ec, n_extra = extra_pattern
            rows = np.concatenate([rows, er])
            cols = np.concatenate([cols, ec])
            size += n_extra
        self.size = size
        self._pattern = FrozenCsc(rows, cols, (size, size))

    def assemble(
        self, v: np.ndarray, s_g: np.ndarray, extra_vals=None
    ) -> sp.csc_matrix:
        """Reduced real Jacobian at state v (plus any extra entry values)."""
        model = self.model
        a_diag, b_diag, a_x, b_x = wirtinger_parts(model, v, s_g)
        apb = np.concatenate(
            [-self._ydata, a_diag + b_diag, a_x[2], b_x[2]]
        )[self._keep]
        amb = np.concatenate(
            [-self._ydata, a_diag - b_diag, a_x[2], -b_x[2]]
        )[self._keep]
        data = np.concatenate([apb.real, -amb.imag, apb.imag, amb.real])
        if extra_vals is not None:
            data = np.concatenate([data, extra_vals])
        return self._pattern.assemble(data)
