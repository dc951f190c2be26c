"""Polar optimal-power-flow model construction with analytic derivatives.

Variables are voltage magnitudes for every node, voltage angles for every
node (slack angles are pinned through equal bounds), real and reactive
dispatch per in-service generator, and any extension variables.  Power
balance at every node forms the nonlinear equality set; box bounds and
branch apparent-power limits form the inequality set.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..powerflow.model import PQ, PV, SL, model_build
from ..powerflow.pattern import FrozenCsc


class OpfBuildError(ValueError):
    pass


class InconsistentBoundsError(OpfBuildError):
    pass


class UnsupportedLoadError(OpfBuildError):
    pass


class DomainViolationError(ValueError):
    pass


@dataclass
class _LinearRow:
    name: str
    cols: np.ndarray
    coeffs: np.ndarray
    const: float


@dataclass
class EvalResult:
    """Values and first derivatives at a point, plus a Hessian closure.

    ``jac_g`` and ``jac_h`` are CSC matrices over the free variables.  Their
    structure is fixed by :func:`opf_build`; only the values change from
    point to point.
    """

    f: float
    grad: np.ndarray
    g: np.ndarray
    jac_g: sp.csc_matrix
    h: np.ndarray
    jac_h: sp.csc_matrix
    # hess(lam_eq, mu_ineq, sigma=1.0) -> symmetric CSC matrix over the free
    # vars, structure fixed by opf_build like jac_g and jac_h
    hess: object


class KktPattern:
    """Frozen structure of the condensed Newton matrix of the IPM.

    The matrix is ``[[H + J_hᵀ Σ J_h, J_gᵀ], [J_g, 0]]`` over the free
    variables and the equality rows, with both diagonals stored so that a
    regularization changes values, never the structure.  ``diag`` holds
    the stored position of each diagonal entry.

    ``pattern`` is that :class:`~gridsim.powerflow.pattern.FrozenCsc`, and
    its ``factor`` keeps the column order of its first factor, a COLAMD
    one: the zero (2,2) block rules out an order of A + A^T.  Problems
    that :func:`opf_refresh` makes share their pattern, so the order
    outlives the problem it was found on.
    """

    def __init__(self, hess: FrozenCsc, jac_g: FrozenCsc, jac_h: FrozenCsc):
        n_eq, nx = jac_g.shape
        self.n_var = nx
        # J_hᵀ Σ J_h couples every pair of entries in one inequality row
        p1, p2 = _row_pairs(jac_h.rows)
        self._pairs = (jac_h.rows[p1], p1, p2)
        d = np.arange(nx + n_eq)
        rows = np.concatenate(
            [hess.rows, jac_h.cols[p1], nx + jac_g.rows, jac_g.cols, d])
        cols = np.concatenate(
            [hess.cols, jac_h.cols[p2], jac_g.cols, nx + jac_g.rows, d])
        self.pattern = FrozenCsc(rows, cols, (nx + n_eq, nx + n_eq),
                                 permc_spec="COLAMD")
        self.diag = self.pattern.position(d, d)
        self._zeros = np.zeros(nx + n_eq)

    def values(self, hess, jac_g, jac_h, sigma) -> np.ndarray:
        """Stored values of the matrix for ``Σ = diag(sigma)``.

        ``hess``, ``jac_g`` and ``jac_h`` must carry the structure the
        problem fixed (as :meth:`OpfProblem.eval_all` returns them).
        """
        row, p1, p2 = self._pairs
        dh = jac_h.data
        return self.pattern.sum(np.concatenate([
            hess.data, sigma[row] * dh[p1] * dh[p2],
            jac_g.data, jac_g.data, self._zeros,
        ]))


class OpfProblem:
    """Assembled optimization model over a network.

    Public attributes of note: ``n_var`` (free variable count), ``x0``
    (strictly interior start), ``names`` (full-variable names), ``gen_ids``
    and ``gen_p`` (each generator's id and the position of its P; its Q
    is next), the evaluation entry point :meth:`eval_all`, and ``kkt``,
    the frozen structure of the IPM's Newton matrix.
    """

    def __init__(self):
        self.names: list[str] = []
        self.lb = None
        self.ub = None
        self.x0_full = None
        self.free = None            # indices of free variables
        self.fixed_values = None    # full-length template with fixed entries set
        self.index = None           # NodeIndex
        self.y = None               # sparse nodal admittance (pu)
        self.s_wye = None
        self.i_wye = None
        self.s_base_mva = 100.0
        self.gen_ids: list[str] = []
        self.gen_p = None           # full position of each generator's P
        self.flow_ids: list[str] = []   # branch id of each pair of flow rows
        self.lin_eq: list[_LinearRow] = []
        self.lin_ineq: list[_LinearRow] = []
        self.q_cost = None          # direct quadratic coefficients per full var
        self.c_cost = None          # linear coefficients per full var
        self.cost0 = 0.0
        self.iv = None              # full positions of v per node
        self.ith = None             # full positions of theta per node
        self.v_free = None          # free-vector positions of the free v's
        self.box_ub = None          # free-var box rows (indices into full vector)
        self.box_lb = None
        self.eq_names: list[str] = []
        self.ineq_names: list[str] = []
        self.kkt: KktPattern | None = None
        self._options: dict = {}    # opf_build's keyword options
        self._position: dict = {}   # full position of each name
        self._ext_keys: list = []   # (extension, variable) name pairs

    # -- sizes ---------------------------------------------------------------

    @property
    def n_full(self) -> int:
        return len(self.names)

    @property
    def n_var(self) -> int:
        return len(self.free)

    @property
    def n_nodes(self) -> int:
        return len(self.iv)

    @property
    def n_eq(self) -> int:
        return 2 * self.n_nodes + len(self.lin_eq)

    @property
    def n_ineq(self) -> int:
        return (len(self.box_ub) + len(self.box_lb) + 2 * len(self.flow_ids)
                + len(self.lin_ineq))

    # -- variable lookup -----------------------------------------------------

    def var_index(self, name: str) -> int:
        try:
            return self._position[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def node_index(self, bus_id, phase=None) -> int:
        """Node of ``bus_id`` on ``phase``, or the bus's first node."""
        try:
            if phase is not None:
                return self.index.index(bus_id, phase)
            nodes = self.index.bus_nodes(bus_id)
            if nodes.start < nodes.stop:
                return nodes.start
        except KeyError:
            pass
        raise KeyError(f"no node for bus {bus_id!r} phase {phase!r}")

    # -- free/full mapping ---------------------------------------------------

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        x = self.fixed_values.copy()
        x[self.free] = x_free
        return x

    def restrict(self, x_full: np.ndarray) -> np.ndarray:
        return np.asarray(x_full, dtype=float)[self.free]

    @property
    def x0(self) -> np.ndarray:
        return self.restrict(self.x0_full)

    # -- sparsity ------------------------------------------------------------

    def _freeze(self, model, limits):
        """Fix the structure of jac_g, jac_h, the Hessian and the KKT matrix.

        Every entry position depends only on the network and the variable
        set, so it is computed here once; :meth:`eval_all` and its Hessian
        closure compute value arrays laid out like the positions below.
        ``limits`` holds the terminal nodes, admittance block, terminal-0
        size and limit (pu) of each rated branch, in flow-row order.
        """
        n = self.n_nodes
        nx = self.n_var
        col = np.full(self.n_full, -1)      # free position of each variable
        col[self.free] = np.arange(nx)
        th, vm = col[self.ith], col[self.iv]
        self.v_free = vm[vm >= 0]
        nodes = np.arange(n)

        y = self.y.tocoo()
        self._y_coo = (y.row, y.col, y.data)

        # generator incidence: each gen's P and Q split evenly over its nodes
        gn = [g.n_phase for g in model.gens]
        g_node = model.gen_node
        g_p = np.repeat(self.gen_p, gn)
        g_q = g_p + 1
        g_w = np.repeat([1.0 / k for k in gn], gn)
        self._gen = (g_node, g_p, g_q, g_w)

        self._lin_eq = a_eq = _LinearRows(self.lin_eq)
        self._lin_in = a_in = _LinearRows(self.lin_ineq)

        ds_r, ds_c = _ds_pattern(y.row, y.col, nodes, th, vm)
        self._jac_g = FrozenCsc(
            np.concatenate([ds_r, n + ds_r, g_node, n + g_node, 2 * n + a_eq.row]),
            np.concatenate([ds_c, ds_c, col[g_p], col[g_q], col[a_eq.col]]),
            (self.n_eq, nx),
        )
        self._jac_g_const = np.concatenate([g_w, g_w, a_eq.coeffs])

        # branch limits over their terminals: a block-diagonal terminal
        # admittance, and the flow row (2k or 2k+1) each terminal sums into
        t_node, t_row, t_r, t_c, t_y = [], [], [], [], []
        off = 0
        for k, (term, y_br, n0, _) in enumerate(limits):
            m = len(term)
            loc = np.arange(m)
            t_node.append(term)
            t_row.append(np.where(loc < n0, 2 * k, 2 * k + 1))
            t_r.append(off + np.repeat(loc, m))
            t_c.append(off + np.tile(loc, m))
            t_y.append(y_br.ravel())
            off += m
        t_node, t_row, t_r, t_c = (_cat(a) for a in (t_node, t_row, t_r, t_c))
        t_y = _cat(t_y, complex)
        self._flow = (t_node, t_row, t_r, t_c, t_y)
        self._y_term = sp.csr_matrix((t_y, (t_r, t_c)), shape=(off, off))
        self._s_max2 = np.repeat([s_max ** 2 for *_, s_max in limits], 2)
        fr, fc = _ds_pattern(t_r, t_c, t_node, th, vm)
        n_flow = 2 * len(limits)
        self._flow_grad = fg = FrozenCsc(t_row[fr], fc, (n_flow, nx))

        nb_u, nb_l = len(self.box_ub), len(self.box_lb)
        self._jac_h = FrozenCsc(
            np.concatenate([np.arange(nb_u + nb_l), nb_u + nb_l + fg.rows,
                            nb_u + nb_l + n_flow + a_in.row]),
            np.concatenate([col[self.box_ub], col[self.box_lb], fg.cols,
                            col[a_in.col]]),
            (self.n_ineq, nx),
        )
        self._box_coeffs = np.concatenate([np.ones(nb_u), -np.ones(nb_l)])

        # Hessian: cost diagonal, network and flow second derivatives, and the
        # flow rows' outer product of gradients
        self._flow_pairs = _row_pairs(fg.rows)
        p1, p2 = self._flow_pairs
        h2_r, h2_c = _d2s_pattern(y.row, y.col, nodes, th, vm)
        f2_r, f2_c = _d2s_pattern(t_r, t_c, t_node, th, vm)
        free = np.arange(nx)
        self._hess = FrozenCsc(np.concatenate([free, h2_r, f2_r, fg.cols[p1]]),
                               np.concatenate([free, h2_c, f2_c, fg.cols[p2]]),
                               (nx, nx))
        self._hess_t = self._hess.position(self._hess.cols, self._hess.rows)

        self.kkt = KktPattern(self._hess, self._jac_g, self._jac_h)

    # -- evaluation ----------------------------------------------------------

    def node_voltages(self, x_full: np.ndarray) -> np.ndarray:
        v = x_full[self.iv]
        th = x_full[self.ith]
        return v * np.exp(1j * th)

    def eval_all(self, x_free: np.ndarray) -> EvalResult:
        x = self.expand(np.asarray(x_free, dtype=float))
        n = self.n_nodes
        v = x[self.iv]
        if np.any(v <= 0.0):
            raise DomainViolationError("voltage magnitude must stay positive")
        V = self.node_voltages(x)
        I = self.y @ V
        S = V * np.conj(I)

        # objective
        f = float(np.dot(self.q_cost, x * x) + np.dot(self.c_cost, x) + self.cost0)
        grad_full = 2.0 * self.q_cost * x + self.c_cost

        # equality values: per-node P and Q balance, then linear rows
        g_node, g_p, g_q, g_w = self._gen
        inj = (np.bincount(g_node, x[g_p] * g_w, n)
               + 1j * np.bincount(g_node, x[g_q] * g_w, n))
        bal = inj - S - self.s_wye - np.conj(self.i_wye) * v
        g = np.concatenate([bal.real, bal.imag, self._lin_eq.values(x)])

        y_r, y_c, y_v = self._y_coo
        ds = _ds(y_r, y_c, y_v, V, I)
        ds[-n:] += np.conj(self.i_wye)      # constant-current loads, d/d|V|
        jac_g = self._jac_g.assemble(
            np.concatenate([-ds.real, -ds.imag, self._jac_g_const]))

        # inequalities: boxes, branch flows, linear rows
        t_node, t_row, t_r, t_c, t_y = self._flow
        Vt = V[t_node]
        It = self._y_term @ Vt
        St = Vt * np.conj(It)
        n_flow = len(self._s_max2)
        s_flow = (np.bincount(t_row, St.real, n_flow)
                  + 1j * np.bincount(t_row, St.imag, n_flow))
        fg = self._flow_grad
        gs = fg.sum(_ds(t_r, t_c, t_y, Vt, It))    # dS_row/dx, complex
        h = np.concatenate([
            x[self.box_ub] - self.ub[self.box_ub],
            self.lb[self.box_lb] - x[self.box_lb],
            np.abs(s_flow) ** 2 - self._s_max2,
            self._lin_in.values(x),
        ])
        jac_h = self._jac_h.assemble(np.concatenate([
            self._box_coeffs,
            2.0 * (np.conj(s_flow[fg.rows]) * gs).real,
            self._lin_in.coeffs,
        ]))

        problem = self
        base_flow = len(self.box_ub) + len(self.box_lb)

        def hess(lam_eq, mu_ineq, sigma=1.0):
            lam_c = lam_eq[:n] - 1j * lam_eq[n:2 * n]
            mu_flow = mu_ineq[base_flow:base_flow + n_flow]
            p1, p2 = problem._flow_pairs
            vals = problem._hess.sum(np.concatenate([
                sigma * 2.0 * problem.q_cost[problem.free],
                _d2s(y_r, y_c, y_v, V, I, -lam_c),
                # d²|S|² = 2 Re(conj(S) d²S) + 2 Re(conj(dS) dSᵀ)
                _d2s(t_r, t_c, t_y, Vt, It, 2.0 * (mu_flow * np.conj(s_flow))[t_row]),
                2.0 * mu_flow[fg.rows[p1]] * (np.conj(gs[p1]) * gs[p2]).real,
            ]))
            return problem._hess.matrix(0.5 * (vals + vals[problem._hess_t]))

        return EvalResult(
            f=f,
            grad=grad_full[self.free],
            g=g,
            jac_g=jac_g,
            h=h,
            jac_h=jac_h,
            hess=hess,
        )


def _cat(parts, dtype=int) -> np.ndarray:
    return np.concatenate(parts) if len(parts) else np.zeros(0, dtype=dtype)


class _LinearRows:
    """Linear rows in COO form over the full variables."""

    def __init__(self, rows):
        self.row = np.repeat(np.arange(len(rows)), [len(r.cols) for r in rows])
        self.col = _cat([r.cols for r in rows])
        self.coeffs = _cat([r.coeffs for r in rows], float)
        self.const = np.array([r.const for r in rows], dtype=float)

    def values(self, x):
        return np.bincount(self.row, self.coeffs * x[self.col],
                           len(self.const)) + self.const


def _row_pairs(rows):
    """Every ordered pair (i, j) of entries with rows[i] == rows[j]."""
    order = np.argsort(rows, kind="stable")
    grouped = rows[order]
    size = np.bincount(rows)[grouped]
    first = np.searchsorted(grouped, grouped)
    i = np.repeat(order, size)
    offset = np.arange(len(i)) - np.repeat(np.cumsum(size) - size, size)
    j = order[np.repeat(first, size) + offset]
    return i, j


# The derivative kernels below follow MATPOWER's dSbus_dV and d2Sbus_dV2 in
# polar form, with values on the COO entries (r, c, y) of an admittance
# matrix and on its diagonal, so that their positions never change.  ``node``
# maps the matrix's rows to network nodes; ``th`` and ``vm`` give each
# node's free-variable position for angle and magnitude (-1 when fixed).


def _ds_pattern(r, c, node, th, vm):
    """(local row, free column) of each value :func:`_ds` returns."""
    d = np.arange(len(node))
    rows = np.concatenate([r, d, r, d])
    cols = np.concatenate([th[node[c]], th[node], vm[node[c]], vm[node]])
    return rows, cols


def _ds(r, c, y, V, I):
    """dS/dθ then dS/d|V| of S = V·conj(I), I = Y V, in COO form."""
    E = V / np.abs(V)
    return np.concatenate([
        -1j * V[r] * np.conj(y * V[c]),
        1j * V * np.conj(I),
        V[r] * np.conj(y * E[c]),
        np.conj(I) * E,
    ])


def _d2s_pattern(r, c, node, th, vm):
    """(free row, free column) of each value :func:`_d2s` returns."""
    n = node
    tr, tc, td = th[n[r]], th[n[c]], th[n]
    vr, vc, vd = vm[n[r]], vm[n[c]], vm[n]
    rows = np.concatenate([tr, tc, td, tr, tc, td, vr, vc, vd, vr, vc])
    cols = np.concatenate([tc, tr, td, vc, vr, vd, tc, tr, td, vc, vr])
    return rows, cols


def _d2s(r, c, y, V, I, lam):
    """Hessian of Re(lamᵀS) over (θ, |V|): θθ, θ|V|, |V|θ, |V||V| blocks.

    Each Y entry k = (r, c) gives C_k = lam_r V_r conj(y_k V_c) at both
    (r, c) and its transpose; the diagonal gathers the terms of
    conj(V)·(Yᴴ(lam V)) and lam·V·conj(I).
    """
    n = len(V)
    lv = lam * V
    C = lv[r] * np.conj(y * V[c])
    w = np.conj(y) * lv[r]
    yh_lv = np.bincount(c, w.real, n) + 1j * np.bincount(c, w.imag, n)
    e_d = np.conj(V) * yh_lv
    f_d = lv * np.conj(I)
    gv = 1.0 / np.abs(V)
    a_rc = 1j * gv[c] * C
    a_cr = -1j * gv[r] * C
    va_d = -1j * gv * (e_d - f_d)
    vv = gv[r] * gv[c] * C
    return np.concatenate([
        C, C, -(e_d + f_d),
        a_rc, a_cr, va_d,
        a_cr, a_rc, va_d,
        vv, vv,
    ]).real


def opf_build(net, extensions=(), hold_power_flow=False,
              v_min=None, v_max=None, start="nominal",
              model=None):
    """Construct an :class:`OpfProblem` from a network.

    ``hold_power_flow`` holds what a power-flow solve of ``model`` holds:
    each regulated node's voltage at the model's target (its PV setpoint,
    or the magnitude of its slack voltage), the slack's P and every
    regulated Q free, and every other P at its output, so only generators
    on PQ nodes keep a box, for Q.  Otherwise every generator keeps its
    boxes and generator-bus voltages float inside the bus limits.
    ``v_min``/``v_max`` override the per-bus magnitude bounds with
    scalars.  ``start="state"`` seeds the iterate from the network's
    current voltages and generator injections instead of the nominal
    profile — useful when re-optimizing around an already-solved
    operating point.  ``model`` is a power-flow model of ``net`` as it
    stands (a simulation passes the one it holds); it is built from
    ``net`` when omitted.  The variables and which of them are fixed or
    boxed are decided here; :func:`opf_refresh` later moves only the
    values of the problem onto a changed network.
    """
    if start not in ("nominal", "state"):
        raise ValueError(f"unknown start mode {start!r}")
    if model is None:
        model = model_build(net)
    if len(model.di):
        raise UnsupportedLoadError(
            "delta-connected ZIP loads are not supported in the optimization model"
        )
    p = OpfProblem()
    p._options = dict(hold_power_flow=hold_power_flow, v_min=v_min,
                      v_max=v_max, start=start)
    p.index = model.index
    p.y = model.y.tocsr()
    p.s_base_mva = model.s_base_mva
    n = model.n_node
    nodes = model.index.nodes
    p._ext_keys = [(ext.name, var.name)
                   for ext in extensions for var in ext.variables]
    # voltage magnitudes, then angles, one per node; then P and Q per
    # generator; then the extension variables
    p.names = names = (
        [f"v:{bid}:{ph.name}" for bid, ph in nodes]
        + [f"th:{bid}:{ph.name}" for bid, ph in nodes]
        + [f"{kind}:{g.id}" for g in model.gens for kind in ("pg", "qg")]
        + [f"x:{ext}:{var}" for ext, var in p._ext_keys])
    position = p._position
    for j, name in enumerate(names):
        if position.setdefault(name, j) != j:
            raise OpfBuildError(f"duplicate extension variable {name}")
    for name, value in _values(net, model, extensions, names,
                               **p._options).items():
        setattr(p, name, value)
    v_nom = model.v_nom

    p.iv = np.arange(n)
    p.ith = np.arange(n, 2 * n)
    p.gen_ids = [g.id for g in model.gens]
    p.gen_p = 2 * n + 2 * np.arange(len(model.gens))
    for g, node_idx in zip(model.gens, _gen_nodes(model)):
        # equal magnitudes and nominal angle spacing across a multi-phase
        # generator bus
        if len(node_idx) > 1:
            ref = node_idx[0]
            for ni in node_idx[1:]:
                p.lin_eq.append(_LinearRow(
                    name=f"vmag_eq:{g.id}:{ni}",
                    cols=np.array([p.iv[ni], p.iv[ref]]),
                    coeffs=np.array([1.0, -1.0]), const=0.0,
                ))
                spacing = float(np.angle(v_nom[ni]) - np.angle(v_nom[ref])) \
                    if abs(v_nom[ni]) > 0 and abs(v_nom[ref]) > 0 else 0.0
                p.lin_eq.append(_LinearRow(
                    name=f"ang_eq:{g.id}:{ni}",
                    cols=np.array([p.ith[ni], p.ith[ref]]),
                    coeffs=np.array([1.0, -1.0]), const=-spacing,
                ))

    # branch apparent-power limits on the terminal nodes and admittance
    # blocks of the model's branch groups, in network order
    rated = {br.id: (nodes, y, br.model.n_phase0, br.s_max_mva / p.s_base_mva)
             for group in model.branch_groups
             for br, nodes, y in zip(*group) if np.isfinite(br.s_max_mva)}
    p.flow_ids = [br.id for br in net.branches if br.id in rated]

    # objective: generator polynomial cost on MW plus extension terms
    nf = len(names)
    p.q_cost = np.zeros(nf)
    p.c_cost = np.zeros(nf)
    sb = p.s_base_mva
    cost = np.array([g.cost for g in model.gens], dtype=float).reshape(-1, 3)
    p.q_cost[p.gen_p] += cost[:, 2] * sb * sb
    p.c_cost[p.gen_p] += cost[:, 1] * sb
    p.cost0 = sum(cost[:, 0].tolist(), 0.0)
    ext_vars = [var for ext in extensions for var in ext.variables]
    p.c_cost[nf - len(ext_vars):] += [var.cost_lin for var in ext_vars]
    p.q_cost[nf - len(ext_vars):] += [var.cost_quad for var in ext_vars]

    # extension constraints, with symbolic references resolved to positions
    def resolve(ref):
        kind = ref[0]
        if kind == "v":
            return int(p.iv[p.node_index(*ref[1:])])
        if kind == "theta":
            return int(p.ith[p.node_index(*ref[1:])])
        if kind in ("pg", "qg"):
            if ref[1] not in p.gen_ids:
                raise KeyError(f"no generator {ref[1]!r}")
            return int(p.gen_p[p.gen_ids.index(ref[1])]) + (kind == "qg")
        if kind == "ext":
            return position[f"x:{ref[1]}:{ref[2]}"]
        raise KeyError(f"bad variable reference {ref!r}")

    for ext in extensions:
        for con in ext.linear_constraints:
            cols = np.array([resolve(r) for r, _ in con.terms], dtype=int)
            coeffs = np.array([c for _, c in con.terms], dtype=float)
            row = _LinearRow(name=f"{ext.name}:{con.name}", cols=cols,
                             coeffs=coeffs, const=con.const)
            (p.lin_eq if con.equality else p.lin_ineq).append(row)

    p.eq_names = (
        [f"P_bal:{bid}:{ph.name}" for bid, ph in model.index.nodes]
        + [f"Q_bal:{bid}:{ph.name}" for bid, ph in model.index.nodes]
        + [row.name for row in p.lin_eq]
    )
    p.ineq_names = (
        [f"ub:{names[j]}" for j in p.box_ub]
        + [f"lb:{names[j]}" for j in p.box_lb]
        + [f"flow:{key}:{side}" for key in p.flow_ids for side in (0, 1)]
        + [row.name for row in p.lin_ineq]
    )
    p._freeze(model, [rated[key] for key in p.flow_ids])
    return p


def opf_refresh(problem, net, model, extensions=()):
    """``problem`` with the bounds, start point and loads of ``net`` now.

    The values a fresh :func:`opf_build` would compute with the options
    ``problem`` was built with (``lb``, ``ub``, ``fixed_values``,
    ``x0_full``, ``s_wye`` and ``i_wye``, extension-variable starts among
    them) go into a shallow copy of ``problem``, so ``problem`` and
    solutions that refer to it keep their own values.  Everything else is
    shared with ``problem`` unchanged: the frozen derivative and KKT
    structure, the names, generator costs, branch limits, and the
    extensions' constraint rows, so ``extensions`` must
    state the same rows as at the build.  ``model`` must be a model of
    ``net`` on the power-flow structure ``problem`` was built on.

    Returns None when the structure no longer fits and the problem must be
    rebuilt: ``model`` carries another Y-bus, the extension variables
    differ, a variable became or stopped being fixed, or one of its bounds
    turned finite or infinite.
    """
    if model.y.tocsr() is not problem.y or problem._ext_keys != [
            (ext.name, var.name) for ext in extensions for var in ext.variables]:
        return None
    values = _values(net, model, extensions, problem.names, **problem._options)
    if not all(np.array_equal(values[k], getattr(problem, k))
               for k in ("free", "box_ub", "box_lb")):
        return None
    fresh = copy.copy(problem)
    for name in ("lb", "ub", "fixed_values", "x0_full", "s_wye", "i_wye"):
        setattr(fresh, name, values[name])
    return fresh


def _gen_nodes(model):
    """Each generator's node indices, in ``model.gens`` order."""
    ends = np.cumsum([g.n_phase for g in model.gens])
    return np.split(model.gen_node, ends[:-1])


def _values(net, model, extensions, names, hold_power_flow, v_min, v_max,
            start) -> dict:
    """Bounds, free set and start point of the variables ``names`` lists,
    and loads, gathered from ``net`` and its power-flow ``model``.

    :func:`opf_build` and :func:`opf_refresh` both take these values from
    here, so a refreshed problem holds exactly what a fresh build would.
    ``names`` serves the error messages alone.
    """
    sb = model.s_base_mva
    gens = model.gens
    n_gen = len(gens)
    # node order is bus order, then phase order within a bus
    v_lo = np.concatenate([np.zeros(0)] + [b.v_mag_min for b in net.buses]) \
        if v_min is None else np.full(model.n_node, v_min, dtype=float)
    v_hi = np.concatenate([np.zeros(0)] + [b.v_mag_max for b in net.buses]) \
        if v_max is None else np.full(model.n_node, v_max, dtype=float)
    v_start = model.v_state if start == "state" else model.v_nom
    # hypot rounds like the scalar abs() of a complex; np.abs may not
    mag = np.hypot(v_start.real, v_start.imag)
    live = mag > 0
    v0 = np.where(live, mag, 1.0)
    ang = np.where(live, np.angle(v_start), 0.0)
    # only slack angles are bounded, pinned at their start
    slack = model.node_type == SL
    th_lo = np.where(slack, ang, -np.inf)
    th_hi = np.where(slack, ang, np.inf)

    # generators: (p_min, p_max, q_min, q_max) and outputs, in pu
    n_phase = np.array([g.n_phase for g in gens], dtype=int)
    gen_of = np.repeat(np.arange(n_gen), n_phase)
    s = np.concatenate([np.zeros(0, complex)] + [g.s for g in gens])
    p_out = np.bincount(gen_of, s.real, n_gen) / sb
    box = np.array([(g.p_min, g.p_max, g.q_min, g.q_max) for g in gens],
                   dtype=float).reshape(-1, 4) / sb
    if hold_power_flow:
        kind = model.node_type[model.gen_node[np.cumsum(n_phase) - n_phase]]
        # the slack absorbs whatever mismatch the power flow produces
        box[:, 0] = box[:, 1] = p_out
        box[kind == SL, :2] = -np.inf, np.inf
        # a power flow holds the voltage of a PV or slack node at the
        # model's target and enforces no Q limit there; a generator on a
        # PQ node is just a negative load
        box[kind != PQ, 2:] = -np.inf, np.inf
        pin = np.where(model.node_type == PV, model.v_set_pv,
                       np.hypot(model.v_sl.real, model.v_sl.imag))
        held = model.node_type != PQ
        v_lo[held] = v_hi[held] = v0[held] = pin[held]
    if start == "state":
        q_out = np.bincount(gen_of, s.imag, n_gen) / sb
        g0 = np.column_stack([p_out, q_out])
    else:
        total_load = float(np.sum(model.s_wye.real))
        g0 = np.column_stack([np.full(n_gen, total_load / max(n_gen, 1)),
                              np.zeros(n_gen)])

    # extension variables: (lb, ub, x0)
    ext = np.array([(var.lb, var.ub, var.x0) for e in extensions
                    for var in e.variables], dtype=float).reshape(-1, 3)
    gx_lo = np.concatenate([box[:, [0, 2]].ravel(), ext[:, 0]])
    gx_hi = np.concatenate([box[:, [1, 3]].ravel(), ext[:, 1]])
    gx0 = np.clip(np.concatenate([g0.ravel(), ext[:, 2]]), gx_lo, gx_hi)

    lb = np.concatenate([v_lo, th_lo, gx_lo])
    ub = np.concatenate([v_hi, th_hi, gx_hi])
    x0 = np.concatenate([v0, ang, gx0])

    # eliminate variables whose bounds pin them to a point; a bus band,
    # generator box or extension variable may be empty
    if np.any(lb > ub):
        bad = [names[i] for i in np.flatnonzero(lb > ub)]
        raise InconsistentBoundsError(f"lb > ub for {bad}")
    fixed = lb == ub
    free = np.flatnonzero(~fixed)
    x0 = np.where(fixed, lb, x0)
    # nudge the start strictly inside finite boxes
    has_lo, has_hi = np.isfinite(lb), np.isfinite(ub)
    margin = np.where(has_lo | has_hi, 1e-3, 0.0)
    both = ~fixed & has_lo & has_hi
    margin[both] = np.minimum(1e-3, 0.05 * (ub[both] - lb[both]))
    x0 = np.where(~fixed & has_lo, np.maximum(x0, lb + margin), x0)
    x0 = np.where(~fixed & has_hi, np.minimum(x0, ub - margin), x0)
    return {
        "lb": lb, "ub": ub, "free": free,
        "fixed_values": np.where(fixed, lb, 0.0), "x0_full": x0,
        "box_ub": free[has_hi[free]], "box_lb": free[has_lo[free]],
        "s_wye": model.s_wye.copy(), "i_wye": model.i_wye.copy(),
    }
