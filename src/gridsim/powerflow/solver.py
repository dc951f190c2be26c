"""Rectangular current-injection Newton-Raphson solver."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from ..network import Network
from .model import (PQ, PV, SL, PfOptions, PowerFlowModel, ZeroVoltageError,
                    generation_refresh, model_build, model_refresh)
from .pattern import FrozenCsc
from .residuals import Injections, _real_values, network_current


# A held step (one taken with the factor a held system kept from an
# earlier solve) is accepted only if it cuts the max residual to at most
# this fraction of the residual before it.  On pvdemo it leaves 0.19 LU
# factors per re-solve instead of 2.51, at 4.45 steps instead of 2.51.
HELD_CONTRACTION = 0.1

# A Newton step is halved until it lowers the max residual, at most this
# often; when no length does, the solve stops as stalled.
MAX_HALVINGS = 30


class SingularJacobianError(RuntimeError):
    pass


@dataclass
class PfSolution:
    v: np.ndarray                  # complex node voltages (pu)
    s_g: np.ndarray                # complex gen injection per node (pu)
    iterations: int
    converged: bool
    residual_norm: float
    build_s: float = 0.0
    solve_s: float = 0.0
    factor_s: float = 0.0          # summed over iterations
    factorizations: int = 0        # LU factors computed by this solve
    # The iteration whose Newton step no length could make lower the max
    # residual, where the solve stopped; None if it did not stall.
    stalled_at: int | None = None
    # One entry per step taken: max residual before the step (pu), the
    # step length, how often it was halved, whether the step factored a
    # new Jacobian or took the held factor, and the factor time (0 when
    # held).
    trace: list[dict] = field(default_factory=list, repr=False)
    model: PowerFlowModel | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        model = self.model
        per_node = []
        if model is not None:
            for i, (bus, phase) in enumerate(model.index.nodes):
                per_node.append(
                    {
                        "bus": bus,
                        "phase": phase.name,
                        "Vmag_pu": float(np.abs(self.v[i])),
                        "Varg_deg": float(np.angle(self.v[i], deg=True)),
                    }
                )
        return {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "residual_pu": float(self.residual_norm),
            "timing": {
                "build_s": self.build_s,
                "solve_s": self.solve_s,
                "factor_s": self.factor_s,
            },
            "nodes": per_node,
        }


def flat_start(model: PowerFlowModel) -> np.ndarray:
    """Nominal angles, unit magnitude at PQ, setpoint magnitude at PV."""
    code = model.node_type
    mag = np.abs(model.v_nom)
    nz = mag > 0
    unit = np.where(nz, model.v_nom / np.where(nz, mag, 1.0), 1.0 + 0.0j)
    # where v_nom is 0 the unit phasor is 1: PV nodes start at their
    # setpoint there, PQ nodes at 0
    v = unit * np.where(code == PV, model.v_set_pv, nz)
    return np.where(code == SL, model.v_sl, v)


def warm_start(model: PowerFlowModel) -> np.ndarray:
    """The state voltages, with flat-start values at slack nodes and
    wherever the state voltage is 0."""
    v = model.v_state.copy()
    slack = model.node_type == SL
    v[slack] = model.v_sl[slack]
    zero = v == 0.0
    if zero.any():
        v[zero] = flat_start(model)[zero]
    return v


class NewtonSystem:
    """The reduced real Newton system that :func:`nr_solve` iterates on.

    The unknowns x are (Re V, Im V) at the non-slack nodes, then the
    reactive generation at each PV node; :meth:`unknowns` and
    :meth:`point` map between x and the (V, S_g) a residual reads, and no
    other code knows that layout.  The equations are (Re r, Im r) at the
    same nodes, then |V|^2 = setpoint^2 at each PV node.

    The index sets and the Jacobian pattern (the -Y blocks, the diagonal,
    the delta-load triplets, the PV rows and columns) are built once, for
    at least a whole solve, in ``pattern`` and in one CSC matrix of it,
    its ``refilled`` one, that :meth:`jacobian` refills; ``pattern.factor``
    keeps the LU ordering of its first factor.  They depend
    on the model's structure only, and ``y`` is the Y-bus they were built
    on: :meth:`load` moves the system to another model of that structure
    (new injection values, so new :class:`Injections`) and keeps them.
    ``last_solve`` is the ``solve`` of the newest LU factor
    :func:`nr_solve` computed on the system (None before the first); a
    system held across solves starts each solve with it.
    """

    last_solve = None

    def __init__(self, model: PowerFlowModel):
        self.y = model.y
        self.free = free = (model.node_type != SL).nonzero()[0]
        self._is_pv = model.node_type == PV
        self.pv = pv = self._is_pv.nonzero()[0]
        self.load(model)
        y = model.y.tocsr()
        n, nf, npv, ny = y.shape[0], len(free), len(pv), y.nnz
        # Complex entries: Y, then the diagonal, then the delta triplets.
        # Slack nodes map far enough below zero that no block offset makes
        # them valid, so FrozenCsc drops their rows and columns.
        col_of = np.full(n, -2 * n)
        col_of[free] = np.arange(nf)
        y_rows = np.repeat(np.arange(n), y.indptr[1:] - y.indptr[:-1])
        r = col_of[np.concatenate([y_rows, free, self.inj.d_rows])]
        c = col_of[np.concatenate([y.indices, free, self.inj.d_cols])]
        m = len(r)
        # PV magnitude rows and reactive-power columns, after the 2 nf
        # voltage unknowns
        pv_cols, mag = col_of[pv], 2 * nf + np.arange(npv)
        size = 2 * nf + npv
        self.pattern = pattern = FrozenCsc(
            np.concatenate([r, r, nf + r, nf + r,
                            pv_cols, nf + pv_cols, mag, mag]),
            np.concatenate([c, nf + c, c, nf + c,
                            mag, mag, pv_cols, nf + pv_cols]),
            (size, size),
        )
        slots = pattern.slots[: 4 * m].reshape(4, m)
        self._diag_pos = slots[:, ny : ny + nf].ravel()
        delta = slots[:, ny + nf :].ravel()
        self._delta_keep = (delta >= 0).nonzero()[0]
        self._delta_pos = delta[self._delta_keep]
        self._pv_pos = pattern.slots[4 * m :]
        y_val = np.zeros(m, dtype=complex)
        y_val[:ny] = -y.data
        base = pattern.sum(np.concatenate(
            [_real_values(y_val, y_val), np.zeros(4 * npv)]
        ))
        self._diag_base = base[self._diag_pos]
        self._delta_base = base[self._delta_pos]
        self._jac = pattern.refilled = pattern.matrix(base)

    def load(self, model: PowerFlowModel) -> None:
        """Take the injection values and setpoints of ``model``."""
        self.v_set2 = model.v_set_pv[self.pv] ** 2
        # PV nodes carry generation even while their reactive power is 0
        self.inj = Injections(
            model, ((model.s_g != 0.0) | self._is_pv).nonzero()[0]
        )

    def unknowns(self, v: np.ndarray, s_g: np.ndarray) -> np.ndarray:
        """The Newton unknowns x at the state (v, s_g)."""
        vf = v[self.free]
        return np.concatenate([vf.real, vf.imag, s_g[self.pv].imag])

    def point(
        self, x: np.ndarray, v: np.ndarray, s_g: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The state (v, s_g) with its unknowns replaced by ``x``.

        New arrays: the slack voltages and every generation but the PV
        reactive power are those of the state passed in.
        """
        nf = len(self.free)
        v, s_g = v.copy(), s_g.copy()
        v[self.free] = x[:nf] + 1j * x[nf : 2 * nf]
        s_g[self.pv] = s_g[self.pv].real + 1j * x[2 * nf :]
        return v, s_g

    def residual(self, v: np.ndarray, s_g: np.ndarray) -> np.ndarray:
        """Stacked real residual: Re r, Im r at free nodes, then PV |V|."""
        r = self.inj.residual(v, s_g)[self.free]
        mag = np.abs(v[self.pv]) ** 2
        mag -= self.v_set2
        return np.concatenate([r.real, r.imag, mag])

    def jacobian(self, v: np.ndarray, s_g: np.ndarray) -> sp.csc_matrix:
        """Derivative of :meth:`residual` over x.

        The same matrix object is returned by every call: only its
        diagonal, delta and PV entries are rewritten, the rest keep -Y.
        """
        a_diag, b_diag, apb, amb = self.inj.wirtinger_parts(v, s_g)
        data = self._jac.data
        data[self._delta_pos] = self._delta_base
        a_diag, b_diag = a_diag[self.free], b_diag[self.free]
        data[self._diag_pos] = self._diag_base + _real_values(
            a_diag + b_diag, a_diag - b_diag
        )
        if len(self._delta_pos):
            vals = _real_values(apb, amb)
            np.add.at(data, self._delta_pos, vals[self._delta_keep])
        vp = v[self.pv]
        # dQg columns: dr_i/dQg_i = -1j / conj(V_i).
        dq = -1j / vp.conj()
        data[self._pv_pos] = np.concatenate(
            [dq.real, dq.imag, 2.0 * vp.real, 2.0 * vp.imag]
        )
        return self._jac


def jacobian_rect(
    model: PowerFlowModel, v: np.ndarray, s_g: np.ndarray | None = None
) -> sp.csc_matrix:
    """Real Jacobian d(Re r, Im r)/d(Re V, Im V) over all nodes.

    It is the Newton matrix of the same model with every node PQ, so
    with no slack and no PV unknowns.
    """
    if s_g is None:
        s_g = model.s_g
    all_pq = replace(model, node_type=np.full(model.n_node, PQ), s_g=s_g)
    return NewtonSystem(all_pq).jacobian(np.asarray(v, dtype=complex), s_g)


def nr_solve(
    model: PowerFlowModel,
    opts: PfOptions | None = None,
    held: HeldPowerFlow | None = None,
) -> PfSolution:
    """Newton iteration on the current-injection residuals.

    PV nodes keep |V| at the setpoint through an added magnitude equation
    with the reactive generation as a matching extra unknown.  Slack nodes
    are held fixed and their generation recovered afterwards.  The index
    sets of the injections, the Jacobian pattern and the LU ordering are
    fixed once per call (:class:`NewtonSystem`), or once per structure
    when ``held`` keeps the system of ``model``'s structure between calls;
    each iteration refills values only.  A singular Jacobian, or a Newton
    step or trial residual that is not finite, or a trial point with zero
    voltage where a load or generator divides by it, raises
    :class:`SingularJacobianError` naming the iteration.

    A Newton step is accepted only if it lowers the max residual; it is
    halved up to :data:`MAX_HALVINGS` times until it does.  When no length
    does, the solve stops unconverged with ``stalled_at`` set to that
    iteration, which is then neither counted in ``iterations`` nor traced.

    A system from ``held`` also keeps the newest LU factor across calls.
    A solve on it first takes held steps: full chord steps with that
    factor, no Jacobian and no new factor.  A
    held step counts only if it cuts the max residual to at most
    :data:`HELD_CONTRACTION` times the residual before it; the first
    that misses is discarded (it is neither an iteration nor in the
    trace), and the solve goes on as Newton from the last accepted point,
    its newest factor becoming the held one.  Without ``held`` every step
    is a Newton step.
    """
    if opts is None:
        opts = PfOptions()
    t0 = time.perf_counter()
    system = NewtonSystem(model) if held is None else held.system(model)
    v = flat_start(model) if opts.start == "flat" else warm_start(model)
    s_g = model.s_g.copy()
    x = system.unknowns(v, s_g)

    def trial(alpha):
        """Unknowns, state, residual and its max norm at ``x + alpha * dx``."""
        # a full step adds dx as it is: 1.0 * dx is dx, bit for bit
        x_try = x + dx if alpha == 1.0 else x + alpha * dx
        v_try, s_try = system.point(x_try, v, s_g)
        try:
            f_try = system.residual(v_try, s_try)
        except ZeroVoltageError as exc:
            raise SingularJacobianError(
                f"{exc} after the step at iteration {iterations}") from None
        norm_try = float(np.abs(f_try).max()) if len(f_try) else 0.0
        return x_try, v_try, s_try, f_try, norm_try

    trace = []
    iterations = 0
    factorizations = 0
    converged = False
    stalled_at = None
    fvec = system.residual(v, s_g)
    norm = float(np.abs(fvec).max()) if len(fvec) else 0.0
    held_solve = system.last_solve

    while iterations < opts.max_iter:
        if norm <= opts.tol_pu:
            converged = True
            break
        iterations += 1

        if held_solve is not None:
            dx = held_solve(-fvec)
            if np.isfinite(dx).all():
                step = trial(1.0)
                if step[-1] <= HELD_CONTRACTION * norm:
                    trace.append({"residual_pu": norm, "alpha": 1.0,
                                  "halvings": 0, "factored": False,
                                  "factor_s": 0.0})
                    x, v, s_g, fvec, norm = step
                    continue
            held_solve = None

        jac = system.jacobian(v, s_g)
        system.last_solve = None  # free the last factor before the next
        tf = time.perf_counter()
        try:
            system.last_solve = system.pattern.factor(jac.data)
        except RuntimeError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {iterations}: {exc}"
            ) from None
        factor_s = time.perf_counter() - tf
        factorizations += 1
        dx = system.last_solve(-fvec)
        if not np.isfinite(dx).all():
            raise SingularJacobianError(
                f"non-finite Newton step at iteration {iterations}"
            )

        alpha = 1.0
        for halvings in range(MAX_HALVINGS + 1):
            if halvings:
                alpha *= 0.5
            step = trial(alpha)
            if not np.isfinite(step[-1]):
                raise SingularJacobianError(
                    f"non-finite residual after the step at iteration {iterations}"
                )
            if step[-1] < norm:
                break
        else:
            stalled_at = iterations
            iterations -= 1
            break
        trace.append({"residual_pu": norm, "alpha": alpha,
                      "halvings": halvings, "factored": True,
                      "factor_s": factor_s})
        x, v, s_g, fvec, norm = step

    if norm <= opts.tol_pu:
        converged = True

    # Recover generation at slack (and final PV reactive power).
    s_g_out = s_g.copy()
    sl = (model.node_type == SL).nonzero()[0]
    if len(sl):
        inj = system.inj.network_current(v)
        s_g_out[sl] = v[sl] * np.conj(inj[sl])

    return PfSolution(
        v=v,
        s_g=s_g_out,
        iterations=iterations,
        converged=converged,
        residual_norm=norm,
        solve_s=time.perf_counter() - t0,
        factor_s=sum(it["factor_s"] for it in trace),
        factorizations=factorizations,
        stalled_at=stalled_at,
        trace=trace,
        model=model,
    )


def apply_solution(net: Network, sol: PfSolution) -> None:
    """Write solved voltages and recovered generation back to the network.

    The generators on a slack node share its recovered power equally; those
    on a PV node share equally the reactive power their fixed output lacks.
    Generators on PQ nodes keep their output.
    """
    model = sol.model
    # one copy, split along the index's bus slices, which run in bus order
    v = sol.v.copy()
    for bus, nodes in zip(net.buses, model.index.bus_slices.values()):
        bus.v = v[nodes]
    # only the generators on slack and PV nodes change (see InjectionPlan)
    plan = model.plan
    if not plan.set_gens:
        return
    node, count = plan.set_node, plan.set_count
    s = np.concatenate([g.s for g in plan.set_gens])
    q_fixed = np.zeros(model.n_node)
    np.add.at(q_fixed, node, s.imag)
    s_g = sol.s_g[node]
    dq = (s_g.imag * net.s_base_mva - q_fixed[node]) / count
    s = np.where(plan.set_slack, s_g * net.s_base_mva / count,
                 s.real + 1j * (s.imag + dq))
    for gen, slots in zip(plan.set_gens, plan.set_slots):
        gen.s[:] = s[slots]


# The kinds of network edit a holder can be told of, widest first: one
# that changes the structure (taps, admittances, in-service flags, wiring,
# buses, bus types), one that changes ZIP power or current terms, and one
# that changes only generator outputs or setpoints.
CHANGES = ("structure", "injections", "generation")


class HeldPowerFlow:
    """One network's power-flow structure, held across solves.

    The first :meth:`model` builds the model with :func:`model_build`;
    later calls refresh only its injection values and state voltages
    (:func:`model_refresh`) on the same Y-bus, node index and node types,
    until :meth:`invalidate` says the structure changed.  The
    :class:`NewtonSystem` of that structure, with its Jacobian pattern,
    kept LU ordering and newest LU factor, is built by the first
    :func:`nr_solve` on it and reloaded by the later ones, which start with
    held steps on that factor.  Invalidating drops all of it, the factor
    too.  The holder never notices a structural edit by itself: whoever
    edits the network calls :meth:`invalidate`.

    An editor may also tell the holder what each edit touched, through
    :meth:`changed`.  When the edits since the last model were all
    ``generation``, the next model is a :func:`generation_refresh`, which
    leaves the ZIP terms as they were; after no edit at all, or a wider
    one, it is a full refresh.  So a holder nobody tells refreshes in
    full every time.  ``builds``, ``full_refreshes`` and
    ``generation_refreshes`` count the models of each kind.
    """

    def __init__(self):
        self._model = None
        self._system = None
        self._change = None     # the widest edit since the last model
        self.builds = 0
        self.full_refreshes = 0
        self.generation_refreshes = 0

    def invalidate(self) -> None:
        """Forget the structure; the next :meth:`model` rebuilds it."""
        self._model = self._system = None

    def changed(self, kind: str) -> None:
        """Take note of an edit of the network of kind ``kind``, one of
        :data:`CHANGES`."""
        if kind == "structure":
            self.invalidate()
        elif kind == "injections":
            self._change = kind
        elif kind != "generation":
            raise ValueError(f"unknown change kind {kind!r}; "
                             f"expected one of {CHANGES}")
        elif self._change is None:
            self._change = kind

    def model(self, net: Network) -> PowerFlowModel:
        """The model of ``net`` as it stands, on the held structure."""
        model = None
        if self._model is not None and self._change == "generation":
            model = generation_refresh(self._model, net)
            self.generation_refreshes += 1
        elif self._model is not None:
            model = model_refresh(self._model, net)
            self.full_refreshes += model is not None
        if model is None:
            model = model_build(net)
            self.builds += 1
        self._model = model
        self._change = None
        return model

    def system(self, model: PowerFlowModel) -> NewtonSystem:
        """The Newton system of ``model``'s structure, loaded with it."""
        if self._system is None or self._system.y is not model.y:
            self._system = NewtonSystem(model)
        else:
            self._system.load(model)
        return self._system


def solve_network(
    net: Network,
    opts: PfOptions | None = None,
    held: HeldPowerFlow | None = None,
) -> PfSolution:
    """Build the model, run Newton, and write a converged solution back.

    The caller reads ``converged`` on the result.  With ``held`` the model
    and Newton system come from, and stay in, that holder instead of being
    built for this call alone.
    """
    t0 = time.perf_counter()
    model = model_build(net) if held is None else held.model(net)
    build_s = time.perf_counter() - t0
    sol = nr_solve(model, opts, held)
    sol.build_s = build_s
    if sol.converged:
        apply_solution(net, sol)
    return sol


def recover_flows(net: Network, sol: PfSolution) -> dict:
    """Per-terminal complex power and current, bus-into-terminal sign.

    Keyed by branch id in network order, over the branches the solution's
    model stamped; each branch group's currents come from one batched
    product of its admittance blocks with its terminal voltages.
    """
    flows: dict[str, dict] = {}
    for branches, nodes, y in sol.model.branch_groups:
        v_term = sol.v[nodes]
        i_term = np.matmul(y, v_term[:, :, None])[:, :, 0]
        s_term = v_term * np.conj(i_term)
        for branch, i, s in zip(branches, i_term, s_term):
            n0 = branch.model.n_phase0
            flows[branch.id] = {"I0": i[:n0], "I1": i[n0:],
                                "S0": s[:n0], "S1": s[n0:]}
    return {b.id: flows[b.id] for b in net.branches if b.id in flows}


def total_balance(net: Network, sol: PfSolution) -> complex:
    """Total generation minus load minus losses; ~0 at a converged state."""
    model = sol.model
    inj = network_current(model, sol.v)
    total_gen = np.sum(sol.s_g)
    total_consumed = np.sum(sol.v * np.conj(inj))
    return complex(total_gen - total_consumed)
