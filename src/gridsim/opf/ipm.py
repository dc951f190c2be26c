"""Primal-dual interior-point solver for the assembled optimization model.

Monotone barrier strategy: a damped Newton method on the perturbed KKT
conditions at fixed barrier parameter, shrinking the barrier by a constant
factor once the inner system is solved to the barrier's own scale.  Sparse
linear algebra throughout: each iteration refills the values of the KKT
structure that :func:`~gridsim.opf.problem.opf_build` froze and factors it
with SuperLU.

A warm start (``ipm_solve(..., warm=previous)``) re-enters the barrier path
near a previous optimum of the same structure: the equality multipliers
carry over, slacks and inequality multipliers are shifted away from zero,
and the barrier restarts at :data:`WARM_MU_B` instead of :data:`MU0`, in the
manner of Gondzio & Grothey, "Reoptimization with the primal-dual interior
point method", SIAM J. Optim. 13(3), 2003.

Every KKT factor after the structure's first, cold or warm, takes that
first factor's column order: COLAMD's order depends on the sparsity
pattern alone (Davis, Gilbert, Larimore & Ng, ACM TOMS 30(3), 2004), so
a structure is ordered once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


class NumericalBreakdownError(RuntimeError):
    pass


# A cold solve starts the barrier at MU0; each barrier update multiplies it
# by MU_SHRINK, down to MU_MIN.  A step goes at most FRACTION_TO_BOUNDARY
# of the way to a slack or multiplier bound, and at most
# FRACTION_TO_ZERO_VOLTAGE of the way to a free voltage magnitude of zero;
# each multiplier is then kept within a factor KAPPA_SIGMA of mu_b / s,
# preventing dual blowup on slacks that crash into their bounds.
MU0, MU_SHRINK, MU_MIN = 0.1, 0.2, 1e-12
FRACTION_TO_BOUNDARY = 0.995
FRACTION_TO_ZERO_VOLTAGE = 0.9
KAPPA_SIGMA = 1e10
# barrier parameter a warm start resumes at, in place of MU0; its slacks
# start at least 10·WARM_MU_B clear of their bounds.  On the pvdemo
# volt-VAR controller it takes 4.1 IPM iterations per solve against 11.7
# cold.
WARM_MU_B = 1e-3


@dataclass
class IpmOptions:
    """Stopping settings: the KKT tolerance and the iteration cap."""

    tol: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class OpfSolution:
    x: np.ndarray                  # full variable vector
    x_free: np.ndarray
    lam: np.ndarray                # equality multipliers
    mu: np.ndarray                 # inequality multipliers (>= 0)
    s: np.ndarray                  # inequality slacks (> 0)
    objective: float
    status: str                    # optimal | max_iter | infeasible-detected
    kkt: dict
    iterations: int
    problem: object
    build_s: float = 0.0
    solve_s: float = 0.0
    factor_s: float = 0.0          # summed over iterations
    factorizations: int = 0        # KKT LU factors computed by this solve
    # one entry per iteration: the four KKT norms at its start, the barrier
    # parameter mu_b in force, the primal and dual step lengths it took
    # (None on the iteration that found the point optimal and stopped), the
    # time in its KKT factors, retries included, the diagonal regularization
    # its step used, whether it factored in the kept column order and the
    # entries SuperLU stored for L and U of the factor its step came from
    # (0.0, 0.0, false and 0 on the iteration that stopped)
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "optimal"

    def gen_dispatch(self) -> dict:
        """Per-generator dispatch in MW / MVAr."""
        sb = self.problem.s_base_mva
        return {
            gid: {
                "P_MW": float(self.x[j] * sb),
                "Q_MVAr": float(self.x[j + 1] * sb),
            }
            for gid, j in zip(self.problem.gen_ids, self.problem.gen_p.tolist())
        }

    def node_voltages(self) -> np.ndarray:
        return self.problem.node_voltages(self.x)

    def binding_constraints(self) -> list[str]:
        """Inequalities with a slack below 1e-5 and a multiplier above 1e-6."""
        names = self.problem.ineq_names
        out = []
        for i in range(len(self.s)):
            if abs(float(self.s[i])) < 1e-5 and self.mu[i] > 1e-6:
                out.append(names[i])
        return out


def _dual_residual(res, lam, mu):
    """Gradient of the Lagrangian."""
    return res.grad + res.jac_g.T @ lam + res.jac_h.T @ mu


def _kkt_norms(res, r_d, lam, mu, s):
    """Scaled residual norms of the (unperturbed) KKT system."""
    scale_d = 1.0 + max(
        np.max(np.abs(lam)) if len(lam) else 0.0,
        np.max(np.abs(mu)) if len(mu) else 0.0,
    )
    return {
        "stationarity": float(np.max(np.abs(r_d)) / scale_d) if len(r_d) else 0.0,
        "primal": float(np.max(np.abs(res.g))) if len(res.g) else 0.0,
        "dual": float(np.max(np.abs(res.h + s))) if len(s) else 0.0,
        "complementarity": float(np.max(np.abs(mu * s)) / scale_d) if len(s) else 0.0,
    }


def kkt_residual(problem, solution) -> dict:
    """Recompute the four KKT residual norms at a solution point."""
    res = problem.eval_all(solution.x_free)
    r_d = _dual_residual(res, solution.lam, solution.mu)
    return _kkt_norms(res, r_d, solution.lam, solution.mu, solution.s)


def ipm_solve(problem, opts: IpmOptions | None = None,
              warm: OpfSolution | None = None) -> OpfSolution:
    """Solve ``problem`` from its start point ``problem.x0``.

    ``warm`` is an earlier solution of a problem with the same structure
    (the problem itself, or one :func:`~gridsim.opf.problem.opf_refresh`
    made from it); a solution of another structure raises ``ValueError``.
    The primal start stays ``problem.x0``.  The equality multipliers start
    at ``warm.lam``, the barrier at :data:`WARM_MU_B`, each slack at
    ``max(-h(x0), 10·WARM_MU_B)`` and each inequality multiplier at
    ``max(warm.mu, WARM_MU_B / s)``.  Without ``warm`` the solve starts
    cold: zero equality multipliers, the barrier at :data:`MU0`.

    Every KKT factor reuses the column order that the first COLAMD factor
    on ``problem.kkt`` recorded (see ``FrozenCsc.factor``).
    """
    opts = opts or IpmOptions()
    t0 = time.perf_counter()
    nx = problem.n_var
    x = problem.x0.copy()
    res = problem.eval_all(x)
    n_eq = len(res.g)
    n_in = len(res.h)
    if warm is None:
        lam = np.zeros(n_eq)
        s = np.maximum(-res.h, 1e-2)
        mu_b = MU0
        mu = np.full(n_in, mu_b) / s if n_in else np.zeros(0)
    else:
        if warm.problem.kkt is not problem.kkt:
            raise ValueError("warm start from a problem of another structure")
        mu_b = WARM_MU_B
        lam = warm.lam.copy()
        s = np.maximum(-res.h, 10.0 * mu_b)
        mu = np.maximum(warm.mu, mu_b / s)
    r_d = _dual_residual(res, lam, mu)

    status = "max_iter"
    trace = []
    factorizations = 0
    it = 0
    for it in range(1, opts.max_iter + 1):
        norms = _kkt_norms(res, r_d, lam, mu, s)
        entry = {**norms, "mu_b": mu_b, "alpha_p": None, "alpha_d": None,
                 "factor_s": 0.0, "reg": 0.0, "kept_order": False, "fill": 0}
        trace.append(entry)
        if max(norms.values()) <= opts.tol:
            status = "optimal"
            break

        # Newton step on the barrier KKT system with the slack/multiplier
        # block eliminated
        r_g = res.g
        r_h = res.h + s
        r_c = mu * s - mu_b

        H = res.hess(lam, mu, sigma=1.0)
        rhs_x = -r_d - res.jac_h.T @ ((mu * r_h - r_c) / s)
        kkt_values = problem.kkt.values(H, res.jac_g, res.jac_h, mu / s)
        step, factors = _solve_reg(problem.kkt, kkt_values,
                                   np.concatenate([rhs_x, -r_g]), entry)
        factorizations += factors
        dx = step[:nx]
        dlam = step[nx:]
        ds = -r_h - res.jac_h @ dx
        dmu = (mu_b - mu * s - mu * ds) / s

        alpha_p = _max_step(s, ds, FRACTION_TO_BOUNDARY)
        alpha_d = _max_step(mu, dmu, FRACTION_TO_BOUNDARY)
        # keep voltage magnitudes in the open domain
        vf = problem.v_free
        alpha_p = min(alpha_p,
                      _max_step(x[vf], dx[vf], FRACTION_TO_ZERO_VOLTAGE))
        entry["alpha_p"], entry["alpha_d"] = alpha_p, alpha_d

        x = x + alpha_p * dx
        s = s + alpha_p * ds
        lam = lam + alpha_d * dlam
        mu = mu + alpha_d * dmu
        if n_in:
            mu = np.clip(mu, mu_b / (KAPPA_SIGMA * s), KAPPA_SIGMA * mu_b / s)

        res = problem.eval_all(x)
        r_d = _dual_residual(res, lam, mu)

        # monotone barrier update once the inner system is solved to the
        # barrier's own scale
        inner = _kkt_norms_barrier(res, r_d, mu, s, mu_b)
        if inner <= max(mu_b, opts.tol):
            mu_b = max(mu_b * MU_SHRINK, MU_MIN)

    norms = _kkt_norms(res, r_d, lam, mu, s)
    if status != "optimal" and max(norms.values()) <= opts.tol:
        status = "optimal"
    if status == "max_iter":
        mult_scale = max(
            np.max(np.abs(lam)) if n_eq else 0.0,
            np.max(np.abs(mu)) if n_in else 0.0,
        )
        if mult_scale > 1e8 and norms["primal"] > opts.tol:
            status = "infeasible-detected"

    return OpfSolution(
        x=problem.expand(x),
        x_free=x,
        lam=lam,
        mu=mu,
        s=s,
        objective=res.f,
        status=status,
        kkt=norms,
        iterations=it,
        problem=problem,
        solve_s=time.perf_counter() - t0,
        factor_s=sum(e["factor_s"] for e in trace),
        factorizations=factorizations,
        trace=trace,
    )


def _kkt_norms_barrier(res, r_d, mu, s, mu_b) -> float:
    parts = [np.max(np.abs(r_d)) if len(r_d) else 0.0]
    if len(res.g):
        parts.append(np.max(np.abs(res.g)))
    if len(s):
        parts.append(np.max(np.abs(res.h + s)))
        parts.append(np.max(np.abs(mu * s - mu_b)))
    return float(max(parts))


def _max_step(z, dz, tau) -> float:
    neg = dz < 0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, tau * np.min(-z[neg] / dz[neg])))


def _solve_reg(kkt, values, rhs, entry):
    """Solve the KKT system, adding diagonal regularization on breakdown.

    The iteration's trace ``entry`` gets the time spent in factors, the
    regularization of the step returned, whether its factor took the
    pattern's kept column order and that factor's fill.  Returns the step
    and the number of LU factors computed.
    """
    nx = kkt.n_var
    reg = 0.0
    factors = 0
    for attempt in range(6):
        m = values
        if reg > 0.0:
            m = values.copy()
            m[kkt.diag[:nx]] += reg
            m[kkt.diag[nx:]] -= reg
        entry["kept_order"] = kkt.pattern.perm_c is not None
        t0 = time.perf_counter()
        try:
            solve = kkt.pattern.factor(m)
        except RuntimeError:        # SuperLU: factor is exactly singular
            reg = max(reg * 100.0, 1e-10)
            continue
        finally:
            entry["factor_s"] += time.perf_counter() - t0
        factors += 1
        step = solve(rhs)
        if np.all(np.isfinite(step)):
            entry["reg"], entry["fill"] = reg, kkt.pattern.fill
            return step, factors
        reg = max(reg * 100.0, 1e-10)
    raise NumericalBreakdownError("KKT system is numerically singular")
