"""Periodic reactive-power optimization of network-coupled inverters."""

from __future__ import annotations

import math

import numpy as np

from ..opf import (
    IpmOptions,
    ipm_solve,
    opf_build,
    opf_refresh,
    voltage_slack_extension,
)
from ..simulation import SimComponent


class VoltVarController(SimComponent):
    """Runs an optimization each interval and assigns inverter Q setpoints.

    The optimization pins generator-bus voltages (matching what a plain
    power-flow solve would hold), leaves inverter reactive output free
    within each capability circle, and softens the voltage band with
    penalized slack variables so it never becomes infeasible.  The band
    used inside the optimization is tightened by ``margin_pu`` relative to
    the reported limits, giving the subsequent power-flow solution
    headroom.  ``last_slack_total`` exposes Σσ from the latest solve: zero
    means every monitored voltage fit the tightened band.

    The optimization problem is held across updates.  It is built once per
    power-flow structure that the network holds, and rebuilt (and solved
    cold) only when that structure is rebuilt (a tap move, say), when a
    variable becomes or stops being fixed (an inverter whose Q capability
    reaches or leaves zero) or its box turns finite or infinite, or when
    the band settings change.  Every other update takes the bounds, loads
    and start point of the network as it stands through
    :func:`opf_refresh` and warm-starts the interior-point solve from the
    previous solution.  The soft-band extension is held with the problem:
    a refresh only moves its slack starts to the bus voltages' violations
    of the band.

    Only an optimal solve's dispatch is applied.  After any other, every
    inverter keeps its Q and ``last_slack_total`` its value, and the next
    update solves cold.  ``solve_count``, ``ipm_iterations``,
    ``problem_builds`` and ``failed_solves`` count the solves, their IPM
    iterations, the problem builds and the solves not applied.
    """

    def __init__(self, id: str, network_id: str, inverter_ids=(),
                 interval_s: float = 600.0,
                 v_min_pu: float = 0.94, v_max_pu: float = 1.06,
                 margin_pu: float = 0.002, slack_weight: float = 1e4):
        super().__init__(id, dependencies={network_id, *inverter_ids})
        self.network_id = network_id
        self.inverter_ids = tuple(inverter_ids)
        self.interval_s = float(interval_s)
        self.v_min_pu = float(v_min_pu)
        self.v_max_pu = float(v_max_pu)
        self.margin_pu = float(margin_pu)
        self.slack_weight = float(slack_weight)
        self.ipm_options = IpmOptions(tol=1e-6, max_iter=150)
        self.last_solution = None
        self.last_slack_total = math.inf
        self.solve_count = 0
        self.ipm_iterations = 0
        self.problem_builds = 0
        self.failed_solves = 0
        self._problem = self._band = self._ext = self._slack_index = None
        self._net = None
        self._inverters = []

    def resolve(self, sim) -> None:
        self._net = sim.get(self.network_id)
        self._inverters = [sim.get(i) for i in self.inverter_ids]

    def initialize(self, sim) -> None:
        self.next_update_time = sim.start_time

    def update(self, t: float) -> None:
        net = self._net.network
        band = (self.v_min_pu + self.margin_pu, self.v_max_pu - self.margin_pu,
                self.slack_weight)
        # generator dispatch stays at the schedule the power flow would use;
        # the inverters' Q ranges are the only physical degrees of freedom
        saved = []
        controlled = {inv.gen_id: inv for inv in self._inverters}
        for g in net.gens:
            saved.append((g, g.p_min, g.p_max, g.q_min, g.q_max))
            inv = controlled.get(g.id)
            if inv is not None:
                p_mw = inv.p_ac_kw / 1000.0
                q_cap = inv.q_capability_kvar() / 1000.0
                g.p_min = g.p_max = p_mw
                g.q_min, g.q_max = -q_cap, q_cap
            elif g.terminal.connected:
                bus = net.buses[g.terminal.bus_id]
                if bus.bus_type == "SL":
                    # the slack absorbs whatever mismatch the power flow
                    # produces, unconstrained by its nameplate box
                    g.p_min, g.p_max = -math.inf, math.inf
                    g.q_min, g.q_max = -math.inf, math.inf
                    continue
                g.p_min = g.p_max = float(g.s.real.sum())
                # the power flow this optimization predicts does not enforce
                # generator Q limits, so the pinned-voltage bus must keep its
                # reactive injection free or the problem can turn infeasible
                g.q_min, g.q_max = -math.inf, math.inf
        try:
            model = self._net.pf_model()
            problem = warm = None
            # the held problem keeps the band rows it was built with
            if self._problem is not None and self._band == band:
                ext = self._ext
                # what voltage_slack_extension starts each slack at: the
                # violation of its node (nodes run in bus and phase order)
                vm = np.abs(model.v_state)
                sigma0 = np.maximum(0.0, np.maximum(vm - band[1], band[0] - vm))
                for var, x0 in zip(ext.variables, sigma0.tolist()):
                    var.x0 = x0
                problem = opf_refresh(self._problem, net, model, [ext])
            if problem is not None and self.last_solution.converged:
                warm = self.last_solution
            if problem is None:
                ext = voltage_slack_extension(net, *band)
                problem = opf_build(net, extensions=[ext], hold_gen_voltage=True,
                                    v_min=0.5, v_max=1.5, start="state",
                                    model=model)
                self.problem_builds += 1
                self._slack_index = np.array([
                    problem.var_index(f"x:{ext.name}:{var.name}")
                    for var in ext.variables], dtype=int)
            solution = ipm_solve(problem, self.ipm_options, warm=warm)
        finally:
            for g, p_lo, p_hi, q_lo, q_hi in saved:
                g.p_min, g.p_max, g.q_min, g.q_max = p_lo, p_hi, q_lo, q_hi
        self._problem, self._band, self._ext = problem, band, ext
        self.last_solution = solution
        self.solve_count += 1
        self.ipm_iterations += solution.iterations
        self.next_update_time = t + self.interval_s
        if not solution.converged:
            self.failed_solves += 1
            return
        self.last_slack_total = float(solution.x[self._slack_index].sum())
        dispatch = solution.gen_dispatch()
        for inv in self._inverters:
            q_mvar = dispatch[inv.gen_id]["Q_MVAr"]
            inv.set_q_kvar(q_mvar * 1000.0)
