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
from ..opf.extensions import slack_starts
from ..simulation import SimComponent
from .components import PvInverter


class VoltVarController(SimComponent):
    """Runs an optimization each interval and assigns inverter Q setpoints.

    The optimization holds what a power-flow solve holds
    (``hold_power_flow``), which leaves free only the Q of generators on PQ
    nodes, each in its own box: every inverter must be an ``opf-controlled``
    PvInverter on a PQ bus, whose box is its capability circle.  Penalized
    slack variables soften the voltage band so it never becomes infeasible.
    The band used inside the optimization is tightened by ``margin_pu``
    relative to the reported limits, giving the subsequent power-flow
    solution headroom.  ``last_slack_total`` exposes Σσ from the latest
    solve: zero means every monitored voltage fit the tightened band.

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
        self.interval_s = self._interval("interval_s", interval_s)
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
        net = self._net.network
        for inv in self._inverters:
            gen = net.gens[inv.gen_id] if isinstance(inv, PvInverter) else None
            # any other inverter's Q is pinned by its mode or set by the
            # power flow, so the controller could never move it
            if gen is None or inv.q_mode != "opf-controlled" \
                    or net.buses[gen.terminal.bus_id].bus_type != "PQ":
                raise ValueError(
                    f"{inv.id!r} is not an opf-controlled PvInverter on a PQ bus")

    def initialize(self, sim) -> None:
        self.next_update_time = sim.start_time

    def update(self, t: float) -> None:
        net = self._net.network
        band = (self.v_min_pu + self.margin_pu, self.v_max_pu - self.margin_pu,
                self.slack_weight)
        model = self._net.pf_model()
        problem = warm = None
        # the held problem keeps the band rows it was built with
        if self._problem is not None and self._band == band:
            ext = self._ext
            # slacks run in node order, as voltage_slack_extension adds them
            sigma0 = slack_starts(model.v_state, band[0], band[1])
            for var, x0 in zip(ext.variables, sigma0.tolist()):
                var.x0 = x0
            problem = opf_refresh(self._problem, net, model, [ext])
        if problem is not None and self.last_solution.converged:
            warm = self.last_solution
        if problem is None:
            ext = voltage_slack_extension(net, *band)
            problem = opf_build(net, extensions=[ext], hold_power_flow=True,
                                v_min=0.5, v_max=1.5, start="state",
                                model=model)
            self.problem_builds += 1
            self._slack_index = np.array([
                problem.var_index(f"x:{ext.name}:{var.name}")
                for var in ext.variables], dtype=int)
        solution = ipm_solve(problem, self.ipm_options, warm=warm)
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
