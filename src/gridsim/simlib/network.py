"""Network wrapper and time-series-driven network members."""

from __future__ import annotations

import math

from ..core import TimeSeries
from ..powerflow import HeldPowerFlow, PfOptions, solve_network
# solve_network writes the solution back; apply_solution stays importable
# here for code that wraps it by module attribute
from ..powerflow import apply_solution  # noqa: F401
from ..simulation import SimComponent, SimulationError


class PowerFlowAbort(SimulationError):
    """Raised when the quasi-steady-state solve fails mid-simulation."""

    def __init__(self, t, detail):
        self.t = t
        self.detail = detail
        super().__init__(f"power flow did not converge at t={t}: {detail}")


class SimNetwork(SimComponent):
    """Holds a network and re-solves it when members mark it dirty.

    Components that change network state call :meth:`mark_dirty`; the engine
    then runs this component's contingent update, which performs exactly one
    solve per timestep no matter how many members changed.

    The power-flow structure (Y-bus, model, Newton pattern and LU order) is
    held across solves and rebuilt only after a structural change; each
    solve refreshes the injections and, with the default warm start,
    resumes from the current bus voltages.  The newest LU factor is held
    too, so a re-solve after a small change first takes held steps on it
    and factors only when one of them fails to contract (see
    :func:`~gridsim.powerflow.nr_solve`).  Each model (a solve's, or
    :meth:`pf_model`'s) after generation marks alone leaves the ZIP terms
    as they were; after no mark, or a wider one, it regathers every
    value.  ``solve_count``, ``newton_iterations``,
    ``factorizations`` and ``model_builds`` count the solves, their
    Newton steps (held ones included), their LU factors and the
    structure builds; ``full_refreshes`` and ``generation_refreshes``
    count the models taken on a held structure, by kind.
    """

    def __init__(self, id: str, network, pf_options: PfOptions | None = None):
        super().__init__(id)
        self.network = network
        self.pf_options = pf_options or PfOptions(start="warm")
        self.solution = None
        self.solve_count = 0
        self.newton_iterations = 0
        self.factorizations = 0
        self.dirty = True
        self._held = HeldPowerFlow()

    @property
    def model_builds(self) -> int:
        return self._held.builds

    @property
    def full_refreshes(self) -> int:
        return self._held.full_refreshes

    @property
    def generation_refreshes(self) -> int:
        return self._held.generation_refreshes

    def pre_rank(self, sim) -> None:
        # Every component that feeds this network must update first.
        # Components that declare the reverse dependency (they read the
        # solved state, e.g. a controller) are consumers, not feeders.
        for comp in sim.components:
            if (getattr(comp, "network_id", None) == self.id
                    and self.id not in comp.dependencies):
                self.depends_on(comp.id)

    def mark_dirty(self, change: str = "structure") -> None:
        """Ask for a re-solve after an edit of the network.

        ``change`` declares what the edit touched.  ``"generation"``
        promises generator outputs or voltage setpoints only, and the next
        model regathers those and the bus voltages.  ``"injections"``
        promises ZIP constant-power or constant-current terms too, and the
        next model regathers every value.  Every other edit (taps, branch
        or ZIP admittances, in-service flags, wiring, buses, bus types)
        keeps the default, ``"structure"``, which rebuilds the Y-bus and
        model before the next solve.
        """
        self._held.changed(change)
        self.dirty = True
        # between timesteps the flag alone is enough: the next update
        # (scheduled or contingent) performs the solve
        sim = getattr(self, "sim", None)
        if sim is not None and sim.in_timestep:
            self.needs_update.trigger()

    def initialize(self, sim) -> None:
        self._held.invalidate()
        self.dirty = True
        self.next_update_time = sim.start_time

    def pf_model(self):
        """The power-flow model of the network as it stands now."""
        return self._held.model(self.network)

    def solve(self, t: float) -> None:
        try:
            sol = solve_network(self.network, self.pf_options, held=self._held)
        except Exception as exc:
            raise PowerFlowAbort(t, exc) from exc
        if not sol.converged:
            raise PowerFlowAbort(t, f"residual {sol.residual_norm:.3e}")
        self.solution = sol
        self.solve_count += 1
        self.newton_iterations += sol.iterations
        self.factorizations += sol.factorizations
        self.dirty = False

    def update(self, t: float) -> None:
        if self.dirty:
            self.solve(t)

    def node_voltage(self, bus_id):
        """The complex voltage of the first node of ``bus_id`` (pu)."""
        return self.network.buses[bus_id].v[0]

    def output_channels(self):
        def rows(t):
            out = []
            for bus in self.network.buses:
                for j, phase in enumerate(bus.phases):
                    out.append((t, f"{bus.id}:{phase.name}", abs(bus.v[j])))
            return out

        return (("network", "time,node,Vmag_pu", rows),)


class TimeSeriesZip(SimComponent):
    """Drives a ZIP load's constant-power part from a time series.

    Series values are ``[P, Q]`` pairs per phase slot, in MW/MVAr by default
    (``units="pu"`` for per-unit).  Stepwise series schedule updates exactly
    at their knots; linearly interpolated series resample at a fixed
    interval, and once more at their last knot when it falls between two
    resamples.
    """

    def __init__(self, id: str, network_id: str, zip_id: str,
                 series: TimeSeries, units: str = "MW", scale: float = 1.0,
                 resample_interval_s: float = 600.0):
        super().__init__(id)
        self.network_id = network_id
        self.zip_id = zip_id
        self.series = series
        if units not in ("MW", "pu"):
            raise ValueError(f"unknown units {units!r}")
        self.units = units
        self.scale = float(scale)
        self.resample_interval_s = float(resample_interval_s)
        self._net = None
        self._zip = None

    def resolve(self, sim) -> None:
        self._net = sim.get(self.network_id)
        self._zip = self._net.network.zips[self.zip_id]
        if self.series.dimension != 2 * self._zip.n_phase:
            raise ValueError(
                f"{self.id}: series dimension {self.series.dimension} does not "
                f"match {2 * self._zip.n_phase} (P,Q per phase slot)"
            )

    def initialize(self, sim) -> None:
        self.next_update_time = sim.start_time

    def update(self, t: float) -> None:
        value = self.series.value_at(t) * self.scale
        base = self._net.network.s_base_mva if self.units == "MW" else 1.0
        for slot in range(self._zip.n_phase):
            p, q = value[2 * slot], value[2 * slot + 1]
            self._zip.set_wye(slot, s=complex(p, q) / base)
        self._net.mark_dirty("injections")
        if self.series.interpolation == "stepwise":
            nxt = self.series.next_knot_after(t)
            self.next_update_time = math.inf if nxt is None else float(nxt)
        elif t < self.series.end_time:
            # the last knot gets an update even off the resample grid
            self.next_update_time = min(t + self.resample_interval_s,
                                        float(self.series.end_time))
        else:
            self.next_update_time = math.inf


class TimeSeriesTapChanger(SimComponent):
    """Replays a recorded tap schedule onto a branch model."""

    def __init__(self, id: str, network_id: str, branch_id: str,
                 series: TimeSeries):
        super().__init__(id)
        self.network_id = network_id
        self.branch_id = branch_id
        self.series = series
        self._net = None
        self._branch = None

    def resolve(self, sim) -> None:
        self._net = sim.get(self.network_id)
        self._branch = self._net.network.branches[self.branch_id]

    def initialize(self, sim) -> None:
        self.next_update_time = sim.start_time

    def update(self, t: float) -> None:
        tap = float(self.series.value_at(t)[0])
        if tap != self._branch.model.tap:
            self._branch.model.tap = tap
            self._net.mark_dirty()
        nxt = self.series.next_knot_after(t)
        self.next_update_time = math.inf if nxt is None else float(nxt)
