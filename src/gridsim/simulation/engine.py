"""Deterministic discrete-event engine with two-phase timesteps.

Components declare dependencies on other components; the engine ranks them
by longest-path depth in the dependency DAG so that, whenever several
components act at the same instant, dependencies always run before their
dependents.  Each timestep first runs every update scheduled for that
instant, then drains, until a fixpoint, the set of contingent updates
raised by those updates or since the last timestep.
:meth:`Simulation.initialize` sorts the components once by rank, insertion
order breaking ties, and both phases run in that order.  Time only moves
forward: a component left scheduled at or before the instant that just ran
is an error, and work at one instant goes through contingent updates.

The engine holds its components, and each component refers back to its
simulation only weakly, engine actions on component events included, so a
simulation nobody refers to any more is freed with its components at once,
without waiting for the cycle collector.
"""

from __future__ import annotations

import graphlib
import math
import weakref

from ..core import ComponentCollection, Event

# the most contingent updates one component may take at one instant
CONTINGENT_ROUND_CAP = 100


class SimulationError(RuntimeError):
    pass


class DependencyCycleError(SimulationError):
    pass


class MissingDependencyError(SimulationError):
    pass


class NoPendingUpdateError(SimulationError):
    pass


class LivelockError(SimulationError):
    pass


class ComponentError(SimulationError):
    def __init__(self, component_id, t, cause):
        self.component_id = component_id
        self.t = t
        self.cause = cause
        super().__init__(f"component {component_id!r} failed at t={t}: {cause}")


class SimComponent:
    """Base class for everything the engine schedules.

    Subclasses override :meth:`initialize` (set starting state),
    :meth:`resolve` (look up other components, wire event links), and
    :meth:`update`.  They own their schedule through
    ``next_update_time``, which an update must move past the instant it
    ran at, and signal state changes by triggering ``needs_update``,
    which the engine turns into a contingent update.
    """

    def __init__(self, id: str, dependencies=()):
        self.id = id
        self.dependencies = set(dependencies)
        self.rank = 0
        self.next_update_time = math.inf
        self.needs_update = Event()
        self.did_update = Event()
        self.sim = None

    @property
    def sim(self):
        """The simulation this component was added to, while it exists."""
        return self._sim()

    @sim.setter
    def sim(self, sim) -> None:
        self._sim = weakref.ref(sim) if sim is not None else _no_sim

    def _interval(self, name: str, value) -> float:
        """``value`` of the argument ``name`` as a float, positive and
        finite: an interval of 0 or NaN never moves the clock past the
        instant it ran at, and one of infinity schedules nothing."""
        x = float(value)
        if not 0.0 < x < math.inf:
            raise ValueError(f"{type(self).__name__} {self.id!r}: {name} must "
                             f"be positive and finite, got {value!r}")
        return x

    def depends_on(self, component_id: str) -> None:
        self.dependencies.add(component_id)

    def pre_rank(self, sim) -> None:
        """Hook to declare late dependencies before ranking."""

    def initialize(self, sim) -> None:
        pass

    def resolve(self, sim) -> None:
        pass

    def update(self, t: float) -> None:
        pass

    def output_channels(self):
        """Optional (name, header, row_fn) descriptors for CSV output."""
        return ()

    def __repr__(self):
        return f"{type(self).__name__}({self.id!r})"


def _no_sim():
    return None


class Simulation:
    """Component container, clock, and the two-phase update loop."""

    def __init__(self, start_time: float = 0.0, end_time: float = 0.0):
        self.components = ComponentCollection()
        self.start_time = float(start_time)
        self.end_time = float(end_time)
        self.current_time = float(start_time)
        self.sinks: list = []
        self.timestep_listeners: list = []
        self._initialized = False
        self._order: list[SimComponent] = []    # by rank, then insertion
        self._slot: dict[str, int] = {}         # id -> index into _order
        self._pending_scheduled: set[int] = set()
        self._contingent: set[int] = set()

    # -- construction -------------------------------------------------------

    def add(self, component: SimComponent) -> SimComponent:
        """Insert ``component``; only before :meth:`initialize`, which ranks,
        initializes and resolves every component once."""
        if self._initialized:
            raise SimulationError(
                f"cannot add component {component.id!r} after initialize"
            )
        self.components.insert(component.id, component)
        component.sim = self
        return component

    def get(self, component_id: str) -> SimComponent:
        comp = self.components.get(component_id)
        if comp is None:
            raise MissingDependencyError(f"no component with id {component_id!r}")
        return comp

    def add_sink(self, sink) -> None:
        """Register an update-log sink: callable(time, id, kind, rank)."""
        self.sinks.append(sink)

    def add_timestep_listener(self, listener) -> None:
        """Register a callable(t) invoked after each completed timestep."""
        self.timestep_listeners.append(listener)

    # -- setup --------------------------------------------------------------

    def rank_components(self) -> None:
        """Longest-path depth over the dependency DAG, cycle-checked."""
        for comp in self.components:
            comp.pre_rank(self)
        graph = {}
        for comp in self.components:
            graph[comp.id] = sorted(comp.dependencies)
            for dep_id in graph[comp.id]:
                if dep_id not in self.components:
                    raise MissingDependencyError(
                        f"component {comp.id!r} depends on missing id {dep_id!r}"
                    )
        try:
            order = list(graphlib.TopologicalSorter(graph).static_order())
        except graphlib.CycleError as exc:
            # graphlib lists the cycle from dependency to dependent
            raise DependencyCycleError(
                "dependency cycle: " + " -> ".join(reversed(exc.args[1]))
            ) from None
        for cid in order:
            comp = self.components[cid]
            comp.rank = max((self.components[dep].rank + 1 for dep in graph[cid]),
                            default=0)

    def initialize(self) -> None:
        """Two passes in rank order: set state, then resolve references."""
        self.rank_components()
        self._order = sorted(self.components, key=lambda comp: comp.rank)
        self._slot = {comp.id: k for k, comp in enumerate(self._order)}
        self.current_time = self.start_time
        for comp in self._order:
            self._call(comp, comp.initialize, self)
        sim = weakref.ref(self)
        for comp in self._order:
            self._call(comp, comp.resolve, self)
            comp.needs_update.register(
                lambda cid=comp.id: sim().flag_contingent(cid))
        self._initialized = True

    def _call(self, comp, method, arg) -> None:
        """Run one component call; a failure that is not the engine's own
        becomes a :class:`ComponentError` at the current time."""
        try:
            method(arg)
        except SimulationError:
            raise
        except Exception as exc:
            raise ComponentError(comp.id, self.current_time, exc) from exc

    # -- execution ----------------------------------------------------------

    def flag_contingent(self, component_id: str) -> None:
        """Owe ``component_id`` a contingent update.

        A flag raised during a timestep runs in its contingent phase; one
        raised between timesteps, or while :meth:`initialize` runs, waits
        for the next timestep's.  A scheduled update still pending at the
        instant the flag runs absorbs it, so the component updates once.
        """
        slot = self._slot.get(component_id)
        if slot is None:
            if component_id not in self.components:
                raise MissingDependencyError(
                    f"cannot flag unknown component {component_id!r}")
            raise SimulationError(
                f"cannot flag component {component_id!r} before initialize")
        if slot not in self._pending_scheduled:
            self._contingent.add(slot)

    def _emit(self, t, component_id, kind, rank):
        for sink in self.sinks:
            sink(t, component_id, kind, rank)

    def _run_update(self, comp, t, kind):
        self._call(comp, comp.update, t)
        self._emit(t, comp.id, kind, comp.rank)
        comp.did_update.trigger()

    def next_event_time(self) -> float:
        return min((c.next_update_time for c in self.components
                    if c.next_update_time is not None), default=math.inf)

    def do_timestep(self) -> float:
        if not self._initialized:
            raise SimulationError("simulation is not initialized")
        t = self.next_event_time()
        if t == math.inf:
            raise NoPendingUpdateError("no component has a pending update")
        scheduled = [slot for slot, comp in enumerate(self._order)
                     if comp.next_update_time == t]
        self.current_time = t
        self._pending_scheduled = set(scheduled)
        # a flag raised since the last timestep is absorbed too
        self._contingent -= self._pending_scheduled
        for slot in scheduled:
            comp = self._order[slot]
            self._pending_scheduled.discard(slot)
            if comp.next_update_time == t:
                comp.next_update_time = math.inf
            self._run_update(comp, t, "scheduled")

        counts: dict[int, int] = {}
        while self._contingent:
            slot = min(self._contingent)
            self._contingent.remove(slot)
            counts[slot] = counts.get(slot, 0) + 1
            comp = self._order[slot]
            if counts[slot] > CONTINGENT_ROUND_CAP:
                raise LivelockError(
                    f"component {comp.id!r} exceeded "
                    f"{CONTINGENT_ROUND_CAP} contingent updates at t={t}"
                )
            self._run_update(comp, t, "contingent")
        for comp in self._order:
            if comp.next_update_time is not None and not comp.next_update_time > t:
                raise SimulationError(
                    f"component {comp.id!r} is scheduled at "
                    f"t={comp.next_update_time:g}, not after t={t:g}"
                )
        for listener in self.timestep_listeners:
            listener(t)
        return t

    def run(self) -> None:
        if not self._initialized:
            self.initialize()
        while True:
            t = self.next_event_time()
            if t == math.inf or t > self.end_time:
                break
            self.do_timestep()


class ListSink:
    """Collects update records in memory as (time, id, kind, rank) tuples."""

    def __init__(self):
        self.records: list[tuple] = []

    def __call__(self, t, component_id, kind, rank):
        self.records.append((t, component_id, kind, rank))


class CsvSink:
    """Writes the update log as CSV rows `time,component_id,kind,rank`."""

    def __init__(self, stream):
        self.stream = stream
        self.stream.write("time,component_id,kind,rank\n")

    def __call__(self, t, component_id, kind, rank):
        self.stream.write(f"{t:g},{component_id},{kind},{rank}\n")
