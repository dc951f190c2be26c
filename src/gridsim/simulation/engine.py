"""Deterministic discrete-event engine with two-phase timesteps.

Components declare dependencies on other components; the engine ranks them
by longest-path depth in the dependency DAG so that, whenever several
components act at the same instant, dependencies always run before their
dependents.  Each timestep first runs every update scheduled for that
instant, then drains the set of contingent updates raised by those updates
until a fixpoint.  Both phases order components by the key
``(rank, insertion position)``; the position is recorded when the
component is added.

The engine holds its components, and each component refers back to its
simulation only weakly, engine actions on component events included, so a
simulation nobody refers to any more is freed with its components at once,
without waiting for the cycle collector.
"""

from __future__ import annotations

import math
import weakref

from ..core import ComponentCollection, Event


class SimulationError(RuntimeError):
    pass


class DependencyCycleError(SimulationError):
    pass


class MissingDependencyError(SimulationError):
    pass


class NoPendingUpdateError(SimulationError):
    pass


class UnknownPhaseError(SimulationError):
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
    ``next_update_time`` and signal state changes by triggering
    ``needs_update``, which the engine turns into a contingent update.
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

    def __init__(self, start_time: float = 0.0, end_time: float = 0.0,
                 contingent_round_cap: int = 100):
        self.components = ComponentCollection()
        self._position: dict[str, int] = {}
        self.start_time = float(start_time)
        self.end_time = float(end_time)
        self.current_time = float(start_time)
        self.contingent_round_cap = int(contingent_round_cap)
        self.sinks: list = []
        self.timestep_listeners: list = []
        self._initialized = False
        self._phase = "idle"
        self._pending_scheduled: set[str] = set()
        self._contingent: dict[str, None] = {}
        self._timestep_count = 0

    @property
    def in_timestep(self) -> bool:
        """True while a timestep is executing (contingent flags allowed)."""
        return self._phase != "idle"

    # -- construction -------------------------------------------------------

    def add(self, component: SimComponent) -> SimComponent:
        """Insert ``component``; only before :meth:`initialize`, which ranks,
        initializes and resolves every component once."""
        if self._initialized:
            raise SimulationError(
                f"cannot add component {component.id!r} after initialize"
            )
        self.components.insert(component.id, component)
        self._position[component.id] = len(self._position)
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
        state: dict[str, int] = {}  # 0 = visiting, 1 = done
        stack_trace: list[str] = []

        def visit(comp) -> int:
            if state.get(comp.id) == 1:
                return comp.rank
            if state.get(comp.id) == 0:
                cycle = stack_trace[stack_trace.index(comp.id):] + [comp.id]
                raise DependencyCycleError(
                    "dependency cycle: " + " -> ".join(cycle)
                )
            state[comp.id] = 0
            stack_trace.append(comp.id)
            rank = 0
            for dep_id in sorted(comp.dependencies):
                dep = self.components.get(dep_id)
                if dep is None:
                    raise MissingDependencyError(
                        f"component {comp.id!r} depends on missing id {dep_id!r}"
                    )
                rank = max(rank, visit(dep) + 1)
            stack_trace.pop()
            state[comp.id] = 1
            comp.rank = rank
            return rank

        for comp in self.components:
            visit(comp)
        # visit refers to itself through its closure; unbind it so that the
        # cycle does not keep this simulation alive
        del visit

    def _order_key(self, cid):
        return self.components[cid].rank, self._position[cid]

    def initialize(self) -> None:
        """Two passes in rank order: set state, then resolve references."""
        self.rank_components()
        order = sorted(self.components.keys(), key=self._order_key)
        self.current_time = self.start_time
        sim = weakref.ref(self)
        for cid in order:
            comp = self.components[cid]
            try:
                comp.initialize(self)
            except SimulationError:
                raise
            except Exception as exc:
                raise ComponentError(cid, self.start_time, exc) from exc
        for cid in order:
            comp = self.components[cid]
            try:
                comp.resolve(self)
            except SimulationError:
                raise
            except Exception as exc:
                raise ComponentError(cid, self.start_time, exc) from exc
            comp.needs_update.register(
                "engine", lambda cid=cid: sim().flag_contingent(cid)
            )
        self._initialized = True

    # -- execution ----------------------------------------------------------

    def flag_contingent(self, component_id: str) -> None:
        if self.components.get(component_id) is None:
            raise MissingDependencyError(
                f"cannot flag unknown component {component_id!r}"
            )
        if self._phase == "idle":
            raise UnknownPhaseError(
                f"component {component_id!r} flagged outside an active timestep"
            )
        if component_id in self._pending_scheduled:
            # the pending scheduled update at this instant absorbs the flag
            return
        self._contingent.setdefault(component_id)

    def _emit(self, t, component_id, kind, rank):
        for sink in self.sinks:
            sink(t, component_id, kind, rank)

    def _run_update(self, comp, t, kind):
        try:
            comp.update(t)
        except SimulationError:
            raise
        except Exception as exc:
            raise ComponentError(comp.id, t, exc) from exc
        self._emit(t, comp.id, kind, comp.rank)
        comp.did_update.trigger()

    def next_event_time(self) -> float:
        times = [c.next_update_time for c in self.components
                 if c.next_update_time is not None]
        finite = [t for t in times if t != math.inf]
        return min(finite) if finite else math.inf

    def do_timestep(self) -> float:
        if not self._initialized:
            raise SimulationError("simulation is not initialized")
        t = self.next_event_time()
        if t == math.inf:
            raise NoPendingUpdateError("no component has a pending update")
        scheduled = sorted(
            (c.id for c in self.components if c.next_update_time == t),
            key=self._order_key,
        )
        self.current_time = t
        self._phase = "scheduled"
        self._pending_scheduled = set(scheduled)
        self._contingent = {}
        try:
            for cid in scheduled:
                comp = self.components[cid]
                self._pending_scheduled.discard(cid)
                self._contingent.pop(cid, None)
                if comp.next_update_time == t:
                    comp.next_update_time = math.inf
                self._run_update(comp, t, "scheduled")

            self._phase = "contingent"
            counts: dict[str, int] = {}
            while self._contingent:
                cid = min(self._contingent, key=self._order_key)
                del self._contingent[cid]
                counts[cid] = counts.get(cid, 0) + 1
                if counts[cid] > self.contingent_round_cap:
                    raise LivelockError(
                        f"component {cid!r} exceeded "
                        f"{self.contingent_round_cap} contingent updates at t={t}"
                    )
                self._run_update(self.components[cid], t, "contingent")
        finally:
            self._phase = "idle"
            self._pending_scheduled = set()
            self._contingent = {}
        self._timestep_count += 1
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
