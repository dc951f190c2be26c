import gc
import io
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from gridsim.simulation import (
    ComponentError,
    CsvSink,
    DependencyCycleError,
    ListSink,
    LivelockError,
    MissingDependencyError,
    NoPendingUpdateError,
    SimComponent,
    Simulation,
    SimulationError,
)
from gridsim.simulation.engine import CONTINGENT_ROUND_CAP


class Ticker(SimComponent):
    """Updates on a fixed period and logs its calls."""

    def __init__(self, id, period, log=None, dependencies=()):
        super().__init__(id, dependencies)
        self.period = period
        self.log = log if log is not None else []

    def initialize(self, sim):
        self.next_update_time = sim.start_time

    def update(self, t):
        self.log.append((t, self.id))
        self.next_update_time = t + self.period


class Poker(Ticker):
    """Ticker that also flags a contingent update on a target."""

    def __init__(self, id, period, target, log=None, dependencies=()):
        super().__init__(id, period, log, dependencies)
        self.target = target

    def update(self, t):
        super().update(t)
        self.sim.flag_contingent(self.target)


def test_ranking_longest_path():
    sim = Simulation(0, 10)
    a = sim.add(Ticker("a", 1))
    b = sim.add(Ticker("b", 1, dependencies=("a",)))
    c = sim.add(Ticker("c", 1, dependencies=("a", "b")))
    d = sim.add(Ticker("d", 1))
    sim.rank_components()
    assert (a.rank, b.rank, c.rank, d.rank) == (0, 1, 2, 0)


def test_cycle_detection_with_trace():
    sim = Simulation()
    sim.add(Ticker("a", 1, dependencies=("c",)))
    sim.add(Ticker("b", 1, dependencies=("a",)))
    sim.add(Ticker("c", 1, dependencies=("b",)))
    with pytest.raises(DependencyCycleError) as err:
        sim.rank_components()
    assert "->" in str(err.value)


def test_cycle_message_follows_the_dependencies():
    sim = Simulation()
    sim.add(Ticker("a", 1, dependencies=("c",)))
    sim.add(Ticker("b", 1, dependencies=("a",)))
    sim.add(Ticker("c", 1, dependencies=("b",)))
    with pytest.raises(DependencyCycleError,
                       match="^dependency cycle: a -> c -> b -> a$"):
        sim.rank_components()


def test_missing_dependency():
    sim = Simulation()
    sim.add(Ticker("a", 1, dependencies=("ghost",)))
    with pytest.raises(MissingDependencyError):
        sim.rank_components()


def test_scheduled_order_rank_then_insertion():
    log = []
    sim = Simulation(0, 0)
    sim.add(Ticker("late", 1, log))
    sim.add(Ticker("dep", 1, log, dependencies=("base",)))
    sim.add(Ticker("base", 1, log))
    sim.initialize()
    sim.do_timestep()
    # rank 0 components in insertion order, then rank 1
    assert [cid for _, cid in log] == ["late", "base", "dep"]


def test_two_pass_initialization():
    calls = []

    class Probe(SimComponent):
        def initialize(self, sim):
            calls.append(("init", self.id))

        def resolve(self, sim):
            calls.append(("resolve", self.id))

    sim = Simulation()
    sim.add(Probe("x"))
    sim.add(Probe("y"))
    sim.initialize()
    assert calls == [
        ("init", "x"), ("init", "y"), ("resolve", "x"), ("resolve", "y")
    ]


def test_run_advances_clock_until_end():
    log = []
    sim = Simulation(0, 10)
    sim.add(Ticker("t3", 3, log))
    sim.add(Ticker("t5", 5, log))
    sim.run()
    times = sorted({t for t, _ in log})
    assert times == [0, 3, 5, 6, 9, 10]
    assert sim.current_time == 10


def test_contingent_update_runs_after_scheduled():
    sink = ListSink()
    sim = Simulation(0, 0)
    log = []
    target = Ticker("target", math.inf, log)
    target.period = math.inf
    sim.add(Poker("poker", 1, "target", log))
    sim.add(target)
    sim.add_sink(sink)
    sim.initialize()
    target.next_update_time = math.inf  # only contingent runs for it
    sim.do_timestep()
    kinds = [(cid, kind) for _, cid, kind, _ in sink.records]
    assert kinds == [("poker", "scheduled"), ("target", "contingent")]


def test_pending_scheduled_update_absorbs_flag():
    sink = ListSink()
    sim = Simulation(0, 0)
    log = []
    # poker (rank 0, inserted first) pokes a component that is itself
    # scheduled at the same instant: the flag must be absorbed
    sim.add(Poker("poker", 1, "target", log))
    sim.add(Ticker("target", 1, log, dependencies=("poker",)))
    sim.add_sink(sink)
    sim.initialize()
    sim.do_timestep()
    records = [(cid, kind) for _, cid, kind, _ in sink.records]
    assert records == [("poker", "scheduled"), ("target", "scheduled")]


def test_contingent_exactly_once_per_flag_burst():
    sim = Simulation(0, 0)
    log = []

    class DoublePoker(Ticker):
        def update(self, t):
            super().update(t)
            self.sim.get("target").needs_update.trigger()
            self.sim.get("target").needs_update.trigger()

    target = Ticker("target", math.inf, log)
    sim.add(DoublePoker("p", 1, log))
    sim.add(target)
    sim.initialize()
    target.next_update_time = math.inf
    sim.do_timestep()
    assert [cid for _, cid in log] == ["p", "target"]


def test_contingent_drain_in_rank_then_insertion_order():
    sink = ListSink()
    sim = Simulation(0, 1)

    class MultiPoker(Ticker):
        targets = ["t3", "t2", "t1"]  # reverse insertion order

        def update(self, t):
            super().update(t)
            for target in self.targets:
                self.sim.flag_contingent(target)

    sim.add(MultiPoker("poker", 1))
    sim.add(SimComponent("t1"))
    sim.add(SimComponent("t2", dependencies=("poker",)))
    sim.add(SimComponent("t3"))
    sim.add_sink(sink)
    sim.initialize()
    assert [sim.get(c).rank for c in ("t1", "t2", "t3")] == [0, 1, 0]
    sim.do_timestep()
    contingent = [cid for _, cid, kind, _ in sink.records if kind == "contingent"]
    assert contingent == ["t1", "t3", "t2"]

    # a component added after initialize would never be ranked,
    # initialized or resolved, so the engine refuses it
    with pytest.raises(SimulationError, match="'late'"):
        sim.add(SimComponent("late"))
    assert sim.components.get("late") is None


def test_livelock_detection():
    sim = Simulation(0, 0)

    class SelfPoker(SimComponent):
        def initialize(self, sim):
            self.next_update_time = 0.0

        def update(self, t):
            self.needs_update.trigger()

    sim.add(SelfPoker("loop"))
    sim.initialize()
    with pytest.raises(LivelockError, match=f"^component 'loop' exceeded "
                       f"{CONTINGENT_ROUND_CAP} contingent updates at t=0.0$"):
        sim.do_timestep()


def test_flag_outside_timestep_rejected():
    sim = Simulation(0, 0)
    sim.add(Ticker("a", 1))
    sim.initialize()
    with pytest.raises(MissingDependencyError):
        sim.flag_contingent("ghost")


def test_a_flag_before_initialize_is_an_error():
    sim = Simulation(0, 0)
    sim.add(Ticker("a", 1))
    with pytest.raises(SimulationError, match="^cannot flag component 'a' "
                       "before initialize$"):
        sim.flag_contingent("a")


class Flagger(Ticker):
    """Ticker that flags ``target`` while the simulation initializes."""

    def __init__(self, id, period, target, log=None):
        super().__init__(id, period, log)
        self.target = target

    def initialize(self, sim):
        super().initialize(sim)
        sim.flag_contingent(self.target)


def test_a_flag_between_timesteps_runs_once_at_the_next():
    sink = ListSink()
    sim = Simulation(0, 30)
    sim.add(Flagger("a", 10, "target"))
    target = sim.add(Ticker("target", math.inf))
    sim.add_sink(sink)
    sim.initialize()
    target.next_update_time = math.inf  # only contingent runs for it
    sim.do_timestep()
    sim.flag_contingent("target")
    sim.flag_contingent("target")
    sim.do_timestep()
    sim.do_timestep()
    # the flag raised while initialize ran is taken at t=0, the two
    # raised between t=0 and t=10 once at t=10, and none is left for t=20
    assert sink.records == [
        (0, "a", "scheduled", 0), (0, "target", "contingent", 0),
        (10, "a", "scheduled", 0), (10, "target", "contingent", 0),
        (20, "a", "scheduled", 0)]


def test_a_scheduled_update_absorbs_a_flag_raised_between_timesteps():
    sink = ListSink()
    sim = Simulation(0, 30)
    sim.add(Ticker("a", 10))
    sim.add(Ticker("target", 10))
    sim.add_sink(sink)
    sim.initialize()
    sim.do_timestep()
    sim.flag_contingent("target")
    sim.do_timestep()
    assert [r for r in sink.records if r[0] == 10] == [
        (10, "a", "scheduled", 0), (10, "target", "scheduled", 0)]


@pytest.mark.parametrize("period", [0, -10])
def test_a_component_that_does_not_advance_its_clock_is_an_error(period):
    log = []
    seen = []
    sim = Simulation(0, 100)
    sim.add(Ticker("a", 1, log))
    sim.add(Ticker("stuck", period, log))
    sim.add_timestep_listener(seen.append)
    sim.initialize()
    with pytest.raises(SimulationError, match=(
            rf"^component 'stuck' is scheduled at t={period}, not after t=0$")):
        sim.do_timestep()
    # the instant ran once, and is not reported as completed
    assert log == [(0, "a"), (0, "stuck")]
    assert seen == []


def test_no_pending_update():
    sim = Simulation(0, 10)
    sim.add(SimComponent("inert"))
    sim.initialize()
    with pytest.raises(NoPendingUpdateError):
        sim.do_timestep()


def test_component_errors_are_wrapped():
    class Broken(Ticker):
        def update(self, t):
            raise ValueError("kaboom")

    sim = Simulation(0, 0)
    sim.add(Broken("bad", 1))
    sim.initialize()
    with pytest.raises(ComponentError) as err:
        sim.do_timestep()
    assert err.value.component_id == "bad"
    assert isinstance(err.value.cause, ValueError)


def test_timestep_listeners_and_csv_sink():
    stream = io.StringIO()
    seen = []
    sim = Simulation(0, 2)
    sim.add(Ticker("a", 1))
    sim.add_sink(CsvSink(stream))
    sim.add_timestep_listener(seen.append)
    sim.run()
    assert seen == [0, 1, 2]
    lines = stream.getvalue().strip().split("\n")
    assert lines[0] == "time,component_id,kind,rank"
    assert lines[1] == "0,a,scheduled,0"


def _random_dag_sim(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 8)
    log = []
    sim = Simulation(0, 20)
    ids = [f"c{i}" for i in range(n)]
    for i, cid in enumerate(ids):
        deps = [ids[j] for j in range(i) if rng.random() < 0.4]
        sim.add(Ticker(cid, rng.choice([1, 2, 3, 5]), log, dependencies=deps))
    return sim, log


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_dags_respect_causality_and_determinism(seed):
    sim, log = _random_dag_sim(seed)
    sim.run()
    # dependencies update before dependents at every shared instant
    by_time = {}
    for pos, (t, cid) in enumerate(log):
        by_time.setdefault(t, []).append(cid)
    for t, cids in by_time.items():
        assert len(cids) == len(set(cids))  # exactly once per instant
        order = {cid: k for k, cid in enumerate(cids)}
        for cid in cids:
            for dep in sim.components[cid].dependencies:
                if dep in order:
                    assert order[dep] < order[cid]
    # a rebuilt simulation with the same seed reproduces the exact log
    sim2, log2 = _random_dag_sim(seed)
    sim2.run()
    assert log2 == log


class Trigger(Ticker):
    """Ticker that raises the contingent update of a target through its
    ``needs_update`` event, as network members do."""

    def __init__(self, id, period, target, log=None):
        super().__init__(id, period, log)
        self.target = target

    def update(self, t):
        super().update(t)
        self.sim.get(self.target).needs_update.trigger()


def test_a_finished_simulation_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        log = []
        sim = Simulation(0, 3)
        sim.add(Ticker("a", 1, log))
        sim.add(Trigger("b", 1, "c", log))
        sim.add(Ticker("c", 10, log, dependencies=("a",)))
        sim.run()
        assert (1, "c") in log      # the contingent path ran
        refs = [weakref.ref(sim), *(weakref.ref(c) for c in sim.components)]
        del sim
        # components refer to their simulation weakly, so dropping the
        # last reference frees the run at once
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
