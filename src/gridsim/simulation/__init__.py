from .engine import (
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

__all__ = [
    "SimComponent",
    "Simulation",
    "SimulationError",
    "DependencyCycleError",
    "MissingDependencyError",
    "NoPendingUpdateError",
    "LivelockError",
    "ComponentError",
    "ListSink",
    "CsvSink",
]
