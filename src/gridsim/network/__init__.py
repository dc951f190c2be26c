from .admittance import SingularEliminatedBlockError, kron_reduce, sequence_to_phase
from .branches import (
    BranchModel,
    CommonBranch,
    GenericBranch,
    OverheadLine,
    Transformer,
    UndergroundCable,
    clock_ratio,
)
from .components import (
    Bus,
    Gen,
    NetworkModelError,
    PhaseNotOnBusError,
    Terminal,
    TerminalIndexError,
    Zip,
)
from .network import (
    Branch,
    BranchGroup,
    Network,
    NodeIndex,
    UnconnectedTerminalError,
    UnknownIdError,
)
from .phases import PHASE_ORDER, Phase, nominal_voltage, parse_phase, sorted_phases

__all__ = [
    "kron_reduce",
    "sequence_to_phase",
    "SingularEliminatedBlockError",
    "BranchModel",
    "GenericBranch",
    "CommonBranch",
    "OverheadLine",
    "UndergroundCable",
    "Transformer",
    "clock_ratio",
    "Bus",
    "Gen",
    "Zip",
    "Terminal",
    "NetworkModelError",
    "PhaseNotOnBusError",
    "TerminalIndexError",
    "Branch",
    "BranchGroup",
    "Network",
    "NodeIndex",
    "UnknownIdError",
    "UnconnectedTerminalError",
    "Phase",
    "PHASE_ORDER",
    "parse_phase",
    "sorted_phases",
    "nominal_voltage",
]
