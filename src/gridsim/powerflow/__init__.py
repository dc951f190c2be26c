from .model import (
    NoSlackInIslandError,
    PfOptions,
    PowerFlowModel,
    ZeroVoltageError,
    model_build,
)
from .residuals import network_current, residual_current, residual_power
from .solver import (
    HeldPowerFlow,
    PfSolution,
    SingularJacobianError,
    apply_solution,
    flat_start,
    jacobian_rect,
    nr_solve,
    recover_flows,
    solve_network,
    total_balance,
)

__all__ = [
    "PfOptions",
    "PowerFlowModel",
    "model_build",
    "NoSlackInIslandError",
    "ZeroVoltageError",
    "residual_current",
    "residual_power",
    "network_current",
    "jacobian_rect",
    "nr_solve",
    "flat_start",
    "apply_solution",
    "solve_network",
    "HeldPowerFlow",
    "recover_flows",
    "total_balance",
    "PfSolution",
    "SingularJacobianError",
]
