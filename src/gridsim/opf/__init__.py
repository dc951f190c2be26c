from .extensions import (
    ExtVariable,
    LinearConstraint,
    OpfExtension,
    voltage_slack_extension,
)
from .ipm import (
    IpmOptions,
    NumericalBreakdownError,
    OpfSolution,
    ipm_solve,
    kkt_residual,
)
from .problem import (
    DomainViolationError,
    EvalResult,
    InconsistentBoundsError,
    OpfBuildError,
    OpfProblem,
    UnsupportedLoadError,
    opf_build,
    opf_refresh,
)

__all__ = [
    "OpfProblem",
    "opf_build",
    "opf_refresh",
    "EvalResult",
    "OpfBuildError",
    "InconsistentBoundsError",
    "UnsupportedLoadError",
    "DomainViolationError",
    "OpfExtension",
    "ExtVariable",
    "LinearConstraint",
    "voltage_slack_extension",
    "IpmOptions",
    "OpfSolution",
    "ipm_solve",
    "kkt_residual",
    "NumericalBreakdownError",
]
