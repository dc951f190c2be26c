"""User-supplied variables and constraints for the optimization model."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ExtVariable:
    """One added decision variable with bounds and polynomial cost."""

    name: str
    lb: float = -np.inf
    ub: float = np.inf
    x0: float = 0.0
    cost_lin: float = 0.0
    cost_quad: float = 0.0


@dataclass
class LinearConstraint:
    """Σ coeff·x_ref + const, interpreted as == 0 or <= 0.

    Each term references a variable symbolically: ``("v", bus_id[, phase])``,
    ``("theta", bus_id[, phase])``, ``("pg", gen_id)``, ``("qg", gen_id)``, or
    ``("ext", extension_name, var_name)``.
    """

    name: str
    terms: list
    const: float = 0.0
    equality: bool = False


@dataclass
class CallbackConstraint:
    """A smooth scalar inequality value(x) <= 0 over the full variable vector.

    ``grad`` returns the gradient as a dense vector over the full
    variables; ``hess``, if given, returns the multiplier-weighted Hessian
    contribution as a dense full-by-full array.  The sparse model stores
    both as dense rows and blocks, so every callback couples all free
    variables in the KKT matrix: keep them few, and state linear
    constraints as :class:`LinearConstraint`.  Callbacks must be pure
    functions of x.
    """

    name: str
    value: object
    grad: object
    hess: object = None


@dataclass
class OpfExtension:
    name: str
    variables: list = field(default_factory=list)
    linear_constraints: list = field(default_factory=list)
    callback_constraints: list = field(default_factory=list)

    def add_variable(self, *args, **kwargs) -> ExtVariable:
        var = ExtVariable(*args, **kwargs)
        self.variables.append(var)
        return var

    def add_linear(self, *args, **kwargs) -> LinearConstraint:
        con = LinearConstraint(*args, **kwargs)
        self.linear_constraints.append(con)
        return con


def slack_starts(v, v_min: float, v_max: float) -> np.ndarray:
    """Start of the soft-band slack of each node at voltage ``v``: its
    violation of the band, 0 inside it, so the penalty rows begin
    feasible even when the network already sits outside the band."""
    vm = np.abs(v)
    return np.maximum(0.0, np.maximum(vm - v_max, v_min - vm))


def voltage_slack_extension(net, v_min: float, v_max: float, weight: float,
                            bus_ids=None, name: str = "vslack"):
    """Soft voltage-band extension.

    For every phase node of the selected buses this adds a non-negative
    slack variable σ with linear cost ``weight·σ`` and the two inequalities
    ``v − v_max − σ ≤ 0`` and ``v_min − v − σ ≤ 0``, so voltage-band
    violations become penalized rather than infeasible.  A reported optimum
    with every σ at zero certifies that all selected voltages fit the band.
    """
    ext = OpfExtension(name=name)
    selected = set(bus_ids) if bus_ids is not None else None
    for bus in net.buses:
        if selected is not None and bus.id not in selected:
            continue
        sigma0 = slack_starts(bus.v, v_min, v_max).tolist()
        for phase, x0 in zip(bus.phases, sigma0):
            var = f"s_{bus.id}_{phase.name}"
            ext.add_variable(var, lb=0.0, ub=np.inf, x0=x0, cost_lin=weight)
            ext.add_linear(
                f"vub_{bus.id}_{phase.name}",
                terms=[(("v", bus.id, phase), 1.0), (("ext", name, var), -1.0)],
                const=-v_max,
            )
            ext.add_linear(
                f"vlb_{bus.id}_{phase.name}",
                terms=[(("v", bus.id, phase), -1.0), (("ext", name, var), -1.0)],
                const=v_min,
            )
    return ext
