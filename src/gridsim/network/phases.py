"""Phase identifiers and canonical ordering.

BAL denotes the single-phase / balanced-equivalent phase used for
Matpower-style models.  The ordering A, B, C, N, BAL is part of the node
numbering contract: solution vectors are reproducible because nodes are
enumerated bus-by-bus in this phase order.
"""

from __future__ import annotations

import cmath
import enum


class Phase(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    N = "N"
    BAL = "BAL"

    def __repr__(self) -> str:
        return f"Phase.{self.name}"


PHASE_ORDER = (Phase.A, Phase.B, Phase.C, Phase.N, Phase.BAL)
_ORDER_INDEX = {p: i for i, p in enumerate(PHASE_ORDER)}

# Nominal per-unit voltage angles of a positive-sequence set.
_NOMINAL_ANGLE_DEG = {
    Phase.A: 0.0,
    Phase.B: -120.0,
    Phase.C: 120.0,
    Phase.N: 0.0,
    Phase.BAL: 0.0,
}


def phase_sort_key(phase: Phase) -> int:
    return _ORDER_INDEX[phase]


def sorted_phases(phases) -> tuple[Phase, ...]:
    """Validate a phase set and return it in canonical order."""
    phases = tuple(phases)
    if len(phases) < 2:  # distinct and in order
        return phases
    if len(set(phases)) != len(phases):
        raise ValueError(f"duplicate phases in {phases}")
    return tuple(sorted(phases, key=phase_sort_key))


def nominal_voltage(phase: Phase, magnitude: float = 1.0) -> complex:
    """Nominal per-unit phasor for one phase of a positive-sequence set."""
    if phase is Phase.N:
        # The neutral nominally sits at ground potential; use a tiny
        # magnitude so flat starts at exactly zero are avoided.
        return 0.0 + 0.0j
    angle = cmath.pi / 180.0 * _NOMINAL_ANGLE_DEG[phase]
    return magnitude * cmath.exp(1j * angle)


def parse_phase(text) -> Phase:
    if isinstance(text, Phase):
        return text
    try:
        return Phase[str(text).upper()]
    except KeyError:
        raise ValueError(f"unknown phase {text!r}") from None
