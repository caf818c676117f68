"""Polarization state algebra for the four protocol eigenstates.

The receiver model is an active-basis polarization analyzer: a basis
rotation followed by a polarizing beam splitter with one detector per
output port.  Only the four BB84/BBM92 eigenstates appear, so every
projection probability is exactly 0, 1/2, or 1 and no floating-point
trigonometry is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Basis",
    "PolarizationState",
    "H",
    "V",
    "D",
    "A",
    "projection_prob",
]


class Basis(Enum):
    """Measurement basis: Z is horizontal/vertical, X is diagonal/antidiagonal."""

    Z = "Z"
    X = "X"


@dataclass(frozen=True)
class PolarizationState:
    """One of the four protocol eigenstates, identified by (basis, bit).

    Bit convention: 0 maps to H in the Z basis and D in the X basis,
    1 maps to V and A.  Detector indices follow the same convention.
    """

    basis: Basis
    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")

    def __str__(self) -> str:
        return f"{self.basis.value}{self.bit}"


H = PolarizationState(Basis.Z, 0)
V = PolarizationState(Basis.Z, 1)
D = PolarizationState(Basis.X, 0)
A = PolarizationState(Basis.X, 1)


def projection_prob(state: PolarizationState, meas_basis: Basis, outcome: int) -> float:
    """Born-rule probability of measuring `outcome` on `state` in `meas_basis`.

    Aligned basis gives a deterministic outcome; the orthogonal basis splits
    the state equally between both ports (|H> = (|D>+|A>)/sqrt(2) and its
    three companions).
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    if state.basis is meas_basis:
        return 1.0 if outcome == state.bit else 0.0
    return 0.5

