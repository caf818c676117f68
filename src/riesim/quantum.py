"""The measurement bases and the four protocol eigenstates.

The receiver model is an active-basis polarization analyzer: a basis
rotation followed by a polarizing beam splitter with one detector per
output port.  Only the four BB84/BBM92 eigenstates appear, so every
projection probability is exactly 0, 1/2, or 1; protocol._round_law
applies that Born rule to whole arrays of round cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Basis", "PolarizationState"]


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

