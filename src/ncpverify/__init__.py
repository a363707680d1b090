"""Exact verifier for chain conditions on the non-crossing partition poset."""

from ncpverify.core import (
    CrossingPartitionError,
    NotationError,
    Partition,
    UniverseMismatch,
    is_noncrossing,
    kreweras_dual,
    leq,
)

__all__ = [
    "CrossingPartitionError",
    "NotationError",
    "Partition",
    "UniverseMismatch",
    "is_noncrossing",
    "kreweras_dual",
    "leq",
]

__version__ = "0.1.0"
