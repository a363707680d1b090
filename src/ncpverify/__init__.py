"""Exact verifier for chain conditions on the non-crossing partition poset."""

from ncpverify.core import (
    Block,
    CrossingPartitionError,
    CrossingWitness,
    NotationError,
    Partition,
    Symmetry,
    UniverseMismatch,
    blocks_cross,
    canonical_form,
    dihedral_group,
    is_noncrossing,
    kreweras_dual,
    leq,
    nc_join,
    partitions_cross,
    pi_join,
    pi_meet,
)

__all__ = [
    "Block",
    "CrossingPartitionError",
    "CrossingWitness",
    "NotationError",
    "Partition",
    "Symmetry",
    "UniverseMismatch",
    "blocks_cross",
    "canonical_form",
    "dihedral_group",
    "is_noncrossing",
    "kreweras_dual",
    "leq",
    "nc_join",
    "partitions_cross",
    "pi_join",
    "pi_meet",
]

__version__ = "0.1.0"
