"""Oblivious permutation: the Batcher network (driven by
:mod:`repro.shuffle.online`) and secret permutations."""

from .oblivious import batcher_network, network_size
from .permutation import Permutation

__all__ = [
    "batcher_network",
    "network_size",
    "Permutation",
]
