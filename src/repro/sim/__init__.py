"""Simulation support: the virtual clock every cost is charged to."""

from .clock import VirtualClock

__all__ = ["VirtualClock"]
