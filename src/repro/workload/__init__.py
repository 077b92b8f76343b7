"""Workload generators: request streams and mixed operation streams."""

from .generators import (
    Operation,
    ZipfSampler,
    operation_stream,
    uniform_stream,
    zipf_stream,
)

__all__ = [
    "Operation",
    "ZipfSampler",
    "operation_stream",
    "uniform_stream",
    "zipf_stream",
]
