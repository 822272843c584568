"""Graph-construction kernels, as callers import them.

The implementations live in divgraph._kernels_py; this module re-exports
them and names the kernel lane.
"""

from divgraph._kernels_py import closure_arcs, enumerate_nodes, hasse_arcs

__all__ = ["active_backend", "closure_arcs", "enumerate_nodes", "hasse_arcs"]


def active_backend() -> str:
    """Name of the kernel lane in use; there is one, "pure"."""
    return "pure"
