"""Graph-construction kernels, as callers import them.

The implementations and the ``Arcs`` value they return live in
divgraph._kernels_py; this module re-exports them and names the kernel lane.
"""

from divgraph._kernels_py import Arcs, closure_arcs, enumerate_nodes, hasse_arcs

__all__ = ["Arcs", "active_backend", "closure_arcs", "enumerate_nodes", "hasse_arcs"]


def active_backend() -> str:
    """Name of the kernel lane in use; there is one, "pure"."""
    return "pure"
