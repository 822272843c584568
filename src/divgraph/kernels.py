"""Graph-construction kernels, as callers import them.

The implementations, the ``Arcs`` value they return and the ``Nodes`` view
live in divgraph._kernels_py; this module re-exports them and names the
kernel lane.
"""

from divgraph._kernels_py import Arcs, Nodes, closure_arcs, enumerate_nodes, hasse_arcs

__all__ = ["Arcs", "Nodes", "active_backend", "closure_arcs", "enumerate_nodes", "hasse_arcs"]


def active_backend() -> str:
    """Name of the kernel lane in use; there is one, "pure"."""
    return "pure"
