"""The graph-construction kernels against their definitions."""

import pytest

from divgraph import _kernels_py, kernels
from divgraph.signatures import partitions_of

CASES = [
    (),
    (1,),
    (5,),
    (1, 1),
    (2, 1),
    (3, 2),
    (2, 2, 1),
    (1, 2, 3),  # unsorted bounds stay unsorted
    (1, 1, 1, 1),
    (4, 3, 2, 1),
    (2, 2, 2, 2, 2),
]

# every partition with Omega <= 8, in both coordinate orders, not already in CASES
PARTITION_BOUNDS = sorted(
    {b for k in range(1, 9) for p in partitions_of(k) for b in (tuple(p), tuple(reversed(p)))}
    - set(CASES)
)


def dominance_scan(bounds):
    """Reference closure: test every node pair a < b for a <= b componentwise."""
    if not bounds:
        return []
    nodes = _kernels_py.enumerate_nodes(bounds)
    n = len(nodes)
    arcs = []
    for i in range(n):
        a = nodes[i]
        for j in range(i + 1, n):
            if all(x <= y for x, y in zip(a, nodes[j])):
                arcs.append((i, j))
    return arcs


@pytest.mark.parametrize("bounds", CASES + PARTITION_BOUNDS, ids=str)
def test_closure_arcs_equal_dominance_scan(bounds):
    assert kernels.closure_arcs(bounds) == dominance_scan(bounds)


def test_backend_reported():
    assert kernels.active_backend() == "pure"


def test_pure_enumeration_is_lexicographic():
    nodes = _kernels_py.enumerate_nodes((1, 2))
    assert nodes == sorted(nodes)
    assert len(nodes) == 6
