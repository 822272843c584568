"""Graph-construction kernels: node enumeration, Hasse arcs, closure arcs.

Nodes are exponent vectors below ``bounds``, indexed by their position in
lexicographic order, so every arc (tail, head) satisfies tail < head and
the index order is already topological.  Both arc kernels reach a head by
adding stride offsets to the tail's index, so neither scans node pairs.
"""

from __future__ import annotations

import itertools


def enumerate_nodes(bounds: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All exponent vectors v with 0 <= v[i] <= bounds[i], lexicographic."""
    if not bounds:
        return [()]
    return list(itertools.product(*(range(m + 1) for m in bounds)))


def _strides(bounds: tuple[int, ...]) -> list[int]:
    """Index step of a +1 bump in each coordinate (mixed radix bounds + 1)."""
    strides = [1] * len(bounds)
    for k in range(len(bounds) - 2, -1, -1):
        strides[k] = strides[k + 1] * (bounds[k + 1] + 1)
    return strides


def closure_arcs(bounds: tuple[int, ...]) -> list[tuple[int, int]]:
    """Arcs of the transitive closure: every ordered pair a < b with a
    componentwise below b.

    The heads of tail v are v + d for every nonzero d with
    0 <= d[k] <= bounds[k] - v[k]; their index offsets are sums of stride
    multiples.  ``itertools.product`` walks the d in lexicographic order,
    so each tail's heads come out ascending and the work is linear in the
    arc count.
    """
    if not bounds:
        return []
    strides = _strides(bounds)
    arcs: list[tuple[int, int]] = []
    for i, v in enumerate(enumerate_nodes(bounds)):
        offsets = itertools.product(
            *(range(0, (m - x) * s + 1, s) for x, m, s in zip(v, bounds, strides))
        )
        next(offsets)  # the zero offset is the tail itself
        arcs.extend((i, i + sum(d)) for d in offsets)
    return arcs


def hasse_arcs(bounds: tuple[int, ...]) -> list[tuple[int, int]]:
    """Arcs of the Hasse diagram: bump one coordinate by one, which moves
    the index by that coordinate's stride."""
    if not bounds:
        return []
    w = len(bounds)
    strides = _strides(bounds)
    arcs: list[tuple[int, int]] = []
    append = arcs.append
    for i, v in enumerate(enumerate_nodes(bounds)):
        # ks descending gives ascending head indices per tail
        for k in range(w - 1, -1, -1):
            if v[k] < bounds[k]:
                append((i, i + strides[k]))
    return arcs
