"""Graph-construction kernels: the node view, Hasse arcs, closure arcs.

Nodes are exponent vectors below ``bounds``, indexed by their position in
lexicographic order, so every arc (tail, head) satisfies tail < head and
the index order is already topological; ``Nodes`` is that order as a view
over the bounds.  The arc kernels return ``Arcs``: one plain list of heads
per tail, ascending, and no tuple per arc.
Neither kernel scans node pairs.  A Hasse head is the tail's index plus
one coordinate's stride, appended to the rows by one masked pass per
coordinate: no Python code runs per arc, and every arc into a node shares
one int.  A closure tail's heads are its up-set, built by shifting the
up-sets of the later coordinates, one comprehension per coordinate value;
list slicing and concatenation copy the shifted ints into the rows.

Each arc kernel runs with the cyclic garbage collector paused: the lists
it builds hold only ints and can form no cycle, yet the full collections
that their allocations trigger would traverse them again and again (a
Hasse diagram allocates one row list per node).  The collector is
process-wide, so a concurrent caller may run paused too; no value
depends on it.
"""

from __future__ import annotations

import collections
import functools
import gc
import itertools
import math
import operator
from collections.abc import Sequence
from typing import Iterator


class Arcs:
    """The arcs of a graph as adjacency rows: ``rows[i]`` is the list of
    node i's heads, ascending, so iterating the rows in order visits the
    arcs sorted by tail, then head.  ``len`` is the arc count, counted from
    the rows once when the value is built; iterating yields the
    ``(tail, head)`` pairs in that order.  Treat the rows as read-only."""

    __slots__ = ("rows", "_count")

    def __init__(self, rows: list[list[int]]):
        self.rows = rows
        self._count = sum(map(len, rows))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for tail, row in enumerate(self.rows):
            for head in row:
                yield tail, head

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Arcs):
            return NotImplemented
        return self.rows == other.rows


class Nodes(Sequence):
    """The exponent vectors v with 0 <= v[i] <= bounds[i], lexicographic, as
    a read-only sequence: a node's index is its position here.  It holds the
    bounds and the node count; iterating yields the tuples anew each time,
    an item is found by mixed-radix ``divmod``, a slice is a list of just its
    items, and the view compares equal to the list of the same tuples."""

    __slots__ = ("bounds", "_count")

    def __init__(self, bounds: tuple[int, ...]):
        self.bounds = bounds
        self._count = math.prod(m + 1 for m in bounds)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(m + 1) for m in self.bounds))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._count))]
        i = operator.index(i)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("node index out of range")
        v = []
        for s in _strides(self.bounds):
            x, i = divmod(i, s)
            v.append(x)
        return tuple(v)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Nodes):
            return self.bounds == other.bounds
        if isinstance(other, list):
            return len(other) == self._count and list(self) == other
        return NotImplemented


def _collector_paused(kernel):
    """``kernel`` with the collector off while it runs; on return or raise
    the collector is turned back on only if it was on at entry."""

    @functools.wraps(kernel)
    def paused(bounds):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return kernel(bounds)
        finally:
            if enabled:
                gc.enable()

    return paused


def enumerate_nodes(bounds: tuple[int, ...]) -> list[tuple[int, ...]]:
    """``Nodes(bounds)`` as a list of tuples."""
    return list(Nodes(bounds))


def _strides(bounds: tuple[int, ...]) -> list[int]:
    """Index step of a +1 bump in each coordinate (mixed radix bounds + 1)."""
    strides = [1] * len(bounds)
    for k in range(len(bounds) - 2, -1, -1):
        strides[k] = strides[k + 1] * (bounds[k + 1] + 1)
    return strides


@_collector_paused
def closure_arcs(bounds: tuple[int, ...]) -> Arcs:
    """Arcs of the transitive closure: every ordered pair a < b with a
    componentwise below b.

    A tail's row is its up-set (itself and every node above it, ascending)
    less itself, dropped in place.  From the last coordinate's chain on, if
    ``size`` nodes span the coordinates done so far, the up-set of (x, y) is
    that of (x+1, y) with the up-set of y shifted by x*size in front.  One
    comprehension per x shifts all the up-sets of y at once, flattened, and
    slices cut it back into one list per node, so each shifted int is shared.
    """
    size = bounds[-1] + 1 if bounds else 1
    ups = [list(range(j, size)) for j in range(size)]
    for m in reversed(bounds[:-1]):
        flat = list(itertools.chain.from_iterable(ups))
        ends = list(itertools.accumulate(map(len, ups), initial=0))
        slices = list(map(slice, ends, ends[1:]))
        ups = [None] * ((m + 1) * size)
        above = None
        for shift in range(m * size, -1, -size):
            shifted = [shift + h for h in flat] if shift else flat
            cut = map(shifted.__getitem__, slices)
            above = list(cut) if above is None else list(map(list.__add__, cut, above))
            ups[shift : shift + size] = above
        size *= m + 1
    collections.deque(map(list.pop, ups, itertools.repeat(0)), maxlen=0)
    return Arcs(ups)


@_collector_paused
def hasse_arcs(bounds: tuple[int, ...]) -> Arcs:
    """Arcs of the Hasse diagram: bump one coordinate by one, which moves
    the index by that coordinate's stride.

    Node i can bump coordinate k, of bound m and stride s, exactly when
    i mod (m+1)s < ms, so one byte mask over the nodes marks the tails of
    coordinate k, and ``compress`` pairs each marked tail's row with the
    head i + s, read from one list of the node indices.  ``map`` appends
    the heads, so no Python code runs per arc, and every arc into a node
    holds that node's one index int.  Coordinates go last first, strides
    ascending, so each row comes out ascending.
    """
    strides = _strides(bounds)
    n = math.prod(m + 1 for m in bounds)
    rows: list[list[int]] = [[] for _ in range(n)]
    nums = list(range(n))
    for m, s in zip(reversed(bounds), reversed(strides)):
        mask = (b"\1" * (m * s) + bytes(s)) * (n // ((m + 1) * s))
        heads = itertools.compress(itertools.islice(nums, s, None), mask)
        collections.deque(map(list.append, itertools.compress(rows, mask), heads), maxlen=0)
    return Arcs(rows)
