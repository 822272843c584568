"""The graph-kernel cases that ``perfbench/run.py --trace 1`` times.

Each case is (label, bounds, kernel name).  Closure construction shifts
whole up-sets into the rows, so its time grows with the arc count; the
closure is the largest graph the oracle suite builds.
"""

from divgraph import _kernels_py

# perfbench/run.py reads CASES, _kernels_py and _kernels_c from this module;
# _kernels_c is None because there is no compiled lane.
_kernels_c = None

CASES = [
    ("closure", (1,) * 9, "closure_arcs"),
    ("closure", (2, 2) + (1,) * 6, "closure_arcs"),
    ("closure", (3, 2, 1, 1, 1, 1), "closure_arcs"),
    ("closure", (9, 9, 9), "closure_arcs"),
    ("closure", (4, 4, 4, 4), "closure_arcs"),
    # the two heaviest shapes of the oracle corpus
    ("closure", (1,) * 12, "closure_arcs"),
    ("closure", (2, 2) + (1,) * 9, "closure_arcs"),
    ("hasse", (1,) * 12, "hasse_arcs"),
    ("hasse", (4, 4, 4, 4), "hasse_arcs"),
]
