#!/usr/bin/env python3
"""Benchmark the graph-construction kernels.

Usage: python benchmarks/bench_kernels.py [--repeat N]

Each arc kernel returns ``Arcs``, one ascending row of heads per tail, and
each line prints ``len()`` of the result, its arc count.  Closure
construction shifts whole up-sets into the rows, so its time grows with the
arc count; the closure is the largest graph the oracle suite builds.
"""

import argparse
import time

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


def timed(func, bounds, repeat):
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = func(bounds)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    header = f"{'kernel':8} {'bounds':22} {'arcs':>9} {'time':>10}"
    print(header)
    print("-" * len(header))
    for label, bounds, name in CASES:
        elapsed, arcs = timed(getattr(_kernels_py, name), bounds, args.repeat)
        print(f"{label:8} {str(bounds):22} {len(arcs):>9} {elapsed:>9.3f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
