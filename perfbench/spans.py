"""Span tracing for the traced benchmark run, applied from outside the package.

Each traced function is replaced, for the length of one traced pass, by a
wrapper that records a span (name, start, end, parent) in memory.  The
wrapper is installed under every name a caller can reach the function by:
module attributes (``graphs`` calls ``kernels.closure_arcs``), names bound by
``from module import name`` (``conjectures`` holds its own ``build_graph``)
and function objects stored in module-level dicts
(``sequences.INVARIANT_FUNCS`` holds ``invariants.closure_paths``).  The
program's source is never edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

from divgraph.invariants import closure_size

# (module, function, counter name, counter function of (args, result)).
# Counters are summed per function; see README.md for what each one means.
TRACED: list[tuple[str, str, Optional[str], Optional[Callable]]] = [
    ("signatures", "factorize", None, None),
    ("signatures", "signature_of", None, None),
    ("signatures", "spf_sieve", None, None),
    ("signatures", "enumerate_signatures", None, None),
    ("kernels", "enumerate_nodes", None, None),
    ("kernels", "hasse_arcs", None, None),
    # arcs: the count each build must return, however the kernel stores them;
    # the oracle check confirms the built graph has exactly that many
    ("kernels", "closure_arcs", "arcs", lambda args, result: closure_size(args[0])),
    ("graphs", "build_graph", None, None),
    ("graphs", "to_dot", "bytes", lambda args, result: len(result)),
    ("graphs", "to_json", None, None),
    ("invariants", "closure_paths", None, None),
    ("invariants", "all_invariants", None, None),
    ("oracle", "measure", None, None),
    ("oracle", "count_paths", None, None),
    ("oracle", "verify_structure", None, None),
    ("conjectures", "max_disjoint_paths", "augmentations", lambda args, result: result),
    ("conjectures", "scan", "skipped", lambda args, result: len(result.skipped)),
    ("sequences", "generate", None, None),
    ("sequences", "emit", "bytes", lambda args, result: len(result)),
    ("sequences", "compare_bfile", None, None),
    ("cli", "main", None, None),
]


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-function metric, in TRACED order."""
    out = []
    for module, func, counter, _ in TRACED:
        base = f"{module}.{func}"
        out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s"), (f"{base}.total_s", "s")]
        if counter is not None:
            out.append((f"{base}.{counter}", "B" if counter == "bytes" else "count"))
    return out


class Tracer:
    """Records spans while installed; ``summary`` turns them into per-function totals."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index) per finished call
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[dict, object, object]] = []

    def _wrap(self, name: str, fn, counter: Optional[str], count: Optional[Callable]):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        counter_key = f"{name}.{counter}"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                counters[counter_key] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reachable binding of each traced function with a wrapper."""
        wrappers = {}
        for module, func, counter, count in TRACED:
            original = getattr(importlib.import_module(f"divgraph.{module}"), func)
            wrappers[id(original)] = (original, self._wrap(f"{module}.{func}", original, counter, count))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "divgraph" or mod_name.startswith("divgraph.")):
                continue
            namespace = vars(mod)
            containers = [namespace] + [v for v in namespace.values() if type(v) is dict]
            for container in containers:
                for key, value in list(container.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        container[key] = hit[1]
                        self._patched.append((container, key, value))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-function calls, total time and self time (total minus the time
        its child spans cover), then forget the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for (name, start, end, parent), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        for key, value in self.counters.items():
            name, counter = key.rsplit(".", 1)
            out[name][counter] = value
        self.spans.clear()
        self.counters.clear()
        return dict(out)
