"""The graph-construction kernels against their definitions."""

import ast
import gc
import itertools
import tracemalloc
from pathlib import Path

import pytest
from _reference import closure_arcs_by_strides

from divgraph import _kernels_py, kernels
from divgraph.errors import BudgetError
from divgraph.graphs import GraphKind, build_graph
from divgraph.invariants import closure_size, hasse_size
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


def compositions(k):
    """Every tuple of positive parts summing to k: one per set of cut points."""
    for cuts in itertools.product((False, True), repeat=k - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        yield (*parts, run)


# every distinct coordinate order of every partition with Omega <= 9 (511),
# and the two largest corpus shapes, the second in both coordinate orders
COMPOSITIONS = [c for k in range(1, 10) for c in compositions(k)]
LARGE_BOUNDS = [(1,) * 12, (2, 2) + (1,) * 9, (1,) * 9 + (2, 2)]
# Hasse shapes with one long coordinate first, last or alone, and the
# longest run of 1s that the cover scan checks quickly
HASSE_BOUNDS = [(300,), (1, 50, 1), (7, 2, 9), (1,) * 14]


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


def cover_scan(bounds):
    """Reference Hasse diagram: for each node, the index of every node that
    raises one coordinate by one, looked up by vector, heads sorted."""
    nodes = _kernels_py.enumerate_nodes(bounds)
    index = {v: i for i, v in enumerate(nodes)}
    arcs = []
    for i, v in enumerate(nodes):
        ups = (v[:k] + (x + 1,) + v[k + 1 :] for k, x in enumerate(v))
        arcs.extend((i, j) for j in sorted(index[u] for u in ups if u in index))
    return arcs


def assert_rows(arcs, size):
    """Every row strictly ascending with heads above their tail, and ``len``
    the arc count of the formula."""
    assert all(all(a < b for a, b in zip([tail, *row], row)) for tail, row in enumerate(arcs.rows))
    assert len(arcs) == size


@pytest.mark.parametrize("bounds", CASES + PARTITION_BOUNDS, ids=str)
def test_closure_arcs_equal_dominance_scan(bounds):
    assert list(kernels.closure_arcs(bounds)) == dominance_scan(bounds)


def test_compositions_are_every_coordinate_order():
    # 2^(k-1) compositions of each k, so 511 distinct ones with sum <= 9 are all of them
    assert len(set(COMPOSITIONS)) == len(COMPOSITIONS) == 2**9 - 1
    assert all(min(c) >= 1 and sum(c) <= 9 for c in COMPOSITIONS)


@pytest.mark.parametrize("bounds", COMPOSITIONS + LARGE_BOUNDS, ids=str)
def test_closure_arcs_equal_stride_kernel(bounds):
    arcs = kernels.closure_arcs(bounds)
    assert list(arcs) == closure_arcs_by_strides(bounds)
    assert_rows(arcs, closure_size(bounds))


@pytest.mark.parametrize("bounds", COMPOSITIONS + LARGE_BOUNDS + HASSE_BOUNDS, ids=str)
def test_hasse_arcs_equal_cover_scan(bounds):
    arcs = kernels.hasse_arcs(bounds)
    assert list(arcs) == cover_scan(bounds)
    assert_rows(arcs, hasse_size(bounds))


@pytest.mark.parametrize("bounds", [(1,) * 12, (6, 5, 4, 2, 1)], ids=str)
def test_hasse_arcs_into_a_node_share_one_head(bounds):
    # every node but the source has an arc in, and all of them hold one int
    arcs = kernels.hasse_arcs(bounds)
    heads = [head for row in arcs.rows for head in row]
    assert len({id(head) for head in heads}) == len(set(heads)) == len(arcs.rows) - 1


@pytest.mark.parametrize("bounds", [(), *COMPOSITIONS, *LARGE_BOUNDS], ids=str)
def test_closure_rows_are_distinct_lists(bounds):
    # each row drops its own tail in place, so no two rows may be one list
    rows = kernels.closure_arcs(bounds).rows
    assert len({id(row) for row in rows}) == len(rows)


def test_closure_rows_keep_under_24_bytes_per_arc():
    # one int pointer per arc in its row; the shifted ints are shared
    # between up-sets (a tuple per arc kept about 71 bytes)
    tracemalloc.start()
    try:
        arcs = kernels.closure_arcs((6, 5, 4, 2, 1))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(arcs) == 157_500
    assert kept < 24 * len(arcs)


def test_hasse_rows_keep_under_36_bytes_per_arc():
    # one pointer per arc in its row plus a row list per node; the head
    # ints are shared by all arcs into a node (an int per arc kept 51.6)
    tracemalloc.start()
    try:
        arcs = kernels.hasse_arcs((1,) * 12)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(arcs) == 24_576
    assert kept < 36 * len(arcs)


def test_backend_reported():
    assert kernels.active_backend() == "pure"


def test_pure_enumeration_is_lexicographic():
    nodes = _kernels_py.enumerate_nodes((1, 2))
    assert nodes == sorted(nodes)
    assert len(nodes) == 6


@pytest.mark.parametrize("bounds", [(), *COMPOSITIONS, *LARGE_BOUNDS], ids=str)
def test_node_view_is_the_node_list(bounds):
    view, nodes = kernels.Nodes(bounds), kernels.enumerate_nodes(bounds)
    n = len(nodes)
    assert list(view) == list(view) == nodes  # each iteration starts anew
    assert len(view) == n
    assert [view[i] for i in range(n)] == nodes
    assert [view[i - n] for i in range(n)] == nodes
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    assert view[:-1] == nodes[:-1] and view[::3] == nodes[::3]
    assert type(view[:-1]) is list
    assert view == nodes and nodes == view
    assert not (view != nodes or nodes != view)
    for other in (nodes[:-1], [*nodes[:-1], None]):  # a shorter list, an equally long one
        assert view != other and other != view
        assert not (view == other or other == view)


@pytest.mark.parametrize("bounds", [(), (3,), (2, 0, 1), (1, 3), (1, 1, 2)], ids=str)
def test_node_slice_is_the_list_slice(bounds):
    view = kernels.Nodes(bounds)
    nodes = list(view)
    n = len(nodes)
    ends = [None, *range(-n - 2, n + 3)]  # negative, empty and past either end
    for start, stop, step in itertools.product(ends, ends, [None, 1, 2, 5, -1, -2, -7]):
        s = slice(start, stop, step)
        assert view[s] == nodes[s], s


def test_node_slice_builds_only_its_items():
    # 2^40 nodes: a slice that built the whole list first would never return
    view = kernels.Nodes((1,) * 40)
    assert view[-2:] == [(1,) * 39 + (0,), (1,) * 40]
    assert view[3:0:-2] == [(0,) * 38 + (1, 1), (0,) * 39 + (1,)]
    assert view[2**40 : 2**41] == []


def test_hasse_build_transient_bytes_under_a_quarter_node_list():
    # what a Hasse build allocates and frees again (its peak less what the
    # graph keeps) stays under a quarter of a node list's bytes: the kernel
    # builds no node tuples, only a list of node indices whose ints the rows
    # keep
    bounds = (19, 14, 9)
    tracemalloc.start()
    try:
        nodes = _kernels_py.enumerate_nodes(bounds)
        node_list_bytes = tracemalloc.get_traced_memory()[0]
        del nodes
        tracemalloc.reset_peak()
        g = build_graph(bounds, GraphKind.HASSE)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.nodes) == 3000
    assert peak - kept < node_list_bytes / 4


def _imported_names(tree):
    """Every dotted name an import statement of the module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)


def test_only_kernels_imports_the_implementation():
    # the node index layout is known to the kernels alone; every other
    # module of the package goes through divgraph.kernels
    importers = {
        path.name
        for path in Path(kernels.__file__).parent.glob("*.py")
        if any(
            "_kernels_py" in name.split(".")
            for name in _imported_names(ast.parse(path.read_text(encoding="utf-8")))
        )
    }
    assert importers == {"kernels.py"}


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Set the collector's state on entry to a test, and restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("name", ["enumerate_nodes", "hasse_arcs", "closure_arcs"])
@pytest.mark.parametrize("bounds", [(), (2, 1, 1)])
def test_kernels_leave_the_collector_as_found(collector, name, bounds):
    getattr(kernels, name)(bounds)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("name", ["enumerate_nodes", "hasse_arcs", "closure_arcs"])
def test_a_raising_kernel_leaves_the_collector_as_found(collector, name):
    with pytest.raises(TypeError):
        getattr(kernels, name)(("a",))
    assert gc.isenabled() is collector


@pytest.mark.parametrize("kind", list(GraphKind))
def test_build_graph_leaves_the_collector_as_found(collector, kind):
    build_graph((2, 2, 1), kind)
    assert gc.isenabled() is collector


@pytest.mark.parametrize(
    "kind,budgets",
    [
        (GraphKind.HASSE, {"node_budget": 17}),
        (GraphKind.CLOSURE, {"node_budget": 17}),
        (GraphKind.CLOSURE, {"arc_budget": 89}),
    ],
    ids=["hasse-nodes", "closure-nodes", "closure-arcs"],
)
def test_a_refused_build_leaves_the_collector_as_found(collector, kind, budgets):
    # (2, 2, 1) has 18 nodes and 90 closure arcs
    with pytest.raises(BudgetError):
        build_graph((2, 2, 1), kind, **budgets)
    assert gc.isenabled() is collector
