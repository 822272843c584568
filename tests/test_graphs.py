"""Explicit graph construction, level profiles, and serialization."""

import dataclasses
import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from divgraph import kernels
from divgraph.errors import BudgetError
from divgraph.graphs import (
    DivisorGraph,
    GraphKind,
    build_graph,
    divisor_value,
    level_profile,
    to_dot,
    to_json,
)
from divgraph.oracle import measure, verify_structure
from divgraph.signatures import factorize

from _corpus import oracle_corpus
from _reference import arcs_from_pairs, to_dot_by_lines, to_json_by_lists, transitive_reduction_arcs

signatures = st.lists(st.integers(min_value=1, max_value=4), max_size=4).map(tuple)


class TestBuildGraph:
    def test_hasse_counts(self):
        g = build_graph((2, 1), GraphKind.HASSE)
        assert len(g.nodes) == 6
        assert len(g.arcs) == 7

    def test_closure_counts(self):
        g = build_graph((2, 1), GraphKind.CLOSURE)
        assert len(g.nodes) == 6
        assert len(g.arcs) == 12

    def test_empty_signature(self):
        # the kernels need no special case: product() over no ranges yields ()
        assert kernels.enumerate_nodes(()) == [()]
        assert kernels.hasse_arcs(()).rows == kernels.closure_arcs(()).rows == [[]]
        for kind in GraphKind:
            g = build_graph((), kind)
            assert g.nodes == [()]
            assert g.arcs.rows == [[]] and list(g.arcs) == []

    def test_node_budget(self):
        with pytest.raises(BudgetError):
            build_graph((1000, 1000), GraphKind.HASSE, node_budget=10**6)
        with pytest.raises(BudgetError):
            build_graph((2, 1), GraphKind.HASSE, node_budget=5)

    def test_closure_past_64_bits_meets_the_arc_budget(self):
        with pytest.raises(BudgetError, match="arc budget"):
            build_graph((1,) * 64, GraphKind.CLOSURE, node_budget=2**64)

    def test_rejects_bad_bounds(self):
        for bounds in [(2, 0), (0,), (-1, 2), (True,), (1.5,), ("2",)]:
            for kind in GraphKind:
                with pytest.raises(ValueError, match="positive integers"):
                    build_graph(bounds, kind)

    @pytest.mark.parametrize("bounds", [(1,), (1000, 1000), (1,) * 64])
    def test_rejects_a_kind_before_any_work(self, bounds):
        # a string is not a GraphKind; it is refused before the budgets
        with pytest.raises(ValueError, match="unknown graph kind 'hasse'"):
            build_graph(bounds, "hasse")

    def test_two_builds_are_equal(self):
        # the node views are equal by their bounds; two views are never one object
        for kind in GraphKind:
            assert build_graph((2, 1), kind) == build_graph((2, 1), kind)
        assert kernels.Nodes((2, 1)) != kernels.Nodes((1, 2))

    def test_nodes_lexicographic(self):
        g = build_graph((1, 2), GraphKind.HASSE)
        assert g.nodes == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_arcs_sorted_by_tail_then_head(self):
        for kind in GraphKind:
            g = build_graph((2, 2, 1), kind)
            assert list(g.arcs) == sorted(g.arcs)

    @given(signatures)
    def test_source_sink_and_acyclicity(self, sig):
        g = build_graph(sig, GraphKind.HASSE)
        gT = build_graph(sig, GraphKind.CLOSURE)
        for graph in (g, gT):
            assert graph.nodes[graph.source] == tuple([0] * len(sig))
            assert graph.nodes[graph.sink] == sig
            # arcs strictly increase the index, so the graph is acyclic
            assert all(a < b for a, b in graph.arcs)

    @given(st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple))
    @settings(max_examples=40, deadline=None)
    def test_closure_is_dominance_relation(self, sig):
        gT = build_graph(sig, GraphKind.CLOSURE)
        arcs = set(gT.arcs)
        n = len(gT.nodes)
        for i, j in itertools.combinations(range(n), 2):
            a, b = gT.nodes[i], gT.nodes[j]
            dominated = all(x <= y for x, y in zip(a, b))
            assert ((i, j) in arcs) == dominated

    @given(st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple))
    @settings(max_examples=40, deadline=None)
    def test_hasse_is_transitive_reduction_of_closure(self, sig):
        g = build_graph(sig, GraphKind.HASSE)
        gT = build_graph(sig, GraphKind.CLOSURE)
        assert set(g.arcs) == transitive_reduction_arcs(gT)

    def test_hasse_is_transitive_reduction_of_closure_large_case(self):
        gT = build_graph((2, 3, 1), GraphKind.CLOSURE)
        g = build_graph((2, 3, 1), GraphKind.HASSE)
        assert set(g.arcs) == transitive_reduction_arcs(gT)

    @given(signatures)
    def test_hasse_arcs_are_unit_level_covers(self, sig):
        g = build_graph(sig, GraphKind.HASSE)
        for a, b in g.arcs:
            va, vb = g.nodes[a], g.nodes[b]
            assert sum(vb) - sum(va) == 1
            assert sum(1 for x, y in zip(va, vb) if x != y) == 1


class TestLevelProfile:
    def test_worked_example(self):
        profile = level_profile(build_graph((2, 3, 1), GraphKind.HASSE))
        assert profile.node_counts == [1, 3, 5, 6, 5, 3, 1]
        assert profile.node_counts[5] == 3
        assert profile.arc_counts[0] == 3
        assert max(profile.arc_counts) == 12
        assert profile.longest[-1] == 6
        assert max(profile.indeg) == max(profile.outdeg) == 3
        assert max(i + o for i, o in zip(profile.indeg, profile.outdeg)) == 5
        assert [profile.levels.count(l) for l in range(7)] == profile.node_counts

    def test_single_node(self):
        profile = level_profile(build_graph((), GraphKind.HASSE))
        assert profile.node_counts == [1]
        assert profile.arc_counts == []
        assert profile.levels == profile.indeg == profile.outdeg == [0]
        assert profile.longest == [0]

    def test_prime(self):
        profile = level_profile(build_graph((1,), GraphKind.HASSE))
        assert profile.node_counts == [1, 1]
        assert profile.arc_counts == [1]

    def test_totals(self):
        g = build_graph((3, 2, 2), GraphKind.HASSE)
        profile = level_profile(g)
        assert sum(profile.node_counts) == len(g.nodes)
        assert sum(profile.arc_counts) == len(g.arcs)

    def test_rejects_closure(self):
        with pytest.raises(ValueError):
            level_profile(build_graph((2,), GraphKind.CLOSURE))


class TestDivisorValue:
    def test_worked_examples(self):
        f540 = factorize(540)
        assert divisor_value((1, 2, 0), f540) == 18
        assert divisor_value((0, 0, 0), f540) == 1
        assert divisor_value((2, 3, 1), f540) == 540

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            divisor_value((1,), factorize(12))

    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            divisor_value((3, 0), factorize(12))

    def test_all_divisors_of_20(self):
        f = factorize(20)
        g = build_graph((2, 1), GraphKind.HASSE)
        values = sorted(divisor_value(v, f) for v in g.nodes)
        assert values == [1, 2, 4, 5, 10, 20]

    def test_level_five_of_540(self):
        f = factorize(540)
        g = build_graph((2, 3, 1), GraphKind.HASSE)
        level5 = sorted(divisor_value(v, f) for v in g.nodes if sum(v) == 5)
        assert level5 == [108, 180, 270]


class TestSerialization:
    def test_dot_shape(self):
        dot = to_dot(build_graph((1, 1), GraphKind.HASSE))
        assert dot.startswith("digraph hasse {")
        assert 'v0 [label="0 0"];' in dot
        assert "v0 -> v1;" in dot
        assert dot.endswith("}\n")

    def test_dot_deterministic(self):
        g1 = build_graph((2, 1), GraphKind.CLOSURE)
        g2 = build_graph((2, 1), GraphKind.CLOSURE)
        assert to_dot(g1) == to_dot(g2)

    def test_json_round_trip_fields(self):
        g = build_graph((2, 1), GraphKind.CLOSURE)
        payload = json.loads(to_json(g))
        assert payload["signature"] == [2, 1]
        assert payload["kind"] == "closure"
        assert len(payload["nodes"]) == 6
        assert len(payload["arcs"]) == 12
        rebuilt = DivisorGraph(
            signature=tuple(payload["signature"]),
            kind=GraphKind(payload["kind"]),
            nodes=[tuple(v) for v in payload["nodes"]],
            arcs=arcs_from_pairs(payload["arcs"], len(payload["nodes"])),
        )
        assert rebuilt.nodes == g.nodes
        assert rebuilt.arcs == g.arcs

    @pytest.mark.parametrize(
        "kind, order_cap",
        # closures at the corpus's full 5000-node cap hold 11 M arcs, and
        # the reference routes take seconds per million
        [(GraphKind.HASSE, 5000), (GraphKind.CLOSURE, 300)],
    )
    def test_byte_identical_to_reference_on_oracle_corpus(self, kind, order_cap):
        for sig in oracle_corpus(order_cap=order_cap):
            g = build_graph(sig, kind)
            assert to_dot(g) == to_dot_by_lines(g), sig
            assert to_json(g) == to_json_by_lists(g), sig

    @pytest.mark.parametrize("kind", list(GraphKind))
    @pytest.mark.parametrize("bounds", [(1, 3, 2), ()])
    def test_byte_identical_to_reference_on_edge_shapes(self, bounds, kind):
        # a non-canonical coordinate order is kept as given; () is one node
        g = build_graph(bounds, kind)
        assert to_dot(g) == to_dot_by_lines(g)
        assert to_json(g) == to_json_by_lists(g)

    def test_no_reader_lists_the_nodes(self, monkeypatch):
        # a built graph holds a view over its bounds, and nothing from the
        # build through the oracle and both serializers lists its nodes
        def refuse(bounds):
            raise AssertionError("listed the nodes")

        monkeypatch.setattr(kernels, "enumerate_nodes", refuse)
        g = build_graph((2, 2, 1), GraphKind.HASSE)
        gT = build_graph((2, 2, 1), GraphKind.CLOSURE)
        assert measure(g, gT).order == 18
        assert verify_structure(g).all_ok
        for graph in (g, gT):
            assert to_dot(graph) and to_json(graph)

    def test_a_node_list_reads_as_the_view(self):
        g, gT = (build_graph((2, 2, 1), kind) for kind in (GraphKind.HASSE, GraphKind.CLOSURE))
        listed, listedT = (dataclasses.replace(x, nodes=list(x.nodes)) for x in (g, gT))
        assert measure(listed, listedT) == measure(g, gT)
        for view, plain in ((g, listed), (gT, listedT)):
            assert type(plain.nodes) is list
            assert to_dot(plain) == to_dot(view)
            assert to_json(plain) == to_json(view)

    @pytest.mark.parametrize("serialize", [to_dot, to_json])
    def test_serializer_allocates_little_beyond_its_output(self, serialize):
        # no string or list per arc: the traced peak stays within a small
        # multiple of the output (copying every arc gives 6 to 9 times it)
        g = build_graph((6, 5, 4, 2, 1), GraphKind.CLOSURE)
        assert len(g.arcs) == 157_500
        tracemalloc.start()
        try:
            text = serialize(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)
