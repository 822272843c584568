"""Brute-force measurement against the closed formulas."""

import pytest
from hypothesis import given, settings, strategies as st

from divgraph.graphs import GraphKind, build_graph
from divgraph.invariants import all_invariants
from divgraph.oracle import count_paths, measure, verify_structure

from _corpus import small_corpus
from _reference import count_paths_dfs, transitive_reduction_arcs

signatures = st.lists(st.integers(min_value=1, max_value=4), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def _pair(sig):
    return build_graph(sig, GraphKind.HASSE), build_graph(sig, GraphKind.CLOSURE)


class TestCountPaths:
    def test_hasse_of_20(self):
        g, _ = _pair((2, 1))
        assert count_paths(g) == 3

    def test_closure_of_4(self):
        _, gT = _pair((2,))
        assert count_paths(gT) == 2

    def test_single_node(self):
        g, gT = _pair(())
        assert count_paths(g) == 1
        assert count_paths(gT) == 1

    @given(st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple))
    @settings(max_examples=40)
    def test_dp_equals_exhaustive_dfs(self, sig):
        g, gT = _pair(sig)
        assert count_paths(g) == count_paths_dfs(g)
        assert count_paths(gT) == count_paths_dfs(gT)

    def test_dfs_self_check_up_to_order_200(self):
        # graphs up to 200 nodes whose path count is still enumerable;
        # the walk costs one visit per path, so signatures are picked by
        # path count, not just order
        for sig in [(12,), (7, 3), (3, 3, 3), (3, 2, 2, 1), (1, 1, 1, 1, 1, 1)]:
            g, gT = _pair(sig)
            assert count_paths(g) == count_paths_dfs(g)
            assert count_paths(gT) == count_paths_dfs(gT)


class TestMeasure:
    def test_table_column_12(self):
        rec = measure(*_pair((2, 1)))
        assert rec.as_tuple() == (6, 7, 3, 2, 2, 3, 3, 3, 3, 3, 4, 3, 12, 8)

    def test_semiprime_paths(self):
        rec = measure(*_pair((1, 1)))
        assert rec.hasse_paths == 2

    def test_trivial_record(self):
        rec = measure(*_pair(()))
        assert rec.as_tuple() == (1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1)

    def test_signature_mismatch_rejected(self):
        g = build_graph((2, 1), GraphKind.HASSE)
        gT = build_graph((1, 1), GraphKind.CLOSURE)
        with pytest.raises(ValueError):
            measure(g, gT)

    def test_kind_mismatch_rejected(self):
        g = build_graph((2, 1), GraphKind.HASSE)
        with pytest.raises(ValueError):
            measure(g, g)

    def test_bounds_order_does_not_matter(self):
        rec = measure(
            build_graph((2, 3, 1), GraphKind.HASSE),
            build_graph((2, 3, 1), GraphKind.CLOSURE),
        )
        assert rec == all_invariants((3, 2, 1))

    @given(signatures)
    @settings(max_examples=60, deadline=None)
    def test_equals_formulas(self, sig):
        assert measure(*_pair(sig)) == all_invariants(sig)

    def test_equals_formulas_on_small_corpus(self):
        for sig in small_corpus(8):
            assert measure(*_pair(sig)) == all_invariants(sig), sig


class TestVerifyStructure:
    @pytest.mark.parametrize("sig", [(2, 3, 1), (1,), (4, 2, 1), (), (5, 5)])
    def test_all_claims_hold(self, sig):
        report = verify_structure(build_graph(sig, GraphKind.HASSE))
        assert report.all_ok, report.failures()

    def test_requires_hasse(self):
        with pytest.raises(ValueError):
            verify_structure(build_graph((2,), GraphKind.CLOSURE))

    def test_detects_broken_symmetry(self):
        # tamper with a graph: drop one arc and the claims must start failing
        g = build_graph((2, 2), GraphKind.HASSE)
        broken = type(g)(
            signature=g.signature, kind=g.kind, nodes=g.nodes, arcs=g.arcs[:-1]
        )
        assert not verify_structure(broken).all_ok


class TestTransitiveReduction:
    def test_requires_closure(self):
        with pytest.raises(ValueError):
            transitive_reduction_arcs(build_graph((2,), GraphKind.HASSE))

    def test_reduction_of_chain(self):
        gT = build_graph((4,), GraphKind.CLOSURE)
        assert transitive_reduction_arcs(gT) == {(0, 1), (1, 2), (2, 3), (3, 4)}
