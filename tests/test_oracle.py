"""Brute-force measurement against the closed formulas."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from divgraph.graphs import DEFAULT_ARC_BUDGET, DivisorGraph, GraphKind, build_graph, level_profile
from divgraph.invariants import InvariantRecord, all_invariants
from divgraph.kernels import Arcs
from divgraph.oracle import count_paths, measure, verify_structure

from _reference import (
    arcs_from_pairs,
    count_paths_by_push,
    count_paths_dfs,
    transitive_reduction_arcs,
)

signatures = st.lists(st.integers(min_value=1, max_value=4), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@st.composite
def forward_dags(draw):
    """Graphs on 1-12 nodes whose rows are strictly ascending with heads in
    (tail, n); dead ends and unreachable nodes are allowed."""
    n = draw(st.integers(min_value=1, max_value=12))
    rows = [sorted(draw(st.sets(st.integers(a + 1, n - 1)))) for a in range(n - 1)] + [[]]
    nodes = [(i,) for i in range(n)]
    return DivisorGraph((), GraphKind.CLOSURE, nodes, Arcs(rows))


def _pair(sig):
    return build_graph(sig, GraphKind.HASSE), build_graph(sig, GraphKind.CLOSURE)


class _CountedRows(list):
    """Arc rows that count the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestOneProfilePass:
    def test_measure_and_verify_structure_share_one_profile(self):
        g, gT = _pair((2, 3, 1))
        expected = measure(g, gT), verify_structure(g)
        arcs = arcs_from_pairs(g.arcs, len(g.nodes))
        rows = arcs.rows = _CountedRows(arcs.rows)
        counted = dataclasses.replace(g, arcs=arcs)
        # measure iterates the rows once, for the profile pass, which also
        # collects the level steps (count_paths indexes the rows); the
        # structure check then reuses that profile without another pass
        assert measure(counted, gT) == expected[0]
        assert rows.passes == 1
        assert verify_structure(counted) == expected[1]
        assert level_profile(counted) is level_profile(counted)
        assert rows.passes == 1

    def test_a_copy_gets_its_own_profile(self):
        g = build_graph((2, 1), GraphKind.HASSE)
        assert level_profile(g).arc_counts == [2, 3, 2]
        # the last arc leaves level 2
        copy = dataclasses.replace(g, arcs=arcs_from_pairs(list(g.arcs)[:-1], len(g.nodes)))
        assert copy != g and repr(copy) == repr(g)
        assert level_profile(copy).arc_counts == [2, 3, 1]
        assert level_profile(g).arc_counts == [2, 3, 2]


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
    @settings(max_examples=40, deadline=None)
    def test_dp_equals_exhaustive_dfs(self, sig):
        g, gT = _pair(sig)
        assert count_paths(g) == count_paths_dfs(g)
        assert count_paths(gT) == count_paths_dfs(gT)

    @given(forward_dags())
    @settings(max_examples=200, deadline=None)
    def test_pull_push_and_dfs_agree_on_forward_dags(self, g):
        assert count_paths(g) == count_paths_by_push(g) == count_paths_dfs(g)

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

    def test_equals_formulas_at_the_arc_budget_edge(self):
        # the largest closure that the default arc budget lets the CLI build
        sig = (11, 10, 7, 2, 1, 1)
        g, gT = _pair(sig)
        assert len(gT.arcs) == 9_995_040 <= DEFAULT_ARC_BUDGET
        assert measure(g, gT) == all_invariants(sig)
        assert verify_structure(g).all_ok


class TestVerifyStructure:
    @pytest.mark.parametrize("sig", [(2, 3, 1), (1,), (4, 2, 1), (), (5, 5)])
    def test_all_claims_hold(self, sig):
        report = verify_structure(build_graph(sig, GraphKind.HASSE))
        assert report.all_ok, report.failures()

    def test_requires_hasse(self):
        with pytest.raises(ValueError):
            verify_structure(build_graph((2,), GraphKind.CLOSURE))

    @pytest.mark.parametrize(
        "sig, gone, drop, add, failing",
        [
            # the last arc goes: a second sink and one arc fewer on level 3
            ((2, 2), [], [((2, 1), (2, 2))], [], ["arc_level_symmetry", "uniform_path_length"]),
            # an arc from level 1 to level 3 that keeps every degree in bounds
            (
                (2, 1, 1),
                [],
                [],
                [((0, 0, 1), (2, 1, 0))],
                ["arc_level_symmetry", "bipartite_by_parity", "uniform_path_length"],
            ),
            # a level-3 node goes with its arcs; one arc fewer leaving level 1
            # and one more leaving level 3 keep the arc counts symmetric
            ((3, 2), [(2, 1)], [((1, 0), (1, 1))], [((1, 2), (3, 1))], ["level_symmetry"]),
            # two complementary nodes go: two nodes on level 1 for three primes
            ((1, 1, 1), [(1, 0, 0), (0, 1, 1)], [], [], ["special_levels"]),
            # one more arc leaving level 1 and one more leaving level 2, each
            # raising a degree past two
            ((2, 2), [], [], [((0, 1), (2, 0)), ((0, 2), (2, 1))], ["degree_bounds"]),
            # (1, 1) -> (1, 2) becomes (0, 2) -> (2, 1), still from level 2 to
            # level 3: (2, 1) gets a third arc in, no node more than two out
            ((2, 2), [], [((1, 1), (1, 2))], [((0, 2), (2, 1))], ["degree_bounds"]),
            # (1, 0) -> (1, 1) becomes (0, 1) -> (2, 0), still from level 1 to
            # level 2: (0, 1) gets a third arc out, no node more than two in
            ((2, 2), [], [((1, 0), (1, 1))], [((0, 1), (2, 0))], ["degree_bounds"]),
        ],
        ids=[
            "dropped-arc",
            "level-skipping-arc",
            "dropped-node",
            "dropped-node-pair",
            "extra-arcs",
            "in-degree-only",
            "out-degree-only",
        ],
    )
    def test_tampering_fails_exactly_these_claims(self, sig, gone, drop, add, failing):
        g = build_graph(sig, GraphKind.HASSE)
        pairs = [(g.nodes[a], g.nodes[b]) for a, b in g.arcs]
        assert set(drop) <= set(pairs)
        nodes = [v for v in g.nodes if v not in gone]
        index = {v: i for i, v in enumerate(nodes)}
        kept = [(a, b) for a, b in pairs if a in index and b in index and (a, b) not in drop]
        arcs = sorted((index[a], index[b]) for a, b in kept + add)
        assert all(a < b for a, b in arcs)  # every arc still goes forward
        tampered = type(g)(
            signature=g.signature, kind=g.kind, nodes=nodes, arcs=arcs_from_pairs(arcs, len(nodes))
        )
        assert verify_structure(tampered).failures() == failing

    def test_arcs_leaving_the_top_level_are_counted(self):
        # node 1 sits on the top level, 1, and has an arc, to node 2 on the
        # same level
        g = DivisorGraph((1, 1), GraphKind.HASSE, [(0, 0), (0, 1), (1, 0)], Arcs([[1, 2], [2], []]))
        assert level_profile(g).arc_counts == [2, 1]
        assert verify_structure(g).failures() == [
            "level_symmetry",
            "arc_level_symmetry",
            "special_levels",
            "bipartite_by_parity",
            "uniform_path_length",
        ]
        record = measure(g, build_graph((1, 1), GraphKind.CLOSURE))
        assert isinstance(record, InvariantRecord)
        assert (record.hasse_size, record.width_arcs, record.e_even, record.e_odd) == (3, 2, 2, 1)


class TestTransitiveReduction:
    def test_requires_closure(self):
        with pytest.raises(ValueError):
            transitive_reduction_arcs(build_graph((2,), GraphKind.HASSE))

    def test_reduction_of_chain(self):
        gT = build_graph((4,), GraphKind.CLOSURE)
        assert transitive_reduction_arcs(gT) == {(0, 1), (1, 2), (2, 3), (3, 4)}
