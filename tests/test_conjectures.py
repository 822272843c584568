"""The disjoint-path certificate, the two width checks, and the scan reports."""

import dataclasses
import itertools
import json

import pytest

from divgraph import cli, conjectures, kernels
from divgraph.conjectures import (
    DisjointMode,
    check_argmax_coincidence,
    check_middle_width,
    max_disjoint_paths,
    scan,
)
from divgraph.graphs import GraphKind, build_graph
from divgraph.signatures import partitions_of

from _reference import max_disjoint_paths_by_flow


def _brute_force_disjoint(sig, mode):
    """Maximum pairwise-disjoint path set by exhaustive subset search.

    Grows the subset size until no disjoint family exists; only usable on
    graphs with a small path count.
    """
    g = build_graph(sig, GraphKind.HASSE)
    outgoing = {}
    for a, b in g.arcs:
        outgoing.setdefault(a, []).append(b)
    sink = g.sink
    paths = []

    def walk(v, acc):
        if v == sink:
            paths.append(tuple(acc))
            return
        for w in outgoing.get(v, []):
            walk(w, acc + [w])

    walk(0, [0])

    def disjoint(p1, p2):
        if mode is DisjointMode.NODE:
            return not set(p1[1:-1]) & set(p2[1:-1])
        return not set(zip(p1, p1[1:])) & set(zip(p2, p2[1:]))

    best = 1
    for r in range(2, len(paths) + 1):
        found = any(
            all(disjoint(p1, p2) for p1, p2 in itertools.combinations(subset, 2))
            for subset in itertools.combinations(paths, r)
        )
        if not found:
            break
        best = r
    return best


class TestMaxDisjointPaths:
    @pytest.mark.parametrize(
        "sig,mode,expected",
        [
            ((1, 1), DisjointMode.NODE, 2),
            ((3,), DisjointMode.NODE, 1),
            ((3,), DisjointMode.ARC, 1),
            ((1, 1, 1), DisjointMode.NODE, 3),
        ],
    )
    def test_frozen_examples(self, sig, mode, expected):
        g = build_graph(sig, GraphKind.HASSE)
        assert max_disjoint_paths(g, mode) == expected

    @pytest.mark.parametrize(
        "sig",
        [(1,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 2, 1), (3, 3)],
    )
    def test_flow_equals_brute_force(self, sig):
        g = build_graph(sig, GraphKind.HASSE)
        for mode in DisjointMode:
            assert max_disjoint_paths(g, mode) == _brute_force_disjoint(sig, mode)

    def test_node_bounded_by_arc(self):
        for k in range(1, 8):
            for sig in partitions_of(k):
                g = build_graph(sig, GraphKind.HASSE)
                node_flow = max_disjoint_paths(g, DisjointMode.NODE)
                arc_flow = max_disjoint_paths(g, DisjointMode.ARC)
                assert node_flow <= arc_flow <= len(sig)

    def test_invariant_under_permutation(self):
        for bounds in [(2, 3, 1), (1, 2, 3), (3, 2, 1)]:
            g = build_graph(bounds, GraphKind.HASSE)
            assert max_disjoint_paths(g, DisjointMode.NODE) == 3

    @pytest.mark.parametrize("omega", range(1, 9))
    def test_equals_reference_flow(self, omega):
        for sig in partitions_of(omega):
            for bounds in set(itertools.permutations(sig)):
                g = build_graph(bounds, GraphKind.HASSE)
                for mode in DisjointMode:
                    expected = max_disjoint_paths_by_flow(g, mode)
                    assert max_disjoint_paths(g, mode) == expected, (bounds, mode)

    @pytest.mark.parametrize(
        "bounds,tamper",
        [
            # (2, 1, 1) has strides (4, 2, 1); chain 0 runs 0, 4, 8, 10, 11
            pytest.param(
                (2, 1, 1),
                lambda g: {"arcs": [a for a in g.arcs if a != (4, 8)]},
                id="chain-arc-dropped",
            ),
            pytest.param(
                (2, 1, 1), lambda g: {"arcs": sorted(g.arcs + [(0, 3)])}, id="extra-source-arc"
            ),
            pytest.param((2, 1, 1), lambda g: {"nodes": g.nodes[:-1]}, id="node-count-mismatch"),
            # a lone chain meets no other, so only the node-count check catches this
            pytest.param((3,), lambda g: {"nodes": g.nodes[:-1]}, id="node-count-mismatch-chain"),
        ],
    )
    def test_tampered_graph_raises(self, bounds, tamper):
        g = build_graph(bounds, GraphKind.HASSE)
        bad = dataclasses.replace(g, **tamper(g))
        for mode in DisjointMode:
            with pytest.raises(ValueError):
                max_disjoint_paths(bad, mode)

    def test_empty_signature_rejected(self):
        g = build_graph((), GraphKind.HASSE)
        with pytest.raises(ValueError):
            max_disjoint_paths(g, DisjointMode.NODE)

    def test_requires_hasse(self):
        g = build_graph((1, 1), GraphKind.CLOSURE)
        with pytest.raises(ValueError):
            max_disjoint_paths(g, DisjointMode.NODE)


class TestWidthChecks:
    def test_middle_width_worked_example(self):
        assert check_middle_width((2, 3, 1)) is True

    def test_middle_width_trivial(self):
        assert check_middle_width(()) is True

    def test_middle_width_4_2(self):
        # levels of (4,2) are [1,2,3,3,3,2,1]; the middle level 3 attains
        # the maximum even though it is not the unique argmax
        assert check_middle_width((4, 2)) is True

    def test_argmax_worked_example(self):
        assert check_argmax_coincidence((2, 3, 1)) is True

    def test_argmax_prime(self):
        assert check_argmax_coincidence((1,)) is True

    def test_argmax_5221(self):
        assert check_argmax_coincidence((5, 2, 2, 1)) is True

    def test_argmax_rejects_empty(self):
        with pytest.raises(ValueError):
            check_argmax_coincidence(())

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_chains_pass_all_three_checks(self, k):
        sig = (k,)
        g = build_graph(sig, GraphKind.HASSE)
        assert max_disjoint_paths(g, DisjointMode.NODE) == 1 == len(sig)
        assert max_disjoint_paths(g, DisjointMode.ARC) == 1
        assert check_middle_width(sig)
        assert check_argmax_coincidence(sig)


class TestScan:
    def test_conjecture_1_small(self):
        sigs = [s for k in range(1, 6) for s in partitions_of(k)]
        report = scan(1, sigs, scope="Omega 1..5")
        assert report.ok
        assert report.checked == len(sigs)
        assert report.counterexamples == []

    def test_conjecture_1_certificate_once_per_signature(self, monkeypatch):
        # the certificate does not depend on the mode, so "both" checks it once
        checked = []

        def counted(g, mode):
            checked.append(g.signature)
            return max_disjoint_paths(g, mode)

        monkeypatch.setattr(conjectures, "max_disjoint_paths", counted)
        sigs = [(1,), (2, 1), (1, 1, 1)]
        for modes in [(DisjointMode.NODE, DisjointMode.ARC), (DisjointMode.ARC,)]:
            checked.clear()
            report = scan(1, sigs, modes=modes)
            assert report.ok and report.checked == 3
            assert checked == sigs

    def test_conjecture_2_range(self):
        sigs = [s for k in range(9) for s in partitions_of(k)]
        report = scan(2, sigs)
        assert report.ok
        assert report.checked == len(sigs)

    def test_conjecture_3_skips_empty(self):
        report = scan(3, [(), (1,), (2, 1)])
        assert report.ok
        assert report.checked == 2
        assert report.skipped == [((), "empty signature")]

    def test_budget_violation_recorded_not_fatal(self):
        report = scan(1, [(1, 1), (9, 9, 9)], node_budget=100)
        assert report.checked == 1
        assert len(report.skipped) == 1
        assert report.ok

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            scan(7, [(1,)])

    def test_report_json_round_trip(self):
        report = scan(2, [(), (1,), (2, 2)], scope="demo")
        payload = json.loads(report.to_json())
        assert payload["conjecture"] == 2
        assert payload["scope"] == "demo"
        assert payload["checked"] == 3
        assert payload["counterexamples"] == []
        assert payload["elapsed_seconds"] >= 0

    def test_counterexample_surfaces(self, monkeypatch, capsys):
        # both checks are true theorems on these inputs, so break them
        monkeypatch.setattr(conjectures, "check_middle_width", lambda parts: False)
        monkeypatch.setattr(conjectures, "check_argmax_coincidence", lambda parts: False)

        report = scan(2, [(), (4, 2)])
        assert not report.ok and report.checked == 2 and report.skipped == []
        assert [c.signature for c in report.counterexamples] == [(), (4, 2)]
        # (4, 2) has levels [1, 2, 3, 3, 3, 2, 1]: middle count, then the width
        assert (report.counterexamples[1].observed, report.counterexamples[1].expected) == (3, 3)

        report = scan(3, [(), (2, 1)])
        assert report.checked == 1 and report.skipped == [((), "empty signature")]
        payload = report.to_dict()["counterexamples"]
        assert payload == [
            {
                "signature": [2, 1],
                "observed": {"node_counts": [1, 2, 2], "arc_counts": [2, 3, 2]},
                "expected": "coinciding argmax level",
            }
        ]

        for argv in (["--id", "2", "--max-n", "30"], ["--id", "3", "--colex-count", "5"]):
            assert cli.main(["conjectures", *argv]) == 3
            assert json.loads(capsys.readouterr().out)["counterexamples"]

        monkeypatch.setattr(conjectures, "max_disjoint_paths", lambda g, mode: len(g.signature) + 1)
        report = scan(1, [(2, 1)])
        assert report.checked == 1
        assert report.to_dict()["counterexamples"] == [
            {"signature": [2, 1], "observed": {"node": 3, "arc": 3}, "expected": 2}
        ]
        assert cli.main(["conjectures", "--id", "1", "--max-omega", "3"]) == 3
        assert len(json.loads(capsys.readouterr().out)["counterexamples"]) == 6  # partitions of 1, 2, 3

    def test_failed_certificate_is_a_counterexample(self, monkeypatch, capsys):
        # a kernel that drops the last arc builds diagrams that fail the certificate
        hasse_arcs = kernels.hasse_arcs
        monkeypatch.setattr(kernels, "hasse_arcs", lambda bounds: hasse_arcs(bounds)[:-1])
        report = scan(1, [(1,), (2, 1)])
        assert report.checked == 2 and report.skipped == []
        assert report.to_dict()["counterexamples"] == [
            {"signature": [1], "observed": "the source does not have exactly 1 out-arcs", "expected": 1},
            {"signature": [2, 1], "observed": "chain 0 misses the arc (4, 5)", "expected": 2},
        ]
        assert cli.main(["conjectures", "--id", "1", "--max-omega", "3"]) == 3
        assert len(json.loads(capsys.readouterr().out)["counterexamples"]) == 6  # partitions of 1, 2, 3
