"""The disjoint-path certificate, the two width checks, and the scan reports."""

import dataclasses
import itertools
import json
import re

import pytest

from divgraph import cli, conjectures, invariants, kernels
from divgraph.conjectures import (
    DisjointMode,
    max_disjoint_paths,
    scan,
)
from divgraph.graphs import GraphKind, build_graph
from divgraph.invariants import width_nodes
from divgraph.kernels import Arcs
from divgraph.signatures import partitions_of

from _reference import arcs_from_pairs, max_disjoint_paths_by_flow


def _without_last_arc(arcs):
    """The arcs of a faulty kernel that drops the last one."""
    return arcs_from_pairs(list(arcs)[:-1], len(arcs.rows))


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
        assert max_disjoint_paths(g) == expected == max_disjoint_paths_by_flow(g, mode)

    @pytest.mark.parametrize(
        "sig",
        [(1,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 2, 1), (3, 3)],
    )
    def test_flow_equals_brute_force(self, sig):
        g = build_graph(sig, GraphKind.HASSE)
        for mode in DisjointMode:
            assert max_disjoint_paths(g) == _brute_force_disjoint(sig, mode)

    def test_invariant_under_permutation(self):
        for bounds in [(2, 3, 1), (1, 2, 3), (3, 2, 1)]:
            g = build_graph(bounds, GraphKind.HASSE)
            assert max_disjoint_paths(g) == 3

    @pytest.mark.parametrize("omega", range(1, 9))
    def test_equals_reference_flow(self, omega):
        for sig in partitions_of(omega):
            for bounds in set(itertools.permutations(sig)):
                g = build_graph(bounds, GraphKind.HASSE)
                for mode in DisjointMode:
                    expected = max_disjoint_paths_by_flow(g, mode)
                    assert max_disjoint_paths(g) == expected, (bounds, mode)

    @pytest.mark.parametrize(
        "bounds,tamper,message",
        [
            # (2, 1, 1) has strides (4, 2, 1); chain 0 runs 0, 4, 8, 10, 11
            pytest.param(
                (2, 1, 1),
                lambda g: {"arcs": [a for a in g.arcs if a != (4, 8)]},
                "chain 0 misses the arc (4, 8)",
                id="chain-arc-dropped",
            ),
            pytest.param(
                (2, 1, 1),
                lambda g: {"arcs": sorted([*g.arcs, (0, 3)])},
                "the source does not have exactly 3 out-arcs",
                id="extra-source-arc",
            ),
            pytest.param(
                (2, 1, 1),
                lambda g: {"nodes": g.nodes[:-1]},
                "11 nodes do not match the bounds (2, 1, 1)",
                id="node-count-mismatch",
            ),
            pytest.param(
                (2, 1, 1),
                lambda g: {"arcs": Arcs(g.arcs.rows[:-1])},
                "11 arc rows do not match 12 nodes",
                id="row-count-mismatch",
            ),
            # the source's heads 1, 2, 8 give chain 0 the step 8 from node 8,
            # to a head past the sink 11 that a hand-built row may still hold
            pytest.param(
                (2, 1, 1),
                lambda g: {"arcs": sorted({*g.arcs} - {(0, 4)} | {(0, 8), (8, 16)})},
                "chain 0 misses the arc (8, 16)",
                id="head-past-the-sink",
            ),
            # a lone chain meets no other, so only the node-count check catches this
            pytest.param(
                (3,),
                lambda g: {"nodes": g.nodes[:-1]},
                "3 nodes do not match the bounds (3,)",
                id="node-count-mismatch-chain",
            ),
            pytest.param(
                (2, 1),
                lambda g: {"signature": ()},
                "6 nodes do not match the bounds ()",
                id="empty-bounds",
            ),
            # (1, 1, 1) has strides (4, 2, 1); with source heads 1, 2, 3 the steps
            # read off them take chain 0 over 0, 3, 5, 6, all arcs of the graph,
            # so only the sink check catches it
            pytest.param(
                (1, 1, 1),
                lambda g: {
                    "arcs": sorted(
                        [a for a in g.arcs if a[0] != 0] + [(0, 1), (0, 2), (0, 3), (3, 5), (5, 6)]
                    )
                },
                "chain 0 ends at node 6, not at the sink 7",
                id="chain-ends-off-sink",
            ),
            # (2, 1, 1) opens with (0, 1), (0, 2), (0, 4); swapped, the steps read
            # off the source would take chain 0 over (2, 4), which is no arc, so
            # this message shows the order check runs before any chain is walked
            pytest.param(
                (2, 1, 1),
                lambda g: {"arcs": [(0, 1), (0, 4), (0, 2), *list(g.arcs)[3:]]},
                "the arcs are not strictly increasing",
                id="arcs-out-of-order",
            ),
            # source heads 1, 3, 4, 7 give the steps 7, 4, 3, 1: chain 0 runs
            # 0, 7, 11, 14, 15 and chain 1 reaches node 7 again as 4 + 3
            pytest.param(
                (1, 1, 1, 1),
                lambda g: {
                    "arcs": [(0, 1), (0, 3), (0, 4), (0, 7), (4, 7), (7, 11), (11, 14), (14, 15)]
                },
                "two chains share node 7",
                id="chains-share-a-node",
            ),
        ],
    )
    def test_tampered_graph_raises(self, bounds, tamper, message):
        g = build_graph(bounds, GraphKind.HASSE)
        changes = tamper(g)
        if isinstance(changes.get("arcs"), list):  # pairs, appended to the rows in their order
            changes["arcs"] = arcs_from_pairs(changes["arcs"], len(g.nodes))
        bad = dataclasses.replace(g, **changes)
        with pytest.raises(ValueError, match=re.escape(message)):
            max_disjoint_paths(bad)

    @pytest.mark.parametrize("bounds", [(2, 0), (True,), (1.5,), (0, 1)])
    def test_tampered_bounds_refused(self, bounds):
        bad = dataclasses.replace(build_graph((1,), GraphKind.HASSE), signature=bounds)
        with pytest.raises(ValueError, match="positive integers"):
            max_disjoint_paths(bad)

    def test_empty_signature_rejected(self):
        g = build_graph((), GraphKind.HASSE)
        with pytest.raises(ValueError):
            max_disjoint_paths(g)

    def test_requires_hasse(self):
        g = build_graph((1, 1), GraphKind.CLOSURE)
        with pytest.raises(ValueError):
            max_disjoint_paths(g)


class TestWidthChecks:
    def test_middle_width_worked_example(self):
        assert scan(2, [(2, 3, 1)]).ok

    def test_middle_width_trivial(self):
        assert scan(2, [()]).ok

    def test_middle_width_4_2(self):
        # levels of (4,2) are [1,2,3,3,3,2,1]; the middle level 3 attains
        # the maximum even though it is not the unique argmax
        assert scan(2, [(4, 2)]).ok

    def test_argmax_worked_example(self):
        assert scan(3, [(2, 3, 1)]).ok

    def test_argmax_prime(self):
        assert scan(3, [(1,)]).ok

    def test_argmax_5221(self):
        assert scan(3, [(5, 2, 2, 1)]).ok

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_chains_pass_all_three_checks(self, k):
        sig = (k,)
        g = build_graph(sig, GraphKind.HASSE)
        assert max_disjoint_paths(g) == 1 == len(sig)
        assert scan(2, [sig]).ok
        assert scan(3, [sig]).ok


class TestScan:
    def test_conjecture_1_small(self):
        sigs = [s for k in range(1, 6) for s in partitions_of(k)]
        report = scan(1, sigs, scope="Omega 1..5")
        assert report.ok
        assert report.checked == len(sigs)
        assert report.counterexamples == []

    @pytest.mark.parametrize("conjecture", [2, 3])
    def test_width_checks_check_each_signature_once(self, conjecture, signature_checks):
        report = scan(conjecture, [(), (1,), (1, 2), [1, 3, 1]])
        assert report.ok and signature_checks == [(), (1,), (2, 1), (3, 1, 1)]

    def test_conjecture_1_certificate_once_per_signature(self, monkeypatch):
        # the certificate does not depend on the mode, so "both" checks it once
        checked = []

        def counted(g):
            checked.append(g.signature)
            return max_disjoint_paths(g)

        monkeypatch.setattr(conjectures, "max_disjoint_paths", counted)
        sigs = [(1,), (2, 1), (1, 1, 1)]
        for modes in [(DisjointMode.NODE, DisjointMode.ARC), (DisjointMode.ARC,)]:
            checked.clear()
            report = scan(1, sigs, modes=modes)
            assert report.ok and report.checked == 3
            assert checked == sigs

    def test_conjecture_1_report_does_not_depend_on_modes(self, monkeypatch):
        # one report for every modes tuple: checked, skipped, and, from a
        # kernel that drops the last arc, counterexamples
        sigs = [(), (1,), (2, 1), (1, 1, 1), (9, 9, 9)]
        node, arc = DisjointMode.NODE, DisjointMode.ARC
        mode_sets = [(node,), (arc,), (node, arc)]
        for faulty in (False, True):
            if faulty:
                hasse_arcs = kernels.hasse_arcs
                monkeypatch.setattr(kernels, "hasse_arcs", lambda bounds: _without_last_arc(hasse_arcs(bounds)))
            reports = [scan(1, sigs, modes=modes, node_budget=100).to_dict() for modes in mode_sets]
            for report in reports:
                report.pop("elapsed_seconds")
                assert (report["checked"], len(report["skipped"])) == (3, 2)
                assert len(report["counterexamples"]) == (3 if faulty else 0)
            assert reports[0] == reports[1] == reports[2]

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
        with pytest.raises(ValueError, match="unknown conjecture id True"):
            scan(True, [(1,)])  # True == 1, but an id is never a bool

    def test_report_json_round_trip(self):
        report = scan(2, [(), (1,), (2, 2)], scope="demo")
        payload = json.loads(report.to_json())
        assert payload["conjecture"] == 2
        assert payload["scope"] == "demo"
        assert payload["checked"] == 3
        assert payload["counterexamples"] == []
        assert payload["elapsed_seconds"] >= 0

    def test_counterexample_surfaces(self, monkeypatch, capsys):
        # both checks are true theorems, so feed them level lists they refute:
        # node counts that are not unimodal, and arc counts that peak elsewhere
        monkeypatch.setattr(conjectures, "level_counts", lambda sig: ([3, 1, 2, 1], [1, 4, 1]))

        report = scan(2, [(), (4, 2)])
        assert not report.ok and report.checked == 2 and report.skipped == []
        assert [c.signature for c in report.counterexamples] == [(), (4, 2)]
        # Omega reads 3 off the list: level 1 holds 1 node, the width is 3
        assert (report.counterexamples[1].observed, report.counterexamples[1].expected) == (1, 3)

        report = scan(3, [(), (2, 1)])
        assert report.checked == 1 and report.skipped == [((), "empty signature")]
        payload = report.to_dict()["counterexamples"]
        assert payload == [
            {
                "signature": [2, 1],
                "observed": {"node_counts": [3, 1, 2], "arc_counts": [1, 4, 1]},
                "expected": "coinciding argmax level",
            }
        ]

        for argv in (["--id", "2", "--max-n", "30"], ["--id", "3", "--colex-count", "5"]):
            assert cli.main(["conjectures", *argv]) == 3
            assert json.loads(capsys.readouterr().out)["counterexamples"]


    def test_middle_width_reads_the_shared_reader(self, monkeypatch):
        # W_v and the conjecture 2 scan read the middle level with one function;
        # a reader moved to level 0 shows in both
        monkeypatch.setattr(invariants, "_middle_nodes", lambda omega, poly: poly[0])
        assert width_nodes((2, 1)) == 1
        report = scan(2, [(), (1,), (2, 1), (4, 2)])
        assert report.checked == 4
        assert [(c.signature, c.observed, c.expected) for c in report.counterexamples] == [
            ((2, 1), 1, 2),
            ((4, 2), 1, 3),
        ]

    def test_failed_certificate_is_a_counterexample(self, monkeypatch, capsys):
        # a kernel that drops the last arc builds diagrams that fail the certificate
        hasse_arcs = kernels.hasse_arcs
        monkeypatch.setattr(kernels, "hasse_arcs", lambda bounds: _without_last_arc(hasse_arcs(bounds)))
        report = scan(1, [(1,), (2, 1)])
        assert report.checked == 2 and report.skipped == []
        assert report.to_dict()["counterexamples"] == [
            {"signature": [1], "observed": "the source does not have exactly 1 out-arcs", "expected": 1},
            {"signature": [2, 1], "observed": "chain 0 misses the arc (4, 5)", "expected": 2},
        ]
        assert cli.main(["conjectures", "--id", "1", "--max-omega", "3"]) == 3
        assert len(json.loads(capsys.readouterr().out)["counterexamples"]) == 6  # partitions of 1, 2, 3
