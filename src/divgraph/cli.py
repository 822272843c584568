"""Command-line interface.

Subcommands: invariants, sequence, graph, compare, conjectures.  Each
budget comes from its flag, else from the environment (DIVGRAPH_NODE_BUDGET,
DIVGRAPH_OMEGA_BUDGET), else from the library default.  All numeric output
is full decimal.

Exit codes: 0 success; 1 an error (bad input, budget exceeded) or, for
compare, a value mismatch; 2 a command-line usage error or, for compare, an
input it cannot compare against; 3 a conjecture counterexample was found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from divgraph import conjectures as conj
from divgraph import graphs, invariants, sequences
from divgraph.errors import BudgetError
from divgraph.kernels import active_backend
from divgraph.signatures import (
    factorize,
    least_integer,
    parse_signature_key,
    signature_key,
    signature_of,
)


def _budget(flag: Optional[int], name: str, default: int) -> int:
    """The flag value if given, else the environment variable, else default."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}") from None


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="positive integer to analyze")
    group.add_argument("--sig", type=str, help="exponent tuple, dot-separated (e.g. 2.3.1; 0 for n=1)")


def _resolve_target(args: argparse.Namespace) -> tuple[tuple[int, ...], Optional[int]]:
    """Exponent bounds plus the concrete n when one was given."""
    if args.n is not None:
        pairs = factorize(args.n)
        return tuple(e for _, e in pairs), args.n
    return parse_signature_key(args.sig), None


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_invariants(args: argparse.Namespace) -> int:
    bounds, n = _resolve_target(args)
    omega_budget = _budget(
        args.omega_budget, "DIVGRAPH_OMEGA_BUDGET", invariants.DEFAULT_OMEGA_BUDGET
    )
    record = invariants.all_invariants(bounds, omega_budget=omega_budget)
    values = dict(zip(invariants.FUNCS, record.as_tuple()))
    extras: dict[str, object] = {"height": record.big_omega}
    if n is not None:
        extras["n"] = n
        extras["signature"] = signature_key(signature_of(n))
    else:
        extras["signature"] = signature_key(tuple(sorted(bounds, reverse=True)))
        extras["LI"] = least_integer(bounds)
    if args.format == "json":
        _write_out(json.dumps({**values, **extras}) + "\n", args.out)
    else:
        lines = [f"{k} = {v}" for k, v in values.items()]
        lines += [f"{k} = {v}" for k, v in extras.items()]
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sequence(args: argparse.Namespace) -> int:
    table = sequences.generate(args.inv, sequences.Ordering(args.order), args.count)
    payload = sequences.emit(table, sequences.EmitFormat(args.format))
    _write_out(payload.decode(), args.out)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    bounds, _ = _resolve_target(args)
    kind = graphs.GraphKind(args.kind)
    node_budget = _budget(args.node_budget, "DIVGRAPH_NODE_BUDGET", graphs.DEFAULT_NODE_BUDGET)
    g = graphs.build_graph(bounds, kind, node_budget=node_budget)
    text = graphs.to_dot(g) if args.format == "dot" else graphs.to_json(g) + "\n"
    _write_out(text, args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    # exit 1 is reserved for a value mismatch; every failure to compare is 2
    try:
        table = sequences.generate(args.inv, sequences.Ordering(args.order), args.count)
        with open(args.bfile, "rb") as fh:
            reference = fh.read()
        report = sequences.compare_bfile(table, reference)
    except (OSError, ValueError, BudgetError) as exc:  # BFileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_out(json.dumps(report.to_dict()) + "\n", args.out)
    return 0 if report.full_match else 1


def cmd_conjectures(args: argparse.Namespace) -> int:
    from divgraph.signatures import (
        enumerate_signatures,
        partitions_of,
        signature_from_sieve,
        SignatureOrder,
        spf_sieve,
    )

    modes = {
        "node": (conj.DisjointMode.NODE,),
        "arc": (conj.DisjointMode.ARC,),
        "both": (conj.DisjointMode.NODE, conj.DisjointMode.ARC),
    }[args.mode]
    if args.id == 1:
        sigs = [s for k in range(1, args.max_omega + 1) for s in partitions_of(k)]
        scope = f"all signatures with 1 <= Omega <= {args.max_omega}"
    elif args.id == 2:
        spf = spf_sieve(args.max_n)
        seen = {signature_from_sieve(n, spf) for n in range(1, args.max_n + 1)}
        sigs = sorted(seen)
        scope = f"signatures of n <= {args.max_n}"
    elif args.id == 3:
        sigs = enumerate_signatures(SignatureOrder.GRADED_COLEX, args.colex_count)
        scope = f"first {args.colex_count} graded-colex signatures"
    else:
        raise ValueError(f"unknown conjecture id {args.id}")
    node_budget = _budget(args.node_budget, "DIVGRAPH_NODE_BUDGET", graphs.DEFAULT_NODE_BUDGET)
    report = conj.scan(args.id, sigs, modes=modes, node_budget=node_budget, scope=scope)
    _write_out(report.to_json() + "\n", args.out)
    return 0 if report.ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divgraph",
        description="Divisor-lattice graphs, their invariants, and integer sequences.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s ({active_backend()} kernels)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="all fourteen invariants of one n or signature")
    _add_target_flags(p_inv)
    p_inv.add_argument("--format", choices=["text", "json"], default="text")
    p_inv.add_argument("--omega-budget", type=int, default=None)
    p_inv.add_argument("--out", type=str, default=None)
    p_inv.set_defaults(func=cmd_invariants)

    p_seq = sub.add_parser("sequence", help="emit an invariant sequence")
    p_seq.add_argument("--inv", required=True, help="invariant name (V, EH, ..., PT, LI)")
    p_seq.add_argument("--order", choices=[o.value for o in sequences.Ordering], default="natural")
    p_seq.add_argument("--count", type=int, default=50)
    p_seq.add_argument("--format", choices=[f.value for f in sequences.EmitFormat], default="csv")
    p_seq.add_argument("--out", type=str, default=None)
    p_seq.set_defaults(func=cmd_sequence)

    p_graph = sub.add_parser("graph", help="emit an explicit graph as DOT or JSON")
    _add_target_flags(p_graph)
    p_graph.add_argument("--kind", choices=[k.value for k in graphs.GraphKind], default="hasse")
    p_graph.add_argument("--format", choices=["dot", "json"], default="dot")
    p_graph.add_argument("--node-budget", type=int, default=None)
    p_graph.add_argument("--out", type=str, default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_cmp = sub.add_parser("compare", help="compare a sequence against a local b-file")
    p_cmp.add_argument("--inv", required=True)
    p_cmp.add_argument("--order", choices=[o.value for o in sequences.Ordering], default="natural")
    p_cmp.add_argument("--count", type=int, default=50)
    p_cmp.add_argument("--bfile", required=True, help="path to the reference b-file")
    p_cmp.add_argument("--out", type=str, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_conj = sub.add_parser("conjectures", help="scan a conjecture for counterexamples")
    p_conj.add_argument("--id", type=int, choices=[1, 2, 3], required=True)
    p_conj.add_argument("--mode", choices=["node", "arc", "both"], default="both")
    p_conj.add_argument("--max-omega", type=int, default=8)
    p_conj.add_argument("--max-n", type=int, default=100_000)
    p_conj.add_argument("--colex-count", type=int, default=200)
    p_conj.add_argument("--node-budget", type=int, default=None)
    p_conj.add_argument("--out", type=str, default=None)
    p_conj.set_defaults(func=cmd_conjectures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
