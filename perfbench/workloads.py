"""The four benchmark workloads: seeded inputs, the program calls, and checks.

A workload is a fixed list of steps built from the seed.  The harness runs
the list as one pass, again and again, in a closed loop: each step starts
when the previous one returns.  A step is an item (one unit of
``items_per_s``) or preparation work that a pass needs but that is not an
item.  Checks run after the pass, outside the timed region, and receive
every step's output so that one table can be checked against another.

Program calls always go through module attributes (``graphs.build_graph``)
so that the traced run sees them; input generation and checks use only
harness code or functions bound before any tracing starts.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from divgraph import cli, conjectures, graphs, invariants, oracle, sequences, signatures
from divgraph.graphs import GraphKind
from divgraph.invariants import all_invariants
from divgraph.sequences import EmitFormat, Ordering

ROOT = Path(__file__).resolve().parent.parent
INT_BOUND = 2**63 - 1

# The fourteen invariants in record order, under the names the CLI prints,
# then the least-integer row that only the signature orders have.
INVARIANTS = ["V", "EH", "Omega", "omega", "Wv", "We", "Delta", "PH", "VE", "VO", "EE", "EO", "ET", "PT"]
TABLE_ROWS = INVARIANTS + ["LI"]


@dataclass
class Step:
    key: str
    call: Callable[[], Any]
    # (output, outputs of every step in the pass by key) -> failure message or None
    check: Callable[[Any, dict], Optional[str]]
    item: bool = True


@dataclass
class Plan:
    name: str
    steps: list[Step]
    inputs: list  # JSON-able description, hashed into the stamp

    @property
    def items_per_pass(self) -> int:
        return sum(1 for s in self.steps if s.item)


def load_repo_module(relpath: str):
    """Import a helper module of the repository (test corpora, fixtures, bench cases) by path."""
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- independent reference arithmetic used for inputs and checks ----------


def partitions(k: int) -> list[tuple[int, ...]]:
    """Partitions of k as descending tuples, descending lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(prefix)
        for p in range(min(rest, cap), 0, -1):
            rec(rest - p, p, prefix + (p,))

    rec(k, k, ())
    return out


def colex_signatures(count: int) -> list[tuple[int, ...]]:
    """First ``count`` signatures in graded colex order: by sum, then length, then lex-descending."""
    out: list[tuple[int, ...]] = []
    k = 0
    while len(out) < count:
        out += sorted(partitions(k), key=len)
        k += 1
    return out[:count]


def signatures_upto(limit: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(n, signature of n) for n in 1..limit, from a smallest-prime-factor sieve."""
    spf = array("I", range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(1, limit + 1):
        exponents, rest = [], n
        while rest > 1:
            p, e = spf[rest], 0
            while rest % p == 0:
                rest //= p
                e += 1
            exponents.append(e)
        yield n, tuple(sorted(exponents, reverse=True))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24 with these bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def least_integer_of(sig: tuple[int, ...]) -> int:
    primes = [p for p in range(2, 200) if is_prime(p)][: len(sig)]
    return math.prod(p**e for p, e in zip(primes, sig))


def key_of(sig: tuple[int, ...]) -> str:
    return ".".join(map(str, sig)) if sig else "0"


def parse_bfile(data: bytes) -> list[tuple[int, int]]:
    pairs = []
    for line in data.decode().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            index, value = line.split()
            pairs.append((int(index), int(value)))
    return pairs


def _mismatch(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# --- oracle-corpus ---------------------------------------------------------


def oracle_corpus(seed: int, tiny: bool) -> Plan:
    """Criteria 5 and 6 per signature: both graphs, measure, formulas, structure."""
    corpus = load_repo_module("tests/_corpus.py").oracle_corpus(order_cap=30 if tiny else 300)
    random.Random(seed).shuffle(corpus)

    def step(sig: tuple[int, ...]) -> Step:
        def call():
            g = graphs.build_graph(sig, GraphKind.HASSE)
            gT = graphs.build_graph(sig, GraphKind.CLOSURE)
            measured = oracle.measure(g, gT)
            computed = invariants.all_invariants(sig, omega_budget=200)
            return measured, computed, oracle.verify_structure(g)

        def check(out, _):
            measured, computed, report = out
            if measured != computed:
                return f"{sig}: measure {measured} != all_invariants {computed}"
            if not report.all_ok:
                return f"{sig}: structure fails {report.failures()}"
            return None

        return Step(key_of(sig), call, check)

    return Plan("oracle-corpus", [step(s) for s in corpus], [list(s) for s in corpus])


# --- sequence-tables -------------------------------------------------------


def sequence_tables(seed: int, tiny: bool) -> Plan:
    """All 15 rows in both signature orders (every signature with Omega <=
    grade, so both orders hold the same set) and the 14 natural-order rows."""
    grade = 6 if tiny else 10
    sig_count = sum(len(partitions(k)) for k in range(grade + 1))
    nat_count = 60 if tiny else 1500
    nat_sigs = dict(signatures_upto(nat_count))
    fixtures = load_repo_module("tests/fixtures/table_rows.py")
    printed = {
        Ordering.NATURAL: fixtures.NATURAL_ROWS,
        Ordering.GRADED_COLEX: fixtures.COLEX_ROWS,
        Ordering.CANONICAL: fixtures.CANONICAL_ROWS,
    }
    references = {
        "V": (ROOT / "tests/data/b000005.txt").read_bytes(),  # divisor counts
        "PT": (ROOT / "tests/data/b002033.txt").read_bytes(),  # ordered factorizations
    }
    specs = [(inv, o, sig_count) for inv in TABLE_ROWS for o in (Ordering.GRADED_COLEX, Ordering.CANONICAL)]
    specs += [(inv, Ordering.NATURAL, nat_count) for inv in INVARIANTS]
    random.Random(seed).shuffle(specs)
    colex = colex_signatures(sig_count)

    def step(inv: str, ordering: Ordering, count: int) -> Step:
        natural = ordering is Ordering.NATURAL

        def call():
            table = sequences.generate(inv, ordering, count)
            emitted = {fmt: sequences.emit(table, fmt) for fmt in EmitFormat}
            report = sequences.compare_bfile(table, reference(emitted))
            return table, emitted, report

        def reference(emitted) -> bytes:
            return references.get(inv) if natural and inv in references else emitted[EmitFormat.BFILE]

        def check(out, outputs):
            table, emitted, report = out
            pairs = [(e.key, e.value) for e in table.entries]
            keys = range(1, count + 1) if natural else range(count)
            if [k for k, _ in pairs] != list(keys):
                return f"{inv} {ordering.value}: keys are not {keys}"
            rows = list(csv.reader(io.StringIO(emitted[EmitFormat.CSV].decode())))[1:]
            doc = json.loads(emitted[EmitFormat.JSON])
            problem = (
                _mismatch("b-file round trip", parse_bfile(emitted[EmitFormat.BFILE]), pairs)
                or _mismatch("csv", [(int(r[0]), int(r[-1])) for r in rows], pairs)
                or _mismatch("json", [(e["key"], e["value"]) for e in doc["entries"]], pairs)
            )
            if problem:
                return problem
            overlap = min(count, len(parse_bfile(reference(emitted))))
            if not report.full_match or report.overlap != overlap:
                return f"{inv} {ordering.value} compare_bfile: {report.to_dict()}"
            values = [v for _, v in pairs]
            for i, printed_value in enumerate(printed[ordering].get(inv, [])[:count]):
                if natural:
                    printed_value = fixtures.NATURAL_ERRATA.get((inv, i + 1), printed_value)
                if values[i] != printed_value:
                    return f"{inv} {ordering.value}[{i}] = {values[i]}, printed {printed_value}"
            if not natural:
                sigs = [e.signature for e in table.entries]
                if ordering is Ordering.GRADED_COLEX:
                    problem = _mismatch("colex signatures", sigs, colex)
                return problem or _mismatch("csv signatures", [r[1] for r in rows], [key_of(s) for s in sigs])
            # natural value at n == signature-order value of the signature of n
            by_sig = {e.signature: e.value for e in outputs[f"{inv}/{Ordering.CANONICAL.value}"][0].entries}
            for n, value in pairs:
                if by_sig[nat_sigs[n]] != value:
                    return f"{inv} at n={n}: {value} != signature-order value {by_sig[nat_sigs[n]]}"
            return None

        return Step(f"{inv}/{ordering.value}", call, check)

    return Plan(
        "sequence-tables",
        [step(*s) for s in specs],
        [[inv, o.value, c] for inv, o, c in specs],
    )


# --- conjecture-scans ------------------------------------------------------


def conjecture_scans(seed: int, tiny: bool) -> Plan:
    """All three scans, one signature per call: id 1 over every signature with
    Omega <= a bound, id 2 over the signatures of n <= max_n, id 3 over a
    colex prefix."""
    rng = random.Random(seed)
    max_omega = 5 if tiny else 10
    max_n = (2000 if tiny else 100_000) + rng.randrange(200 if tiny else 10_000)
    colex_count = (30 if tiny else 1000) + rng.randrange(2 if tiny else 100)
    sigs1 = [s for k in range(1, max_omega + 1) for s in partitions(k)]
    sigs2 = sorted({sig for _, sig in signatures_upto(max_n)})
    sigs3 = colex_signatures(colex_count)
    modes = (conjectures.DisjointMode.NODE, conjectures.DisjointMode.ARC)

    def sieve_call():
        spf = signatures.spf_sieve(max_n)
        return sorted({signatures.signature_from_sieve(n, spf) for n in range(1, max_n + 1)})

    prep = [
        Step("sieve", sieve_call, lambda out, _: _mismatch(f"signatures of n <= {max_n}", out, sigs2), item=False),
        Step(
            "colex",
            lambda: signatures.enumerate_signatures(signatures.SignatureOrder.GRADED_COLEX, colex_count),
            lambda out, _: _mismatch("colex signatures", out, sigs3),
            item=False,
        ),
    ]

    def step(conjecture: int, sig: tuple[int, ...]) -> Step:
        skipped = conjecture in (1, 3) and not sig

        def call():
            return conjectures.scan(conjecture, [sig], modes=modes)

        def check(report, _):
            if report.counterexamples:
                return f"conjecture {conjecture} counterexample {report.to_json()}"
            counts = (report.checked, len(report.skipped))
            return _mismatch(f"conjecture {conjecture} {sig} checked/skipped", counts, (0, 1) if skipped else (1, 0))

        return Step(f"{conjecture}:{key_of(sig)}", call, check)

    items = [(1, s) for s in sigs1] + [(2, s) for s in sigs2] + [(3, s) for s in sigs3]
    rng.shuffle(items)
    return Plan(
        "conjecture-scans",
        prep + [step(c, s) for c, s in items],
        [max_n, colex_count] + [[c, list(s)] for c, s in items],
    )


# --- cli-queries -----------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def cli_queries(seed: int, tiny: bool) -> Plan:
    """In-process CLI requests: invariants by n and by signature, and graphs."""
    rng = random.Random(seed)
    n_count, sig_count, graph_count = (6, 4, 4) if tiny else (50, 25, 25)
    top_decade = 6 if tiny else 13
    requests: list[tuple[list[str], dict]] = []

    # n = (smooth cofactor below 10^4) * q, with the prime q log-uniform up to
    # 10^top_decade by midpoint strata: the factorization is known by
    # construction and the trial-division cost, set by q, is the same for
    # every seed.
    for i in range(n_count):
        q = max(2, int(10 ** (top_decade * (i + 0.5) / n_count) * (1 + rng.random() / 100)))
        while not is_prime(q):
            q += 1
        factors = {q: 1}
        s = 1
        for p in rng.sample(SMALL_PRIMES, rng.randrange(4)):
            e = rng.randrange(1, 3)
            if s * p**e < 10**4:
                s *= p**e
                factors[p] = factors.get(p, 0) + e
        sig = tuple(sorted(factors.values(), reverse=True))
        requests.append((["invariants", "--n", str(s * q), "--format", "json"], {"sig": sig, "factors": factors}))

    # Signatures and graphs stratified over Omega 1..12 and 1..6, small enough
    # that the n requests alone set the tail; exponents in a seeded order.
    # Least integers above 2^63 are left out because the seed code rejects them.
    for i in range(sig_count):
        while True:
            sig = rng.choice(partitions(1 + i % 12))
            if least_integer_of(sig) <= INT_BOUND:
                break
        parts = list(sig)
        rng.shuffle(parts)
        requests.append((["invariants", "--sig", key_of(tuple(parts)), "--format", "json"], {"sig": sig}))

    kinds = [(k, f) for k in ("hasse", "closure") for f in ("dot", "json")]
    for i in range(graph_count):
        kind, fmt = kinds[i % 4]
        sig = rng.choice(partitions(1 + i % 6))
        parts = list(sig)
        rng.shuffle(parts)
        argv = ["graph", "--sig", key_of(tuple(parts)), "--kind", kind, "--format", fmt]
        requests.append((argv, {"sig": sig}))
    rng.shuffle(requests)

    def step(index: int, argv: list[str], expect: dict) -> Step:
        record = all_invariants(expect["sig"], omega_budget=200)

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        def check(out, _):
            rc, text = out
            if rc != 0:
                return f"{argv}: exit code {rc}"
            if argv[0] == "invariants":
                doc = json.loads(text)
                problem = _mismatch(f"{argv} invariants", [doc[k] for k in INVARIANTS], list(record.as_tuple()))
                problem = problem or _mismatch(f"{argv} signature", doc["signature"], key_of(expect["sig"]))
                if "factors" in expect:
                    product = math.prod(p**e for p, e in expect["factors"].items())
                    problem = problem or _mismatch(f"{argv} factorization product", product, doc["n"])
                    problem = problem or _mismatch(f"{argv} n", doc["n"], int(argv[2]))
                return problem
            if argv[-1] == "dot":
                nodes = text.count(" [label=")
                arcs = text.count(" -> ")
            else:
                doc = json.loads(text)
                nodes, arcs = len(doc["nodes"]), len(doc["arcs"])
            want_arcs = record.hasse_size if argv[4] == "hasse" else record.closure_size
            return _mismatch(f"{argv} nodes/arcs", (nodes, arcs), (record.order, want_arcs))

        return Step(f"{index}: {' '.join(argv)}", call, check)

    steps = [step(i, argv, expect) for i, (argv, expect) in enumerate(requests)]
    return Plan("cli-queries", steps, [argv for argv, _ in requests])


WORKLOADS = {
    "oracle-corpus": oracle_corpus,
    "sequence-tables": sequence_tables,
    "conjecture-scans": conjecture_scans,
    "cli-queries": cli_queries,
}
