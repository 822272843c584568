"""Divisor-lattice DAGs, their graph invariants, and integer sequences.

The package covers four layers:

- signatures: factorization, prime signatures, partition enumeration, and
  the graded colexicographic / canonical signature orders;
- graphs + kernels: explicit Hasse diagrams and transitive closures over
  exponent vectors, built by stride arithmetic on the node indices;
- invariants + oracle: fourteen graph invariants by closed formula and by
  brute-force measurement on the explicit graphs;
- sequences + conjectures + cli: integer-sequence tables in three orders,
  b-file interchange, and counterexample scans for three conjectures.
"""

from divgraph.graphs import DivisorGraph, GraphKind, build_graph, divisor_value, level_profile
from divgraph.invariants import InvariantRecord, all_invariants
from divgraph.kernels import active_backend
from divgraph.oracle import measure, verify_structure
from divgraph.sequences import Ordering, SequenceTable, compare_bfile, emit, generate
from divgraph.signatures import (
    SignatureOrder,
    enumerate_signatures,
    factorize,
    least_integer,
    partitions_of,
    signature_of,
)

__version__ = "0.1.0"

__all__ = [
    "DivisorGraph",
    "GraphKind",
    "InvariantRecord",
    "Ordering",
    "SequenceTable",
    "SignatureOrder",
    "active_backend",
    "all_invariants",
    "build_graph",
    "compare_bfile",
    "divisor_value",
    "emit",
    "enumerate_signatures",
    "factorize",
    "generate",
    "least_integer",
    "level_profile",
    "measure",
    "partitions_of",
    "signature_of",
    "verify_structure",
    "__version__",
]
