"""Pin output bytes at scale: the SHA-256 of ``sequences.emit`` for every
row x order x format, and the reports of the three CLI-default conjecture
scans, against the manifest ``tests/data/digests.json``.

The manifest holds the scan reports under "scans" (``to_dict()`` with
``elapsed_seconds`` left out) and the table digests under each count,
"10000" and "100000", keyed "<row> <order> <format>".  The tier-1 suite
checks the scans and the tables at 10^4 (``tests/test_digests.py``);

    python tests/_digests.py

checks the tables at 10^5, which takes about 13 s, and exits 1 naming each
table whose digest differs.  A digest that changes is a changed output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from divgraph import cli, sequences

MANIFEST = Path(__file__).parent / "data" / "digests.json"


def table_digests(count: int) -> dict[str, str]:
    """The digest of every table of ``count`` entries; ``LI`` has no
    natural order, so there are 132."""
    digests = {}
    for key in sequences.INVARIANT_FUNCS:
        for ordering in sequences.Ordering:
            if key == "LI" and ordering is sequences.Ordering.NATURAL:
                continue
            table = sequences.generate(key, ordering, count)
            for fmt in sequences.EmitFormat:
                digest = hashlib.sha256(sequences.emit(table, fmt)).hexdigest()
                digests[f"{key} {ordering.value} {fmt.value}"] = digest
    return digests


def scan_reports() -> dict[str, dict]:
    """The stdout report of ``divgraph conjectures --id k`` at the default
    flags, for k = 1, 2, 3, without its ``elapsed_seconds``."""
    reports = {}
    for conjecture in ("1", "2", "3"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["conjectures", "--id", conjecture])
        assert code == 0, f"conjecture {conjecture} scan exited {code}"
        report = json.loads(out.getvalue())
        del report["elapsed_seconds"]
        reports[conjecture] = report
    return reports


def differing_tables(count: int) -> list[str]:
    """The tables of ``count`` entries whose digest is not the manifest's,
    or that only one side has."""
    pinned = json.loads(MANIFEST.read_text())[str(count)]
    digests = table_digests(count)
    names = pinned.keys() | digests.keys()
    return sorted(name for name in names if pinned.get(name) != digests.get(name))


def main() -> int:
    differing = differing_tables(10**5)
    for name in differing:
        print(f"digest differs: {name} at count 100000")
    print(f"{len(differing)} of the tables at count 100000 differ from {MANIFEST.name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
