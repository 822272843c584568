"""Output bytes at scale against the committed manifest (see _digests)."""

import json

from _digests import MANIFEST, differing_tables, scan_reports


def test_tables_at_count_10_4_keep_their_digests():
    assert differing_tables(10**4) == []


def test_cli_default_conjecture_scans_keep_their_reports():
    assert scan_reports() == json.loads(MANIFEST.read_text())["scans"]
