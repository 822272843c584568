"""Fixtures shared by the test modules."""

import sys

import pytest

from divgraph import signatures


@pytest.fixture
def signature_checks(monkeypatch):
    """The canonical tuple of every ``as_signature`` call made while the
    test runs, in call order: the name is patched in each divgraph module
    that holds it."""
    calls = []
    original = signatures.as_signature

    def counted(parts):
        sig = original(parts)
        calls.append(sig)
        return sig

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "divgraph" and getattr(module, "as_signature", None) is original:
            monkeypatch.setattr(module, "as_signature", counted)
    return calls
