"""Shared fixtures."""

from __future__ import annotations

import pytest

from motbound.lp import highs


@pytest.fixture()
def passed_models(monkeypatch):
    """Every model passed to a HiGHS instance while the test runs."""
    passed = []

    class Counting(highs._Highs):
        def passModel(self, model):
            passed.append(model)
            return super().passModel(model)

    monkeypatch.setattr(highs, "_Highs", Counting)
    return passed
