"""Every solve recorded in tests/golden/solves.json gives the same answer,
first hit and certificate, and the same work counters.

The file is written by `tests/golden/make_golden.py`, which also documents
how to regenerate its counters section after a change that moves them."""

from __future__ import annotations

import json

import pytest

from tests.golden import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def recomputed():
    return make_golden.compute(GOLDEN["solves"])


def test_golden_recipes_are_the_generators():
    assert GOLDEN["instances"] == make_golden.INSTANCES
    assert GOLDEN["counter_keys"] == make_golden.COUNTER_KEYS


def test_golden_answers_solutions_and_certificates(recomputed):
    solves, _ = recomputed
    for name, entries in GOLDEN["solves"].items():
        for old, new in zip(entries, solves[name], strict=True):
            assert new == old, (name, old["problem"], old["algo"])


def test_golden_counters(recomputed):
    solves, counters = recomputed
    for name, rows in GOLDEN["counters"].items():
        for entry, old, new in zip(GOLDEN["solves"][name], rows, counters[name], strict=True):
            assert new == old, (name, entry["problem"], entry["algo"])

