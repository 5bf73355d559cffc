"""Acceptance gate: every criterion as a named suite, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the same suites back the ``onlinefair verify`` subcommand.
"""

import pytest

from onlinefair import verify
from onlinefair.verify import SuiteResult, suite_names, verify_claims

CRITERIA = [
    ("lpt-exactness", 1),
    ("greedy-guarantee", 2),
    ("ef1-baseline", 3),
    ("follower-guarantee", 4),
    ("main-guarantee", 5),
    ("three-goods", 6),
    ("example-numbers", 7),
    ("adversary-defeats", 8),
    ("error-consistency", 9),
    ("figure-curves", 10),
]


def test_suite_registry_complete():
    assert [name for name, _ in CRITERIA] == suite_names()


@pytest.mark.parametrize("name,criterion", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_acceptance_criterion(name, criterion):
    result = verify_claims(name)
    print(result.line())
    assert result.criterion == criterion
    assert result.passed, "; ".join(result.failures[:3])


def test_suite_result_passes_iff_no_failures():
    ok = SuiteResult("figure-curves", 10, "all good", [])
    bad = SuiteResult("figure-curves", 10, "one off", ["spot value"])
    assert ok.passed and ok.line().startswith("PASS")
    assert not bad.passed and bad.line().startswith("FAIL")


def test_suite_looked_up_at_call_time(monkeypatch):
    # a wrapper installed in the registry (as the span tracer does) is the one run
    monkeypatch.setitem(verify._SUITES, "figure-curves", (10, lambda: ("stub", ["boom"])))
    result = verify_claims("figure-curves")
    assert (result.suite, result.criterion, result.detail) == ("figure-curves", 10, "stub")
    assert result.failures == ["boom"] and not result.passed


def test_unknown_suite_rejected_before_any_suite_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(verify._SUITES, "figure-curves", (10, lambda: ran.append(1)))
    with pytest.raises(ValueError, match="unknown suite 'nope'; choose from lpt-exactness"):
        verify.verify_all(["figure-curves", "nope"])
    assert ran == []
