"""Acceptance gate: every criterion as a named suite, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the same suites back the ``onlinefair verify`` subcommand.
"""

import pytest

from onlinefair import verify
from onlinefair.verify import SuiteResult, suite_names, verify_claims

# each suite's name, criterion, and the exact line ``onlinefair verify`` prints for it
CRITERIA = [
    ("lpt-exactness", 1,
     "PASS  criterion  1  lpt-exactness: 1000 identical instances exact; 678 oracle cross-checks"),
    ("greedy-guarantee", 2,
     "PASS  criterion  2  greedy-guarantee: 1000 streams at or above the golden-ratio factor"),
    ("ef1-baseline", 3,
     "PASS  criterion  3  ef1-baseline: 500 streams exactly EF1 at every prefix"),
    ("follower-guarantee", 4,
     "PASS  criterion  4  follower-guarantee: 500 perturbed runs meet the closed-form "
     "follower bound (lightest-bundle mass precondition enforced)"),
    ("main-guarantee", 5,
     "PASS  criterion  5  main-guarantee: 7x200 perturbed runs reach their target factor"),
    ("three-goods", 6,
     "PASS  criterion  6  three-goods: 500 exact short-horizon runs; 200 bounded-trailing runs"),
    ("example-numbers", 7,
     "PASS  criterion  7  example-numbers: worked accuracy/factor numbers reproduced "
     "to 3 decimals"),
    ("adversary-defeats", 8,
     "PASS  criterion  8  adversary-defeats: 10 duels and 5 oracle certifications "
     "all below target"),
    ("error-consistency", 9,
     "PASS  criterion  9  error-consistency: 30 random decision paths per construction "
     "stay inside claimed error intervals with exact normalization"),
    ("figure-curves", 10,
     "PASS  criterion 10  figure-curves: 45-point sweep ordered with exact spot values"),
]


def test_suite_registry_complete():
    assert [name for name, _, _ in CRITERIA] == suite_names()


@pytest.mark.parametrize("name,criterion,line", CRITERIA, ids=[n for n, _, _ in CRITERIA])
def test_acceptance_criterion(name, criterion, line):
    result = verify_claims(name)
    print(result.line())
    assert result.criterion == criterion
    assert result.passed, "; ".join(result.failures[:3])
    assert result.line() == line


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
