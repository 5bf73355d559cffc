"""Named claim-verification suites: the acceptance criteria as runnable checks.

Each suite returns a one-line detail and its failures (counterexample
descriptions), and ``verify_claims`` builds the machine-readable result under
the name and criterion the suite was registered with; the command-line
``verify`` subcommand and the acceptance test module both drive these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .adversaries import AdversarySpec, build_adversary
from .bounds import BoundId, BoundParams, eval_bound, invert_bound, sweep_curves
from .core import (
    ONE,
    ValuationProfile,
    ValuationVector,
    ZERO,
    cmp_golden,
    decimal_str,
    fairness_report,
    golden_floor,
)
from .harness import (
    PERTURB_MODES,
    gen_random_instance,
    make_instance,
    perturb,
    random_walk_duel,
    run_duel,
    run_instance,
)
from .offline import brute_force_best_factor, lpt, minimax_online_factor
from .online import LowestValueBundle, ThreeGoodsAllocator

F = Fraction


@dataclass
class SuiteResult:
    suite: str
    criterion: int
    detail: str
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" [{self.failures[0]}]" if self.failures else ""
        return f"{mark}  criterion {self.criterion:2d}  {self.suite}: {self.detail}{extra}"


# name -> (criterion, suite); a suite returns (detail, failures)
_SUITES: dict[str, tuple[int, Callable[[], tuple[str, list[str]]]]] = {}


def _suite(name: str, criterion: int):
    def wrap(fn):
        _SUITES[name] = (criterion, fn)
        return fn
    return wrap


def suite_names() -> list[str]:
    return list(_SUITES)


def _known(name: str) -> str:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)}")
    return name


def verify_claims(name: str) -> SuiteResult:
    criterion, fn = _SUITES[_known(name)]
    return SuiteResult(name, criterion, *fn())


def verify_all(names: Optional[Sequence[str]] = None) -> list[SuiteResult]:
    """Run the named suites, or all; an unknown name fails before any suite runs."""
    chosen = [_known(n) for n in names] if names else suite_names()
    return [verify_claims(n) for n in chosen]


# ---------------------------------------------------------------------------
# 1. offline exactness of the balanced greedy split
# ---------------------------------------------------------------------------

@_suite("lpt-exactness", 1)
def _lpt_exactness() -> tuple[str, list[str]]:
    rng = random.Random(101)
    failures = []
    checked_oracle = 0
    for trial in range(1000):
        n = rng.randint(2, 5)
        t_total = rng.randint(1, 12)
        profile = gen_random_instance(n, t_total, identical=True, seed=rng.randrange(2 ** 30))
        alloc = lpt(profile.vector(0), n)
        if fairness_report(alloc, profile).efx_factor != 1:
            failures.append(f"trial {trial}: factor below 1 for n={n}, T={t_total}")
            continue
        if t_total <= 8:
            best, _ = brute_force_best_factor(profile)
            checked_oracle += 1
            if best != 1:
                failures.append(f"trial {trial}: oracle best {best} != 1")
    return (f"1000 identical instances exact; {checked_oracle} oracle cross-checks",
            failures)


# ---------------------------------------------------------------------------
# 2. golden-threshold greedy guarantee
# ---------------------------------------------------------------------------

@_suite("greedy-guarantee", 2)
def _greedy_guarantee() -> tuple[str, list[str]]:
    rng = random.Random(202)
    failures = []
    for trial in range(1000):
        t_total = rng.randint(1, 12)
        profile = gen_random_instance(2, t_total, identical=True, seed=rng.randrange(2 ** 30))
        instance = make_instance(profile, profile)
        transcript = run_instance("greedy-phi", instance)
        f = transcript.report.efx_factor
        if cmp_golden(f) < 0:  # exact statement of (2f+1)^2 >= 5
            failures.append(f"trial {trial}: factor {f} below the golden threshold")
    return "1000 streams at or above the golden-ratio factor", failures


# ---------------------------------------------------------------------------
# 3. lowest-bundle baseline is exactly EF1 at every prefix
# ---------------------------------------------------------------------------

@_suite("ef1-baseline", 3)
def _ef1_baseline() -> tuple[str, list[str]]:
    rng = random.Random(303)
    failures = []
    for trial in range(500):
        n = rng.randint(2, 5)
        t_total = rng.randint(1, 12)
        profile = gen_random_instance(n, t_total, identical=True, seed=rng.randrange(2 ** 30))
        allocator = LowestValueBundle(n)
        for t, weights in enumerate(allocator.columns(profile)):
            allocator.step(weights)
            if fairness_report(allocator.allocation(), profile).ef1_factor != 1:
                failures.append(f"trial {trial}: prefix t={t} not exactly EF1")
                break
    return "500 streams exactly EF1 at every prefix", failures


# ---------------------------------------------------------------------------
# 4. follower guarantee under exact-distance perturbations
# ---------------------------------------------------------------------------

@_suite("follower-guarantee", 4)
def _follower_guarantee() -> tuple[str, list[str]]:
    # The closed-form bound presumes the lightest predicted bundle carries at
    # least 1/(2n-1) of the mass; a positive singleton bundle hoarding value
    # genuinely breaks it, so the generator resamples until the precondition
    # holds (checked exactly).
    rng = random.Random(404)
    failures = []
    for trial in range(500):
        n = rng.choice([2, 3, 4])
        while True:
            t_pred = rng.randint(2 * n - 1, 12)
            predictions = gen_random_instance(n, t_pred, identical=True,
                                              seed=rng.randrange(2 ** 30))
            planned = lpt(predictions.vector(0), n)
            lightest = min(predictions.vector(0).value(b) for b in planned.as_lists())
            if lightest >= Fraction(1, 2 * n - 1):
                break
        d = Fraction(rng.randint(0, 100), 1000)  # at most 1/10
        mode = PERTURB_MODES[trial % len(PERTURB_MODES)]
        truths = perturb(predictions, [d] * n, seed=rng.randrange(2 ** 30), mode=mode)
        instance = make_instance(predictions, truths)
        transcript = run_instance("follower:lpt", instance)
        bound = invert_bound(BoundId.FOLLOWER_SUFFICIENT, d, BoundParams(n=n))
        if transcript.report.efx_factor < bound:
            failures.append(
                f"trial {trial}: factor {transcript.report.efx_factor} < bound {bound} "
                f"(n={n}, d={d}, mode={mode})")
    return ("500 perturbed runs meet the closed-form follower bound "
            "(lightest-bundle mass precondition enforced)", failures)


# ---------------------------------------------------------------------------
# 5. form-guided allocator guarantee
# ---------------------------------------------------------------------------

MAIN_FACTORS = (F(5, 8), F(2, 3), F(7, 10), F(3, 4), F(4, 5), F(7, 8), F(19, 20))


@_suite("main-guarantee", 5)
def _main_guarantee() -> tuple[str, list[str]]:
    rng = random.Random(505)
    failures = []
    for a in MAIN_FACTORS:
        d_max = eval_bound(BoundId.MAIN_SUFFICIENT, a)
        for trial in range(200):
            t_pred = rng.randint(2, 12)
            predictions = gen_random_instance(2, t_pred, identical=True,
                                              seed=rng.randrange(2 ** 30))
            d = d_max * Fraction(rng.randint(0, 100), 100)
            mode = PERTURB_MODES[trial % len(PERTURB_MODES)]
            truths = perturb(predictions, [d, d], seed=rng.randrange(2 ** 30), mode=mode)
            instance = make_instance(predictions, truths)
            transcript = run_instance("main", instance, a=a)
            if transcript.report.efx_factor < a:
                failures.append(
                    f"a={a}, trial {trial}: factor {transcript.report.efx_factor} < a "
                    f"(T'={t_pred}, d={d}, mode={mode})")
    return (f"{len(MAIN_FACTORS)}x200 perturbed runs reach their target factor",
            failures)


# ---------------------------------------------------------------------------
# 6. short-horizon robustness
# ---------------------------------------------------------------------------

@_suite("three-goods", 6)
def _three_goods() -> tuple[str, list[str]]:
    rng = random.Random(606)
    failures = []
    for trial in range(500):
        t_total = rng.randint(1, 3)
        truths = gen_random_instance(2, t_total, identical=True,
                                     seed=rng.randrange(2 ** 30))
        allocator = ThreeGoodsAllocator(t_total)
        for weights in allocator.columns(truths):
            allocator.step(weights)
        if fairness_report(allocator.allocation(), truths).efx_factor != 1:
            failures.append(f"trial {trial}: promised horizon kept but factor below 1")
    for trial in range(200):
        a = Fraction(rng.randint(0, 100), 100)
        budget = eval_bound(BoundId.THREE_GOODS_SUFFICIENT, a)
        trailing = budget * Fraction(rng.randint(0, 100), 100)
        t_pred = rng.randint(1, 3)
        extra = rng.randint(1, 3)
        head = [Fraction(rng.randint(1, 9)) for _ in range(t_pred)]
        head_total = sum(head)
        head = [h * (1 - trailing) / head_total for h in head]
        tail_w = [rng.randint(1, 9) for _ in range(extra)]
        tail = [Fraction(w) * trailing / sum(tail_w) for w in tail_w]
        vec = tuple(head + tail)
        truths = ValuationProfile.identical_from(ValuationVector(vec), 2)
        allocator = ThreeGoodsAllocator(t_pred)
        for weights in allocator.columns(truths):
            allocator.step(weights)
        f = fairness_report(allocator.allocation(), truths).efx_factor
        if f < a:
            failures.append(f"trial {trial}: factor {f} < a={a} with trailing {trailing}")
    return "500 exact short-horizon runs; 200 bounded-trailing runs", failures


# ---------------------------------------------------------------------------
# 7. worked golden numbers
# ---------------------------------------------------------------------------

@_suite("example-numbers", 7)
def _example_numbers() -> tuple[str, list[str]]:
    failures = []
    # the golden threshold plus one tenth, phi-1 read as its 2^-120 bracket's midpoint
    a_star = Fraction(2 * golden_floor(120) + 1, 1 << 121) + Fraction(1, 10)
    checks = [
        ("follower accuracy", decimal_str(1 - eval_bound(
            BoundId.FOLLOWER_SUFFICIENT, a_star, BoundParams(n=2, a_tilde=ONE))), "0.945"),
        ("factor display", decimal_str(a_star), "0.718"),
        ("main accuracy at 0.718", decimal_str(
            1 - eval_bound(BoundId.MAIN_SUFFICIENT, a_star)), "0.941"),
        ("main accuracy at 0.734", decimal_str(
            1 - eval_bound(BoundId.MAIN_SUFFICIENT, F(734, 1000))), "0.945"),
        ("follower inversion", decimal_str(invert_bound(
            BoundId.FOLLOWER_SUFFICIENT,
            eval_bound(BoundId.FOLLOWER_SUFFICIENT, a_star,
                       BoundParams(n=2, a_tilde=ONE)),
            BoundParams(n=2, a_tilde=ONE))), "0.718"),
        ("main inversion", decimal_str(invert_bound(
            BoundId.MAIN_SUFFICIENT,
            eval_bound(BoundId.MAIN_SUFFICIENT, a_star))), "0.718"),
    ]
    for label, got, want in checks:
        if got != want:
            failures.append(f"{label}: got {got}, wanted {want}")
    return "worked accuracy/factor numbers reproduced to 3 decimals", failures


# ---------------------------------------------------------------------------
# 8 + 9. adversary defeats, oracle certification, error consistency
# ---------------------------------------------------------------------------

DUEL_PLAN: tuple[tuple[AdversarySpec, str, Optional[Fraction]], ...] = (
    (AdversarySpec("no-pred-2-identical", F(7, 10), params={"lam": F(1, 50)}),
     "greedy-phi", None),
    (AdversarySpec("no-pred-3-identical", F(1, 2), n=3), "ef1-lowest", None),
    (AdversarySpec("no-pred-2-general", F(1, 2)), "ef1-lowest", None),
    (AdversarySpec("follower-tight", F(7, 10), params={"lo": 1, "hi": 0}),
     "follower:lpt", None),
    (AdversarySpec("pred-2-general", F(3, 4)), "follower:cut-and-choose", None),
    (AdversarySpec("pred-2-identical", F(7, 10)), "main", F(7, 10)),
    (AdversarySpec("pred-n-identical", F(1, 10), n=3), "follower:lpt", None),
    (AdversarySpec("pred-n-identical", F(1, 2), n=3), "follower:lpt", None),
    (AdversarySpec("two-value-2", F(4, 5), params={"eps": F(11, 100)}), "main", F(4, 5)),
    (AdversarySpec("two-value-n", F(1, 2), n=3), "follower:lpt", None),
)

MINIMAX_PLAN: tuple[AdversarySpec, ...] = (
    AdversarySpec("no-pred-2-identical", F(19, 20), params={"lam": F(33, 100)}),
    AdversarySpec("follower-tight", F(7, 10)),
    AdversarySpec("pred-2-general", F(3, 4)),
    AdversarySpec("pred-2-identical", F(7, 10)),
    AdversarySpec("two-value-2", F(4, 5), params={"eps": F(11, 100)}),
)


@_suite("adversary-defeats", 8)
def _adversary_defeats() -> tuple[str, list[str]]:
    failures = []
    for spec, allocator, a in DUEL_PLAN:
        transcript = run_duel(allocator, spec, a=a)
        if transcript.report.efx_factor >= spec.a:
            failures.append(
                f"{spec.construction} vs {allocator}: factor "
                f"{transcript.report.efx_factor} did not fall below a={spec.a}")
    for spec in MINIMAX_PLAN:
        value = minimax_online_factor(build_adversary(spec))
        if value >= spec.a:
            failures.append(
                f"{spec.construction}: minimax value {value} not below a={spec.a}")
    return (f"{len(DUEL_PLAN)} duels and {len(MINIMAX_PLAN)} oracle "
            "certifications all below target", failures)


@_suite("error-consistency", 9)
def _error_consistency() -> tuple[str, list[str]]:
    rng = random.Random(909)
    failures = []
    plans = [spec for spec, _, _ in DUEL_PLAN]
    for spec in plans:
        for _ in range(30):
            try:
                random_walk_duel(spec, seed=rng.randrange(2 ** 30))
            except AssertionError as exc:  # normalization or error-interval breach
                failures.append(f"{spec.construction}: {exc}")
                break
    return ("30 random decision paths per construction stay inside "
            "claimed error intervals with exact normalization", failures)


# ---------------------------------------------------------------------------
# 10. figure curves
# ---------------------------------------------------------------------------

@_suite("figure-curves", 10)
def _figure_curves() -> tuple[str, list[str]]:
    failures = []
    grid = [Fraction(k, 100) for k in range(56, 101)]
    ids = [BoundId.FOLLOWER_SUFFICIENT, BoundId.MAIN_SUFFICIENT, BoundId.ID_2_LB]
    rows = sweep_curves(ids, grid)
    for row in rows:
        a = row["a"]
        fol = row[BoundId.FOLLOWER_SUFFICIENT.value]
        main = row[BoundId.MAIN_SUFFICIENT.value]
        id2 = row[BoundId.ID_2_LB.value]
        if cmp_golden(a) <= 0:
            if not (main == id2 == 1):
                failures.append(f"a={a}: plateau cells should be the sentinel 1")
        elif a < 1:
            if not (fol <= main <= id2):
                failures.append(f"a={a}: ordering broken ({fol}, {main}, {id2})")
    spot = {row["a"]: row for row in rows}
    expected = [
        (F(4, 5), BoundId.FOLLOWER_SUFFICIENT, F(1, 27)),
        (F(4, 5), BoundId.MAIN_SUFFICIENT, F(52, 1323)),
        (F(4, 5), BoundId.ID_2_LB, F(1, 20)),
        (ONE, BoundId.FOLLOWER_SUFFICIENT, ZERO),
        (ONE, BoundId.MAIN_SUFFICIENT, ZERO),
        (ONE, BoundId.ID_2_LB, ZERO),
    ]
    for a, b, want in expected:
        if spot[a][b.value] != want:
            failures.append(f"{b.value} at a={a}: got {spot[a][b.value]}, wanted {want}")
    # second-figure pair: follower value at one half, domain boundary next to it
    if eval_bound(BoundId.FOLLOWER_SUFFICIENT, F(1, 2)) != F(1, 9):
        failures.append("follower bound at a=1/2 should be 1/9")
    nonid = sweep_curves([BoundId.NONID_2_LB], [F(1, 2)])[0]
    if nonid[BoundId.NONID_2_LB.value] != 1:
        failures.append("non-identical bound must be out of domain at a=1/2")
    return f"{len(grid)}-point sweep ordered with exact spot values", failures
