"""Closed-form accuracy/error bounds, exact inversion, and curve sweeps.

Every bound maps a target envy factor ``a`` to the largest prediction error
``D`` the corresponding result tolerates (or requires, for lower bounds).
Domains with irrational endpoints are checked through exact squared
comparisons; out-of-domain sweep cells report the sentinel 1 (no requirement).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    ONE,
    ZERO,
    bracket_threshold,
    cmp_golden,
    cmp_sqrt3,
    rat,
)


class DomainError(ValueError):
    """The requested factor lies outside a bound's legal domain."""


class BoundId(str, Enum):
    FOLLOWER_SUFFICIENT = "follower-sufficient"
    FOLLOWER_NECESSARY = "follower-necessary"
    NONID_2_LB = "nonid-2-lb"
    ID_2_LB = "id-2-lb"
    IDN_LB_SMALL = "idn-lb-small"
    IDN_LB_LARGE = "idn-lb-large"
    IDN_LB_COMBINED = "idn-lb-combined"
    MAIN_SUFFICIENT = "main-sufficient"
    THREE_GOODS_SUFFICIENT = "three-goods-sufficient"
    TWO_VALUE_SUFFICIENT = "two-value-sufficient"
    TWO_VALUE_2_LB = "two-value-2-lb"
    TWO_VALUE_N_LB = "two-value-n-lb"


@dataclass(frozen=True)
class BoundParams:
    """Side parameters some bounds need: agent count and base factor."""

    n: int = 2
    a_tilde: Fraction = ONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_tilde", rat(self.a_tilde))
        if self.n < 2:
            raise ValueError("need at least two agents")
        if not 0 <= self.a_tilde <= 1:
            raise ValueError("base factor must lie in [0, 1]")


_N_AT_LEAST_3 = (BoundId.IDN_LB_SMALL, BoundId.IDN_LB_LARGE,
                 BoundId.IDN_LB_COMBINED, BoundId.TWO_VALUE_N_LB)


def in_domain(bound: BoundId, a: Fraction, params: BoundParams = BoundParams()) -> bool:
    try:
        _check_domain(bound, a, params)
    except DomainError:
        return False
    return True


def _check_domain(bound: BoundId, a: Fraction, params: BoundParams) -> None:
    if not 0 <= a <= 1:
        raise DomainError(f"{bound.value}: a={a} outside [0, 1]")
    if bound in _N_AT_LEAST_3 and params.n < 3:
        raise DomainError(f"{bound.value}: needs n >= 3 agents")
    if bound is BoundId.FOLLOWER_SUFFICIENT and a > params.a_tilde:
        raise DomainError(f"{bound.value}: needs a <= base factor {params.a_tilde}")
    if bound in (BoundId.ID_2_LB, BoundId.MAIN_SUFFICIENT, BoundId.TWO_VALUE_SUFFICIENT):
        if not (cmp_golden(a) > 0):
            raise DomainError(
                f"{bound.value}: endpoint test a^2 + a - 1 > 0 failed (a <= phi-1)")
    if bound is BoundId.TWO_VALUE_2_LB and not (cmp_sqrt3(a) > 0):
        raise DomainError(
            f"{bound.value}: endpoint test a^2 + 2a - 2 > 0 failed (a <= sqrt(3)-1)")
    if bound is BoundId.NONID_2_LB and not a > Fraction(1, 2):
        raise DomainError(f"{bound.value}: needs a > 1/2")
    if bound in _N_AT_LEAST_3 and a == 0:
        raise DomainError(f"{bound.value}: needs a > 0")


def eval_bound(bound: BoundId, a: Fraction,
               params: BoundParams = BoundParams()) -> Fraction:
    """Exact error value of a bound at factor ``a`` (domain-checked)."""
    a = rat(a)
    _check_domain(bound, a, params)
    n, at = params.n, params.a_tilde
    if bound is BoundId.FOLLOWER_SUFFICIENT:
        return (at - a) / ((2 * n - 2 + at) * (1 + a))
    if bound is BoundId.FOLLOWER_NECESSARY:
        return (1 - a) / ((2 * n - 1) * (1 + a))
    if bound is BoundId.NONID_2_LB:
        return (1 - a) / min(6 * a, Fraction(4))
    if bound is BoundId.ID_2_LB:
        # 2a(2+a) crosses 4 exactly at sqrt(3)-1
        den = 2 * a * (2 + a) if cmp_sqrt3(a) <= 0 else Fraction(4)
        return (1 - a) / den
    if bound is BoundId.IDN_LB_SMALL:
        return 1 / (2 * (n - 1 + 2 * a))
    if bound is BoundId.IDN_LB_LARGE:
        return (1 - a * a) / (4 + (2 * n - 3) * a)
    if bound is BoundId.IDN_LB_COMBINED:
        return min(eval_bound(BoundId.IDN_LB_SMALL, a, params),
                   eval_bound(BoundId.IDN_LB_LARGE, a, params))
    if bound is BoundId.MAIN_SUFFICIENT:
        return (4 + a - a * a) * (1 - a) / ((2 + a) * (5 - a) * (1 + a))
    if bound is BoundId.THREE_GOODS_SUFFICIENT:
        return (1 - a) / (1 + a)
    if bound is BoundId.TWO_VALUE_SUFFICIENT:
        return Fraction(2, 5) * (1 - a) / (1 + a)
    if bound is BoundId.TWO_VALUE_2_LB:
        return (1 - a) / 2
    if bound is BoundId.TWO_VALUE_N_LB:
        return 2 * (1 - a * a) / (4 + (2 * n - 3) * a)
    raise AssertionError(bound)


def _domain_bracket(bound: BoundId, params: BoundParams,
                    width: Fraction = Fraction(1, 2 ** 64)) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) with lo just inside the domain and hi its supremum."""
    hi = params.a_tilde if bound is BoundId.FOLLOWER_SUFFICIENT else ONE
    if bound in (BoundId.ID_2_LB, BoundId.MAIN_SUFFICIENT, BoundId.TWO_VALUE_SUFFICIENT):
        _, lo = bracket_threshold(cmp_golden, width=width)
    elif bound is BoundId.TWO_VALUE_2_LB:
        _, lo = bracket_threshold(cmp_sqrt3, width=width)
    elif bound is BoundId.NONID_2_LB:
        lo = Fraction(1, 2) + width
    elif bound in _N_AT_LEAST_3:
        lo = width
    else:
        lo = ZERO
    return lo, hi


PRECISION = Fraction(1, 2 ** 64)


def invert_bound(bound: BoundId, d: Fraction,
                 params: BoundParams = BoundParams()) -> Fraction:
    """Largest factor ``a`` in the domain whose bound value is at least ``d``.

    Closed form for the follower bound; elsewhere bisection to 2^-64 after a
    sampled monotonicity assertion, reporting the final bracket midpoint.
    """
    d = rat(d)
    if d < 0:
        raise ValueError("error values are nonnegative")
    n, at = params.n, params.a_tilde
    if bound is BoundId.FOLLOWER_SUFFICIENT:
        k = 2 * n - 2 + at
        a = (at - k * d) / (1 + k * d)
        if a < 0:
            raise ValueError(f"d={d} exceeds the bound's range (max {at / k})")
        return a
    lo, hi = _domain_bracket(bound, params)
    # sampled monotonicity check before trusting bisection
    samples = [lo + (hi - lo) * Fraction(i, 8) for i in range(9)]
    values = [eval_bound(bound, s, params) for s in samples]
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        raise ValueError(f"{bound.value} is not non-increasing on its domain")
    if eval_bound(bound, hi, params) >= d:
        return hi
    if eval_bound(bound, lo, params) < d:
        raise ValueError(f"d={d} is out of range for {bound.value}")
    while hi - lo > PRECISION:
        mid = (lo + hi) / 2
        if eval_bound(bound, mid, params) >= d:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def sweep_curves(bounds: Sequence[BoundId], grid: Iterable[Fraction],
                 params: BoundParams = BoundParams()) -> list[dict]:
    """Evaluate bounds over a grid; out-of-domain cells carry the sentinel 1."""
    rows = []
    for a in grid:
        a = rat(a)
        row: dict = {"a": a}
        for b in bounds:
            row[b.value] = eval_bound(b, a, params) if in_domain(b, a, params) else ONE
        rows.append(row)
    return rows


def sweep_csv(bounds: Sequence[BoundId], grid: Iterable[Fraction],
              params: BoundParams = BoundParams()) -> str:
    header = "a," + ",".join(b.value for b in bounds)
    lines = [header]
    for row in sweep_curves(bounds, grid, params):
        lines.append(",".join([str(row["a"])] + [str(row[b.value]) for b in bounds]))
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> list[Fraction]:
    """Parse ``start:stop:step`` with rational or decimal components."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must look like start:stop:step")
    start, stop, step = (rat(p) for p in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    out = []
    a = start
    while a <= stop:
        out.append(a)
        a += step
    return out
