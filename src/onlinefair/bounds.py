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
from typing import Callable, Iterable, Sequence

from .core import (
    ONE,
    ZERO,
    cmp_golden,
    cmp_sqrt3,
    golden_floor,
    rat,
    sqrt3_floor,
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


PRECISION = Fraction(1, 2 ** 64)


@dataclass(frozen=True)
class _Domain:
    """``end < a <= 1`` with ``n >= agents``: ``above`` decides ``a > end``
    exactly, and ``lo`` is the rational at most ``PRECISION`` above ``end``
    where ``invert_bound`` starts."""

    text: str
    above: Callable[[Fraction], bool]
    lo: Fraction
    agents: int = 2


_UNIT = _Domain("", lambda a: True, ZERO)
_GOLDEN = _Domain("need a in (phi-1, 1]: a^2 + a - 1 > 0", lambda a: cmp_golden(a) > 0,
                  Fraction(golden_floor(64) + 1, 1 << 64))
_MANY_AGENTS = _Domain("need a in (0, 1]", lambda a: a > 0, PRECISION, agents=3)

# each bound's domain and its value at (a, n, a_tilde); the follower and
# three-goods bounds hold on all of [0, 1]
_BOUNDS: dict[BoundId, tuple[_Domain, Callable[[Fraction, int, Fraction], Fraction]]] = {
    BoundId.FOLLOWER_SUFFICIENT: (_UNIT, lambda a, n, at: (at - a) / ((2 * n - 2 + at) * (1 + a))),
    BoundId.FOLLOWER_NECESSARY: (_UNIT, lambda a, n, at: (1 - a) / ((2 * n - 1) * (1 + a))),
    BoundId.NONID_2_LB: (_Domain("need a in (1/2, 1]", lambda a: a > Fraction(1, 2),
                                 Fraction(1, 2) + PRECISION),
                         lambda a, n, at: (1 - a) / min(6 * a, Fraction(4))),
    # 2a(2+a) crosses 4 exactly at sqrt(3)-1
    BoundId.ID_2_LB: (_GOLDEN, lambda a, n, at:
                      (1 - a) / (2 * a * (2 + a) if cmp_sqrt3(a) <= 0 else Fraction(4))),
    BoundId.IDN_LB_SMALL: (_MANY_AGENTS, lambda a, n, at: 1 / (2 * (n - 1 + 2 * a))),
    BoundId.IDN_LB_LARGE: (_MANY_AGENTS, lambda a, n, at: (1 - a * a) / (4 + (2 * n - 3) * a)),
    BoundId.IDN_LB_COMBINED: (_MANY_AGENTS, lambda a, n, at: min(
        _BOUNDS[BoundId.IDN_LB_SMALL][1](a, n, at), _BOUNDS[BoundId.IDN_LB_LARGE][1](a, n, at))),
    BoundId.MAIN_SUFFICIENT: (_GOLDEN, lambda a, n, at: passthrough_cutoff(a) * (1 - a) / (1 + a)),
    BoundId.THREE_GOODS_SUFFICIENT: (_UNIT, lambda a, n, at: (1 - a) / (1 + a)),
    BoundId.TWO_VALUE_SUFFICIENT: (_GOLDEN, lambda a, n, at: Fraction(2, 5) * (1 - a) / (1 + a)),
    BoundId.TWO_VALUE_2_LB: (_Domain("need a in (sqrt(3)-1, 1]: a^2 + 2a - 2 > 0",
                                     lambda a: cmp_sqrt3(a) > 0,
                                     Fraction(sqrt3_floor(64) + 1, 1 << 64)),
                             lambda a, n, at: (1 - a) / 2),
    BoundId.TWO_VALUE_N_LB: (_MANY_AGENTS,
                             lambda a, n, at: 2 * (1 - a * a) / (4 + (2 * n - 3) * a)),
}


def in_domain(bound: BoundId, a: Fraction, params: BoundParams = BoundParams()) -> bool:
    try:
        check_domain(bound, a, params)
    except DomainError:
        return False
    return True


def check_domain(bound: BoundId, a: Fraction, params: BoundParams = BoundParams()) -> None:
    """Raise ``DomainError`` naming the failed test unless ``a`` is in the domain."""
    domain = _BOUNDS[bound][0]
    if not 0 <= a <= 1:
        raise DomainError(f"{bound.value}: a={a} outside [0, 1]")
    if params.n < domain.agents:
        raise DomainError(f"{bound.value}: needs n >= {domain.agents} agents")
    if bound is BoundId.FOLLOWER_SUFFICIENT and a > params.a_tilde:
        raise DomainError(f"{bound.value}: needs a <= base factor {params.a_tilde}")
    if not domain.above(a):
        raise DomainError(f"{bound.value}: {domain.text}")


def passthrough_cutoff(a: Fraction) -> Fraction:
    """Lighter-bundle weight above which the predicted split is already safe."""
    return (4 + a - a * a) / ((2 + a) * (5 - a))


def late_y_margin(a: Fraction) -> Fraction:
    """Tighter admission slack used when the mid good trails both top goods."""
    return (1 - a) ** 2 / ((2 + a) * (5 - a))


def eval_bound(bound: BoundId, a: Fraction,
               params: BoundParams = BoundParams()) -> Fraction:
    """Exact error value of a bound at factor ``a`` (domain-checked)."""
    a = rat(a)
    check_domain(bound, a, params)
    return _BOUNDS[bound][1](a, params.n, params.a_tilde)


def invert_bound(bound: BoundId, d: Fraction,
                 params: BoundParams = BoundParams()) -> Fraction:
    """Largest factor ``a`` in the domain whose bound value is at least ``d``.

    Closed form for the follower bound; elsewhere bisection to 2^-64 after a
    sampled monotonicity assertion, reporting the final bracket's lower end,
    whose bound value is at least ``d``.
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
    lo, hi = _BOUNDS[bound][0].lo, ONE
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
    return lo


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
    if start > stop:
        raise ValueError("grid start must not exceed its stop")
    out = []
    a = start
    while a <= stop:
        out.append(a)
        a += step
    return out
