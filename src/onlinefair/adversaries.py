"""Adaptive opponents realizing the known impossibility constructions.

Each opponent is a branching program: a pure state machine mapping the
allocator's decision history to the next revealed per-agent values.  On every
root-to-leaf path each agent's revealed values sum exactly to one, and the
realized distance between the emitted prediction (when there is one) and the
realized truth stays inside the interval the construction promises.  States
are hashable tuples so the game-tree oracle can memoize over them.  Most
constructions are data: a fixed opening, then a tail that depends only on how
many opening goods each agent took.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .core import (
    ONE,
    RationalLike,
    ValuationProfile,
    ValuationVector,
    ZERO,
    bracket_threshold,
    cmp_golden,
    cmp_sqrt3,
    rat,
)


class ParameterError(ValueError):
    """A construction parameter violates its legal domain."""


@dataclass(frozen=True)
class AdversarySpec:
    """Which construction to build, for which target factor and agent count."""

    construction: str
    a: Fraction
    n: int = 2
    params: Mapping[str, RationalLike] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", rat(self.a))
        builder = _BUILDERS.get(self.construction)
        if builder is None:
            raise ParameterError(f"unknown construction {self.construction!r}")
        object.__setattr__(self, "params", dict(self.params))
        for name in self.params:
            if name not in builder.params:
                raise ParameterError(
                    f"{self.construction} has no parameter {name!r}; it reads "
                    f"{', '.join(builder.params) or 'none'}")

    def param(self, name: str) -> Optional[Fraction]:
        v = self.params.get(name)
        return None if v is None else rat(v)


class Adversary:
    """Base opponent: the one opening/queue state machine.

    A construction reveals the rows of ``opening`` one per round.  Once they
    are all placed, ``_tail(counts)`` gives the remaining goods from the number
    of opening goods each agent took; they form a fixed queue followed by
    zero-valued padding up to ``horizon``.  Opening states are
    ``("open", counts)``; queue states are ``("q", remaining)`` where remaining
    is a tuple of per-agent value tuples.  A row given as one value is the same
    for every agent.  The two streaming constructions override ``start``,
    ``reveal`` and ``advance`` and defer to these for queue states.
    """

    construction: str = "abstract"
    params: tuple[str, ...] = ()  # the parameter names the construction reads

    def __init__(self, n: int, horizon: int, a: Fraction, *, identical: bool,
                 opening: tuple = (),
                 prediction: Optional[ValuationProfile] = None,
                 claimed_error: Optional[tuple[Fraction, Fraction]] = None):
        self.n = n
        self.horizon = horizon
        self.a = a
        self.identical = identical
        self.opening = self._rows(opening)
        self.prediction = prediction
        self.claimed_error = claimed_error
        self.oblivious_family: Optional[tuple[ValuationProfile, ...]] = None

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        """The rows after the opening, given each agent's count of opening goods."""
        raise NotImplementedError

    def start(self) -> tuple:
        if self.opening:
            return ("open", (0,) * self.n)
        return self._queue(*self._tail((0,) * self.n))

    def reveal(self, state: tuple) -> tuple[Fraction, ...]:
        if state[0] == "open":
            return self.opening[sum(state[1])]
        remaining = state[1]
        return remaining[0] if remaining else self._bcast(ZERO)

    def advance(self, state: tuple, agent: int) -> tuple:
        if state[0] == "open":
            counts = tuple(c + (i == agent) for i, c in enumerate(state[1]))
            if sum(counts) < len(self.opening):
                return ("open", counts)
            return self._queue(*self._tail(counts))
        remaining = state[1]
        return ("q", remaining[1:]) if remaining else state

    def _bcast(self, v: Fraction) -> tuple[Fraction, ...]:
        return (v,) * self.n

    def _rows(self, value_rows) -> tuple:
        rows = []
        for row in value_rows:
            row = self._bcast(row) if isinstance(row, Fraction) else tuple(row)
            if any(v < 0 for v in row):
                raise ParameterError(f"construction produced a negative value {row}")
            rows.append(row)
        return tuple(rows)

    def _queue(self, *value_rows) -> tuple:
        return ("q", self._rows(value_rows))


def _require(cond: bool, constraint: str) -> None:
    if not cond:
        raise ParameterError(f"parameter outside the construction's domain: {constraint}")


def _default(spec: AdversarySpec, name: str, fallback: Fraction) -> Fraction:
    v = spec.param(name)
    return fallback if v is None else v


def _index(spec: AdversarySpec, name: str, fallback: int) -> int:
    v = _default(spec, name, Fraction(fallback))
    _require(v.denominator == 1, f"need an integer good index {name}")
    return int(v)


def _midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# (1) two identical agents, no predictions, factor above the golden threshold
# ---------------------------------------------------------------------------

class GoldenStreamAdversary(Adversary):
    """Streams tiny equal goods, then springs a large remainder.

    Defeats every online algorithm aiming for a factor above (sqrt(5)-1)/2 when
    no predictions exist.  The free parameter ``lam`` must satisfy
    0 < lam and a - lam > (sqrt(5)-1)/2; the per-good value is lam/4.
    """

    construction = "no-pred-2-identical"
    params = ("lam",)

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        _require(cmp_golden(a) > 0 and a <= 1, "need a in (phi-1, 1]: a^2+a-1 > 0")
        lam = spec.param("lam")
        if lam is None:
            width = Fraction(1, 2 ** 20)
            _, upper = bracket_threshold(cmp_golden, width=width)
            while upper >= a:  # tighten the enclosure until it drops below a
                width /= 2 ** 40
                _require(width > Fraction(1, 2 ** 300),
                         "a is too close to phi-1 to pick a default lam; pass one")
                _, upper = bracket_threshold(cmp_golden, width=width)
            lam = (a - upper) / 2
        _require(lam > 0, "need lam > 0 (zero lam degenerates the stream)")
        _require(cmp_golden(a - lam) > 0, "need lam < a - (phi-1): (a-lam)^2+(a-lam)-1 > 0")
        self.eps = lam / 4
        self.lam = lam
        # smallest m with m*eps > 2*phi - 3 = sqrt(5) - 2, decided exactly
        m = 1
        while (m * self.eps + 2) ** 2 <= 5:
            m += 1
            if m > 10 ** 6:
                raise ParameterError("lam so small the promised horizon is impractical")
        super().__init__(n=2, horizon=m + 3, a=a, identical=True)

    def start(self) -> tuple:
        return ("first",)

    def reveal(self, state: tuple) -> tuple[Fraction, ...]:
        if state[0] in ("first", "stream"):
            return self._bcast(self.eps)
        return super().reveal(state)

    def advance(self, state: tuple, agent: int) -> tuple:
        if state[0] == "first":
            return ("stream", agent, self.eps)
        if state[0] == "stream":
            _, leader, x = state
            if agent != leader:
                return self._queue(1 - x - self.eps)
            x += self.eps
            if (x + 2) ** 2 > 5:  # leader's total exceeded 2*phi - 3
                half = (1 - x) / 2
                return self._queue(half, half)
            return ("stream", leader, x)
        return super().advance(state, agent)


# ---------------------------------------------------------------------------
# (2) three or more identical agents, no predictions, any positive factor
# ---------------------------------------------------------------------------

class TripleSplitAdversary(Adversary):
    construction = "no-pred-3-identical"

    def __init__(self, spec: AdversarySpec):
        a, n = spec.a, spec.n
        _require(0 < a <= 1, "need a in (0, 1]")
        _require(n >= 3, "need n >= 3 agents")
        self.eps = a / (3 * (n - 1))
        super().__init__(n=n, horizon=n + 1, a=a, identical=True,
                         opening=(self.eps, self.eps))

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        left = 1 if max(counts) == 2 else self.n - 1
        return ((1 - 2 * self.eps) / left,) * left


# ---------------------------------------------------------------------------
# (3) two agents, non-identical, no predictions, any positive factor
# ---------------------------------------------------------------------------

class AsymmetricStreamAdversary(Adversary):
    """Feeds goods worthless to one agent until the other finally shares."""

    construction = "no-pred-2-general"

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        _require(0 < a <= 1, "need a in (0, 1]")
        self.eps = a / 4
        horizon = int(1 / self.eps) + 2  # floor(4/a) + 2
        super().__init__(n=2, horizon=horizon, a=a, identical=False)

    def start(self) -> tuple:
        return ("g1",)

    def reveal(self, state: tuple) -> tuple[Fraction, ...]:
        if state[0] in ("g1", "starve0"):
            return (self.eps, ZERO)
        if state[0] == "starve1":
            return (ZERO, self.eps)
        return super().reveal(state)

    def advance(self, state: tuple, agent: int) -> tuple:
        eps = self.eps
        if state[0] == "g1":
            if agent == 1:
                return self._starve0_state(streamed=1)
            return self._starve1_state(streamed=0)
        if state[0] == "starve0":
            streamed = state[1] + 1
            if agent == 0:
                return self._queue((1 - streamed * eps, ONE))
            return self._starve0_state(streamed)
        if state[0] == "starve1":
            streamed = state[1] + 1
            if agent == 1:
                return self._queue((1 - eps, 1 - streamed * eps))
            return self._starve1_state(streamed)
        return super().advance(state, agent)

    def _starve0_state(self, streamed: int) -> tuple:
        # keep streaming (eps, 0) only while one more fits the unit budget
        if (streamed + 1) * self.eps > 1:
            return self._queue((1 - streamed * self.eps, ONE))
        return ("starve0", streamed)

    def _starve1_state(self, streamed: int) -> tuple:
        if (streamed + 1) * self.eps > 1:
            return self._queue((1 - self.eps, 1 - streamed * self.eps))
        return ("starve1", streamed)


# ---------------------------------------------------------------------------
# (4) tightness of pure prediction-following
# ---------------------------------------------------------------------------

class FollowerTightAdversary(Adversary):
    """Uniform prediction, one good deflated and one inflated by D.

    Non-adaptive.  ``lo``/``hi`` pick the perturbed goods (defaults 0 and 1);
    when omitted entirely the game-tree oracle scores truth-oblivious play
    against the whole family of target pairs, matching the quantifier
    "for every follower there is a choice of targets".
    """

    construction = "follower-tight"
    params = ("D", "lo", "hi")

    def __init__(self, spec: AdversarySpec):
        a, n = spec.a, spec.n
        _require(0 <= a <= 1, "need a in [0, 1]")
        _require(n >= 2, "need n >= 2 agents")
        t_total = 2 * n - 1
        u = Fraction(1, t_total)
        lower = (1 - a) / (t_total * (1 + a))
        d = _default(spec, "D", _midpoint(lower, u))
        _require(d > lower, "need D > (1-a)/((2n-1)(1+a))")
        _require(d <= u, "need D <= 1/(2n-1) so the deflated good stays nonnegative")
        self.d = d
        explicit = spec.param("lo") is not None or spec.param("hi") is not None
        lo, hi = _index(spec, "lo", 0), _index(spec, "hi", 1)
        _require(0 <= lo < t_total and 0 <= hi < t_total and lo != hi,
                 "need distinct perturbation targets lo, hi inside the horizon")
        prediction = ValuationProfile.identical_from(
            ValuationVector((u,) * t_total), n)
        super().__init__(n=n, horizon=t_total, a=a, identical=True,
                         prediction=prediction, claimed_error=(d, d))
        self.truth = self._truth(lo, hi)
        if explicit:
            self.oblivious_family = (self.truth,)
        else:
            self.oblivious_family = tuple(
                self._truth(i, j)
                for i in range(t_total) for j in range(t_total) if i != j)

    def _truth(self, lo: int, hi: int) -> ValuationProfile:
        u = Fraction(1, self.horizon)
        vals = [u] * self.horizon
        vals[lo] = u - self.d
        vals[hi] = u + self.d
        return ValuationProfile.identical_from(ValuationVector(tuple(vals)), self.n)

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        return self.truth.vector(0).values


# ---------------------------------------------------------------------------
# (5) two agents, non-identical, with predictions
# ---------------------------------------------------------------------------

class MirroredPairAdversary(Adversary):
    construction = "pred-2-general"
    params = ("lam",)

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        _require(Fraction(1, 2) < a <= 1, "need a in (1/2, 1]")
        if a <= Fraction(2, 3):
            hi = (2 * a - 1) / (6 * a)
            lam = _default(spec, "lam", hi / 2)
            _require(0 <= lam < hi, "need lam in [0, (2a-1)/(6a)) for a <= 2/3")
            eps = Fraction(1, 6) - lam
        else:
            lo, hi = (1 - a) / 4, a / 8
            lam = _default(spec, "lam", _midpoint(lo, hi))
            _require(lo < lam < hi, "need lam in ((1-a)/4, a/8) for a > 2/3")
            eps = lam
        self.lam, self.eps = lam, eps
        _require(Fraction(1, 2) - 2 * eps - lam >= 0, "prediction values must be nonnegative")
        p1 = ValuationVector((2 * eps, 2 * lam,
                              Fraction(1, 2) - 2 * eps - lam, Fraction(1, 2) - lam))
        p2 = ValuationVector((2 * lam, 2 * eps,
                              Fraction(1, 2) - 2 * eps - lam, Fraction(1, 2) - lam))
        super().__init__(n=2, horizon=4, a=a, identical=False,
                         opening=((2 * eps, 2 * lam), (2 * lam, 2 * eps)),
                         prediction=ValuationProfile((p1, p2)),
                         claimed_error=(eps, eps))

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        lam, eps = self.lam, self.eps
        half = Fraction(1, 2)
        low, high, mid = half - 3 * eps - lam, half + eps - lam, half - eps - lam
        if counts == (2, 0):
            return ((low, mid), (high, mid))
        if counts == (0, 2):
            return ((mid, low), (mid, high))
        return ((low, low), (high, high))


# ---------------------------------------------------------------------------
# (6) two identical agents with predictions
# ---------------------------------------------------------------------------

class IdenticalPredictedAdversary(Adversary):
    """Four-good construction against algorithms that see truths and predictions.

    Works in two regimes split at sqrt(3)-1; the realized error equals the
    chosen eps on every branch.
    """

    construction = "pred-2-identical"
    params = ("D", "r", "eps")

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        _require(cmp_golden(a) > 0 and a <= 1, "need a in (phi-1, 1]: a^2+a-1 > 0")
        if cmp_sqrt3(a) <= 0:  # 2a(2+a) <= 4
            lb = (1 - a) / (2 * a * (2 + a))
            d = _default(spec, "D", lb * Fraction(5, 4))
            _require(d > lb, "need D > (1-a)/(2a(2+a)) in the low regime")
            r = _default(spec, "r", (d - lb) / 2)
            _require(0 < r <= d - lb, "need r in (0, D - (1-a)/(2a(2+a))]")
            lam = max((a * a + a - 1) / (2 * a * (2 + a)) - r, ZERO)
            eps_lo = lb + r * (1 - a) / (1 + a)
            eps_hi = lb + r
            eps = _default(spec, "eps", _midpoint(eps_lo, eps_hi))
            _require(eps_lo < eps < eps_hi,
                     "need eps in (lb + r(1-a)/(1+a), lb + r) in the low regime")
        else:
            lb = (1 - a) / 4
            d = _default(spec, "D", lb * Fraction(5, 4))
            _require(d > lb, "need D > (1-a)/4 in the high regime")
            eps_hi = min(a / (4 * (2 + a)), d)
            eps = _default(spec, "eps", _midpoint(lb, eps_hi))
            _require(lb < eps < eps_hi,
                     "need eps in ((1-a)/4, min(a/(4(2+a)), D)) in the high regime")
            lam = eps
        self.lam, self.eps = lam, eps
        half = Fraction(1, 2)
        _require(half - 3 * eps - lam >= 0, "revealed values must be nonnegative")
        p = ValuationVector((2 * lam, 2 * eps, half - 2 * eps - lam, half - lam))
        super().__init__(n=2, horizon=4, a=a, identical=True,
                         opening=(2 * lam, 2 * eps),
                         prediction=ValuationProfile.identical_from(p, 2),
                         claimed_error=(eps, eps))

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        lam, eps = self.lam, self.eps
        half = Fraction(1, 2)
        if max(counts) == 2:
            even = half - eps - lam
            return (even, even)
        return (half - 3 * eps - lam, half + eps - lam)


# ---------------------------------------------------------------------------
# (7) n >= 3 identical agents with predictions (combined small/large regimes)
# ---------------------------------------------------------------------------

class ManyAgentsPredictedAdversary(Adversary):
    construction = "pred-n-identical"
    params = ("eps", "k")

    def __init__(self, spec: AdversarySpec):
        a, n = spec.a, spec.n
        _require(0 < a <= 1, "need a in (0, 1]")
        _require(n >= 3, "need n >= 3 agents")
        small_bound = 1 / (2 * (n - 1 + 2 * a))
        big_k = 4 + (2 * n - 3) * a
        large_bound = (1 - a * a) / big_k
        self.branch = "small" if small_bound <= large_bound else "large"
        if self.branch == "small":
            eps_hi = a / (n - 1 + 2 * a)
            eps = _default(spec, "eps", eps_hi / 2)
            _require(0 < eps < eps_hi, "need eps in (0, a/(n-1+2a)) in the small regime")
            self.eps = eps
            w = Fraction(2 * n - 3, (n - 1) * (n - 2)) * (Fraction(1, 2) - eps)
            tail = (Fraction(1, 2) - eps) / (n - 1)
            values = (eps, eps) + (w,) * (n - 2) + (tail,) + (ZERO,) * (n - 2)
            claimed_iv = (tail, tail)
            opening = (eps, eps)
        else:
            k_hi = a / big_k
            k = _default(spec, "k", k_hi * (2 * n - 3 + 2 * a) / (2 * n - 3 + 4 * a))
            _require(0 < k < k_hi, "need k in (0, a/(4+(2n-3)a))")
            coupled_lo = (1 - (2 * n - 3 + 4 * a) * k) / 4
            eps_lo = max(large_bound, coupled_lo)
            eps_hi = Fraction(1, 1) / big_k
            eps = _default(spec, "eps", _midpoint(eps_lo, eps_hi))
            _require(eps_lo < eps <= eps_hi,
                     "need eps in (max((1-a^2)/K, (1-(2n-3+4a)k)/4), 1/K], K = 4+(2n-3)a")
            self.eps = eps
            self.base = (1 - (2 * n - 3) * k) / 2
            _require(self.base - 2 * eps >= 0, "revealed values must be nonnegative")
            values = (k,) * (2 * n - 3) + (self.base - eps, self.base + eps)
            claimed_iv = (eps, eps)
            opening = (k,) * (2 * n - 3)
        p = ValuationVector(values)
        super().__init__(n=n, horizon=2 * n - 1, a=a, identical=True, opening=opening,
                         prediction=ValuationProfile.identical_from(p, n),
                         claimed_error=claimed_iv)

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        if self.branch == "small":
            left = self.n - 2 if max(counts) == 2 else self.n - 1
            return ((1 - 2 * self.eps) / left,) * left
        if counts.count(0) == 1:  # exactly one agent got none of the small goods
            return (self.base, self.base)
        return (self.base - 2 * self.eps, self.base + 2 * self.eps)


# ---------------------------------------------------------------------------
# (8) two identical agents, 2-value predictions
# ---------------------------------------------------------------------------

class TwoValuePairAdversary(Adversary):
    construction = "two-value-2"
    params = ("eps",)

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        _require(cmp_sqrt3(a) > 0 and a <= 1,
                 "need a in (sqrt(3)-1, 1]: a^2 + 2a - 2 > 0")
        lo, hi = (1 - a) / 2, a / (2 * (2 + a))
        eps = _default(spec, "eps", _midpoint(lo, hi))
        _require(lo < eps < hi, "need eps in ((1-a)/2, a/(2(2+a)))")
        self.eps = eps
        half = Fraction(1, 2)
        p = ValuationVector((eps, eps, half - eps, half - eps))
        super().__init__(n=2, horizon=4, a=a, identical=True, opening=(eps, eps),
                         prediction=ValuationProfile.identical_from(p, 2),
                         claimed_error=(ZERO, eps))

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        half = Fraction(1, 2)
        if max(counts) == 2:
            return (half - self.eps, half - self.eps)
        return (half - 2 * self.eps, half)


# ---------------------------------------------------------------------------
# (9) n >= 3 identical agents, 2-value predictions
# ---------------------------------------------------------------------------

class TwoValueManyAdversary(Adversary):
    construction = "two-value-n"
    params = ("k", "eps")

    def __init__(self, spec: AdversarySpec):
        a, n = spec.a, spec.n
        _require(0 < a <= 1, "need a in (0, 1]")
        _require(n >= 3, "need n >= 3 agents")
        big_k = 4 + (2 * n - 3) * a
        k_hi = a / big_k
        k = _default(spec, "k", k_hi * (2 * n - 3 + 2 * a) / (2 * n - 3 + 4 * a))
        _require(0 < k < k_hi, "need k in (0, a/(4+(2n-3)a))")
        coupled_lo = (1 - (2 * n - 3 + 4 * a) * k) / 2
        eps_lo = max(2 * (1 - a * a) / big_k, coupled_lo)
        eps_hi = 2 / big_k
        eps = _default(spec, "eps", _midpoint(eps_lo, eps_hi))
        _require(eps_lo < eps <= eps_hi,
                 "need eps in (max(2(1-a^2)/K, (1-(2n-3+4a)k)/2), 2/K], K = 4+(2n-3)a")
        self.eps = eps
        self.base = (1 - (2 * n - 3) * k) / 2
        _require(self.base - eps >= 0, "revealed values must be nonnegative")
        p = ValuationVector((k,) * (2 * n - 3) + (self.base, self.base))
        super().__init__(n=n, horizon=2 * n - 1, a=a, identical=True,
                         opening=(k,) * (2 * n - 3),
                         prediction=ValuationProfile.identical_from(p, n),
                         claimed_error=(ZERO, eps))

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        if counts.count(0) == 1:  # exactly one agent got none of the small goods
            return (self.base, self.base)
        return (self.base - self.eps, self.base + self.eps)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_BUILDERS = {cls.construction: cls for cls in (
    GoldenStreamAdversary,
    TripleSplitAdversary,
    AsymmetricStreamAdversary,
    FollowerTightAdversary,
    MirroredPairAdversary,
    IdenticalPredictedAdversary,
    ManyAgentsPredictedAdversary,
    TwoValuePairAdversary,
    TwoValueManyAdversary,
)}
CONSTRUCTIONS = tuple(_BUILDERS)


def build_adversary(spec: AdversarySpec) -> Adversary:
    return _BUILDERS[spec.construction](spec)
