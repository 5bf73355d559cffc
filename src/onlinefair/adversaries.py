"""Adaptive opponents realizing the known impossibility constructions.

Each opponent is a branching program: a pure state machine mapping the
allocator's decision history to the next revealed per-agent values.  It
reveals int weights over ``den``, a denominator the construction fixes from
its parameters when it is built.  On every root-to-leaf path each agent's
revealed weights sum exactly to ``den``, and the realized distance between the
emitted prediction (when there is one) and the realized truth stays inside
the interval the construction promises.  States are hashable tuples of ints
so the game-tree oracle can memoize over them.  Most constructions are data:
a fixed opening, then a tail that depends only on how many opening goods each
agent took.  A construction hands the base both as exact rationals, and the
base weighs them over ``den`` once, when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .bounds import BoundId, BoundParams, eval_bound
from .core import (
    RationalLike,
    ValuationProfile,
    ValuationVector,
    ZERO,
    cmp_golden,
    cmp_sqrt3,
    golden_floor,
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
        _check_reads(self, builder.params)
        if builder.agents not in (None, self.n):
            raise ParameterError(
                f"{self.construction} is a {builder.agents}-agent construction, not n={self.n}")

    def param(self, name: str) -> Optional[Fraction]:
        v = self.params.get(name)
        return None if v is None else rat(v)


def _check_reads(spec: AdversarySpec, names: tuple[str, ...], where: str = "") -> None:
    for name in spec.params:
        if name not in names:
            raise ParameterError(f"{spec.construction} has no parameter {name!r}{where}; "
                                 f"it reads {', '.join(names) or 'none'}")


class Adversary:
    """Base opponent: the one opening/queue state machine.

    A construction reveals the rows of ``opening`` one per round.  Once the
    opening ends, ``_tail(counts)`` gives the remaining goods from the number
    of opening goods each agent took, by default the rows ``tails`` keys by
    whether one agent took two of them; they form a fixed queue followed by
    zero-valued padding up to ``horizon``.  Opening states are
    ``("open", counts)``; queue states are ``("q", remaining)`` where remaining
    is a tuple of rows.  A row is one int weight per agent, or one int that is
    every agent's weight; ``reveal`` always returns one int per agent.  An
    ``identical`` construction's rows are all one int, so the duel and the
    game tree keep one weight per row.  The opening lasts while
    ``_opening_goes_on(counts)`` holds, by default until every row is
    placed; the golden stream also ends it once both agents hold a good.
    Only the asymmetric stream defines its own ``start``, ``reveal`` and
    ``advance``, deferring to these for queue states: its state carries the
    mass revealed to each agent, which counts cannot hold.

    The construction passes ``den``, its opening and its tails as exact
    rationals; ``_weigh`` turns each row into int weights over ``den`` once,
    when it is built, and refuses a value off the 1/den lattice, a negative
    one, and a per-agent row in an identical construction.  ``predicted`` is
    the emitted prediction: one vector shared by every agent when the
    construction is identical, one row per agent otherwise.
    """

    construction: str = "abstract"
    params: tuple[str, ...] = ()  # the parameter names the construction reads
    agents: Optional[int] = None  # the agent count, where the construction fixes it
    identical = True  # whether every agent sees the same values
    bound: Optional[BoundId] = None  # the lower bound the construction realizes
    # a truth-oblivious construction's family of truths, built on call
    oblivious_family: Optional[Callable[[], tuple[ValuationProfile, ...]]] = None

    def __init__(self, spec: AdversarySpec, horizon: int, den: int, opening: tuple = (),
                 predicted: Optional[tuple] = None,
                 claimed_error: Optional[tuple[Fraction, Fraction]] = None,
                 tails: Mapping = {}):
        self.n = spec.n
        self.horizon = horizon
        self.den = den
        self.opening = self._weigh(opening, self._bcast)
        self.tails = {key: self._weigh(rows) for key, rows in tails.items()}
        self.prediction: Optional[ValuationProfile] = None
        if predicted is not None and self.identical:
            self.prediction = ValuationProfile.identical_from(ValuationVector(predicted), self.n)
        elif predicted is not None:
            self.prediction = ValuationProfile(tuple(ValuationVector(row) for row in predicted))
        self.claimed_error = claimed_error

    def _weigh(self, rows: tuple, shape: Callable = lambda row: row) -> tuple:
        """Rows of values fixed at build as int weights over ``den``, each
        ``shape``d; a row repeated as one object is weighed once, and shared.
        An identical construction's rows are one value each."""
        w, out, last = self._weight, [], None
        for row in rows:
            if row is not last:
                if isinstance(row, tuple) and self.identical:
                    raise ParameterError(f"{self.construction} is identical: one value per row")
                last, weights = row, shape(tuple(map(w, row)) if isinstance(row, tuple) else w(row))
            out.append(weights)
        return tuple(out)

    def _weight(self, value: Fraction) -> int:
        """A value fixed at build, as a nonnegative int weight over ``den``."""
        w, rest = divmod(value.numerator * self.den, value.denominator)
        if rest:
            raise ParameterError(f"construction value {value} is not a multiple of 1/{self.den}")
        if w < 0:
            raise ParameterError(f"construction value {value} is negative")
        return w

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        """The rows after the opening, given each agent's count of opening goods."""
        return self.tails[max(counts) == 2]

    def _bound(self, spec: AdversarySpec, bound: Optional[BoundId] = None) -> Fraction:
        """A bound (by default the realized one) at the spec's a and n."""
        try:
            return eval_bound(bound or self.bound, spec.a, BoundParams(n=spec.n))
        except ValueError as exc:  # a DomainError, or BoundParams rejecting n < 2
            raise ParameterError(f"parameter outside the construction's domain: {exc}") from None

    def start(self) -> tuple:
        if self.opening:
            return ("open", (0,) * self.n)
        return ("q", self._tail((0,) * self.n))

    def reveal(self, state: tuple) -> tuple[int, ...]:
        if state[0] == "open":
            return self.opening[sum(state[1])]
        remaining = state[1]
        return self._bcast(remaining[0] if remaining else 0)

    def advance(self, state: tuple, agent: int) -> tuple:
        if state[0] == "open":
            counts = tuple(c + (i == agent) for i, c in enumerate(state[1]))
            if self._opening_goes_on(counts):
                return ("open", counts)
            return ("q", self._tail(counts))
        remaining = state[1]
        return ("q", remaining[1:]) if remaining else state

    def _opening_goes_on(self, counts: tuple[int, ...]) -> bool:
        """Whether the opening reveals another row, given each agent's count."""
        return sum(counts) < len(self.opening)

    def counts(self, state: tuple) -> tuple[int, ...]:
        """Each agent's count of opening goods; all zero in the queue."""
        return state[1] if state[0] == "open" else (0,) * self.n

    def relabel(self, state: tuple, order) -> tuple:
        """The state with agent ``order[j]`` renamed j.

        An identical construction commutes with this, and is fixed by any
        renaming that keeps its counts: ``_tail`` and ``_opening_goes_on``
        read the counts only through ``min``, ``max``, ``sum`` and ``count``,
        and its queue rows are broadcast.  The game-tree oracle relies on it.
        """
        return ("open", tuple(state[1][i] for i in order)) if state[0] == "open" else state

    def _bcast(self, row) -> tuple[int, ...]:
        return (row,) * self.n if type(row) is int else row


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
    agents = 2

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        # the golden tests need a positive argument: a^2+a-1 > 0 also holds below -phi
        _require(0 < a <= 1 and cmp_golden(a) > 0, "need a in (phi-1, 1]: a^2+a-1 > 0")
        lam = spec.param("lam")
        if lam is None:
            # within 2^-20 of phi-1, half a's distance to any rational above phi-1 is
            # below 2^-21, which puts a default lam's stream past 10^6 goods
            upper = Fraction(golden_floor(20) + 1, 1 << 20)
            _require(upper < a, "a is within 2^-20 of phi-1, no practical default lam; pass one")
            lam = (a - upper) / 2
        _require(lam > 0, "need lam > 0 (zero lam degenerates the stream)")
        _require(lam < a and cmp_golden(a - lam) > 0,
                 "need lam < a - (phi-1): (a-lam)^2+(a-lam)-1 > 0")
        self.eps = eps = lam / 4
        # the stream's length: the smallest m with m*eps > 2*phi - 3 = sqrt(5) - 2;
        # for eps = p/q that is m*p + 2q > sqrt(5q^2), and as 5q^2 is no square,
        # m*p + 2q >= isqrt(5q^2) + 1
        p, q = eps.numerator, eps.denominator
        m = -((2 * q - math.isqrt(5 * q * q) - 1) // p)
        if m > 10 ** 6:
            raise ParameterError("lam so small the promised horizon is impractical")
        # over 2q both eps and the mass left are even, so the mass left halves exactly
        super().__init__(spec, m + 3, 2 * q, opening=(eps,) * m)
        self.eps_w = self.opening[0][0]

    def _opening_goes_on(self, counts: tuple[int, ...]) -> bool:
        # stream while one agent holds every good and its total is at most 2*phi - 3
        return min(counts) == 0 and super()._opening_goes_on(counts)

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        # rest > 0 as m*eps <= sqrt(5)-2+eps < 1, and rest is even over 2q
        rest = self.den - sum(counts) * self.eps_w
        return (rest,) if min(counts) else (rest >> 1, rest >> 1)


# ---------------------------------------------------------------------------
# (2) three or more identical agents, no predictions, any positive factor
# ---------------------------------------------------------------------------

class TripleSplitAdversary(Adversary):
    construction = "no-pred-3-identical"

    def __init__(self, spec: AdversarySpec):
        a, n = spec.a, spec.n
        _require(0 < a <= 1, "need a in (0, 1]")
        _require(n >= 3, "need n >= 3 agents")
        self.eps = eps = a / (3 * (n - 1))
        super().__init__(spec, n + 1, eps.denominator * (n - 1), opening=(eps, eps),
                         tails={True: (1 - 2 * eps,), False: ((1 - 2 * eps) / (n - 1),) * (n - 1)})


# ---------------------------------------------------------------------------
# (3) two agents, non-identical, no predictions, any positive factor
# ---------------------------------------------------------------------------

class AsymmetricStreamAdversary(Adversary):
    """Feeds goods worthless to one agent until the other finally shares.

    A state ``("stream", fed, mass, first)`` names the agent shown ``eps`` and
    the weight revealed to each agent so far; the closing good is worth each
    agent's unrevealed weight.  Counts alone cannot say which agent was fed.
    """

    construction = "no-pred-2-general"
    agents = 2
    identical = False

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        _require(0 < a <= 1, "need a in (0, 1]")
        self.eps = eps = a / 4
        horizon = int(1 / eps) + 2  # floor(4/a) + 2
        super().__init__(spec, horizon, eps.denominator)
        self.eps_w = eps.numerator

    def start(self) -> tuple:
        return ("stream", 0, (0, 0), True)

    def reveal(self, state: tuple) -> tuple[int, ...]:
        if state[0] == "stream":
            return tuple(self.eps_w if i == state[1] else 0 for i in range(2))
        return super().reveal(state)

    def advance(self, state: tuple, agent: int) -> tuple:
        if state[0] != "stream":
            return super().advance(state, agent)
        _, fed, mass, first = state
        mass = tuple(m + self.eps_w * (i == fed) for i, m in enumerate(mass))
        if first:
            fed = 1 - agent  # from now on feed the agent that did not take the first good
        # stream until the fed agent takes a good or one more would overrun its unit budget
        if (first or agent != fed) and mass[fed] + self.eps_w <= self.den:
            return ("stream", fed, mass, False)
        # den - mass[i] >= 0: the stream stops before mass[fed] + eps_w > den,
        # and the unfed agent saw at most one eps
        return ("q", (tuple(self.den - m for m in mass),))


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
    bound = BoundId.FOLLOWER_NECESSARY
    params = ("D", "lo", "hi")

    def __init__(self, spec: AdversarySpec):
        a, n = spec.a, spec.n
        lower = self._bound(spec)
        _require(a > 0, "need a > 0; at a = 0 follower-necessary(a, n) is 1/(2n-1), "
                        "the largest deflation a good can take, so no allowed D exceeds it")
        t_total = 2 * n - 1
        u = Fraction(1, t_total)
        d = _default(spec, "D", (lower + u) / 2)
        _require(d > lower, "need D > follower-necessary(a, n)")
        _require(d <= u, "need D <= 1/(2n-1) so the deflated good stays nonnegative")
        self.u, self.d = u, d
        explicit = spec.param("lo") is not None or spec.param("hi") is not None
        lo, hi = _index(spec, "lo", 0), _index(spec, "hi", 1)
        _require(0 <= lo < t_total and 0 <= hi < t_total and lo != hi,
                 "need distinct perturbation targets lo, hi inside the horizon")
        self.targets = ((lo, hi),) if explicit else None
        # no opening, so no agent takes two opening goods and the tail is keyed False
        super().__init__(spec, t_total, math.lcm(t_total, d.denominator), predicted=(u,) * t_total,
                         claimed_error=(d, d), tails={False: self._values(lo, hi)})

    def oblivious_family(self) -> tuple[ValuationProfile, ...]:
        """The played truth when ``lo`` or ``hi`` is given, else one truth per
        pair of distinct targets: (2n-1)(2n-2) profiles, so only the oracle
        builds them, once its budget admits the search."""
        h = self.horizon
        targets = self.targets or [(i, j) for i in range(h) for j in range(h) if i != j]
        return tuple(self._truth(lo, hi) for lo, hi in targets)

    def _values(self, lo: int, hi: int) -> tuple[Fraction, ...]:
        """u = 1/(2n-1) on every good, but D less on ``lo`` and D more on ``hi``."""
        vals = [self.u] * self.u.denominator
        vals[lo], vals[hi] = self.u - self.d, self.u + self.d
        return tuple(vals)

    def _truth(self, lo: int, hi: int) -> ValuationProfile:
        return ValuationProfile.identical_from(ValuationVector(self._values(lo, hi)), self.n)


# ---------------------------------------------------------------------------
# (5) two agents, non-identical, with predictions
# ---------------------------------------------------------------------------

class MirroredPairAdversary(Adversary):
    construction = "pred-2-general"
    bound = BoundId.NONID_2_LB
    params = ("lam",)
    agents = 2
    identical = False

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        lb = self._bound(spec)
        if a <= Fraction(2, 3):  # lb = (1-a)/(6a): eps = 1/6 - lam lies in (lb, 1/6]
            lam = _default(spec, "lam", (Fraction(1, 6) - lb) / 2)
            eps = Fraction(1, 6) - lam
            _require(lb < eps <= Fraction(1, 6),
                     "need lam in [0, 1/6 - nonid-2-lb(a)) for a <= 2/3")
        else:
            lam = _default(spec, "lam", (lb + a / 8) / 2)
            _require(lb < lam < a / 8, "need lam in (nonid-2-lb(a), a/8) for a > 2/3")
            eps = lam
        self.lam, self.eps = lam, eps
        _require(Fraction(1, 2) - 2 * eps - lam >= 0, "prediction values must be nonnegative")
        half = Fraction(1, 2)
        rest = (half - 2 * eps - lam, half - lam)
        low, high, mid = half - 3 * eps - lam, half + eps - lam, half - eps - lam
        tails = {(2, 0): ((low, mid), (high, mid)), (0, 2): ((mid, low), (mid, high)),
                 (1, 1): ((low, low), (high, high))}  # keyed by the counts
        super().__init__(spec, 4, math.lcm(2, eps.denominator, lam.denominator),
                         opening=((2 * eps, 2 * lam), (2 * lam, 2 * eps)),
                         predicted=((2 * eps, 2 * lam) + rest, (2 * lam, 2 * eps) + rest),
                         claimed_error=(eps, eps), tails=tails)

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        return self.tails[counts]


# ---------------------------------------------------------------------------
# (6) two identical agents with predictions
# ---------------------------------------------------------------------------

class IdenticalPredictedAdversary(Adversary):
    """Four-good construction against algorithms that see truths and predictions.

    Works in two regimes split at sqrt(3)-1; the realized error equals the
    chosen eps on every branch.
    """

    construction = "pred-2-identical"
    bound = BoundId.ID_2_LB
    params = ("D", "r", "eps")
    agents = 2

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        lb = self._bound(spec)
        d = _default(spec, "D", lb * Fraction(5, 4))
        _require(d > lb, "need D > id-2-lb(a)")
        low = cmp_sqrt3(a) <= 0  # lb is the (1-a)/(2a(2+a)) piece
        if low:
            lam_cap = a / (2 * (2 + a)) - lb  # lam = lam_cap - r must stay positive
            r = _default(spec, "r", min(d - lb, lam_cap) / 2)
            _require(0 < r <= d - lb, "need r in (0, D - id-2-lb(a)]")
            _require(r < lam_cap, "need r < a/(2(2+a)) - id-2-lb(a) so that lam > 0")
            eps_lo, eps_hi = lb + r * (1 - a) / (1 + a), lb + r
        else:
            _check_reads(spec, ("D", "eps"), " in its high regime")
            eps_lo, eps_hi = lb, min(a / (4 * (2 + a)), d)
        eps = _default(spec, "eps", (eps_lo + eps_hi) / 2)
        _require(eps_lo < eps < eps_hi, f"need eps in ({eps_lo}, {eps_hi})")
        lam = lam_cap - r if low else eps
        half = Fraction(1, 2)
        self._open(spec, lam, eps, (2 * lam, 2 * eps, half - 2 * eps - lam, half - lam),
                   claimed_error=(eps, eps))

    def _open(self, spec: AdversarySpec, lam: Fraction, eps: Fraction,
              predicted: tuple, claimed_error: tuple[Fraction, Fraction]) -> None:
        """Reveal (2lam, 2eps), then ``_tail``; ``predicted`` is the emitted vector."""
        self.lam, self.eps = lam, eps
        half = Fraction(1, 2)
        _require(half - 3 * eps - lam >= 0, "revealed values must be nonnegative")
        Adversary.__init__(self, spec, 4, math.lcm(2, eps.denominator, lam.denominator),
                           (2 * lam, 2 * eps), predicted, claimed_error,
                           {True: (half - eps - lam,) * 2,
                            False: (half - 3 * eps - lam, half + eps - lam)})


# ---------------------------------------------------------------------------
# (7) n >= 3 identical agents with predictions (combined small/large regimes)
# ---------------------------------------------------------------------------

class ManyAgentsPredictedAdversary(Adversary):
    construction = "pred-n-identical"
    bound = BoundId.IDN_LB_COMBINED
    params = ("eps", "k")

    def __init__(self, spec: AdversarySpec):
        a, n = spec.a, spec.n
        lb = self._bound(spec)
        if self._bound(spec, BoundId.IDN_LB_SMALL) <= self._bound(spec, BoundId.IDN_LB_LARGE):
            self.branch = "small"
            _check_reads(spec, ("eps",), " in its small regime")
            eps_hi = a / (n - 1 + 2 * a)
            eps = self.eps = _default(spec, "eps", eps_hi / 2)
            _require(0 < eps < eps_hi, "need eps in (0, a/(n-1+2a)) in the small regime")
            w = Fraction(2 * n - 3, (n - 1) * (n - 2)) * (Fraction(1, 2) - eps)
            tail = (Fraction(1, 2) - eps) / (n - 1)
            values = (eps, eps) + (w,) * (n - 2) + (tail,) + (ZERO,) * (n - 2)
            claimed_iv = (tail, tail)
            den, opening = eps.denominator * (n - 1) * (n - 2), (eps, eps)
            # keyed by whether one agent took both small goods
            tails = {True: ((1 - 2 * eps) / (n - 2),) * (n - 2),
                     False: ((1 - 2 * eps) / (n - 1),) * (n - 1)}
        else:
            den, opening, tails = self._open_large(spec, lb, scale=1)
            eps = self.eps
            values = opening + (self.base - eps, self.base + eps)
            claimed_iv = (eps, eps)
        super().__init__(spec, 2 * n - 1, den, opening, values, claimed_iv, tails)

    def _open_large(self, spec: AdversarySpec, lb: Fraction, scale: int) -> tuple:
        """The large regime's denominator, 2n-3 goods of value k, and tails keyed
        by whether exactly one agent got none of them; the spec's eps, above
        ``lb``, is ``scale`` times the half spread ``self.eps`` of the two last goods."""
        a, n = spec.a, spec.n
        big_k = 4 + (2 * n - 3) * a
        k_hi = a / big_k
        k = _default(spec, "k", k_hi * (2 * n - 3 + 2 * a) / (2 * n - 3 + 4 * a))
        _require(0 < k < k_hi, "need k in (0, a/(4+(2n-3)a))")
        eps_lo = max(lb, scale * (1 - (2 * n - 3 + 4 * a) * k) / 4)
        eps_hi = scale / big_k
        eps = _default(spec, "eps", (eps_lo + eps_hi) / 2)
        _require(eps_lo < eps <= eps_hi, f"need eps in ({eps_lo}, {eps_hi}] at k = {k}")
        self.branch, self.eps = "large", eps / scale
        base = self.base = (1 - (2 * n - 3) * k) / 2
        _require(base - 2 * self.eps >= 0, "revealed values must be nonnegative")
        return (math.lcm(2 * k.denominator, self.eps.denominator), (k,) * (2 * n - 3),
                {True: (base,) * 2, False: (base - 2 * self.eps, base + 2 * self.eps)})

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        return self.tails[max(counts) == 2 if self.branch == "small" else counts.count(0) == 1]


# ---------------------------------------------------------------------------
# (8) two identical agents, 2-value predictions
# ---------------------------------------------------------------------------

class TwoValuePairAdversary(IdenticalPredictedAdversary):
    """pred-2-identical's high-regime goods, its lam and eps both half this eps,
    predicted with two values."""

    construction = "two-value-2"
    bound = BoundId.TWO_VALUE_2_LB
    params = ("eps",)

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        lb, hi = self._bound(spec), a / (2 * (2 + a))
        eps = _default(spec, "eps", (lb + hi) / 2)
        _require(lb < eps < hi, "need eps in (two-value-2-lb(a), a/(2(2+a)))")
        half = Fraction(1, 2)
        self._open(spec, eps / 2, eps / 2, (eps, eps, half - eps, half - eps),
                   claimed_error=(ZERO, eps))


# ---------------------------------------------------------------------------
# (9) n >= 3 identical agents, 2-value predictions
# ---------------------------------------------------------------------------

class TwoValueManyAdversary(ManyAgentsPredictedAdversary):
    """pred-n-identical's large-regime goods, its eps half this eps, predicted
    with two values."""

    construction = "two-value-n"
    bound = BoundId.TWO_VALUE_N_LB
    params = ("k", "eps")

    def __init__(self, spec: AdversarySpec):
        den, opening, tails = self._open_large(spec, self._bound(spec), scale=2)
        Adversary.__init__(self, spec, 2 * spec.n - 1, den, opening,
                           opening + (self.base, self.base), (ZERO, 2 * self.eps), tails)


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
