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

from .bounds import BoundId, BoundParams, eval_bound
from .core import (
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

    A construction reveals the rows of ``opening`` one per round.  Once they
    are all placed, ``_tail(counts)`` gives the remaining goods from the number
    of opening goods each agent took; they form a fixed queue followed by
    zero-valued padding up to ``horizon``.  Opening states are
    ``("open", counts)``; queue states are ``("q", remaining)`` where remaining
    is a tuple of per-agent value tuples.  A row given as one value is the same
    for every agent.  The two streaming constructions define their own
    ``start``, ``reveal`` and ``advance`` and defer to these for queue states:
    the golden stream reveals on the opening states, but for as long as its
    stream lasts rather than for a fixed opening; the asymmetric stream keeps
    its own state, which carries the mass revealed to each agent.

    ``predicted`` is the emitted prediction: one vector shared by every agent
    when the construction is identical, one row per agent otherwise.
    """

    construction: str = "abstract"
    params: tuple[str, ...] = ()  # the parameter names the construction reads
    agents: Optional[int] = None  # the agent count, where the construction fixes it
    identical = True  # whether every agent sees the same values
    bound: Optional[BoundId] = None  # the lower bound the construction realizes

    def __init__(self, spec: AdversarySpec, horizon: int, opening: tuple = (),
                 predicted: Optional[tuple] = None,
                 claimed_error: Optional[tuple[Fraction, Fraction]] = None):
        self.n = spec.n
        self.horizon = horizon
        self.opening = self._rows(opening)
        self.prediction: Optional[ValuationProfile] = None
        if predicted is not None and self.identical:
            self.prediction = ValuationProfile.identical_from(ValuationVector(predicted), self.n)
        elif predicted is not None:
            self.prediction = ValuationProfile(tuple(ValuationVector(row) for row in predicted))
        self.claimed_error = claimed_error
        self.oblivious_family: Optional[tuple[ValuationProfile, ...]] = None

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        """The rows after the opening, given each agent's count of opening goods."""
        raise NotImplementedError

    def _bound(self, spec: AdversarySpec, bound: Optional[BoundId] = None) -> Fraction:
        """A bound (by default the realized one) at the spec's a and n."""
        try:
            return eval_bound(bound or self.bound, spec.a, BoundParams(n=spec.n))
        except ValueError as exc:  # a DomainError, or BoundParams rejecting n < 2
            raise ParameterError(f"parameter outside the construction's domain: {exc}") from None

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
        super().__init__(spec, horizon=m + 3)

    def start(self) -> tuple:
        return ("open", (0, 0))

    def reveal(self, state: tuple) -> tuple[Fraction, ...]:
        if state[0] == "open":
            return self._bcast(self.eps)
        return super().reveal(state)

    def advance(self, state: tuple, agent: int) -> tuple:
        if state[0] != "open":
            return super().advance(state, agent)
        counts = tuple(c + (i == agent) for i, c in enumerate(state[1]))
        # stream while one agent holds every good and its total is at most 2*phi - 3
        if min(counts) == 0 and (max(counts) * self.eps + 2) ** 2 <= 5:
            return ("open", counts)
        return self._queue(*self._tail(counts))

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        rest = 1 - sum(counts) * self.eps
        return (rest,) if min(counts) else (rest / 2, rest / 2)


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
        super().__init__(spec, horizon=n + 1, opening=(self.eps, self.eps))

    def _tail(self, counts: tuple[int, ...]) -> tuple:
        left = 1 if max(counts) == 2 else self.n - 1
        return ((1 - 2 * self.eps) / left,) * left


# ---------------------------------------------------------------------------
# (3) two agents, non-identical, no predictions, any positive factor
# ---------------------------------------------------------------------------

class AsymmetricStreamAdversary(Adversary):
    """Feeds goods worthless to one agent until the other finally shares.

    A state ``("stream", fed, mass, first)`` names the agent shown ``eps`` and
    the mass revealed to each agent so far; the closing good is worth each
    agent's unrevealed mass.  Counts alone cannot say which agent was fed.
    """

    construction = "no-pred-2-general"
    agents = 2
    identical = False

    def __init__(self, spec: AdversarySpec):
        a = spec.a
        _require(0 < a <= 1, "need a in (0, 1]")
        self.eps = a / 4
        horizon = int(1 / self.eps) + 2  # floor(4/a) + 2
        super().__init__(spec, horizon)

    def start(self) -> tuple:
        return ("stream", 0, (ZERO, ZERO), True)

    def reveal(self, state: tuple) -> tuple[Fraction, ...]:
        if state[0] == "stream":
            return tuple(self.eps if i == state[1] else ZERO for i in range(2))
        return super().reveal(state)

    def advance(self, state: tuple, agent: int) -> tuple:
        if state[0] != "stream":
            return super().advance(state, agent)
        _, fed, mass, first = state
        mass = tuple(m + self.eps * (i == fed) for i, m in enumerate(mass))
        if first:
            fed = 1 - agent  # from now on feed the agent that did not take the first good
        # stream until the fed agent takes a good or one more would overrun its unit budget
        if (first or agent != fed) and mass[fed] + self.eps <= 1:
            return ("stream", fed, mass, False)
        return self._queue(tuple(1 - m for m in mass))


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
        self.d = d
        explicit = spec.param("lo") is not None or spec.param("hi") is not None
        lo, hi = _index(spec, "lo", 0), _index(spec, "hi", 1)
        _require(0 <= lo < t_total and 0 <= hi < t_total and lo != hi,
                 "need distinct perturbation targets lo, hi inside the horizon")
        super().__init__(spec, t_total, predicted=(u,) * t_total, claimed_error=(d, d))
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
        rest = (Fraction(1, 2) - 2 * eps - lam, Fraction(1, 2) - lam)
        super().__init__(spec, 4, opening=((2 * eps, 2 * lam), (2 * lam, 2 * eps)),
                         predicted=((2 * eps, 2 * lam) + rest, (2 * lam, 2 * eps) + rest),
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
        _require(Fraction(1, 2) - 3 * eps - lam >= 0, "revealed values must be nonnegative")
        Adversary.__init__(self, spec, 4, (2 * lam, 2 * eps), predicted, claimed_error)

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
            opening = (eps, eps)
        else:
            opening = self._open_large(spec, lb, scale=1)
            eps = self.eps
            values = opening + (self.base - eps, self.base + eps)
            claimed_iv = (eps, eps)
        super().__init__(spec, 2 * n - 1, opening, values, claimed_iv)

    def _open_large(self, spec: AdversarySpec, lb: Fraction, scale: int) -> tuple:
        """The large regime's 2n-3 goods of value k; the spec's eps, above ``lb``,
        is ``scale`` times the half spread ``self.eps`` of the two last goods."""
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
        self.base = (1 - (2 * n - 3) * k) / 2
        _require(self.base - 2 * self.eps >= 0, "revealed values must be nonnegative")
        return (k,) * (2 * n - 3)

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
        opening = self._open_large(spec, self._bound(spec), scale=2)
        Adversary.__init__(self, spec, 2 * spec.n - 1, opening,
                           opening + (self.base, self.base), (ZERO, 2 * self.eps))


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
