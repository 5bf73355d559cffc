"""Online allocators: goods arrive one at a time and are placed irrevocably.

Five allocators share one stepping contract:

* a golden-ratio greedy threshold (two identical agents, no predictions),
* the lowest-bundle baseline (exact EF1 at every prefix, identical agents),
* a prediction follower that precomputes an offline allocation and obeys it,
* a short-horizon allocator that is exact whenever at most three goods are
  promised and all of them arrive,
* a form-guided threshold allocator for two identical agents that follows
  the largest-value-first split of the predictions and admits its tracked
  goods to the heavier side only while their observed values stay inside
  exact error margins.

Every allocator steps on Python ints: ``OnlineAllocator.step`` takes the next
good's values as ints over the allocator's denominator ``den`` and keeps each
agent's bundle value as an int over it, so no decision builds a ``Fraction``.
The allocator's ``choices``, the agent that got each good, are the one record
of a run.  ``den`` is fixed once, before the first good: a run that knows its
true values up front (``run_instance``) steps on ``columns``, and a duel sets
it to the construction's own ``den`` and steps on the int weights the
construction reveals.  The decisions are invariant under rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterator, Optional

from .bounds import BoundId, check_domain, eval_bound, late_y_margin, passthrough_cutoff
from .core import Allocation, ValuationProfile, ValuationVector, cmp_golden_int, rat
from .offline import cut_and_choose, eliminate_envy_cycles, lpt


class OnlineAllocator:
    """Single-run stateful allocator; goods arrive one at a time, in order.

    ``choices[t]`` is the agent that got good t; ``allocation()`` builds the
    bundles from it.  The allocator also keeps ``den``, a positive int set
    before the first good, and ``own[i]``, agent i's value of its own bundle
    times ``den``, an int.
    ``step(weights)`` takes the next good's values times ``den``, one int per
    agent, and hands them to ``_decide(t, weights)``, t being the number of
    goods placed so far, so a decision compares ints over one denominator.
    ``columns(truths)`` gives those ints for values known up front.  A
    rejected step changes nothing.
    """

    name = "abstract"
    agents: Optional[int] = None  # the agent count, where the allocator fixes it
    identical_only = False  # whether it needs every agent to share one valuation

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least two agents")
        self.n = n
        self.choices: list[int] = []
        self.den = 1
        self.own = [0] * n

    def columns(self, truths: ValuationProfile) -> Iterator[tuple[int, ...]]:
        """Per good, its value to each agent as ints over ``den``.

        Call it before the first good: it sets ``den`` to the lcm L of the
        truths' denominators.  A vector whose ``den`` is L is read as it is;
        any other is scaled to L once.
        """
        den = self.den = lcm(*{v.den for v in truths.vectors})
        return zip(*[v.weights if v.den == den else tuple([w * (den // v.den) for w in v.weights])
                     for v in truths.vectors])

    def step(self, weights: tuple[int, ...]) -> int:
        if len(weights) != self.n:
            raise ValueError("need one revealed value per agent")
        agent = self._decide(len(self.choices), weights)
        self.choices.append(agent)
        self.own[agent] += weights[agent]
        return agent

    def allocation(self) -> Allocation:
        bundles: list[set[int]] = [set() for _ in range(self.n)]
        for t, agent in enumerate(self.choices):
            bundles[agent].add(t)
        return Allocation.of(bundles, num_goods=len(self.choices))

    def _decide(self, t: int, weights: tuple[int, ...]) -> int:
        raise NotImplementedError


class GreedyGoldenThreshold(OnlineAllocator):
    """Feed agent 0 while it stays at or below (sqrt(5)-1)/2; overflow to agent 1.

    For two agents with identical normalized valuations the final allocation
    is within the golden-ratio factor of envy-freeness up to any good.
    """

    name = "greedy-phi"
    agents = 2
    identical_only = True

    def __init__(self):
        super().__init__(n=self.agents)

    def _decide(self, t: int, weights: tuple[int, ...]) -> int:
        if cmp_golden_int(self.own[0] + weights[0], self.den) <= 0:
            return 0
        return 1


class LowestValueBundle(OnlineAllocator):
    """Give each good to an agent whose own bundle is currently least valued.

    Ties break by lowest agent id.  With identical valuations every prefix
    allocation is exactly envy-free up to one good; the own-value rule also
    runs unchanged on non-identical streams (baseline duty only).
    """

    name = "ef1-lowest"

    def _decide(self, t: int, weights: tuple[int, ...]) -> int:
        return self.own.index(min(self.own))


class PredictionFollower(OnlineAllocator):
    """Precompute an offline split of the predictions and follow it blindly.

    The base procedure must be exact on the predictions (largest-value-first
    for identical agents, cut-and-choose for two non-identical ones).  Neither
    base leaves an envy cycle: under identical valuations nobody envies a
    lightest bundle, and the chooser takes the half it prefers, so it envies
    nobody.  Goods beyond the predicted horizon go to an unenvied agent,
    predicted goods to their precomputed owner, true values ignored throughout.
    """

    name = "follower"

    def __init__(self, prediction: ValuationProfile, base: str = "lpt"):
        super().__init__(n=prediction.agents)
        self.base = base
        if base == "lpt":
            if not prediction.identical:
                raise ValueError("the largest-value-first base needs identical predictions")
            planned = lpt(prediction.vector(0), prediction.agents)
        elif base == "cut-and-choose":
            if prediction.agents != 2:
                raise ValueError("cut-and-choose is a two-agent procedure")
            planned = cut_and_choose(prediction.vector(0), prediction.vector(1))
        else:
            raise ValueError(f"unknown follower base {base!r}")
        settled, self.unenvied = eliminate_envy_cycles(planned, prediction)
        self.owner = {g: i for i, b in enumerate(settled.bundles) for g in b}

    def _decide(self, t: int, weights: tuple[int, ...]) -> int:
        return self.owner.get(t, self.unenvied)


class ThreeGoodsAllocator(OnlineAllocator):
    """Two identical agents, at most three goods promised.

    Needs only the promised horizon, no predicted values.  If exactly the
    promised goods arrive the result is exact regardless of prediction
    quality; any late unpromised value degrades the factor gracefully.
    """

    name = "three-goods"
    agents = 2
    identical_only = True

    def __init__(self, predicted_horizon: int):
        super().__init__(n=self.agents)
        if not 1 <= predicted_horizon <= 3:
            raise ValueError("promised horizon must be 1, 2, or 3")
        self.t_pred = predicted_horizon
        self.isolated_first = False
        self.trailing_target: Optional[int] = None

    def _decide(self, t: int, weights: tuple[int, ...]) -> int:
        own = self.own
        if t >= self.t_pred:
            if self.trailing_target is None:
                self.trailing_target = 0 if own[0] <= own[1] else 1
            return self.trailing_target
        if t == 1:  # good 0 is agent 0's whole bundle; the whole mass is den
            v0, v1 = own[0], weights[0]
            self.isolated_first = max(v0, v1) >= self.den - v0 - v1
        if t < 2:  # good 1 joins good 0 unless one of the two is worth at least the rest
            return 1 if self.isolated_first else 0
        # t == 2, promised horizon 3
        if self.isolated_first:
            # goods 0 and 1 are alone with agents 0 and 1; keep the higher one alone
            return 1 if own[0] >= own[1] else 0
        return 1


class FormKind(Enum):
    PASSTHROUGH = "passthrough"
    THREE_GOODS = "three-goods"
    SINGLETON_HIGH = "singleton-high"
    FORM1 = "form1"
    FORM2OR4 = "form2or4"
    FORM3_EARLY_Y = "form3-early-y"
    FORM3_LATE_Y = "form3-late-y"


@dataclass(frozen=True)
class FormTag:
    """Structural class of the predicted two-bundle split.

    ``z`` and ``y`` are the top two distinct predicted values.  ``low_agent``
    is the agent given the lighter bundle of the largest-value-first split,
    ``heavy`` the goods of the other bundle, and ``large`` the ids whose
    placement is decided by runtime thresholds.  The three-goods form is decided on the
    horizon alone, so it has no split: its ``heavy`` and ``large`` are empty.
    """

    kind: FormKind
    z: Fraction
    y: Optional[Fraction]
    heavy: frozenset[int]
    large: frozenset[int]
    low_agent: int


def classify_form(p: ValuationVector, a: Fraction) -> FormTag:
    """Classify the largest-value-first two-bundle split of ``p`` for factor ``a``.

    A horizon of at most three goods is the three-goods form; any longer one
    is split once, and the split's lighter bundle and the value levels of its
    heavier one decide the form.

    Below the cutoff c every split has one of these forms.  Take mass 1;
    c < 2/5, as 5(4+a-a^2) < 2(2+a)(5-a) iff a + 3a^2 > 0.  If x is the last
    good lpt puts in the heavier bundle H, w(H) - x <= w(L) < c, so |H| >= 3
    would give x <= w(H)/3 and w(L) >= 2/5.  If |H| = 2, both its goods
    weigh more than 1 - 2c, and the lighter L holds at most one such good,
    as two weigh more than 2 - 4c > c.  The two largest goods go to different
    bundles.  Two top goods z in H put a third, and no fourth, in L (form 1).
    One z in H puts another in L, or lpt would put the two goods after z in
    L before H's second; the next good, the only y, joins H (form 3).  No z
    in H leaves one z, in L (forms 2 and 4).
    """
    a = rat(a)
    cutoff = _cutoff(a)
    w = p.weights
    wz = max(w)
    wy = max((x for x in w if x < wz), default=None)
    z = Fraction(wz, p.den)
    y = None if wy is None else Fraction(wy, p.den)
    if p.horizon <= 3:
        return FormTag(FormKind.THREE_GOODS, z, y, frozenset(), frozenset(), 0)

    bundles = lpt(p, 2).bundles
    low = 0 if p.weight(bundles[0]) <= p.weight(bundles[1]) else 1
    light, heavy = bundles[low], bundles[1 - low]
    if a == 1 or p.weight(light) * cutoff.denominator >= cutoff.numerator * p.den:
        return FormTag(FormKind.PASSTHROUGH, z, y, heavy, frozenset(), low)
    if len(heavy) == 1:
        return FormTag(FormKind.SINGLETON_HIGH, z, y, heavy, frozenset(), low)

    level_z = frozenset(g for g in range(p.horizon) if w[g] == wz)
    top = len(heavy & level_z)
    if top == 2:
        return FormTag(FormKind.FORM1, z, y, heavy, level_z, low)
    if top == 1:
        (y_good,) = heavy - level_z
        kind = FormKind.FORM3_LATE_Y if y_good > max(level_z) else FormKind.FORM3_EARLY_Y
        return FormTag(kind, z, y, heavy, level_z | heavy, low)
    return FormTag(FormKind.FORM2OR4, z, y, heavy, heavy | level_z, low)


# main's cutoff and slacks are computed once per target factor a: a run of
# the acceptance suites builds main 1,400 times over seven factors
@lru_cache
def _cutoff(a: Fraction) -> Fraction:
    """The passthrough cutoff at factor ``a``, after the domain check."""
    check_domain(BoundId.MAIN_SUFFICIENT, a)
    return passthrough_cutoff(a)


@lru_cache
def _half_margin(a: Fraction) -> Fraction:
    return eval_bound(BoundId.MAIN_SUFFICIENT, a) / 2


# Per threshold form: the anchor value (``z`` or ``y``), the slack over it at
# factor a, and whether a tracked good the threshold turns away still goes to
# the heavier side once another tracked good sits on the lighter side.
_ADMISSION = {
    FormKind.FORM1: ("z", _half_margin, False),
    FormKind.FORM2OR4: ("y", _half_margin, True),
    FormKind.FORM3_EARLY_Y: ("z", _half_margin, False),
    FormKind.FORM3_LATE_Y: ("z", lru_cache(late_y_margin), True),
}


class FormThresholdAllocator(ThreeGoodsAllocator):
    """Two identical agents with a prediction vector and target factor a.

    Follows the largest-value-first split of the predictions, but a tracked
    good goes to the heavier side only while its observed value is within its
    form's threshold and fewer than two sit there already.  Goods beyond the
    predicted horizon go to the lighter side; on at most three goods it runs
    the three-goods rule itself.  With prediction error at most the
    ``main-sufficient`` bound at a, the final allocation reaches factor a.
    """

    name = "main"

    def __init__(self, prediction: ValuationVector, a: Fraction):
        a = rat(a)
        self.tag = tag = classify_form(prediction, a)
        if tag.kind is FormKind.THREE_GOODS:
            super().__init__(prediction.horizon)
        else:
            OnlineAllocator.__init__(self, n=self.agents)
        self.low, self.high = tag.low_agent, 1 - tag.low_agent
        self.large_in_high = self.large_in_low = 0
        self.threshold, self.fallback = None, False
        if tag.kind in _ADMISSION:
            anchor, slack, self.fallback = _ADMISSION[tag.kind]
            self.threshold = getattr(tag, anchor) + slack(a)

    def _decide(self, t: int, weights: tuple[int, ...]) -> int:
        if self.tag.kind is FormKind.THREE_GOODS:
            return super()._decide(t, weights)
        if t in self.tag.large:
            th = self.threshold
            admit = (weights[0] * th.denominator <= th.numerator * self.den
                     and self.large_in_high < 2)
            if admit or (self.fallback and self.large_in_low >= 1):
                self.large_in_high += 1
                return self.high
            self.large_in_low += 1
            return self.low
        return self.high if t in self.tag.heavy else self.low


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------

_ALLOCATORS = {
    "greedy-phi": GreedyGoldenThreshold,
    "ef1-lowest": LowestValueBundle,
    "follower:lpt": PredictionFollower,
    "follower:cut-and-choose": PredictionFollower,
    "three-goods": ThreeGoodsAllocator,
    "main": FormThresholdAllocator,
}
ALLOCATOR_NAMES = tuple(_ALLOCATORS)


def make_allocator(name: str, *, n: int, identical: bool,
                   prediction: Optional[ValuationProfile] = None,
                   a: Optional[Fraction] = None) -> OnlineAllocator:
    """Build an allocator by its command-line name, for ``n`` agents whose true
    valuations are ``identical`` or not.

    An allocator whose class fixes ``agents`` is refused at any other n, a
    target factor ``a`` is refused by every allocator but ``main``, the one
    that reads it, and an ``identical_only`` allocator is refused unless the
    true valuations are ``identical``.
    """
    cls = _ALLOCATORS.get(name)
    if cls is None:
        raise ValueError(f"unknown allocator {name!r}; choose from {ALLOCATOR_NAMES}")
    if cls.agents not in (None, n):
        raise ValueError(f"{name} handles exactly {cls.agents} agents, not n={n}")
    if a is not None and name != "main":
        raise ValueError(f"{name} reads no target factor a; only main does")
    if name == "greedy-phi":
        allocator = GreedyGoldenThreshold()
    elif name == "ef1-lowest":
        allocator = LowestValueBundle(n)
    elif name.startswith("follower:"):
        if prediction is None:
            raise ValueError(f"{name} needs a prediction profile")
        allocator = PredictionFollower(prediction, base=name.split(":", 1)[1])
    elif name == "three-goods":
        if prediction is None:
            raise ValueError("three-goods needs the promised horizon from a prediction")
        allocator = ThreeGoodsAllocator(prediction.horizon)
    else:
        if prediction is None or a is None:
            raise ValueError("the form-guided allocator needs a prediction and --a")
        if not prediction.identical:
            raise ValueError("the form-guided allocator needs identical predictions")
        allocator = FormThresholdAllocator(prediction.vector(0), rat(a))
    if cls.identical_only and not identical:
        raise ValueError(f"{name} needs identical true valuations")
    return allocator
