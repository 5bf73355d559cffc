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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .bounds import BoundId, check_domain, eval_bound, late_y_margin, passthrough_cutoff
from .core import (
    Allocation,
    ValuationProfile,
    ValuationVector,
    ZERO,
    cmp_golden,
    rat,
)
from .offline import cut_and_choose, eliminate_envy_cycles, lpt, unenvied_agent


class OnlineAllocator:
    """Single-run stateful allocator; goods must arrive in index order."""

    name = "abstract"
    identical_only = False

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least two agents")
        self.n = n
        self.next_t = 0
        self.bundles: list[set[int]] = [set() for _ in range(n)]
        self.own_value: list[Fraction] = [ZERO] * n
        self.last_step_ops = 0

    def step(self, t: int, values: tuple[Fraction, ...]) -> int:
        if t != self.next_t:
            raise ValueError(f"good {t} arrived out of order (expected {self.next_t})")
        values = tuple(rat(v) for v in values)
        if len(values) != self.n:
            raise ValueError("need one revealed value per agent")
        if any(v.numerator < 0 for v in values):
            raise ValueError("revealed values must be nonnegative")
        agent = self._decide(t, values)
        self.bundles[agent].add(t)
        self.own_value[agent] += values[agent]
        self.next_t += 1
        return agent

    def allocation(self) -> Allocation:
        return Allocation.of([set(b) for b in self.bundles], num_goods=self.next_t)

    def _decide(self, t: int, values: tuple[Fraction, ...]) -> int:
        raise NotImplementedError


class GreedyGoldenThreshold(OnlineAllocator):
    """Feed agent 0 while it stays at or below (sqrt(5)-1)/2; overflow to agent 1.

    For two agents with identical normalized valuations the final allocation
    is within the golden-ratio factor of envy-freeness up to any good.
    """

    name = "greedy-phi"
    identical_only = True

    def __init__(self):
        super().__init__(n=2)

    def _decide(self, t: int, values: tuple[Fraction, ...]) -> int:
        self.last_step_ops = 1
        if cmp_golden(self.own_value[0] + values[0]) <= 0:
            return 0
        return 1


class LowestValueBundle(OnlineAllocator):
    """Give each good to an agent whose own bundle is currently least valued.

    Ties break by lowest agent id.  With identical valuations every prefix
    allocation is exactly envy-free up to one good; the own-value rule also
    runs unchanged on non-identical streams (baseline duty only).
    """

    name = "ef1-lowest"
    identical_only = False

    def _decide(self, t: int, values: tuple[Fraction, ...]) -> int:
        self.last_step_ops = self.n
        return min(range(self.n), key=lambda i: (self.own_value[i], i))


class PredictionFollower(OnlineAllocator):
    """Precompute an offline split of the predictions and follow it blindly.

    The base procedure must be exact on the predictions (largest-value-first
    for identical agents, cut-and-choose for two non-identical ones).  Envy
    cycles are rotated away first so some agent is unenvied; goods beyond the
    predicted horizon go to that agent, predicted goods to their precomputed
    owner, true values ignored throughout.
    """

    name = "follower"
    identical_only = False

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
        settled = eliminate_envy_cycles(planned, prediction)
        self.unenvied = unenvied_agent(settled, prediction)
        self.owner = {g: i for i, b in enumerate(settled.bundles) for g in b}

    def _decide(self, t: int, values: tuple[Fraction, ...]) -> int:
        self.last_step_ops = 1
        return self.owner.get(t, self.unenvied)


class ThreeGoodsAllocator(OnlineAllocator):
    """Two identical agents, at most three goods promised.

    Needs only the promised horizon, no predicted values.  If exactly the
    promised goods arrive the result is exact regardless of prediction
    quality; any late unpromised value degrades the factor gracefully.
    """

    name = "three-goods"
    identical_only = True

    def __init__(self, predicted_horizon: int):
        super().__init__(n=2)
        if not 1 <= predicted_horizon <= 3:
            raise ValueError("promised horizon must be 1, 2, or 3")
        self.t_pred = predicted_horizon
        self.isolated_first = False
        self.trailing_target: Optional[int] = None

    def _decide(self, t: int, values: tuple[Fraction, ...]) -> int:
        own = self.own_value
        if t >= self.t_pred:
            if self.trailing_target is None:
                self.trailing_target = 0 if own[0] <= own[1] else 1
            self.last_step_ops = 1
            return self.trailing_target
        if t == 0:
            self.last_step_ops = 0
            return 0
        if t == 1:  # good 0 is agent 0's whole bundle
            v0, v1 = own[0], values[0]
            self.last_step_ops = 2
            if max(v0, v1) >= 1 - v0 - v1:
                self.isolated_first = True
                return 1
            return 0
        # t == 2, promised horizon 3
        self.last_step_ops = 1
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
    """
    a = rat(a)
    check_domain(BoundId.MAIN_SUFFICIENT, a)
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
    if a == 1 or p.value(light) >= passthrough_cutoff(a):
        return FormTag(FormKind.PASSTHROUGH, z, y, heavy, frozenset(), low)
    if len(heavy) == 1:
        return FormTag(FormKind.SINGLETON_HIGH, z, y, heavy, frozenset(), low)
    if len(heavy) != 2:
        raise ValueError("heavier bundle of a sub-cutoff split must hold two goods")

    level_z = frozenset(g for g in range(p.horizon) if w[g] == wz)
    level_y = frozenset(g for g in range(p.horizon) if w[g] == wy)
    if len(heavy & level_z) == 2:
        if len(level_z) != 3 or len(light & level_z) != 1:
            raise ValueError("inconsistent top-level structure for a two-top split")
        return FormTag(FormKind.FORM1, z, y, heavy, level_z, low)
    if len(heavy & level_z) == 1 and len(heavy & level_y) == 1:
        if len(level_z) != 2 or len(level_y) != 1:
            raise ValueError("inconsistent structure for a top+mid split")
        kind = FormKind.FORM3_LATE_Y if max(level_y) > max(level_z) else FormKind.FORM3_EARLY_Y
        return FormTag(kind, z, y, heavy, level_z | level_y, low)
    if not heavy & level_z:
        if len(level_z) != 1 or not (level_z <= light):
            raise ValueError("inconsistent structure for a mid-level split")
        return FormTag(FormKind.FORM2OR4, z, y, heavy, heavy | level_z, low)
    raise ValueError("heavier bundle pairs the top good with a sub-mid good; "
                     "not a reachable balanced split")


def _half_margin(a: Fraction) -> Fraction:
    return eval_bound(BoundId.MAIN_SUFFICIENT, a) / 2


# Per threshold form: the anchor value (``z`` or ``y``), the slack over it at
# factor a, and whether a tracked good the threshold turns away still goes to
# the heavier side once another tracked good sits on the lighter side.
_ADMISSION = {
    FormKind.FORM1: ("z", _half_margin, False),
    FormKind.FORM2OR4: ("y", _half_margin, True),
    FormKind.FORM3_EARLY_Y: ("z", _half_margin, False),
    FormKind.FORM3_LATE_Y: ("z", late_y_margin, True),
}


class FormThresholdAllocator(OnlineAllocator):
    """Two identical agents with a prediction vector and target factor a.

    Follows the largest-value-first split of the predictions, but a tracked
    good goes to the heavier side only while its observed value is within its
    form's threshold and fewer than two sit there already.  Goods beyond the
    predicted horizon go to the lighter side; a horizon of at most three goods
    is left to the three-goods rule.  With prediction error at most the
    ``main-sufficient`` bound at a, the final allocation reaches factor a.
    """

    name = "main"
    identical_only = True

    def __init__(self, prediction: ValuationVector, a: Fraction):
        super().__init__(n=2)
        a = rat(a)
        self.tag = tag = classify_form(prediction, a)
        self.delegate = (ThreeGoodsAllocator(prediction.horizon)
                         if tag.kind is FormKind.THREE_GOODS else None)
        self.low, self.high = tag.low_agent, 1 - tag.low_agent
        self.large_in_high = self.large_in_low = 0
        self.threshold, self.fallback = None, False
        if tag.kind in _ADMISSION:
            anchor, slack, self.fallback = _ADMISSION[tag.kind]
            self.threshold = getattr(tag, anchor) + slack(a)

    def _decide(self, t: int, values: tuple[Fraction, ...]) -> int:
        if self.delegate is not None:
            agent = self.delegate.step(t, values)
            self.last_step_ops = self.delegate.last_step_ops
            return agent
        if t in self.tag.large:
            self.last_step_ops = 3
            admit = values[0] <= self.threshold and self.large_in_high < 2
            if admit or (self.fallback and self.large_in_low >= 1):
                self.large_in_high += 1
                return self.high
            self.large_in_low += 1
            return self.low
        self.last_step_ops = 1
        return self.high if t in self.tag.heavy else self.low


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------

ALLOCATOR_NAMES = (
    "greedy-phi",
    "ef1-lowest",
    "follower:lpt",
    "follower:cut-and-choose",
    "three-goods",
    "main",
)


def make_allocator(name: str, *, n: int,
                   prediction: Optional[ValuationProfile] = None,
                   a: Optional[Fraction] = None,
                   coerce_identical: bool = False) -> OnlineAllocator:
    """Build an allocator by its command-line name.

    ``coerce_identical`` lets identical-only allocators run on non-identical
    input by adopting agent 0's view; useful for scope-limit experiments, the
    guarantees do not carry over.
    """
    if name == "greedy-phi":
        if n != 2:
            raise ValueError("greedy-phi handles exactly two agents")
        return GreedyGoldenThreshold()
    if name == "ef1-lowest":
        return LowestValueBundle(n)
    if name in ("follower:lpt", "follower:cut-and-choose"):
        if prediction is None:
            raise ValueError(f"{name} needs a prediction profile")
        base = name.split(":", 1)[1]
        if base == "lpt" and coerce_identical and not prediction.identical:
            prediction = ValuationProfile.identical_from(prediction.vector(0), n)
        return PredictionFollower(prediction, base=base)
    if name == "three-goods":
        if n != 2:
            raise ValueError("three-goods handles exactly two agents")
        if prediction is None:
            raise ValueError("three-goods needs the promised horizon from a prediction")
        return ThreeGoodsAllocator(prediction.horizon)
    if name == "main":
        if n != 2:
            raise ValueError("the form-guided allocator handles exactly two agents")
        if prediction is None or a is None:
            raise ValueError("the form-guided allocator needs a prediction and --a")
        if not prediction.identical and not coerce_identical:
            raise ValueError("the form-guided allocator needs identical predictions")
        return FormThresholdAllocator(prediction.vector(0), rat(a))
    raise ValueError(f"unknown allocator {name!r}; choose from {ALLOCATOR_NAMES}")
