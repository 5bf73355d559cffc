"""Online allocators: goods arrive one at a time and are placed irrevocably.

Five allocators share one stepping contract:

* a golden-ratio greedy threshold (two identical agents, no predictions),
* the lowest-bundle baseline (exact EF1 at every prefix, identical agents),
* a prediction follower that precomputes an offline allocation and obeys it,
* a short-horizon allocator that is exact whenever at most three goods are
  promised and all of them arrive,
* a form-guided threshold allocator for two identical agents that classifies
  the predicted split and admits goods to the heavier side only while their
  observed values stay inside exact error margins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .bounds import BoundId, eval_bound
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
        self.planned = settled

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
        self.v0: Fraction = ZERO
        self.v1: Fraction = ZERO
        self.isolated_first = False
        self.trailing_target: Optional[int] = None

    def _decide(self, t: int, values: tuple[Fraction, ...]) -> int:
        v = values[0]
        if t >= self.t_pred:
            if self.trailing_target is None:
                sums = [self.own_value[0], self.own_value[1]]
                self.trailing_target = 0 if sums[0] <= sums[1] else 1
            self.last_step_ops = 1
            return self.trailing_target
        if t == 0:
            self.v0 = v
            self.last_step_ops = 0
            return 0
        if t == 1:
            self.v1 = v
            residual = 1 - self.v0 - self.v1
            self.last_step_ops = 2
            if max(self.v0, self.v1) >= residual:
                self.isolated_first = True
                return 1
            return 0
        # t == 2, promised horizon 3
        self.last_step_ops = 1
        if self.isolated_first:
            # keep the single highest good alone in its bundle
            return 1 if self.v0 >= self.v1 else 0
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

    ``z`` and ``y`` are the top two distinct predicted values; the level sets
    partition good ids by those values.  ``low_agent`` records which original
    agent holds the lighter predicted bundle, and ``large`` the ids whose
    placement is decided by runtime thresholds.
    """

    kind: FormKind
    z: Optional[Fraction]
    y: Optional[Fraction]
    level_z: frozenset[int]
    level_y: frozenset[int]
    level_x: frozenset[int]
    large: frozenset[int]
    low_agent: int


def passthrough_cutoff(a: Fraction) -> Fraction:
    """Lighter-bundle weight above which the predicted split is already safe."""
    return (4 + a - a * a) / ((2 + a) * (5 - a))


def late_y_margin(a: Fraction) -> Fraction:
    """Tighter admission slack used when the mid good trails both top goods."""
    return (1 - a) ** 2 / ((2 + a) * (5 - a))


def _check_target_factor(a: Fraction) -> Fraction:
    a = rat(a)
    if not (cmp_golden(a) > 0 and a <= 1):
        raise ValueError(
            "target factor must lie in (phi-1, 1]: need a^2 + a - 1 > 0 and a <= 1")
    return a


def classify_form(planned: Allocation, p: ValuationVector, a: Fraction) -> FormTag:
    """Classify a two-agent balanced split of the predictions for a target factor.

    ``planned`` must be exactly the deterministic largest-value-first output
    for ``p``; anything else is rejected as inconsistent input.
    """
    a = _check_target_factor(a)
    if planned.agents != 2:
        raise ValueError("form classification is a two-agent notion")
    if planned != lpt(p, 2):
        raise ValueError("allocation is not the largest-value-first output of p")

    b0, b1 = planned.bundles
    low = 0 if p.weight(b0) <= p.weight(b1) else 1
    light, heavy = planned.bundles[low], planned.bundles[1 - low]

    w = p.weights
    wz = max(w)
    level_z = frozenset(g for g in range(p.horizon) if w[g] == wz)
    below = [x for x in w if x < wz]
    wy = max(below) if below else None
    level_y = frozenset(g for g in range(p.horizon) if w[g] == wy)
    level_x = frozenset(range(p.horizon)) - level_z - level_y
    z = Fraction(wz, p.den)
    y = None if wy is None else Fraction(wy, p.den)

    def tag(kind: FormKind, large: frozenset[int]) -> FormTag:
        return FormTag(kind=kind, z=z, y=y, level_z=level_z, level_y=level_y,
                       level_x=level_x, large=large, low_agent=low)

    if a == 1 or p.value(light) >= passthrough_cutoff(a):
        return tag(FormKind.PASSTHROUGH, frozenset())
    if p.horizon <= 3:
        return tag(FormKind.THREE_GOODS, frozenset())
    if len(heavy) == 1:
        return tag(FormKind.SINGLETON_HIGH, frozenset())
    if len(heavy) != 2:
        raise ValueError("heavier bundle of a sub-cutoff split must hold two goods")

    heavy_z = heavy & level_z
    heavy_y = heavy & level_y
    if len(heavy_z) == 2:
        large = level_z
        if len(level_z) != 3 or len(light & level_z) != 1:
            raise ValueError("inconsistent top-level structure for a two-top split")
        return tag(FormKind.FORM1, large)
    if len(heavy_z) == 1 and len(heavy_y) == 1:
        if len(level_z) != 2 or len(level_y) != 1:
            raise ValueError("inconsistent structure for a top+mid split")
        large = level_z | level_y
        y_id = next(iter(level_y))
        late = y_id > max(level_z)
        return tag(FormKind.FORM3_LATE_Y if late else FormKind.FORM3_EARLY_Y, large)
    if len(heavy_z) == 0:
        if len(level_z) != 1 or not (level_z <= light):
            raise ValueError("inconsistent structure for a mid-level split")
        large = heavy | level_z
        return tag(FormKind.FORM2OR4, large)
    raise ValueError("heavier bundle pairs the top good with a sub-mid good; "
                     "not a reachable balanced split")


class FormThresholdAllocator(OnlineAllocator):
    """Two identical agents with a prediction vector and target factor a.

    Precomputes the balanced predicted split, classifies its form, then per
    arriving good performs a constant number of comparisons: tracked heavy
    goods are admitted to the heavier side while their observed value stays
    within the form's margin (and fewer than two sit there already), all other
    goods go to the lighter side.  With prediction error at most the
    ``main-sufficient`` bound at a, the final allocation reaches factor a.
    """

    name = "main"
    identical_only = True

    def __init__(self, prediction: ValuationVector, a: Fraction):
        super().__init__(n=2)
        self.a = _check_target_factor(a)
        self.t_pred = prediction.horizon
        self.delegate: Optional[ThreeGoodsAllocator] = None
        if self.t_pred <= 3:
            self.delegate = ThreeGoodsAllocator(self.t_pred)
            self.tag = None
            return

        planned = lpt(prediction, 2)
        tag = classify_form(planned, prediction, self.a)
        self.tag = tag
        self.low = tag.low_agent
        self.high = 1 - tag.low_agent
        self.owner = {g: i for i, b in enumerate(planned.bundles) for g in b}
        self.large_in_high = 0
        self.large_in_low = 0

        margin = eval_bound(BoundId.MAIN_SUFFICIENT, self.a)
        if tag.kind is FormKind.FORM1:
            self.threshold = tag.z + margin / 2
            self.fallback = False
        elif tag.kind is FormKind.FORM2OR4:
            self.threshold = tag.y + margin / 2
            self.fallback = True
        elif tag.kind is FormKind.FORM3_EARLY_Y:
            self.threshold = tag.z + margin / 2
            self.fallback = False
        elif tag.kind is FormKind.FORM3_LATE_Y:
            self.threshold = tag.z + late_y_margin(self.a)
            self.fallback = True
        else:
            self.threshold = None
            self.fallback = False

    def _decide(self, t: int, values: tuple[Fraction, ...]) -> int:
        if self.delegate is not None:
            agent = self.delegate.step(t, values)
            self.last_step_ops = self.delegate.last_step_ops
            return agent
        assert self.tag is not None
        kind = self.tag.kind
        if kind in (FormKind.PASSTHROUGH, FormKind.SINGLETON_HIGH):
            self.last_step_ops = 1
            return self.owner.get(t, self.low)
        if t in self.tag.large:
            self.last_step_ops = 3
            admit = values[0] <= self.threshold and self.large_in_high < 2
            if admit or (self.fallback and self.large_in_low >= 1):
                self.large_in_high += 1
                return self.high
            self.large_in_low += 1
            return self.low
        self.last_step_ops = 1
        return self.low


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
