"""Game runner, instance generators, and exact perturbation machinery.

Every run is seeded and sequential (the online model is inherently ordered).
A transcript keeps the allocator's allocation, the agent that got each good,
beside the true values, which are the values each step revealed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Optional, Sequence

from .adversaries import Adversary, AdversarySpec, build_adversary
from .core import (
    Allocation,
    FairnessReport,
    Instance,
    ValuationProfile,
    ValuationVector,
    fairness_report,
    make_instance,  # re-exported beside the runners that take its instances
    rat,
    rat_str,
)
from .online import OnlineAllocator, make_allocator


def _json_list(items: Sequence[str], indent: str) -> str:
    """A JSON array of already-encoded items, laid out as ``json.dumps(indent=2)``
    lays it out on a line indented by ``indent``: one item per line, ``[]`` when empty."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


@dataclass(frozen=True)
class GameTranscript:
    """Ordered record of one online run.

    ``allocation`` labels each good with the agent that got it, and
    ``choices`` reads those labels.  The values revealed at good t are the
    truths' column t, so the transcript keeps them once, in ``truths``.
    """

    source: str
    allocator: str
    allocation: Allocation
    truths: ValuationProfile
    report: FairnessReport
    realized_error: Optional[tuple[Fraction, ...]]
    seed: Optional[int] = None

    @property
    def choices(self) -> tuple[int, ...]:
        return self.allocation.owner

    def to_json(self) -> str:
        """The transcript as JSON, byte for byte as ``json.dumps(..., indent=2)``
        of the schema ``{source, allocator, seed, steps: [{t, values, agent}],
        allocation, efx_factor, ef1_factor, realized_error}``.

        A step's values are read from the truths' column; each truth vector's
        distinct values are encoded once, from its int weights."""
        # equal weights have one sum, which is their den, so agents with equal
        # vectors share one encoded column
        encoded: dict[tuple[int, ...], list[str]] = {}
        for v in self.truths.vectors:
            if v.weights not in encoded:
                text = {w: f'"{s}"' for w, s in v.wire_strs().items()}
                encoded[v.weights] = [text[w] for w in v.weights]
        # each good's id is formatted once; a step joins fixed pieces as
        # _json_list lays out a list that is never empty, and zip stops at the
        # last choice, so goods not yet placed are not written
        index = list(map(str, range(len(self.choices))))
        values = [x for v in self.truths.vectors
                  for x in (repeat(",\n        "), encoded[v.weights])][1:]
        closers = [f'\n      ],\n      "agent": {i}\n    }}' for i in range(self.allocation.agents)]
        steps = _json_list(list(map("".join, zip(
            repeat('{\n      "t": '), index, repeat(',\n      "values": [\n        '),
            *values, map(closers.__getitem__, self.choices)))), "  ")
        allocation = _json_list([_json_list(list(map(index.__getitem__, bundle)), "    ")
                                for bundle in self.allocation.as_lists()], "  ")
        realized = ("null" if self.realized_error is None
                    else _json_list([f'"{rat_str(e)}"' for e in self.realized_error], "  "))
        return (f'{{\n  "source": {json.dumps(self.source)},\n'
                f'  "allocator": {json.dumps(self.allocator)},\n'
                f'  "seed": {json.dumps(self.seed)},\n'
                f'  "steps": {steps},\n'
                f'  "allocation": {allocation},\n'
                f'  "efx_factor": "{rat_str(self.report.efx_factor)}",\n'
                f'  "ef1_factor": "{rat_str(self.report.ef1_factor)}",\n'
                f'  "realized_error": {realized}\n}}')


def _finish(source: str, allocator: OnlineAllocator, truths: ValuationProfile,
            realized_error: Optional[tuple[Fraction, ...]],
            seed: Optional[int]) -> GameTranscript:
    alloc = allocator.allocation()
    return GameTranscript(source=source, allocator=allocator.name,
                          allocation=alloc, truths=truths,
                          report=fairness_report(alloc, truths),
                          realized_error=realized_error, seed=seed)


def run_instance(allocator_name: str, instance: Instance, *,
                 a: Optional[Fraction] = None) -> GameTranscript:
    """Feed an instance's true values through an allocator, in arrival order."""
    truths = instance.truths
    allocator = make_allocator(allocator_name, n=instance.agents, identical=truths.identical,
                               prediction=instance.predictions, a=a)
    step = allocator.step
    for weights in allocator.columns(truths):
        step(weights)
    return _finish(f"instance:n={instance.agents}", allocator, truths,
                   instance.realized_error, None)


class _RandomWalker(OnlineAllocator):
    """Seeded uniformly random decisions, for exploring a construction's paths."""

    name = "random-walk"

    def __init__(self, n: int, seed: int):
        super().__init__(n)
        self.rng = random.Random(seed)

    def _decide(self, t: int, weights: tuple[int, ...]) -> int:
        return self.rng.randrange(self.n)


def _duel(adv: Adversary, allocator: OnlineAllocator,
          seed: Optional[int]) -> GameTranscript:
    """Play one game of a fresh ``allocator`` against ``adv`` and check the
    construction's two promises on the path taken: each agent's revealed
    weights sum to ``adv.den``, and each agent's realized error lies in the
    claimed interval.

    The allocator steps on the revealed int weights, over the construction's
    ``den``, fixed before the first good.  The duel keeps one list of weights
    per valuation, one in an identical construction, so its truths are one
    vector shared by every agent and one distance to the prediction."""
    den = allocator.den = adv.den
    columns: list[list[int]] = [[] for _ in range(1 if adv.identical else adv.n)]
    state = adv.start()
    for _ in range(adv.horizon):
        weights = adv.reveal(state)
        for col, w in zip(columns, weights):
            col.append(w)
        state = adv.advance(state, allocator.step(weights))
    vectors = []
    for i, col in enumerate(columns):
        total = sum(col)
        if total != den:
            raise AssertionError(f"adversary broke its normalization promise for agent {i}: "
                                 f"{Fraction(total, den)}")
        vectors.append(ValuationVector.from_weights(den, tuple(col)))
    truths = (ValuationProfile.identical_from(vectors[0], adv.n) if adv.identical
              else ValuationProfile(tuple(vectors)))
    realized = None
    if adv.prediction is not None:
        realized = make_instance(adv.prediction, truths).realized_error
        lo, hi = adv.claimed_error
        for i, e in enumerate(realized):
            if not lo <= e <= hi:
                raise AssertionError(
                    f"agent {i} realized error {e} outside claimed [{lo}, {hi}]")
    return _finish(f"duel:{adv.construction}", allocator, truths, realized, seed)


def run_duel(allocator_name: str, spec: AdversarySpec, *,
             a: Optional[Fraction] = None) -> GameTranscript:
    """Pit an allocator against an adaptive construction inside the allocator's scope."""
    adv = build_adversary(spec)
    allocator = make_allocator(allocator_name, n=adv.n, identical=adv.identical,
                               prediction=adv.prediction, a=a)
    return _duel(adv, allocator, None)


def random_walk_duel(spec: AdversarySpec, seed: int) -> GameTranscript:
    """Drive a construction with seeded random decisions (path exploration)."""
    adv = build_adversary(spec)
    return _duel(adv, _RandomWalker(adv.n, seed), seed)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_random_vector(horizon: int, rng: random.Random) -> ValuationVector:
    """Random weights in 1..20 over their sum, reduced by their gcd."""
    weights = tuple([rng.randint(1, 20) for _ in range(horizon)])
    return ValuationVector.from_weights(sum(weights), weights)


def gen_random_instance(n: int, horizon: int, identical: bool, seed: int
                        ) -> ValuationProfile:
    """Seeded rational simplex sample: random positive integers, normalized."""
    if n < 2 or horizon < 1:
        raise ValueError("need n >= 2 agents and at least one good")
    rng = random.Random(seed)
    if identical:
        return ValuationProfile.identical_from(gen_random_vector(horizon, rng), n)
    return ValuationProfile(tuple(gen_random_vector(horizon, rng) for _ in range(n)))


PERTURB_MODES = ("values", "extra-goods", "mixed")


def perturb_vector(p: ValuationVector, d: Fraction, rng: random.Random,
                   mode: str = "mixed") -> ValuationVector:
    """A normalized vector at total-variation distance exactly ``d`` from ``p``.

    Removes total mass d from a seeded subset of coordinates and re-deposits
    it on a disjoint subset: existing untouched coordinates ("values" mode),
    freshly appended goods ("extra-goods"), or both ("mixed", which may also
    trim a zero tail so the realized horizon can shrink).

    The mass moves on ints: over L = lcm(p.den, d.denominator) while it is
    removed, then over L times the sum of the drawn chunk weights, so each
    chunk is an int; ``from_weights`` reduces the result once by its gcd.
    """
    d = rat(d)
    if not 0 <= d <= 1:
        raise ValueError("distance must lie in [0, 1]")
    if mode not in PERTURB_MODES:
        raise ValueError(f"unknown perturbation mode {mode!r}")
    if d == 0:
        return p
    den = lcm(p.den, d.denominator)
    scale = den // p.den
    values = [w * scale for w in p.weights]
    mass = d.numerator * (den // d.denominator)
    positive = [g for g in range(len(values)) if values[g] > 0]
    rng.shuffle(positive)
    removed: set[int] = set()
    need = mass
    for g in positive:
        if need == 0:
            break
        take = min(need, values[g])
        values[g] -= take
        removed.add(g)
        need -= take
    if need > 0:
        raise ValueError(f"insufficient removable mass for distance {d}")

    untouched = [g for g in range(len(values)) if g not in removed]
    deposit_existing = mode == "values" or (mode == "mixed" and rng.random() < 0.5)
    targets: list[int] = []
    if deposit_existing and untouched:
        rng.shuffle(untouched)
        targets = untouched[:rng.randint(1, min(3, len(untouched)))]
    appended = 0
    if not targets or mode == "extra-goods" or (mode == "mixed" and rng.random() < 0.5):
        appended = rng.randint(1, 3)
    slots = len(targets) + appended
    weights = [rng.randint(1, 9) for _ in range(slots)]
    total_w = sum(weights)
    den *= total_w
    values = [v * total_w for v in values]
    chunks = [mass * w for w in weights]
    for g, c in zip(targets, chunks):
        values[g] += c
    values.extend(chunks[len(targets):])
    if mode == "mixed" and appended == 0:
        while len(values) > 1 and values[-1] == 0:
            values.pop()  # realized horizon may shrink below the prediction's
    return ValuationVector.from_weights(den, tuple(values))


def perturb(profile: ValuationProfile, d: Sequence[Fraction], seed: int,
            mode: str = "mixed") -> ValuationProfile:
    """Per-agent exact-distance perturbation of a prediction profile."""
    ds = [rat(x) for x in d]
    if len(ds) != profile.agents:
        raise ValueError("need one distance per agent")
    rng = random.Random(seed)
    if profile.identical:
        if len(set(ds)) != 1:
            raise ValueError("identical profiles need one common distance")
        vec = perturb_vector(profile.vector(0), ds[0], rng, mode)
        return ValuationProfile.identical_from(vec, profile.agents)
    vecs = [perturb_vector(profile.vector(i), ds[i], rng, mode)
            for i in range(profile.agents)]
    width = max(v.horizon for v in vecs)
    padded = tuple(
        v if v.horizon == width else
        ValuationVector.from_weights(v.den, v.weights + (0,) * (width - v.horizon))
        for v in vecs)
    return ValuationProfile(padded)
