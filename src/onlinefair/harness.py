"""Game runner, instance generators, and exact perturbation machinery.

Every run is seeded and sequential (the online model is inherently ordered);
transcripts carry enough to replay a run bit-for-bit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .adversaries import Adversary, AdversarySpec, build_adversary
from .core import (
    Allocation,
    FairnessReport,
    Instance,
    ValuationProfile,
    ValuationVector,
    ZERO,
    fairness_report,
    rat,
    rat_str,
    tv_distance,
)
from .online import OnlineAllocator, make_allocator


def _json_list(items: Sequence[str], indent: str) -> str:
    """A JSON array of already-encoded items, laid out as ``json.dumps(indent=2)``
    lays it out on a line indented by ``indent``: one item per line, ``[]`` when empty."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _json_rationals(values: Iterable[Fraction], indent: str) -> str:
    """``_json_list`` of rationals in the ``"p/q"`` wire format."""
    return _json_list([f'"{rat_str(v)}"' for v in values], indent)


@dataclass(frozen=True)
class GameTranscript:
    """Ordered record of one online run.

    ``steps`` holds (good id, per-agent revealed values, chosen agent);
    replaying the steps reproduces ``allocation`` exactly.
    """

    source: str
    allocator: str
    steps: tuple[tuple[int, tuple[Fraction, ...], int], ...]
    allocation: Allocation
    truths: ValuationProfile
    report: FairnessReport
    realized_error: Optional[tuple[Fraction, ...]]
    seed: Optional[int] = None

    def to_json(self) -> str:
        """The transcript as JSON, byte for byte as ``json.dumps(..., indent=2)``
        of the schema ``{source, allocator, seed, steps: [{t, values, agent}],
        allocation, efx_factor, ef1_factor, realized_error}``."""
        steps = _json_list([
            f'{{\n      "t": {t},\n      "values": {_json_rationals(vals, "      ")},'
            f'\n      "agent": {agent}\n    }}'
            for t, vals, agent in self.steps], "  ")
        allocation = _json_list([_json_list([str(g) for g in bundle], "    ")
                                for bundle in self.allocation.as_lists()], "  ")
        realized = ("null" if self.realized_error is None
                    else _json_rationals(self.realized_error, "  "))
        return (f'{{\n  "source": {json.dumps(self.source)},\n'
                f'  "allocator": {json.dumps(self.allocator)},\n'
                f'  "seed": {json.dumps(self.seed)},\n'
                f'  "steps": {steps},\n'
                f'  "allocation": {allocation},\n'
                f'  "efx_factor": "{rat_str(self.report.efx_factor)}",\n'
                f'  "ef1_factor": "{rat_str(self.report.ef1_factor)}",\n'
                f'  "realized_error": {realized}\n}}')


def _finish(source: str, allocator: OnlineAllocator,
            steps: list[tuple[int, tuple[Fraction, ...], int]],
            truths: ValuationProfile,
            predictions: Optional[ValuationProfile],
            seed: Optional[int]) -> GameTranscript:
    alloc = allocator.allocation()
    report = fairness_report(alloc, truths)
    realized = None
    if predictions is not None:
        realized = tuple(tv_distance(predictions.vector(i), truths.vector(i))
                         for i in range(truths.agents))
    return GameTranscript(source=source, allocator=allocator.name, steps=tuple(steps),
                          allocation=alloc, truths=truths, report=report,
                          realized_error=realized, seed=seed)


def run_instance(allocator_name: str, instance: Instance, *,
                 a: Optional[Fraction] = None) -> GameTranscript:
    """Feed an instance's true values through an allocator, in arrival order."""
    truths = instance.truths
    allocator = make_allocator(allocator_name, n=instance.agents,
                               prediction=instance.predictions, a=a)
    if allocator.identical_only and not truths.identical:
        raise ValueError(f"{allocator_name} needs identical true valuations")
    steps = []
    columns = zip(*(v.values for v in truths.vectors))  # per good, its value to each agent
    for t, values in enumerate(columns):
        agent = allocator.step(t, values)
        steps.append((t, values, agent))
    return _finish(f"instance:n={instance.agents}", allocator, steps,
                   truths, instance.predictions, None)


class _RandomWalker(OnlineAllocator):
    """Seeded uniformly random decisions, for exploring a construction's paths."""

    name = "random-walk"

    def __init__(self, n: int, seed: int):
        super().__init__(n)
        self.rng = random.Random(seed)

    def _decide(self, t: int, values: tuple[Fraction, ...]) -> int:
        return self.rng.randrange(self.n)


def _duel(adv: Adversary, allocator: OnlineAllocator,
          seed: Optional[int]) -> GameTranscript:
    """Play one game of ``allocator`` against ``adv`` and check the
    construction's two promises on the path taken: each agent's revealed
    values sum to one, and each agent's realized error lies in the claimed
    interval."""
    state = adv.start()
    steps = []
    for t in range(adv.horizon):
        values = adv.reveal(state)
        agent = allocator.step(t, values)
        steps.append((t, values, agent))
        state = adv.advance(state, agent)
    vectors = []
    for i in range(adv.n):
        vec = tuple(values[i] for _, values, _ in steps)
        total = sum(vec, start=ZERO)
        if total != 1:
            raise AssertionError(
                f"adversary broke its normalization promise for agent {i}: {total}")
        vectors.append(ValuationVector(vec))
    truths = ValuationProfile(tuple(vectors), identical=adv.identical)
    transcript = _finish(f"duel:{adv.construction}", allocator, steps, truths,
                         adv.prediction, seed)
    if transcript.realized_error is not None:
        lo, hi = adv.claimed_error
        for i, e in enumerate(transcript.realized_error):
            if not lo <= e <= hi:
                raise AssertionError(
                    f"agent {i} realized error {e} outside claimed [{lo}, {hi}]")
    return transcript


def run_duel(allocator_name: str, spec: AdversarySpec, *,
             a: Optional[Fraction] = None,
             coerce_identical: bool = False) -> GameTranscript:
    """Pit an allocator against an adaptive construction."""
    adv = build_adversary(spec)
    allocator = make_allocator(allocator_name, n=adv.n, prediction=adv.prediction,
                               a=a, coerce_identical=coerce_identical)
    if allocator.identical_only and not adv.identical and not coerce_identical:
        raise ValueError(f"{allocator_name} expects identical valuations; "
                         f"{spec.construction} is non-identical")
    return _duel(adv, allocator, None)


def random_walk_duel(spec: AdversarySpec, seed: int) -> GameTranscript:
    """Drive a construction with seeded random decisions (path exploration)."""
    adv = build_adversary(spec)
    return _duel(adv, _RandomWalker(adv.n, seed), seed)


def replay(transcript: GameTranscript) -> Allocation:
    """Rebuild the final allocation from recorded steps (determinism check)."""
    n = transcript.truths.agents
    bundles: list[set[int]] = [set() for _ in range(n)]
    for t, _, agent in transcript.steps:
        bundles[agent].add(t)
    return Allocation.of(bundles, num_goods=len(transcript.steps))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_random_vector(horizon: int, rng: random.Random) -> ValuationVector:
    weights = [rng.randint(1, 20) for _ in range(horizon)]
    total = sum(weights)
    return ValuationVector(tuple(Fraction(w, total) for w in weights))


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
    """
    d = rat(d)
    if not 0 <= d <= 1:
        raise ValueError("distance must lie in [0, 1]")
    if mode not in PERTURB_MODES:
        raise ValueError(f"unknown perturbation mode {mode!r}")
    if d == 0:
        return p
    values = list(p.values)
    positive = [g for g in range(len(values)) if values[g] > 0]
    rng.shuffle(positive)
    removed: set[int] = set()
    need = d
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
    chunks = [d * Fraction(w, total_w) for w in weights]
    for g, c in zip(targets, chunks):
        values[g] += c
    values.extend(chunks[len(targets):])
    if mode == "mixed" and appended == 0:
        while len(values) > 1 and values[-1] == 0:
            values.pop()  # realized horizon may shrink below the prediction's
    return ValuationVector(tuple(values))


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
        ValuationVector(v.values + (ZERO,) * (width - v.horizon))
        for v in vecs)
    return ValuationProfile(padded)


def make_instance(predictions: ValuationProfile, truths: ValuationProfile) -> Instance:
    """An instance declaring each agent's realized accuracy 1 - TV(p_i, v_i)."""
    accuracy = tuple(1 - tv_distance(predictions.vector(i), truths.vector(i))
                     for i in range(predictions.agents))
    return Instance(predictions=predictions, truths=truths, declared_accuracy=accuracy)
