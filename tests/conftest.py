"""Shared strategies and independent oracles for the test suite."""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from onlinefair.adversaries import GoldenStreamAdversary
from onlinefair.core import Allocation, ValuationProfile, ValuationVector, rat_str
from onlinefair.offline import BudgetExceededError
from onlinefair.online import FormKind


def normalized_vector(weights) -> ValuationVector:
    total = sum(weights)
    return ValuationVector(tuple(Fraction(w, total) for w in weights))


@st.composite
def vectors(draw, min_goods=1, max_goods=8, max_weight=12):
    weights = draw(st.lists(st.integers(0, max_weight), min_size=min_goods,
                            max_size=max_goods).filter(lambda w: sum(w) > 0))
    return normalized_vector(weights)


# small primes and primes near 10^9, so value denominators are pairwise coprime
PRIMES = (2, 3, 5, 7, 11, 13, 999999883, 999999893, 999999929, 999999937,
          1000000007, 1000000009, 1000000021)


@st.composite
def coprime_vectors(draw, min_goods=1, max_goods=8):
    """Every good but the last at k/p for a distinct prime p (k may be 0); the
    last good takes the remainder, over the product of those primes."""
    horizon = draw(st.integers(min_goods, max_goods))
    primes = draw(st.permutations(PRIMES))[:horizon - 1]
    head = [Fraction(draw(st.integers(0, p // horizon)), p) for p in primes]
    return ValuationVector(tuple(head) + (1 - sum(head),))


def mixed_vectors(min_goods=1, max_goods=8):
    """Small integer weights (zeros and ties) or large coprime denominators."""
    return st.one_of(vectors(min_goods=min_goods, max_goods=max_goods),
                     coprime_vectors(min_goods=min_goods, max_goods=max_goods))


@st.composite
def identical_profiles(draw, min_agents=2, max_agents=5, min_goods=1, max_goods=8,
                       kind=vectors):
    n = draw(st.integers(min_agents, max_agents))
    return ValuationProfile.identical_from(
        draw(kind(min_goods=min_goods, max_goods=max_goods)), n)


@st.composite
def profiles(draw, min_agents=2, max_agents=4, min_goods=1, max_goods=6, kind=vectors):
    n = draw(st.integers(min_agents, max_agents))
    horizon = draw(st.integers(min_goods, max_goods))
    vecs = tuple(draw(kind(min_goods=horizon, max_goods=horizon)) for _ in range(n))
    return ValuationProfile(vecs)


@st.composite
def allocations_for(draw, profile, prefix=False):
    """An allocation of every good, or with ``prefix`` of the first k goods for a drawn k."""
    goods = draw(st.integers(0, profile.horizon)) if prefix else profile.horizon
    labels = draw(st.lists(st.integers(0, profile.agents - 1), min_size=goods, max_size=goods))
    return Allocation(tuple(labels), profile.agents)


def labelled(bundles, num_goods=None) -> Allocation:
    """The allocation giving agent i the goods of ``bundles[i]``; the bundles
    must partition 0..num_goods-1, by default their total size."""
    bundles = [list(b) for b in bundles]
    if num_goods is None:
        num_goods = sum(map(len, bundles))
    owner = [None] * num_goods
    for i, bundle in enumerate(bundles):
        for g in bundle:
            assert 0 <= g < num_goods and owner[g] is None, f"good {g} is not a free good"
            owner[g] = i
    assert None not in owner, "the bundles leave a good out"
    return Allocation(tuple(owner), len(bundles))


@st.composite
def profile_with_allocation(draw, **kwargs):
    profile = draw(profiles(**kwargs))
    return profile, draw(allocations_for(profile))


# ---------------------------------------------------------------------------
# Independent references: Fraction loops straight from the definitions, sharing
# no code with the library's integer-weight kernel
# ---------------------------------------------------------------------------

def _value(values, bundle) -> Fraction:
    return sum((values[g] for g in bundle), Fraction(0))


def direct_envy(alloc: Allocation, profile: ValuationProfile, drop: str) -> Fraction:
    """Envy factor by subset enumeration: the least, over ordered pairs (i, j)
    with j's bundle nonempty, of i's value for its own bundle over its value for
    j's bundle less one good, and 1 if no such ratio is below 1.

    ``drop="best"`` removes the good maximizing the remainder (up to any
    good); ``drop="worst"`` minimizes it (up to one good).  Independent of the
    library's scorer, ``envy_factor``, which compares each agent only with the
    largest drop under its valuation.
    """
    factor = Fraction(1)
    bundles = alloc.bundles
    for i in range(profile.agents):
        vals = profile.vector(i).values
        own = _value(vals, bundles[i])
        for j, other in enumerate(bundles):
            if i == j or not other:
                continue
            remainders = [_value(vals, other - {g}) for g in other]
            rem = max(remainders) if drop == "best" else min(remainders)
            if rem > 0:
                factor = min(factor, own / rem)
    return factor


def reference_tv_distance(p: ValuationVector, v: ValuationVector) -> Fraction:
    """Half the l1 distance over max(T, T') goods, the shorter side zero-padded."""
    total = Fraction(0)
    for t in range(max(p.horizon, v.horizon)):
        a = p.values[t] if t < p.horizon else 0
        b = v.values[t] if t < v.horizon else 0
        total += abs(a - b)
    return total / 2


def reference_gen_random_vector(horizon: int, rng: random.Random) -> ValuationVector:
    """Random weights in 1..20, each value a Fraction over their sum."""
    weights = [rng.randint(1, 20) for _ in range(horizon)]
    total = sum(weights)
    return ValuationVector(tuple(Fraction(w, total) for w in weights))


def reference_perturb_vector(p: ValuationVector, d: Fraction, rng: random.Random,
                             mode: str) -> ValuationVector:
    """Exact-distance perturbation on Fraction values: remove mass d from
    shuffled positive goods, re-deposit it in drawn chunks on untouched goods,
    appended goods or both, drawing from ``rng`` in the library's order."""
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
    weights = [rng.randint(1, 9) for _ in range(len(targets) + appended)]
    chunks = [d * Fraction(w, sum(weights)) for w in weights]
    for g, c in zip(targets, chunks):
        values[g] += c
    values.extend(chunks[len(targets):])
    if mode == "mixed" and appended == 0:
        while len(values) > 1 and values[-1] == 0:
            values.pop()
    return ValuationVector(tuple(values))


def reference_transcript_dict(transcript) -> dict:
    """The transcript's JSON schema as a dict, built straight from its fields;
    step t's values are the truths' column t."""
    vectors = transcript.truths.vectors
    return {
        "source": transcript.source,
        "allocator": transcript.allocator,
        "seed": transcript.seed,
        "steps": [
            {"t": t, "values": [rat_str(v.values[t]) for v in vectors], "agent": agent}
            for t, agent in enumerate(transcript.choices)
        ],
        "allocation": transcript.allocation.as_lists(),
        "efx_factor": rat_str(transcript.report.efx_factor),
        "ef1_factor": rat_str(transcript.report.ef1_factor),
        "realized_error": (None if transcript.realized_error is None
                           else [rat_str(e) for e in transcript.realized_error]),
    }


def reference_lpt(f: ValuationVector, n: int) -> list[set[int]]:
    """Goods by descending value (ties: lower id first), each to the least-valued
    bundle (ties: lower agent id), found by a linear scan."""
    bundles: list[set[int]] = [set() for _ in range(n)]
    totals = [Fraction(0)] * n
    for g in sorted(range(f.horizon), key=lambda g: (-f.values[g], g)):
        i = min(range(n), key=lambda k: (totals[k], k))
        bundles[i].add(g)
        totals[i] += f.values[g]
    return bundles


def reference_envy_edges(alloc: Allocation, profile: ValuationProfile) -> set:
    """Pairs (i, j) where agent i values j's bundle above its own."""
    edges = set()
    bundles = alloc.bundles
    for i in range(profile.agents):
        vals = profile.vector(i).values
        own = _value(vals, bundles[i])
        for j in range(profile.agents):
            if i != j and own < _value(vals, bundles[j]):
                edges.add((i, j))
    return edges


def reference_sources(alloc: Allocation, profile: ValuationProfile) -> list[int]:
    """Agents nobody envies, in id order."""
    envied = {j for _, j in reference_envy_edges(alloc, profile)}
    return [i for i in range(profile.agents) if i not in envied]


def _stats_envy_factor(bstates) -> Fraction:
    """Envy-up-to-any-good factor from per-(bundle, agent) (sum, min) stats,
    straight from the definition; ``min`` is None for an empty bundle."""
    factor = Fraction(1)
    n = len(bstates)
    for i in range(n):
        own = bstates[i][i][0]
        for j in range(n):
            s, m = bstates[j][i]
            if j != i and m is not None and s - m > 0 and own / (s - m) < factor:
                factor = own / (s - m)
    return factor


def reference_minimax(adversary, node_budget: int = 10 ** 6) -> Fraction:
    """Fraction backward induction over the opponent's branching program.

    Memoizes on (opponent state, bundle stats, t) and calls ``reveal`` and
    ``advance`` at every expanded node, reading each revealed int weight over
    ``adversary.den`` as a ``Fraction``.  A truth-oblivious family is scored
    as the max over every assignment sequence of the min over the family.
    """
    n, horizon = adversary.n, adversary.horizon
    family = getattr(adversary, "oblivious_family", None)
    if family is not None:
        if n ** horizon > node_budget:
            raise BudgetExceededError(f"{n}^{horizon} assignments exceed {node_budget}")
        best = Fraction(-1)
        for assign in itertools.product(range(n), repeat=horizon):
            alloc = Allocation(assign, n)
            best = max(best, min(direct_envy(alloc, truth, "best")
                                 for truth in family()))
        return best

    memo: dict = {}
    nodes = 0

    def rec(astate, bstates, t: int) -> Fraction:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"minimax search exceeded {node_budget} nodes")
        if t == horizon:
            return _stats_envy_factor(bstates)
        key = (astate, bstates, t)
        if key not in memo:
            values = [Fraction(w, adversary.den) for w in adversary.reveal(astate)]
            best = Fraction(-1)
            for d in range(n):
                grown = tuple(
                    tuple((s + values[o], values[o] if m is None else min(m, values[o]))
                          for o, (s, m) in enumerate(obs)) if b == d else obs
                    for b, obs in enumerate(bstates))
                best = max(best, rec(adversary.advance(astate, d), grown, t + 1))
            memo[key] = best
        return memo[key]

    return rec(adversary.start(), (((Fraction(0), None),) * n,) * n, 0)


def reference_golden_length(eps: Fraction) -> int:
    """The golden stream's length, counted up: the smallest m >= 1 with
    m*eps > sqrt(5) - 2, that is (m*eps + 2)^2 > 5."""
    m = 1
    while (m * eps + 2) ** 2 <= 5:
        m += 1
    return m


class ReferenceGoldenStream(GoldenStreamAdversary):
    """The golden stream on its own ``start``, ``reveal`` and ``advance``.

    It streams ``(eps, eps)``, as weights over the library stream's ``den``,
    while one agent holds every good and that agent's total is at most
    sqrt(5) - 2, decided by squaring at every step, and takes its horizon
    from ``reference_golden_length``.  It shares only ``den``, the tail and
    the queue states with the library's golden stream.
    """

    def __init__(self, spec):
        super().__init__(spec)
        self.horizon = reference_golden_length(self.eps) + 3
        step = self.eps * self.den
        assert step.denominator == 1, "den must hold eps exactly"
        self.step = step.numerator

    def start(self):
        return ("open", (0, 0))

    def reveal(self, state):
        if state[0] == "open":
            return (self.step, self.step)
        return super().reveal(state)

    def advance(self, state, agent):
        if state[0] != "open":
            return super().advance(state, agent)
        counts = tuple(c + (i == agent) for i, c in enumerate(state[1]))
        if min(counts) == 0 and (max(counts) * self.eps + 2) ** 2 <= 5:
            return ("open", counts)
        return ("q", self._tail(counts))


def stepped(allocator, stream):
    """Step a fresh ``allocator`` through ``stream``, one tuple of exact values
    (Fractions, ints or ``"p/q"`` strings) per good, and yield the agent each
    good goes to.  Before the first good, ``den`` is set to the lcm of every
    denominator in the whole stream, and each good steps on its values as ints
    over it, as a run steps on ``columns``."""
    stream = [tuple(map(Fraction, values)) for values in stream]
    den = allocator.den = math.lcm(*(v.denominator for values in stream for v in values))
    for values in stream:
        yield allocator.step(tuple([v.numerator * (den // v.denominator) for v in values]))


class ReferenceFractionRules:
    """The online decision rules on Fraction bundle values, as they stood
    before stepping moved to integer weights over one denominator.

    ``allocator`` is a freshly built library allocator.  It is read only for
    its setup (agent count, promised horizon, ``main``'s form, sides and
    threshold) and is never stepped.  ``run`` replays a stream of value tuples
    and returns the decisions of ``greedy-phi``, ``ef1-lowest``,
    ``three-goods`` or ``main``, each comparing Fractions straight from its
    definition.
    """

    def __init__(self, allocator):
        self.allocator = allocator
        self.own = [Fraction(0)] * allocator.n
        self.trailing = None
        self.isolated_first = False
        self.in_high = self.in_low = 0

    def run(self, stream) -> list[int]:
        decisions = []
        for t, values in enumerate(stream):
            values = tuple(Fraction(v) for v in values)
            agent = self.decide(t, values)
            self.own[agent] += values[agent]
            decisions.append(agent)
        return decisions

    def decide(self, t: int, values) -> int:
        own, allocator = self.own, self.allocator
        if allocator.name == "greedy-phi":  # own[0] + v <= (sqrt(5)-1)/2
            return 0 if (2 * (own[0] + values[0]) + 1) ** 2 <= 5 else 1
        if allocator.name == "ef1-lowest":
            return min(range(allocator.n), key=lambda i: (own[i], i))
        if allocator.name == "main" and allocator.tag.kind is not FormKind.THREE_GOODS:
            return self.main(t, values)
        return self.three_goods(t, values)

    def three_goods(self, t: int, values) -> int:
        own = self.own
        if t >= self.allocator.t_pred:
            if self.trailing is None:
                self.trailing = 0 if own[0] <= own[1] else 1
            return self.trailing
        if t == 0:
            return 0
        if t == 1:
            if max(own[0], values[0]) >= 1 - own[0] - values[0]:
                self.isolated_first = True
                return 1
            return 0
        if self.isolated_first:
            return 1 if own[0] >= own[1] else 0
        return 1

    def main(self, t: int, values) -> int:
        allocator = self.allocator
        tag = allocator.tag
        if t in tag.large:
            admit = values[0] <= allocator.threshold and self.in_high < 2
            if admit or (allocator.fallback and self.in_low >= 1):
                self.in_high += 1
                return allocator.high
            self.in_low += 1
            return allocator.low
        return allocator.high if t in tag.heavy else allocator.low
