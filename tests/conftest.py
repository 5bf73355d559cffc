"""Shared strategies and independent oracles for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

from onlinefair.core import Allocation, ValuationProfile, ValuationVector


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
def identical_profiles(draw, min_agents=2, max_agents=5, min_goods=1, max_goods=8):
    n = draw(st.integers(min_agents, max_agents))
    return ValuationProfile.identical_from(
        draw(vectors(min_goods=min_goods, max_goods=max_goods)), n)


@st.composite
def profiles(draw, min_agents=2, max_agents=4, min_goods=1, max_goods=6, kind=vectors):
    n = draw(st.integers(min_agents, max_agents))
    horizon = draw(st.integers(min_goods, max_goods))
    vecs = tuple(draw(kind(min_goods=horizon, max_goods=horizon)) for _ in range(n))
    return ValuationProfile(vecs)


@st.composite
def allocations_for(draw, profile):
    labels = draw(st.lists(st.integers(0, profile.agents - 1),
                           min_size=profile.horizon, max_size=profile.horizon))
    bundles = [set() for _ in range(profile.agents)]
    for g, agent in enumerate(labels):
        bundles[agent].add(g)
    return Allocation.of(bundles, num_goods=profile.horizon)


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


def direct_envy(alloc: Allocation, profile: ValuationProfile, drop: str):
    """Envy factor and its first binding pair (row-major), by subset enumeration.

    ``drop="best"`` removes the good maximizing the remainder (up to any
    good); ``drop="worst"`` minimizes it (up to one good).  The pair is None
    when the factor is 1.  Independent of the library's xset/oset helpers.
    """
    factor, pair = Fraction(1), None
    for i in range(profile.agents):
        vals = profile.vector(i).values
        own = _value(vals, alloc.bundles[i])
        for j in range(profile.agents):
            if i == j or not alloc.bundles[j]:
                continue
            remainders = [_value(vals, alloc.bundles[j] - {g}) for g in alloc.bundles[j]]
            rem = max(remainders) if drop == "best" else min(remainders)
            if rem > 0 and own / rem < factor:
                factor, pair = own / rem, (i, j)
    return factor, pair


def direct_envy_factor(alloc: Allocation, profile: ValuationProfile,
                       drop: str) -> Fraction:
    return direct_envy(alloc, profile, drop)[0]


def reference_tv_distance(p: ValuationVector, v: ValuationVector) -> Fraction:
    """Half the l1 distance over max(T, T') goods, the shorter side zero-padded."""
    total = Fraction(0)
    for t in range(max(p.horizon, v.horizon)):
        a = p.values[t] if t < p.horizon else 0
        b = v.values[t] if t < v.horizon else 0
        total += abs(a - b)
    return total / 2


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
    for i in range(profile.agents):
        vals = profile.vector(i).values
        own = _value(vals, alloc.bundles[i])
        for j in range(profile.agents):
            if i != j and own < _value(vals, alloc.bundles[j]):
                edges.add((i, j))
    return edges
