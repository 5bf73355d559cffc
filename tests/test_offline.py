"""Offline procedures and the verification oracles."""

import hashlib
import itertools
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefair import offline
from onlinefair.adversaries import (Adversary, AdversarySpec, FollowerTightAdversary,
                                    build_adversary)
from onlinefair.core import (
    Allocation,
    ValuationProfile,
    ValuationVector,
    fairness_report,
    rat,
)
from onlinefair.harness import (
    gen_random_instance,
    make_instance,
    perturb,
    run_duel,
    run_instance,
)
from onlinefair.offline import (
    BudgetExceededError,
    _best_assignment,
    _compile_opponent,
    brute_force_best_factor,
    cut_and_choose,
    eliminate_envy_cycles,
    lpt,
    minimax_online_factor,
)
from onlinefair.online import ALLOCATOR_NAMES
from onlinefair.verify import DUEL_PLAN

from conftest import (
    coprime_vectors,
    direct_envy,
    identical_profiles,
    mixed_vectors,
    normalized_vector,
    profiles,
    reference_envy_edges,
    reference_minimax,
    reference_sources,
    vectors,
)


def vec(*values):
    return ValuationVector(tuple(rat(v) for v in values))


class TestLpt:
    def test_simple_split(self):
        alloc = lpt(vec("1/2", "1/4", "1/4"), 2)
        assert alloc.as_lists() == [[0], [1, 2]]
        profile = ValuationProfile.identical_from(vec("1/2", "1/4", "1/4"), 2)
        assert fairness_report(alloc, profile).efx_factor == 1

    def test_single_valuable_good(self):
        alloc = lpt(vec("1", "0", "0"), 2)
        assert alloc.as_lists() == [[0], [1, 2]]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_uniform_odd_horizon_shape(self, n):
        t = 2 * n - 1
        alloc = lpt(ValuationVector((F(1, t),) * t), n)
        sizes = sorted(len(b) for b in alloc.bundles)
        assert sizes == [1] + [2] * (n - 1)

    @settings(max_examples=100)
    @given(identical_profiles(max_goods=8))
    def test_exact_on_identical(self, profile):
        alloc = lpt(profile.vector(0), profile.agents)
        assert fairness_report(alloc, profile).efx_factor == 1

    @settings(max_examples=30)
    @given(identical_profiles(max_agents=3, max_goods=7))
    def test_agrees_with_brute_force(self, profile):
        best, _ = brute_force_best_factor(profile)
        assert best == 1


class TestCutAndChoose:
    def test_chooser_prefers_heavier_side(self):
        alloc = cut_and_choose(vec("1/2", "1/4", "1/4"), vec("1/10", "1/10", "8/10"))
        assert 2 in alloc.bundles[1]

    def test_equal_vectors_keep_split(self):
        p = vec("1/2", "1/4", "1/4")
        assert cut_and_choose(p, p).as_lists() == lpt(p, 2).as_lists()

    @settings(max_examples=80)
    @given(st.data())
    def test_exact_under_cutter_and_own_valuations(self, data):
        # exact for both agents under the cutter's vector, and exact when each
        # agent judges by her own vector; the chooser's guarantee under her own
        # vector is what the two-agent follower relies on
        horizon = data.draw(st.integers(1, 7))
        p1 = data.draw(vectors(min_goods=horizon, max_goods=horizon))
        p2 = data.draw(vectors(min_goods=horizon, max_goods=horizon))
        alloc = cut_and_choose(p1, p2)
        assert fairness_report(alloc, ValuationProfile.identical_from(p1, 2)).efx_factor == 1
        assert fairness_report(alloc, ValuationProfile((p1, p2))).efx_factor == 1


class TestEnvyGraph:
    def test_source_kept_unchanged(self):
        profile = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
        alloc = Allocation.of([{0}, {1}], num_goods=2)
        assert eliminate_envy_cycles(alloc, profile) == (alloc, 0)

    def test_two_cycle_swaps_bundles(self):
        # each agent values the other's bundle strictly above its own
        p1 = vec("1/4", "3/4")
        p2 = vec("3/4", "1/4")
        profile = ValuationProfile((p1, p2))
        alloc = Allocation.of([{0}, {1}], num_goods=2)
        assert reference_envy_edges(alloc, profile) == {(0, 1), (1, 0)}
        settled, unenvied = eliminate_envy_cycles(alloc, profile)
        assert settled.as_lists() == [[1], [0]]
        assert not reference_envy_edges(settled, profile)
        assert unenvied == 0

    @settings(max_examples=60)
    @given(profiles(min_agents=4, max_agents=4, min_goods=4, max_goods=8), st.data())
    def test_output_has_a_source_and_bundles_preserved(self, profile, data):
        labels = data.draw(st.lists(st.integers(0, 3), min_size=profile.horizon,
                                    max_size=profile.horizon))
        bundles = [set() for _ in range(4)]
        for g, agent in enumerate(labels):
            bundles[agent].add(g)
        alloc = Allocation.of(bundles, num_goods=profile.horizon)
        settled, unenvied = eliminate_envy_cycles(alloc, profile)
        assert sorted(map(sorted, settled.bundles)) == sorted(map(sorted, alloc.bundles))
        assert unenvied == min(reference_sources(settled, profile))
        # rotations never increase the edge count
        assert (len(reference_envy_edges(settled, profile))
                <= len(reference_envy_edges(alloc, profile)))

    def test_single_rotation_strictly_drops_edges(self):
        # three-agent envy cycle: one rotation removes at least its edges
        vecs = (ValuationVector((F(1, 6), F(1, 2), F(1, 3))),
                ValuationVector((F(1, 3), F(1, 6), F(1, 2))),
                ValuationVector((F(1, 2), F(1, 3), F(1, 6))))
        profile = ValuationProfile(vecs)
        alloc = Allocation.of([{0}, {1}, {2}], num_goods=3)
        before = reference_envy_edges(alloc, profile)
        assert len(before) == 6 and not reference_sources(alloc, profile)
        settled, unenvied = eliminate_envy_cycles(alloc, profile)
        assert len(reference_envy_edges(settled, profile)) < len(before)
        assert unenvied == min(reference_sources(settled, profile))

    def test_unenvied_agent_lowest_source(self):
        profile = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
        envy_free = Allocation.of([{0}, {1}], num_goods=2)
        assert eliminate_envy_cycles(envy_free, profile)[1] == 0

    def test_unenvied_agent_single_edge(self):
        # agent 1 envies agent 0 only, so agent 1 is the unenvied source
        profile = ValuationProfile.identical_from(vec("3/4", "1/4"), 2)
        alloc = Allocation.of([{0}, {1}], num_goods=2)
        assert reference_envy_edges(alloc, profile) == {(1, 0)}
        assert eliminate_envy_cycles(alloc, profile) == (alloc, 1)


def _direct_best(family) -> tuple[F, list[int]]:
    """Independent reference: every assignment scored from the definition by
    its worst factor over ``family``, with the lexicographically first
    maximiser."""
    n, horizon = family[0].agents, family[0].horizon
    best, first = F(-1), None
    for assign in itertools.product(range(n), repeat=horizon):
        alloc = Allocation.of([{g for g in range(horizon) if assign[g] == i}
                               for i in range(n)], num_goods=horizon)
        f = min(direct_envy(alloc, profile, "best") for profile in family)
        if f > best:
            best, first = f, list(assign)
    return best, first


def _seeded_family(seed: int) -> tuple[ValuationProfile, ...]:
    """Two or three profiles over the same goods, from weights 0-8, so zero
    goods and ties are common; some profiles are identical, some general."""
    rng = random.Random(seed)
    n = 2 + seed % 2
    horizon = rng.randint(3, 7 if n == 2 else 5)

    def vector():
        weights = [rng.choice((0, 0, 1, 2, 4, 8)) for _ in range(horizon)]
        weights[rng.randrange(horizon)] += 1
        return normalized_vector(weights)

    return tuple(ValuationProfile.identical_from(vector(), n) if rng.random() < 0.6
                 else ValuationProfile(tuple(vector() for _ in range(n)))
                 for _ in range(2 + seed % 3 // 2))


FAMILY_CASES = (
    [(f"follower-tight-n{n}-a{a}", build_adversary(
        AdversarySpec("follower-tight", F(a), n=n)).oblivious_family())
     for n in (2, 3) for a in ("1/2", "7/10", "9/10")]
    + [(f"follower-tight-n{n}-zero-good", build_adversary(AdversarySpec(
        "follower-tight", F(7, 10), n=n, params={"D": F(1, 2 * n - 1)})).oblivious_family())
       for n in (2, 3)]
    + [(f"seeded-{seed}", _seeded_family(seed)) for seed in range(40)]
    # at good 1 of the first maximiser 0,1,0 no bundle has a positive drop
    # under agent 0's vector, whose goods left are worth 0 to it: no bound
    + [("no-drop-yet", (ValuationProfile((vec(0, 1, 0), vec(0, "3/4", "1/4"))),))])
FAMILIES = [family for _, family in FAMILY_CASES]
FAMILY_IDS = [name for name, _ in FAMILY_CASES]


def _zero_heavy_vector(rng: random.Random, horizon: int) -> ValuationVector:
    """Weights from 0-5 with zeros and ties common, at least one positive."""
    weights = [rng.choice((0, 0, 1, 1, 2, 3, 5)) for _ in range(horizon)]
    weights[rng.randrange(horizon)] += 1
    return normalized_vector(weights)


def _symmetric_family(seed: int) -> tuple[ValuationProfile, ...]:
    """Two or three identical profiles over the same goods, each with its own
    vector: every agent of a profile is alike, so the search relabels bundles
    and may cut on empty ones, but several observers can keep the best
    factor below 1."""
    rng = random.Random(seed)
    n = 3 + seed % 2
    horizon = rng.randint(n - 1, 5)
    return tuple(ValuationProfile.identical_from(_zero_heavy_vector(rng, horizon), n)
                 for _ in range(2 + seed % 3 // 2))


# (agents, goods, seed): identical profiles on 4 and 5 agents, T < n included,
# so more bundles than goods are often left to open and the empty-bundle cut fires
WIDE_CASES = ([(4, horizon, seed) for horizon in range(1, 7) for seed in range(2)]
              + [(5, horizon, seed) for horizon in range(1, 6) for seed in range(2)]
              + [(5, 6, 0)])


class TestBruteForce:
    def test_single_good(self):
        profile = ValuationProfile.identical_from(vec("1"), 2)
        best, witness = brute_force_best_factor(profile)
        assert best == 1

    def test_witness_for_three_goods(self):
        profile = ValuationProfile.identical_from(vec("1/2", "3/10", "1/5"), 2)
        best, witness = brute_force_best_factor(profile)
        assert best == 1
        assert witness.as_lists() == [[0], [1, 2]]

    def test_budget_refusal(self):
        profile = gen_random_instance(5, 12, identical=True, seed=1)
        with pytest.raises(BudgetExceededError):
            brute_force_best_factor(profile, budget=10 ** 6)

    def test_non_identical_enumeration(self):
        profile = ValuationProfile((vec("1/2", "1/2", "0"), vec("0", "1/2", "1/2")))
        best, witness = brute_force_best_factor(profile)
        assert best == 1

    @settings(max_examples=40)
    @given(profiles(max_agents=2, min_goods=2, max_goods=6), st.data())
    def test_dominates_any_specific_allocation(self, profile, data):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=profile.horizon,
                                    max_size=profile.horizon))
        bundles = [set(), set()]
        for g, agent in enumerate(labels):
            bundles[agent].add(g)
        some = Allocation.of(bundles, num_goods=profile.horizon)
        best, _ = brute_force_best_factor(profile)
        assert best >= fairness_report(some, profile).efx_factor

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(profiles(max_agents=3, max_goods=5),
                     identical_profiles(max_agents=3, max_goods=5),
                     profiles(max_agents=3, max_goods=5, kind=mixed_vectors),
                     st.builds(ValuationProfile.identical_from,
                               coprime_vectors(max_goods=5), st.integers(2, 3))))
    def test_matches_direct_enumeration(self, profile):
        factor, witness = brute_force_best_factor(profile)
        owner = {g: i for i, b in enumerate(witness.bundles) for g in b}
        assert (factor, [owner[g] for g in range(profile.horizon)]) == \
            _direct_best((profile,))

    def test_one_agent_refused(self):
        # n^T is 1 for one agent, so the budget alone never refuses it
        profile = ValuationProfile.identical_from(vec("1/2", "1/2"), 1)
        with pytest.raises(ValueError, match="need at least two agents"):
            brute_force_best_factor(profile)

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_pruned_search_matches_direct_enumeration_on_families(self, family):
        # several profiles at once can keep the best factor below 1, so the
        # search prunes against bests that a single profile never leaves
        assert _best_assignment(family) == _direct_best(family)

    def test_families_reach_below_one(self):
        values = [_best_assignment(family)[0] for family in FAMILIES]
        assert sum(0 < v < 1 for v in values) >= len(values) // 3

    @pytest.mark.parametrize("n,horizon,seed", WIDE_CASES,
                             ids=[f"n{n}-T{t}-seed{s}" for n, t, s in WIDE_CASES])
    def test_many_agents_match_direct_enumeration(self, n, horizon, seed):
        rng = random.Random(1000 * n + 10 * horizon + seed)
        profile = ValuationProfile.identical_from(_zero_heavy_vector(rng, horizon), n)
        assert _best_assignment((profile,)) == _direct_best((profile,))

    @pytest.mark.parametrize("seed", range(30))
    def test_symmetric_families_match_direct_enumeration(self, seed):
        # seed 24's best is 0: a leaf that scores 0 must not be cut before the
        # first leaf is scored, or a later 0 becomes the witness
        family = _symmetric_family(seed)
        assert _best_assignment(family) == _direct_best(family)

    def test_scored_leaves_pinned(self, monkeypatch):
        # the leaves the search scores on suite 1's oracle cross-checks and on
        # the twelve brute-force profiles of the `oracle` benchmark; a lost cut
        # scores more (25,829 and 2,612 before the empty-bundle cut, 14,469 and
        # 2,531 before the exact pass, 3,056 and 463 before the mass cap), and
        # every witness stays the same
        rng = random.Random(101)  # suite 1's draws; it checks T <= 8 by brute force
        suite = []
        for _ in range(1000):
            n, horizon = rng.randint(2, 5), rng.randint(1, 12)
            profile = gen_random_instance(n, horizon, identical=True,
                                          seed=rng.randrange(2 ** 30))
            if horizon <= 8:
                suite.append(profile)
        bench = [gen_random_instance(n, horizon, identical, seed)
                 for n, horizon, identical in ((3, 10, False), (3, 11, False),
                                               (3, 14, True), (4, 11, True))
                 for seed in range(3)]
        scored = 0
        score = offline.envy_factor

        def counting(*args):
            nonlocal scored
            scored += 1
            return score(*args)

        monkeypatch.setattr(offline, "envy_factor", counting)
        counts, witnesses = [], []
        for group in (suite, bench):
            scored = 0
            for profile in group:
                factor, witness = brute_force_best_factor(profile)
                assert factor == 1
                witnesses.append(witness.as_lists())
            counts.append(scored)
        assert (len(suite), counts) == (678, [1512, 300])
        assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == \
            "ec27b00c90bd5ef7744a412e8b27a7013e526fce3cb1d0abdeedb8a4a945d132"

    def test_wide_identical_witnesses_pinned(self):
        # factor and witness on deeper identical profiles than suite 1 draws,
        # pinned before the exact pass capped each top at 1/n of the mass
        found = []
        for n, horizon in ((3, 14), (4, 11), (5, 10)):
            for seed in range(10):
                factor, witness = brute_force_best_factor(
                    gen_random_instance(n, horizon, True, seed))
                found.append((str(factor), witness.as_lists()))
        assert hashlib.sha256(repr(found).encode()).hexdigest() == \
            "5da4ad7f09687daf4ea2ab157502b9fefac4bcdd062d9654651c122d1b5ad146"

    @pytest.mark.parametrize("n", [3, 4])
    def test_exact_with_bundles_left_empty(self, n):
        # n - 1 equal goods: every good alone is exact with one bundle empty,
        # and that leaf comes after leaves whose empty bundle scores 0
        profile = ValuationProfile.identical_from(normalized_vector([1] * (n - 1)), n)
        assert _best_assignment((profile,)) == (1, list(range(n - 1)))

    @pytest.mark.parametrize("weights,witness", [
        ([[1, 0, 1, 0, 2]] * 2, [0, 0, 0, 0, 1]),
        ([[3, 0, 0, 1, 2], [0, 1, 3, 3, 1], [1, 0, 2, 1, 2]], [0, 0, 1, 1, 2]),
        ([[0, 1, 1], [0, 1, 1], [0, 0, 1]], [0, 0, 1]),
    ], ids=["identical-n2", "general-n3", "two-equal-rows-n3"])
    def test_exact_cut_keeps_leaves_that_reach_the_top(self, weights, witness):
        # on the first exact leaf one agent's own value ends equal to a top
        # it was compared with higher up, every good left that it values in
        # its bundle: a cut at own + left <= top skips that leaf and returns
        # a later one.  In the two-equal-rows case that top is exactly 2 // 2,
        # the share of the two agents seated at the shared vector, so a mass
        # cap one lower skips the leaf too
        profile = ValuationProfile(tuple(normalized_vector(w) for w in weights))
        assert _best_assignment((profile,)) == _direct_best((profile,)) == (1, witness)

    @pytest.mark.parametrize("seed", range(20))
    def test_general_three_agents_match_direct_enumeration(self, seed):
        # each agent its own vector, with zero goods and ties common
        rng = random.Random(seed)
        horizon = rng.randint(2, 6)
        profile = ValuationProfile(tuple(_zero_heavy_vector(rng, horizon) for _ in range(3)))
        assert _best_assignment((profile,)) == _direct_best((profile,))

    @pytest.mark.parametrize("seed", range(30))
    def test_two_equal_rows_match_direct_enumeration(self, seed):
        # agents 0 and 1 share a vector and agent 2 has its own, so bundles
        # are not interchangeable but two agents sit at one observer; zero
        # goods and ties are common.  Odd seeds add a second such profile
        # over the same goods, which can keep the best below 1.
        rng = random.Random(seed)
        horizon = rng.randint(2, 6)
        family = []
        for _ in range(1 + seed % 2):
            pair = _zero_heavy_vector(rng, horizon)
            other = _zero_heavy_vector(rng, horizon)
            while other.weights == pair.weights:
                other = _zero_heavy_vector(rng, horizon)
            family.append(ValuationProfile((pair, pair, other)))
        assert _best_assignment(tuple(family)) == _direct_best(tuple(family))


class _CrossedPair:
    """Two agents, then ``pad`` zero-valued goods.  Good 0 is worth 1 to agent
    0 and 2 to agent 1; good 1 is worth 3 to whoever took good 0 and nothing
    to the other.  Giving good 1 to the other agent is exact until a zero good
    arrives; then one bundle's whole value counts against its envier.  It
    reveals the values themselves as weights, over a ``den`` of 1."""

    n = 2
    den = 1

    def __init__(self, pad: int):
        self.horizon = 2 + pad

    def start(self):
        return None

    def reveal(self, state):
        if state is None:
            return 1, 2
        if state == "zeros":
            return 0, 0
        return tuple(3 * (i == state) for i in range(2))

    def advance(self, state, agent):
        return agent if state is None else "zeros"


class _EmptyHanded:
    """Three agents, then ``pad`` zero-valued goods, over a ``den`` of 1.
    Goods 0 and 1 are worth 4 to everyone.  Good 2 is worth 1 to an agent
    holding no good, and to every other agent 16 if that agent is agent 0,
    else 8.  With one good each, a zero good costs least in good 2's bundle
    when agent 1 or 2 holds it (1/2); every line that puts it in bundle 0,
    or a zero good in every bundle, scores 1/4."""

    n = 3
    den = 1

    def __init__(self, pad: int):
        self.horizon = 3 + pad

    def start(self):
        return ()  # the agent that took each good so far

    def reveal(self, state):
        if len(state) < 2:
            return 4, 4, 4
        if len(state) == 3:
            return 0, 0, 0
        empty = min({0, 1, 2} - set(state))
        return tuple(1 if i == empty else 16 if empty == 0 else 8 for i in range(3))

    def advance(self, state, agent):
        return state + (agent,) if len(state) < 3 else state


class _StaggeredOpening(Adversary):
    """An identical opponent whose opening goods differ in value, so agents
    with equal counts hold different bundles mid-opening.  Its tail is one
    good of value 1 per agent that took no opening good, plus one; every
    value is a multiple of 1/9."""

    def __init__(self, n: int, opening: tuple):
        super().__init__(SimpleNamespace(n=n), len(opening) + n, 9, opening)

    def _tail(self, counts):
        return (self.den,) * (counts.count(0) + 1)


class TestMinimaxOracle:
    @pytest.mark.parametrize("n,opening,value", [
        (3, (F(2, 9), F(1, 9), F(1, 3)), F(2, 3)),
        (3, (F(2, 9), F(8, 9), F(1, 9), F(5, 9)), F(9, 10)),
        (4, (F(2, 9), F(4, 9), F(1, 9)), F(7, 9)),
    ])
    def test_relabelled_search_matches_reference_mid_opening(self, n, opening, value):
        # agents with equal counts but different bundles are each searched
        adv = _StaggeredOpening(n, opening)
        assert minimax_online_factor(adv) == reference_minimax(adv) == value

    def test_non_adaptive_equals_brute_force(self):
        # fixed-truth opponent: the oracle must match exhaustive search
        spec = AdversarySpec("follower-tight", F(7, 10), n=2,
                             params={"lo": 0, "hi": 1, "D": F(1, 5)})
        adv = build_adversary(spec)
        value = minimax_online_factor(adv)
        (truth,) = adv.oblivious_family()
        best, _ = brute_force_best_factor(truth)
        assert value == best

    def test_adaptive_value_below_target(self):
        spec = AdversarySpec("two-value-2", F(4, 5), params={"eps": F(11, 100)})
        value = minimax_online_factor(build_adversary(spec))
        assert value < F(4, 5)

    def test_golden_stream_value_below_target(self):
        spec = AdversarySpec("no-pred-2-identical", F(19, 20),
                             params={"lam": F(33, 100)})
        value = minimax_online_factor(build_adversary(spec))
        assert value < F(19, 20)
        assert value == F(301, 433)  # frozen from the memoized search

    def test_long_golden_stream_collapses_under_memoization(self):
        # 51 promised rounds; the decision tree has 2^51 leaves but few states
        spec = AdversarySpec("no-pred-2-identical", F(7, 10),
                             params={"lam": F(1, 50)})
        value = minimax_online_factor(build_adversary(spec))
        assert value == F(12, 19) < F(7, 10)  # the greedy threshold plays optimally

    @pytest.mark.parametrize("construction,a,params,budget,value", [
        ("no-pred-2-identical", F(7, 10), {"lam": F(1, 100)}, 577, F(38, 61)),
        ("no-pred-2-general", F(1, 10), {}, 491, F(1, 38)),
        ("no-pred-2-identical", F(31, 50), {}, 5_773, F(12379602, 20024599)),
        ("no-pred-2-identical", F(7, 10), {"lam": F(1, 4000)}, 22_675, F(3778, 6111)),
    ], ids=["golden-stream-98-goods", "asymmetric-stream-42-goods", "golden-stream-964-goods",
            "golden-stream-3781-goods"])
    def test_zero_padding_searched_once(self, construction, a, params, budget, value):
        # each sink state's zero-valued tail is settled in its last round, so
        # the search grows linearly with the stream; each budget is the fewest
        # nodes the search needs; it keeps its own stack, so a horizon past
        # the recursion limit is searched
        adv = build_adversary(AdversarySpec(construction, a, params=params))
        assert minimax_online_factor(adv, node_budget=budget) == value
        with pytest.raises(BudgetExceededError):
            minimax_online_factor(adv, node_budget=budget - 1)

    @pytest.mark.parametrize("pad", range(6))
    def test_zero_padding_scored_exactly(self, pad):
        # the crossed pair leaves both agents envious, so every zero good
        # lowers the factor: it may be settled early, never skipped
        adv = _CrossedPair(pad)
        value = minimax_online_factor(adv)
        assert value == reference_minimax(adv) == (F(2, 3) if pad else F(1))

    @pytest.mark.parametrize("pad", range(5))
    def test_zero_tail_goes_to_the_bundle_it_costs_least(self, pad):
        # a sink's zero goods all go to the one bundle where they cost least,
        # here never bundle 0, and none to the other bundles
        adv = _EmptyHanded(pad)
        value = minimax_online_factor(adv)
        assert value == reference_minimax(adv) == (F(1, 2) if pad else F(1))

    @pytest.mark.parametrize("n,value", [(9, F(4, 17)), (10, F(9, 38))])
    def test_many_agents_zero_tail_settled_in_one_round(self, n, value):
        # n - 2 or n - 1 zero goods end every path; settling them in one round
        # keeps the search under 10^4 nodes (178,089 at n = 9 when each
        # placement of them was expanded)
        adv = build_adversary(AdversarySpec("pred-n-identical", F(1, 2), n=n))
        assert minimax_online_factor(adv, node_budget=10 ** 4) == value

    @pytest.mark.parametrize("construction,n,value", [
        ("pred-n-identical", 5, F(2, 9)),
        ("pred-n-identical", 6, F(5, 22)),
        ("two-value-n", 8, F(8, 19)),
    ])
    def test_many_identical_agents_under_the_default_budget(self, construction, n, value):
        # one agent is tried per class of equal (count, bundle stats); the search
        # over every agent label agrees given 10^8 nodes, and at n = 6 it runs
        # past the default 10^6
        adv = build_adversary(AdversarySpec(construction, F(1, 2), n=n))
        assert minimax_online_factor(adv) == value

    def test_forwarding_proxy_is_searched_as_its_opponent(self):
        # a proxy that forwards attribute lookups, as a tracer wraps an
        # opponent, exposes the relabelling hook and compiles the same tables
        class Forwarding:
            def __init__(self, adversary):
                self._adversary = adversary

            def __getattr__(self, name):
                return getattr(self._adversary, name)

        adv = build_adversary(AdversarySpec("no-pred-2-identical", F(7, 10),
                                            params={"lam": F(1, 50)}))
        tables = _compile_opponent(Forwarding(adv), 10 ** 6)
        assert tables == _compile_opponent(adv, 10 ** 6)
        assert len(tables[1]) == 98  # canonical states only
        assert minimax_online_factor(Forwarding(adv)) == F(12, 19)

    def test_budget_enforced(self):
        spec = AdversarySpec("pred-2-identical", F(7, 10))
        with pytest.raises(BudgetExceededError):
            minimax_online_factor(build_adversary(spec), node_budget=3)

    def test_budget_enforced_on_truth_oblivious_path(self):
        # 3^5 assignment sequences against a family of 20 truths: refused up front
        spec = AdversarySpec("follower-tight", F(7, 10), n=3)
        with pytest.raises(BudgetExceededError):
            minimax_online_factor(build_adversary(spec), node_budget=3)


class TestFollowerTightFamilyOnDemand:
    """The truth-oblivious family of (2n-1)(2n-2) profiles is built only when
    the oracle reads it, after its budget check."""

    @pytest.fixture
    def truths_built(self, monkeypatch):
        calls = []
        truth = FollowerTightAdversary._truth

        def counted(self, lo, hi):
            calls.append((lo, hi))
            return truth(self, lo, hi)

        monkeypatch.setattr(FollowerTightAdversary, "_truth", counted)
        return calls

    def test_a_duel_builds_no_truth(self, truths_built):
        transcript = run_duel("ef1-lowest", AdversarySpec("follower-tight", F(7, 10), n=200))
        assert transcript.truths.horizon == 399
        assert truths_built == []

    def test_an_over_budget_family_is_refused_before_it_is_built(self, truths_built):
        adv = build_adversary(AdversarySpec("follower-tight", F(7, 10), n=60))
        with pytest.raises(BudgetExceededError,
                           match=r"^60\^119 assignments exceed the node budget 1000000$"):
            minimax_online_factor(adv)
        assert truths_built == []

    def test_the_oracle_builds_the_family_once(self, truths_built):
        adv = build_adversary(AdversarySpec("follower-tight", F(7, 10)))
        assert minimax_online_factor(adv) == F(7, 27)
        # one truth per ordered pair of the three targets, and no other
        assert truths_built == [(i, j) for i in range(3) for j in range(3) if i != j]


# (id, construction, agent counts, params): every construction, follower-tight
# with and without explicit targets (adaptive vs truth-oblivious path); n = 5
# where the reference search takes about a second per value (pred-n-identical
# takes 12 s there, so its n = 5 and 6 values are pinned in TestMinimaxOracle)
REFERENCE_GRID = (
    ("golden-stream", "no-pred-2-identical", (2,), {}),
    ("golden-stream-lam", "no-pred-2-identical", (2,), {"lam": F(1, 20)}),
    ("triple-split", "no-pred-3-identical", (3, 4, 5), {}),
    ("asymmetric-stream", "no-pred-2-general", (2,), {}),
    ("follower-tight-oblivious", "follower-tight", (2, 3), {}),
    ("follower-tight-targets", "follower-tight", (2, 3), {"lo": 1, "hi": 0}),
    ("follower-tight-targets-D", "follower-tight", (3,), {"lo": 0, "hi": 4, "D": F(1, 5)}),
    ("mirrored-pair", "pred-2-general", (2,), {}),
    ("identical-predicted", "pred-2-identical", (2,), {}),
    ("many-agents-predicted", "pred-n-identical", (3, 4), {}),
    ("two-value-pair", "two-value-2", (2,), {}),
    ("two-value-many", "two-value-n", (3, 4, 5), {}),
)
REFERENCE_AS = (F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(3, 4), F(4, 5), F(9, 10), F(1))


def _outcome(fn):
    try:
        return fn()
    except (ValueError, BudgetExceededError) as exc:
        return type(exc)


@pytest.mark.parametrize("construction,ns,params", [case[1:] for case in REFERENCE_GRID],
                         ids=[case[0] for case in REFERENCE_GRID])
def test_minimax_matches_reference(construction, ns, params):
    # equal exact values, or the same exception type, across a grid of a and n
    values = 0
    for n in ns:
        for a in REFERENCE_AS:
            try:
                adv = build_adversary(AdversarySpec(construction, a, n=n, params=params))
            except ValueError:
                continue
            got = _outcome(lambda: minimax_online_factor(adv))
            want = _outcome(lambda: reference_minimax(adv))
            assert got == want, (n, a)
            values += isinstance(want, F)
    assert values, "no point of the grid reached the search"


@pytest.mark.parametrize("spec,allocator,a", DUEL_PLAN,
                         ids=[f"{spec.construction}-{alloc}" for spec, alloc, _ in DUEL_PLAN])
def test_duel_factor_at_most_minimax_value(spec, allocator, a):
    # minimax is the best factor any deterministic online algorithm can force
    value = minimax_online_factor(build_adversary(spec))
    assert run_duel(allocator, spec, a=a).report.efx_factor <= value


# allocator: (agents, identical valuations, prediction horizons, perturbation
# mode or None when the allocator reads no prediction, allocator target a);
# a perturbation appends at most three goods, so every truth has T <= 8
ONLINE_RUNS = {
    "greedy-phi": (2, True, range(1, 9), None, None),
    "ef1-lowest": (3, False, range(1, 9), None, None),
    "follower:lpt": (3, True, range(1, 6), "mixed", None),
    "follower:cut-and-choose": (2, False, range(1, 6), "mixed", None),
    "three-goods": (2, True, range(1, 4), "values", None),
    "main": (2, True, range(1, 6), "extra-goods", F(4, 5)),
}


@pytest.mark.parametrize("allocator", ALLOCATOR_NAMES)
def test_online_factor_at_most_brute_force(allocator):
    # the brute force maximizes over every allocation, the online one included
    n, identical, horizons, mode, a = ONLINE_RUNS[allocator]
    for horizon in horizons:
        for seed in range(4):
            predictions = gen_random_instance(n, horizon, identical, seed)
            truths = (predictions if mode is None else
                      perturb(predictions, [F(1, 20)] * n, seed, mode))
            assert truths.horizon <= 8
            transcript = run_instance(allocator, make_instance(predictions, truths), a=a)
            best, _ = brute_force_best_factor(truths)
            assert transcript.report.efx_factor <= best, (horizon, seed)
