"""Offline procedures and the verification oracles."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefair.adversaries import AdversarySpec, build_adversary
from onlinefair.core import (
    Allocation,
    ValuationProfile,
    ValuationVector,
    efx_factor,
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
    brute_force_best_factor,
    cut_and_choose,
    eliminate_envy_cycles,
    envy_graph,
    lpt,
    minimax_online_factor,
    unenvied_agent,
)
from onlinefair.online import ALLOCATOR_NAMES
from onlinefair.verify import DUEL_PLAN

from conftest import (
    coprime_vectors,
    direct_envy_factor,
    identical_profiles,
    mixed_vectors,
    profiles,
    reference_minimax,
    vectors,
)


def vec(*values):
    return ValuationVector(tuple(rat(v) for v in values))


class TestLpt:
    def test_simple_split(self):
        alloc = lpt(vec("1/2", "1/4", "1/4"), 2)
        assert alloc.as_lists() == [[0], [1, 2]]
        profile = ValuationProfile.identical_from(vec("1/2", "1/4", "1/4"), 2)
        assert efx_factor(alloc, profile) == 1

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
        assert efx_factor(alloc, profile) == 1

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
        assert efx_factor(alloc, ValuationProfile.identical_from(p1, 2)) == 1
        assert efx_factor(alloc, ValuationProfile((p1, p2))) == 1


class TestEnvyGraph:
    def test_source_kept_unchanged(self):
        profile = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
        alloc = Allocation.of([{0}, {1}], num_goods=2)
        assert eliminate_envy_cycles(alloc, profile) == alloc

    def test_two_cycle_swaps_bundles(self):
        # each agent values the other's bundle strictly above its own
        p1 = vec("1/4", "3/4")
        p2 = vec("3/4", "1/4")
        profile = ValuationProfile((p1, p2))
        alloc = Allocation.of([{0}, {1}], num_goods=2)
        settled = eliminate_envy_cycles(alloc, profile)
        assert settled.as_lists() == [[1], [0]]
        assert not envy_graph(settled, profile).edges

    @settings(max_examples=60)
    @given(profiles(min_agents=4, max_agents=4, min_goods=4, max_goods=8), st.data())
    def test_output_acyclic_and_bundles_preserved(self, profile, data):
        labels = data.draw(st.lists(st.integers(0, 3), min_size=profile.horizon,
                                    max_size=profile.horizon))
        bundles = [set() for _ in range(4)]
        for g, agent in enumerate(labels):
            bundles[agent].add(g)
        alloc = Allocation.of(bundles, num_goods=profile.horizon)
        settled = eliminate_envy_cycles(alloc, profile)
        assert sorted(map(sorted, settled.bundles)) == sorted(map(sorted, alloc.bundles))
        graph = envy_graph(settled, profile)
        assert graph.sources()
        # rotations never increase the edge count
        assert len(graph.edges) <= len(envy_graph(alloc, profile).edges)

    def test_single_rotation_strictly_drops_edges(self):
        # three-agent envy cycle: one rotation removes at least its edges
        vecs = (ValuationVector((F(1, 6), F(1, 2), F(1, 3))),
                ValuationVector((F(1, 3), F(1, 6), F(1, 2))),
                ValuationVector((F(1, 2), F(1, 3), F(1, 6))))
        profile = ValuationProfile(vecs)
        alloc = Allocation.of([{0}, {1}, {2}], num_goods=3)
        before = envy_graph(alloc, profile)
        assert len(before.edges) == 6 and not before.sources()
        settled = eliminate_envy_cycles(alloc, profile)
        after = envy_graph(settled, profile)
        assert len(after.edges) < len(before.edges)
        assert after.sources()

    def test_unenvied_agent_lowest_source(self):
        profile = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
        envy_free = Allocation.of([{0}, {1}], num_goods=2)
        assert unenvied_agent(envy_free, profile) == 0

    def test_unenvied_agent_single_edge(self):
        # agent 1 envies agent 0 only, so agent 1 is the unenvied source
        profile = ValuationProfile.identical_from(vec("3/4", "1/4"), 2)
        alloc = Allocation.of([{0}, {1}], num_goods=2)
        graph = envy_graph(alloc, profile)
        assert graph.edges == {(1, 0)}
        assert unenvied_agent(alloc, profile) == 1

    def test_unenvied_agent_rejects_cycles(self):
        p1 = vec("1/4", "3/4")
        p2 = vec("3/4", "1/4")
        profile = ValuationProfile((p1, p2))
        alloc = Allocation.of([{0}, {1}], num_goods=2)
        with pytest.raises(ValueError):
            unenvied_agent(alloc, profile)


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
        # independent reference: every assignment scored from the definition;
        # the witness is the lexicographically first maximiser
        n, horizon = profile.agents, profile.horizon
        best, first = F(-1), None
        for assign in itertools.product(range(n), repeat=horizon):
            alloc = Allocation.of([{g for g in range(horizon) if assign[g] == i}
                                   for i in range(n)], num_goods=horizon)
            f = direct_envy_factor(alloc, profile, "best")
            if f > best:
                best, first = f, assign
        factor, witness = brute_force_best_factor(profile)
        assert factor == best
        owner = {g: i for i, b in enumerate(witness.bundles) for g in b}
        assert tuple(owner[g] for g in range(horizon)) == first


class TestMinimaxOracle:
    def test_non_adaptive_equals_brute_force(self):
        # fixed-truth opponent: the oracle must match exhaustive search
        spec = AdversarySpec("follower-tight", F(7, 10), n=2,
                             params={"lo": 0, "hi": 1, "D": F(1, 5)})
        adv = build_adversary(spec)
        value = minimax_online_factor(adv)
        best, _ = brute_force_best_factor(adv.truth)
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

    def test_budget_enforced(self):
        spec = AdversarySpec("pred-2-identical", F(7, 10))
        with pytest.raises(BudgetExceededError):
            minimax_online_factor(build_adversary(spec), node_budget=3)

    def test_budget_enforced_on_truth_oblivious_path(self):
        # 3^5 assignment sequences against a family of 20 truths: refused up front
        spec = AdversarySpec("follower-tight", F(7, 10), n=3)
        with pytest.raises(BudgetExceededError):
            minimax_online_factor(build_adversary(spec), node_budget=3)


# (id, construction, agent counts, params): every construction, follower-tight
# with and without explicit targets (adaptive vs truth-oblivious path)
REFERENCE_GRID = (
    ("golden-stream", "no-pred-2-identical", (2,), {}),
    ("golden-stream-lam", "no-pred-2-identical", (2,), {"lam": F(1, 20)}),
    ("triple-split", "no-pred-3-identical", (3, 4), {}),
    ("asymmetric-stream", "no-pred-2-general", (2,), {}),
    ("follower-tight-oblivious", "follower-tight", (2, 3), {}),
    ("follower-tight-targets", "follower-tight", (2, 3), {"lo": 1, "hi": 0}),
    ("follower-tight-targets-D", "follower-tight", (3,), {"lo": 0, "hi": 4, "D": F(1, 5)}),
    ("mirrored-pair", "pred-2-general", (2,), {}),
    ("identical-predicted", "pred-2-identical", (2,), {}),
    ("many-agents-predicted", "pred-n-identical", (3, 4), {}),
    ("two-value-pair", "two-value-2", (2,), {}),
    ("two-value-many", "two-value-n", (3, 4), {}),
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
    try:
        value = minimax_online_factor(build_adversary(spec))
    except BudgetExceededError:
        pytest.skip("minimax search over the default budget")
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
