"""Online allocators: traces, guarantees, and form classification."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefair.bounds import BoundId, eval_bound
from onlinefair.core import (
    Allocation,
    ValuationProfile,
    ValuationVector,
    cmp_golden,
    ef1_factor,
    efx_factor,
    rat,
)
from onlinefair.harness import gen_random_instance, make_instance, perturb, run_instance
from onlinefair.offline import lpt
from onlinefair.online import (
    FormKind,
    FormThresholdAllocator,
    GreedyGoldenThreshold,
    LowestValueBundle,
    PredictionFollower,
    ThreeGoodsAllocator,
    classify_form,
    make_allocator,
    passthrough_cutoff,
)

from conftest import identical_profiles, vectors


def vec(*values):
    return ValuationVector(tuple(rat(v) for v in values))


def run_identical(allocator, values):
    decisions = []
    for t, v in enumerate(values):
        decisions.append(allocator.step(t, (rat(v),) * allocator.n))
    return decisions


class TestStepContract:
    def test_out_of_order_rejected(self):
        alloc = LowestValueBundle(2)
        alloc.step(0, (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            alloc.step(2, (F(1, 2), F(1, 2)))

    def test_negative_value_rejected(self):
        alloc = LowestValueBundle(2)
        with pytest.raises(ValueError):
            alloc.step(0, (F(1, 2), F(-1, 2)))

    def test_partition_maintained(self):
        alloc = LowestValueBundle(3)
        for t in range(5):
            alloc.step(t, (F(1, 5),) * 3)
        a = alloc.allocation()
        assert sum(len(b) for b in a.bundles) == 5


class TestGreedyGoldenThreshold:
    def test_trace_fills_then_overflows(self):
        g = GreedyGoldenThreshold()
        assert run_identical(g, ["3/10", "3/10", "2/10", "2/10"]) == [0, 0, 1, 1]

    def test_trace_two_halves(self):
        g = GreedyGoldenThreshold()
        assert run_identical(g, ["1/2", "1/2"]) == [0, 1]
        profile = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
        assert efx_factor(g.allocation(), profile) == 1

    def test_trace_overflow_twice(self):
        g = GreedyGoldenThreshold()
        assert run_identical(g, ["2/5", "3/10", "3/10"]) == [0, 1, 1]
        profile = ValuationProfile.identical_from(vec("2/5", "3/10", "3/10"), 2)
        assert efx_factor(g.allocation(), profile) == 1

    @settings(max_examples=120)
    @given(vectors(max_goods=10))
    def test_factor_at_least_golden(self, v):
        g = GreedyGoldenThreshold()
        run_identical(g, v.values)
        profile = ValuationProfile.identical_from(v, 2)
        f = efx_factor(g.allocation(), profile)
        assert cmp_golden(f) >= 0  # exactly (2f+1)^2 >= 5


class TestLowestValueBundle:
    def test_uniform_round_robin_shape(self):
        n = 3
        a = LowestValueBundle(n)
        decisions = run_identical(a, [F(1, 5)] * 5)
        assert decisions == [0, 1, 2, 0, 1]

    def test_single_good(self):
        a = LowestValueBundle(2)
        assert run_identical(a, [F(1)]) == [0]

    @settings(max_examples=100)
    @given(identical_profiles(max_goods=10))
    def test_every_prefix_exactly_ef1(self, profile):
        a = LowestValueBundle(profile.agents)
        bundles = [set() for _ in range(profile.agents)]
        for t in range(profile.horizon):
            agent = a.step(t, (profile.vector(0).values[t],) * profile.agents)
            bundles[agent].add(t)
            prefix = Allocation.of([set(b) for b in bundles], num_goods=t + 1)
            assert ef1_factor(prefix, profile) == 1


class TestPredictionFollower:
    def test_zero_error_is_exact(self):
        p = gen_random_instance(3, 7, identical=True, seed=5)
        instance = make_instance(p, p)
        transcript = run_instance("follower:lpt", instance)
        assert transcript.report.efx_factor == 1

    def test_extra_zero_goods_change_nothing(self):
        p = ValuationProfile.identical_from(vec("1/2", "1/4", "1/4"), 2)
        padded = ValuationProfile.identical_from(vec("1/2", "1/4", "1/4", "0", "0"), 2)
        base = run_instance("follower:lpt", make_instance(p, p))
        extended = run_instance("follower:lpt", make_instance(p, padded))
        assert extended.report.efx_factor == base.report.efx_factor == 1

    def test_extras_go_to_unenvied_agent(self):
        p = ValuationProfile.identical_from(vec("1/3", "1/3", "1/3"), 2)
        follower = PredictionFollower(p, base="lpt")
        # goods beyond the promised horizon land with the unenvied agent
        assert follower.owner == {0: 0, 2: 0, 1: 1}
        assert follower.unenvied == 1
        decisions = run_identical(follower, ["1/4", "1/4", "1/4", "1/4"])
        assert decisions == [0, 1, 0, 1]

    def test_follower_bound_needs_min_bundle_mass(self):
        # documented boundary: with empty predicted bundles (more agents than
        # promised goods), appended goods land with an empty unenvied agent
        # and another empty agent ends at factor 0, below the closed-form
        # bound; the bound is valid once every predicted bundle carries at
        # least 1/(2n-1) of the mass
        p = ValuationProfile.identical_from(vec("1/2", "1/2"), 4)
        truths = ValuationProfile.identical_from(
            vec("9/20", "9/20", "1/20", "1/20"), 4)
        instance = make_instance(p, truths)
        transcript = run_instance("follower:lpt", instance)
        d = F(1, 10)
        bound = (1 - 7 * d) / (1 + 7 * d)
        assert transcript.report.efx_factor == 0 < bound

    @settings(max_examples=60)
    @given(st.data())
    def test_bound_holds_with_mass_precondition(self, data):
        n = data.draw(st.integers(2, 4))
        p_vec = data.draw(vectors(min_goods=2 * n - 1, max_goods=10))
        profile = ValuationProfile.identical_from(p_vec, n)
        planned = lpt(p_vec, n)
        lightest = min(p_vec.value(b) for b in planned.bundles)
        if lightest < F(1, 2 * n - 1):
            return  # outside the bound's valid region
        d = data.draw(st.integers(0, 50))
        d = F(d, 1000)
        truths = perturb(profile, [d] * n, seed=data.draw(st.integers(0, 2 ** 20)))
        transcript = run_instance("follower:lpt", make_instance(profile, truths))
        bound = (1 - (2 * n - 1) * d) / (1 + (2 * n - 1) * d)
        assert transcript.report.efx_factor >= bound


class TestThreeGoods:
    def test_isolates_middle_good(self):
        a = ThreeGoodsAllocator(3)
        assert run_identical(a, ["1/5", "1/2", "3/10"]) == [0, 1, 0]
        profile = ValuationProfile.identical_from(vec("1/5", "1/2", "3/10"), 2)
        assert efx_factor(a.allocation(), profile) == 1

    def test_residual_dominates(self):
        a = ThreeGoodsAllocator(3)
        assert run_identical(a, ["2/5", "1/10", "1/2"]) == [0, 0, 1]
        profile = ValuationProfile.identical_from(vec("2/5", "1/10", "1/2"), 2)
        assert efx_factor(a.allocation(), profile) == 1

    def test_rejects_long_promises(self):
        with pytest.raises(ValueError):
            ThreeGoodsAllocator(4)

    @settings(max_examples=120)
    @given(st.data())
    def test_exact_when_promise_kept(self, data):
        horizon = data.draw(st.integers(1, 3))
        v = data.draw(vectors(min_goods=horizon, max_goods=horizon))
        a = ThreeGoodsAllocator(horizon)
        run_identical(a, v.values)
        profile = ValuationProfile.identical_from(v, 2)
        assert efx_factor(a.allocation(), profile) == 1

    @settings(max_examples=120)
    @given(st.data())
    def test_trailing_mass_degrades_gracefully(self, data):
        target = F(data.draw(st.integers(0, 100)), 100)
        budget = (1 - target) / (1 + target)
        trailing = budget * F(data.draw(st.integers(0, 100)), 100)
        t_pred = data.draw(st.integers(1, 3))
        head_w = data.draw(st.lists(st.integers(1, 9), min_size=t_pred, max_size=t_pred))
        tail_w = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        head = [F(w) * (1 - trailing) / sum(head_w) for w in head_w]
        tail = [F(w) * trailing / sum(tail_w) for w in tail_w]
        values = tuple(head + tail)
        a = ThreeGoodsAllocator(t_pred)
        run_identical(a, values)
        profile = ValuationProfile.identical_from(ValuationVector(values), 2)
        assert efx_factor(a.allocation(), profile) >= target


class TestClassifyForm:
    def test_passthrough_when_light_bundle_heavy_enough(self):
        p = vec("3/10", "3/10", "1/5", "1/5")
        tag = classify_form(p, F(7, 10))
        assert tag.kind is FormKind.PASSTHROUGH
        assert passthrough_cutoff(F(7, 10)) == F(421, 1161)

    def test_three_goods_horizon(self):
        p = vec("7/10", "1/5", "1/10")
        tag = classify_form(p, F(7, 10))
        assert tag.kind is FormKind.THREE_GOODS
        # the horizon decides first, even where the split would pass through
        assert classify_form(p, F(1)).kind is FormKind.THREE_GOODS
        assert tag.heavy == tag.large == frozenset()

    def test_singleton_heavy_bundle(self):
        p = vec("2/3", "1/12", "1/12", "1/12", "1/12")
        tag = classify_form(p, F(7, 10))
        assert tag.kind is FormKind.SINGLETON_HIGH
        assert tag.heavy == {0} and tag.large == frozenset()

    def test_form1_two_top_goods_opposite(self):
        p = vec("33/100", "33/100", "33/100", "1/100")
        tag = classify_form(p, F(7, 10))
        assert tag.kind is FormKind.FORM1
        assert tag.large == {0, 1, 2}
        assert tag.z == F(33, 100)

    def test_form2or4_mid_pair(self):
        p = vec("34/100", "33/100", "32/100", "1/100")
        tag = classify_form(p, F(7, 10))
        assert tag.kind is FormKind.FORM2OR4
        assert tag.large == {0, 1, 2}
        assert tag.y == F(33, 100)

    def test_form3_split_on_arrival_order(self):
        late = vec("355/1000", "355/1000", "285/1000", "5/1000")
        tag = classify_form(late, F(7, 10))
        assert tag.kind is FormKind.FORM3_LATE_Y
        early = vec("355/1000", "285/1000", "355/1000", "5/1000")
        tag = classify_form(early, F(7, 10))
        assert tag.kind is FormKind.FORM3_EARLY_Y

    def test_rejects_target_at_or_below_golden(self):
        p = vec("1/2", "1/4", "1/4")
        with pytest.raises(ValueError):
            classify_form(p, F(3, 5))


class TestFormThresholdAllocator:
    def test_exact_target_follows_planned_split(self):
        p = gen_random_instance(2, 9, identical=True, seed=11)
        transcript = run_instance("main", make_instance(p, p), a=F(1))
        planned = lpt(p.vector(0), 2)
        got = sorted(map(sorted, transcript.allocation.bundles))
        assert got == sorted(map(sorted, planned.bundles))
        assert transcript.report.efx_factor == 1

    def test_rejects_factor_outside_range(self):
        p = vec("1/2", "1/4", "1/4")
        with pytest.raises(ValueError):
            FormThresholdAllocator(p, F(3, 5))
        with pytest.raises(ValueError):
            FormThresholdAllocator(p, F(11, 10))

    def test_constant_work_per_step(self):
        rng = random.Random(3)
        weights = [rng.randint(1, 30) for _ in range(400)]
        total = sum(weights)
        p = ValuationVector(tuple(F(w, total) for w in weights))
        allocator = FormThresholdAllocator(p, F(4, 5))
        ops = []
        for t in range(400):
            allocator.step(t, (p.values[t],) * 2)
            ops.append(allocator.last_step_ops)
        assert max(ops) <= 4  # bounded regardless of horizon

    @pytest.mark.parametrize("a", [F(2, 3), F(4, 5)])
    def test_guarantee_under_margin(self, a):
        rng = random.Random(77)
        d_max = eval_bound(BoundId.MAIN_SUFFICIENT, a)
        for trial in range(60):
            p = gen_random_instance(2, rng.randint(2, 12), identical=True,
                                    seed=rng.randrange(2 ** 30))
            d = d_max * F(rng.randint(0, 100), 100)
            truths = perturb(p, [d, d], seed=rng.randrange(2 ** 30),
                             mode=("values", "extra-goods", "mixed")[trial % 3])
            transcript = run_instance("main", make_instance(p, truths), a=a)
            assert transcript.report.efx_factor >= a

    @pytest.mark.parametrize("a", [F(5, 8), F(7, 10), F(4, 5), F(19, 20)])
    def test_guarantee_on_targeted_form_structures(self, a):
        # random simplex draws land in the passthrough branch almost always,
        # so the threshold branches get structured instances built to hit them
        rng = random.Random(4242)
        d_max = eval_bound(BoundId.MAIN_SUFFICIENT, a)
        cutoff = passthrough_cutoff(a)
        kinds_seen = set()
        lo = (1 - cutoff) / 2
        for trial in range(120):
            shape = trial % 4
            if shape == 0:  # three equal top goods, small tail
                z = lo + (F(1, 3) - lo) * F(rng.randint(40, 99), 100)
                tail = 1 - 3 * z
                vec = ValuationVector((z, z, z, tail * F(1, 3), tail * F(2, 3)))
            elif shape == 1:  # single top good, two mid goods opposite
                y = lo + (F(1, 3) - lo) * F(rng.randint(40, 99), 100)
                rest = 1 - 2 * y
                z = y + (rest - y) * F(rng.randint(1, 50), 100)
                vec = ValuationVector((y, z, y, rest - z))
            else:  # top+mid heavy pair, late or early mid arrival
                z = cutoff - F(rng.randint(1, 20), 2000)
                tail = F(rng.randint(1, 40), 10000)
                y = 1 - 2 * z - tail
                if not 0 < y < z:
                    continue
                order = (z, z, y, tail) if shape == 2 else (z, y, z, tail)
                vec = ValuationVector(order)
            allocator = FormThresholdAllocator(vec, a)
            kinds_seen.add(allocator.tag.kind)
            p = ValuationProfile.identical_from(vec, 2)
            d = d_max * F(rng.randint(0, 100), 100)
            truths = perturb(p, [d, d], seed=rng.randrange(2 ** 30),
                             mode=("values", "extra-goods", "mixed")[trial % 3])
            transcript = run_instance("main", make_instance(p, truths), a=a)
            assert transcript.report.efx_factor >= a
        assert {FormKind.FORM1, FormKind.FORM2OR4, FormKind.FORM3_EARLY_Y,
                FormKind.FORM3_LATE_Y} <= kinds_seen

    @pytest.mark.parametrize("a", [F(7, 10), F(4, 5)])
    def test_guarantee_at_knife_edge_shifts(self, a):
        # error concentrated on one tracked good, straddling the admission
        # threshold and sitting exactly on the full error budget
        d_max = eval_bound(BoundId.MAIN_SUFFICIENT, a)
        cutoff = passthrough_cutoff(a)
        z = cutoff - F(1, 1000)
        tail = F(1, 500)
        y = 1 - 2 * z - tail
        vec = ValuationVector((z, z, y, tail))
        p = ValuationProfile.identical_from(vec, 2)
        tiny = F(1, 10 ** 9)
        for delta in (d_max, d_max / 2, d_max / 2 + tiny, d_max / 2 - tiny):
            for sign in (1, -1):
                for target in range(4):
                    for sink in range(4):
                        if sink == target:
                            continue
                        vals = list(vec.values)
                        vals[target] += sign * delta
                        vals[sink] -= sign * delta
                        if min(vals) < 0:
                            continue
                        truths = ValuationProfile.identical_from(
                            ValuationVector(tuple(vals)), 2)
                        transcript = run_instance(
                            "main", make_instance(p, truths), a=a)
                        assert transcript.report.efx_factor >= a

    def test_form1_threshold_rejects_inflated_top_good(self):
        p = vec("13/40", "13/40", "13/40", "1/40")
        a = F(4, 5)
        allocator = FormThresholdAllocator(p, a)
        assert allocator.tag.kind is FormKind.FORM1
        margin = eval_bound(BoundId.MAIN_SUFFICIENT, a)
        inflated = F(13, 40) + F(11, 500)  # 11/500 exceeds margin/2 = 26/1323
        assert inflated > F(13, 40) + margin / 2
        rest = 1 - inflated - 2 * F(13, 40)
        decisions = run_identical(allocator, [inflated, F(13, 40), F(13, 40), rest])
        # first top good overshoots, goes to the light side; other two admitted
        light, heavy = allocator.low, allocator.high
        assert decisions == [light, heavy, heavy, light]

    @pytest.mark.parametrize("a", [F(2, 3), F(7, 10), F(4, 5)])
    def test_plan_following_forms_match_the_lpt_follower(self, a):
        # passthrough and singleton-high splits track no goods, so main places
        # every good like the largest-value-first follower, extra goods included
        rng = random.Random(31)
        kinds = set()
        for trial in range(120):
            horizon = rng.randint(4, 10)
            if trial % 2:
                p = gen_random_instance(2, horizon, identical=True,
                                        seed=rng.randrange(2 ** 30))
            else:  # one good outweighs all others together: a singleton heavy side
                top = F(rng.randint(65, 95), 100)
                rest = [rng.randint(1, 9) for _ in range(horizon - 1)]
                values = [(1 - top) * F(w, sum(rest)) for w in rest]
                values.insert(rng.randrange(horizon), top)
                p = ValuationProfile.identical_from(ValuationVector(tuple(values)), 2)
            kind = classify_form(p.vector(0), a).kind
            assert kind in (FormKind.PASSTHROUGH, FormKind.SINGLETON_HIGH)
            kinds.add(kind)
            d = F(rng.randint(1, 30), 100)
            truth = perturb(p, [d, d], seed=rng.randrange(2 ** 30),
                            mode=("values", "extra-goods", "mixed")[trial % 3]).vector(0)
            if trial % 4 == 0:  # trim the last good, its value moved to an earlier one
                values = list(truth.values[:-1])
                values[rng.randrange(len(values))] += truth.values[-1]
                truth = ValuationVector(tuple(values))
            instance = make_instance(p, ValuationProfile.identical_from(truth, 2))
            assert (run_instance("main", instance, a=a).allocation
                    == run_instance("follower:lpt", instance).allocation)
        assert kinds == {FormKind.PASSTHROUGH, FormKind.SINGLETON_HIGH}


def test_make_allocator_validations():
    p2 = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
    with pytest.raises(ValueError):
        make_allocator("greedy-phi", n=3)
    with pytest.raises(ValueError):
        make_allocator("main", n=2, prediction=p2)  # missing target factor
    with pytest.raises(ValueError):
        make_allocator("follower:lpt", n=2, prediction=None)
    with pytest.raises(ValueError):
        make_allocator("nope", n=2)
