"""Online allocators: traces, guarantees, and form classification."""

import itertools
import random
import sys
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefair.bounds import BoundId, eval_bound
from onlinefair.core import (
    Allocation,
    ValuationProfile,
    ValuationVector,
    cmp_golden,
    fairness_report,
    rat,
)
from onlinefair.harness import gen_random_instance, make_instance, perturb, run_instance
from onlinefair.offline import cut_and_choose, eliminate_envy_cycles, lpt
from onlinefair.online import (
    FormKind,
    FormThresholdAllocator,
    GreedyGoldenThreshold,
    LowestValueBundle,
    OnlineAllocator,
    PredictionFollower,
    ThreeGoodsAllocator,
    classify_form,
    make_allocator,
    passthrough_cutoff,
)

from conftest import identical_profiles, mixed_vectors, profiles, stepped, vectors


def vec(*values):
    return ValuationVector(tuple(rat(v) for v in values))


def run_identical(allocator, values):
    return list(stepped(allocator, [(v,) * allocator.n for v in values]))


def contract_allocators():
    """One of each allocator, built fresh, all on two agents."""
    p = vec("13/40", "13/40", "13/40", "1/40")
    return (GreedyGoldenThreshold(), LowestValueBundle(2), ThreeGoodsAllocator(3),
            PredictionFollower(ValuationProfile.identical_from(p, 2)),
            FormThresholdAllocator(p, F(4, 5)))


# a stream over several denominators, with zero-valued goods
CONTRACT_STREAM = [F(0), F(1, 3), F(1, 4), F(0), F(1, 7), F(11, 84), F(1, 7)]


def state(alloc):
    return list(alloc.choices), alloc.den, list(alloc.own)


class TestStepContract:
    @pytest.mark.parametrize("weights", [(1,), (1, 1, 1)])
    def test_a_rejected_int_step_changes_nothing(self, weights):
        stream = [(v, v) for v in CONTRACT_STREAM]
        for alloc, twin in zip(contract_allocators(), contract_allocators()):
            ours, theirs = stepped(alloc, stream), stepped(twin, stream)
            for _ in range(3):
                assert next(ours) == next(theirs)
            before = state(alloc)
            with pytest.raises(ValueError, match=r"^need one revealed value per agent$"):
                alloc.step(weights)
            assert state(alloc) == before
            assert list(ours) == list(theirs)
            assert state(alloc) == state(twin)

    @settings(max_examples=150)
    @given(st.one_of(identical_profiles(max_agents=2, kind=mixed_vectors),
                     profiles(max_agents=2, max_goods=8, kind=mixed_vectors)))
    def test_columns_are_the_truths_over_their_lcm(self, profile):
        stream = list(zip(*(v.values for v in profile.vectors)))
        den = lcm(*(v.den for v in profile.vectors))
        for alloc, twin in zip(contract_allocators(), contract_allocators()):
            weights = list(alloc.columns(profile))
            assert alloc.den == den
            assert [tuple(F(w, den) for w in column) for column in weights] == stream
            for column in weights:
                alloc.step(column)
            list(stepped(twin, stream))
            assert state(alloc) == state(twin)

    def test_columns_scale_only_the_vectors_off_the_lcm(self):
        halves, sixths = vec("1/2", "1/2", "0"), vec("1/2", "1/3", "1/6")
        alloc = LowestValueBundle(2)
        assert list(alloc.columns(ValuationProfile((halves, sixths)))) == [(3, 3), (3, 2), (0, 1)]
        assert (alloc.den, sixths.den, sixths.weights) == (6, 6, (3, 2, 1))

    def test_every_value_form_gives_the_same_decisions(self):
        # truths built from each exact form a vector takes step alike, over den 84
        forms = {
            "fractions": lambda: (CONTRACT_STREAM,) * 2,
            "strings": lambda: ([f"{v.numerator}/{v.denominator}" for v in CONTRACT_STREAM],) * 2,
            "ints where integral": lambda: (
                [int(v) if v.denominator == 1 else v for v in CONTRACT_STREAM],) * 2,
            "mixed": lambda: (list(map(str, CONTRACT_STREAM)), CONTRACT_STREAM),
            "generators": lambda: ((v for v in CONTRACT_STREAM), (v for v in CONTRACT_STREAM)),
        }
        runs = {}
        for form, rows in forms.items():
            truths = ValuationProfile(tuple(ValuationVector(row) for row in rows()))
            allocs = contract_allocators()
            runs[form] = [[alloc.step(weights) for weights in alloc.columns(truths)]
                          for alloc in allocs]
            assert all(alloc.den == 84 for alloc in allocs)
        assert all(run == runs["fractions"] for run in runs.values())

    def test_partition_maintained(self):
        alloc = LowestValueBundle(3)
        run_identical(alloc, [F(1, 5)] * 5)
        a = alloc.allocation()
        assert sum(len(b) for b in a.bundles) == 5

    def test_allocation_is_the_prefix_so_far(self):
        alloc = LowestValueBundle(3)
        stream = [(value,) * 3 for value in (F(1, 2), F(1, 4), F(1, 8), F(1, 8))]
        for t, agent in enumerate(stepped(alloc, stream)):
            prefix = alloc.allocation()
            assert prefix.num_goods == t + 1
            assert t in prefix.bundles[agent]
            assert set().union(*prefix.bundles) == set(range(t + 1))

    def test_identical_only_declared_by_restricted_allocators(self):
        restricted = (GreedyGoldenThreshold, ThreeGoodsAllocator, FormThresholdAllocator)
        assert all(cls.identical_only and cls.agents == 2 for cls in restricted)
        for cls in (LowestValueBundle, PredictionFollower):
            assert not cls.identical_only and cls.agents is None


class TestGreedyGoldenThreshold:
    def test_trace_fills_then_overflows(self):
        g = GreedyGoldenThreshold()
        assert run_identical(g, ["3/10", "3/10", "2/10", "2/10"]) == [0, 0, 1, 1]

    def test_trace_two_halves(self):
        g = GreedyGoldenThreshold()
        assert run_identical(g, ["1/2", "1/2"]) == [0, 1]
        profile = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
        assert fairness_report(g.allocation(), profile).efx_factor == 1

    def test_trace_overflow_twice(self):
        g = GreedyGoldenThreshold()
        assert run_identical(g, ["2/5", "3/10", "3/10"]) == [0, 1, 1]
        profile = ValuationProfile.identical_from(vec("2/5", "3/10", "3/10"), 2)
        assert fairness_report(g.allocation(), profile).efx_factor == 1

    @settings(max_examples=120)
    @given(vectors(max_goods=10))
    def test_factor_at_least_golden(self, v):
        g = GreedyGoldenThreshold()
        run_identical(g, v.values)
        profile = ValuationProfile.identical_from(v, 2)
        f = fairness_report(g.allocation(), profile).efx_factor
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
        labels = []
        for weights in a.columns(profile):
            labels.append(a.step(weights))
            prefix = Allocation(tuple(labels), profile.agents)
            assert fairness_report(prefix, profile).ef1_factor == 1

    @settings(max_examples=200)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(*[st.integers(0, 3)] * n), max_size=30))))
    def test_heap_picks_as_min_and_index_do(self, case):
        # small weights give ties and zero-valued goods; the rule holds on
        # per-agent streams too
        n, stream = case
        a = LowestValueBundle(n)
        own = [0] * n
        for weights in stream:
            lowest = own.index(min(own))
            assert a.step(weights) == lowest
            own[lowest] += weights[lowest]
        assert a.own == own

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_agents_refused(self, n):
        with pytest.raises(ValueError, match=r"^need at least two agents$"):
            LowestValueBundle(n)


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

    @pytest.mark.parametrize("agents,identical,base,message", [
        (2, False, "lpt", "the largest-value-first base needs identical predictions"),
        (3, True, "cut-and-choose", "cut-and-choose is a two-agent procedure"),
        (2, True, "round-robin", "unknown follower base 'round-robin'"),
    ])
    def test_base_outside_its_scope_refused(self, agents, identical, base, message):
        p = gen_random_instance(agents, 4, identical=identical, seed=3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            PredictionFollower(p, base=base)

    def test_extras_go_to_unenvied_agent(self):
        p = ValuationProfile.identical_from(vec("1/3", "1/3", "1/3"), 2)
        follower = PredictionFollower(p, base="lpt")
        # goods beyond the promised horizon land with the unenvied agent
        assert follower.owner == (0, 1, 0)
        assert follower.unenvied == 1
        decisions = run_identical(follower, ["1/4", "1/4", "1/4", "1/4"])
        assert decisions == [0, 1, 0, 1]

    @settings(max_examples=200)
    @given(st.data())
    def test_plans_hold_no_envy_cycle(self, data):
        # the follower's only traffic: an lpt plan on identical predictions
        # (n = 2-6) or a cut-and-choose plan on two general ones, with
        # zero-valued goods and ties; neither plan is ever rotated
        if data.draw(st.booleans()):
            base, n = "lpt", data.draw(st.integers(2, 6))
            prediction = ValuationProfile.identical_from(
                data.draw(vectors(max_goods=10, max_weight=3)), n)
            planned = lpt(prediction.vector(0), n)
        else:
            base, horizon = "cut-and-choose", data.draw(st.integers(1, 10))
            prediction = ValuationProfile(tuple(
                data.draw(vectors(min_goods=horizon, max_goods=horizon, max_weight=3))
                for _ in range(2)))
            planned = cut_and_choose(prediction.vector(0), prediction.vector(1))
        settled, unenvied = eliminate_envy_cycles(planned, prediction)
        assert settled == planned
        if base == "lpt":
            # nobody envies a lightest bundle
            vals = prediction.vector(0).values
            totals = [sum((vals[g] for g in b), F(0)) for b in planned.bundles]
            assert unenvied == totals.index(min(totals))
        else:
            # the chooser envies nobody
            assert unenvied == 0
        follower = PredictionFollower(prediction, base=base)
        assert follower.unenvied == unenvied
        assert follower.owner == planned.owner

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
        assert fairness_report(a.allocation(), profile).efx_factor == 1

    def test_residual_dominates(self):
        a = ThreeGoodsAllocator(3)
        assert run_identical(a, ["2/5", "1/10", "1/2"]) == [0, 0, 1]
        profile = ValuationProfile.identical_from(vec("2/5", "1/10", "1/2"), 2)
        assert fairness_report(a.allocation(), profile).efx_factor == 1

    def test_rejects_long_promises(self):
        with pytest.raises(ValueError, match=r"^promised horizon must be 1, 2, or 3$"):
            ThreeGoodsAllocator(4)

    @settings(max_examples=120)
    @given(st.data())
    def test_exact_when_promise_kept(self, data):
        horizon = data.draw(st.integers(1, 3))
        v = data.draw(vectors(min_goods=horizon, max_goods=horizon))
        a = ThreeGoodsAllocator(horizon)
        run_identical(a, v.values)
        profile = ValuationProfile.identical_from(v, 2)
        assert fairness_report(a.allocation(), profile).efx_factor == 1

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
        assert fairness_report(a.allocation(), profile).efx_factor >= target


class TestClassifyForm:
    def test_passthrough_when_light_bundle_heavy_enough(self):
        p = vec("3/10", "3/10", "1/5", "1/5")
        tag = classify_form(p, F(7, 10))
        assert tag.kind is FormKind.PASSTHROUGH
        assert passthrough_cutoff(F(7, 10)) == F(421, 1161)

    def test_passthrough_cutoff_is_inclusive(self):
        # a single heavy good and a light bundle of three: exactly at the
        # cutoff 421/1161 passes through, one part in 2,322 below does not
        at = vec("740/1161", "200/1161", "121/1161", "100/1161")
        below = vec("1481/2322", "400/2322", "242/2322", "199/2322")
        assert classify_form(at, F(7, 10)).kind is FormKind.PASSTHROUGH
        assert classify_form(below, F(7, 10)).kind is FormKind.SINGLETON_HIGH

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

    def test_sub_cutoff_splits_have_the_proven_structure(self):
        # every composition of 50 into four parts and of 20 into five, at the
        # factor of MAIN_FACTORS with the largest cutoff: the docstring's argument
        a = F(5, 8)
        c = passthrough_cutoff(a)
        assert c < F(2, 5)
        seen = set()
        for q, horizon in ((50, 4), (20, 5)):
            for cuts in itertools.combinations(range(1, q), horizon - 1):
                w = tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (q,)))
                tag = classify_form(ValuationVector.from_weights(q, w), a)
                seen.add(tag.kind)
                if tag.kind is FormKind.PASSTHROUGH:
                    continue
                heavy = tag.heavy
                light = frozenset(range(horizon)) - heavy
                assert sum(w[g] for g in light) < c * q
                if tag.kind is FormKind.SINGLETON_HIGH:
                    assert len(heavy) == 1
                    continue
                assert len(heavy) == 2
                big = {g for g in range(horizon) if w[g] > (1 - 2 * c) * q}
                assert heavy <= big and len(light & big) <= 1
                first, second = sorted(range(horizon), key=lambda g: -w[g])[:2]
                assert (first in heavy) != (second in heavy)
                level_z = {g for g in range(horizon) if w[g] == max(w)}
                level_y = {g for g in range(horizon) if w[g] == tag.y * q}
                if tag.kind is FormKind.FORM1:
                    assert heavy < level_z and len(level_z) == 3 and tag.large == level_z
                elif tag.kind is FormKind.FORM2OR4:
                    assert len(level_z) == 1 and level_z <= light
                    assert tag.large == heavy | level_z
                else:
                    assert len(level_z) == 2 and len(level_y) == 1
                    assert heavy == (level_z & heavy) | level_y
                    assert tag.large == level_z | level_y
                    late = max(level_y) > max(level_z)
                    assert tag.kind is (FormKind.FORM3_LATE_Y if late else FormKind.FORM3_EARLY_Y)
        assert seen == set(FormKind) - {FormKind.THREE_GOODS}


class TestFormThresholdAllocator:
    def test_exact_target_follows_planned_split(self):
        p = gen_random_instance(2, 9, identical=True, seed=11)
        transcript = run_instance("main", make_instance(p, p), a=F(1))
        planned = lpt(p.vector(0), 2)
        got = sorted(map(sorted, transcript.allocation.bundles))
        assert got == sorted(map(sorted, planned.bundles))
        assert transcript.report.efx_factor == 1

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_three_goods_form_is_one_allocator(self, horizon, monkeypatch):
        # main runs the three-goods rule on its own bundles: one step per good,
        # with the standalone rule's agents, including trailing goods
        calls = []
        step = OnlineAllocator.step

        def counted(allocator, weights):
            calls.append(len(allocator.choices))
            return step(allocator, weights)

        def trace(allocator, truths):
            return [allocator.step(weights) for weights in allocator.columns(truths)]

        monkeypatch.setattr(OnlineAllocator, "step", counted)
        rng = random.Random(horizon)
        for trial in range(30):
            p = gen_random_instance(2, horizon, identical=True, seed=rng.randrange(2 ** 30))
            truths = p if trial % 3 == 0 else perturb(
                p, [F(1, 5)] * 2, seed=rng.randrange(2 ** 30),
                mode=("values", "extra-goods")[trial % 3 - 1])
            main = make_allocator("main", n=2, identical=True, prediction=p, a=F(4, 5))
            assert main.tag.kind is FormKind.THREE_GOODS
            calls.clear()
            got = trace(main, truths)
            assert calls == list(range(truths.horizon))
            assert got == trace(ThreeGoodsAllocator(horizon), truths)

    def test_rejects_factor_outside_range(self):
        p = vec("1/2", "1/4", "1/4")
        with pytest.raises(ValueError):
            FormThresholdAllocator(p, F(3, 5))
        with pytest.raises(ValueError):
            FormThresholdAllocator(p, F(11, 10))

    @staticmethod
    def _step_opcodes(p: ValuationVector, a: F) -> list[int]:
        """Python opcodes executed by each ``step`` of ``main`` on the truths ``p``."""
        allocator = FormThresholdAllocator(p, a)
        count = 0

        def tracer(frame, event, arg):
            nonlocal count
            frame.f_trace_opcodes = True
            if event == "opcode":
                count += 1
            return tracer

        counts = []
        previous = sys.gettrace()
        truths = ValuationProfile.identical_from(p, 2)
        for weights in allocator.columns(truths):
            count = 0
            sys.settrace(tracer)
            try:
                allocator.step(weights)
            finally:
                sys.settrace(previous)
            counts.append(count)
        return counts

    def test_constant_work_per_step(self):
        # the most opcodes any one step executes does not grow with the horizon,
        # on a tracked form (three tracked tops, then a light tail) and on passthrough
        def tracked(horizon):
            tail = horizon - 3
            return ValuationVector((F(33, 100),) * 3 + (F(1, 100 * tail),) * tail)

        def uniform(horizon):
            return ValuationVector((F(1, horizon),) * horizon)

        a = F(7, 10)
        for kind, stream in ((FormKind.FORM1, tracked), (FormKind.PASSTHROUGH, uniform)):
            peaks = []
            for horizon in (40, 4000):
                p = stream(horizon)
                assert classify_form(p, a).kind is kind
                counts = self._step_opcodes(p, a)
                assert min(counts) > 0
                peaks.append(max(counts))
            assert peaks[0] == peaks[1], kind

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
    with pytest.raises(ValueError, match=r"^greedy-phi handles exactly 2 agents, not n=3$"):
        make_allocator("greedy-phi", n=3, identical=True)
    with pytest.raises(ValueError,
                       match=r"^the form-guided allocator needs a prediction and --a$"):
        make_allocator("main", n=2, identical=True, prediction=p2)  # missing target factor
    with pytest.raises(ValueError, match=r"^follower:lpt needs a prediction profile$"):
        make_allocator("follower:lpt", n=2, identical=True, prediction=None)
    with pytest.raises(ValueError, match=r"^ef1-lowest reads no target factor a; only main does$"):
        make_allocator("ef1-lowest", n=2, identical=True, prediction=p2, a=F(4, 5))
    with pytest.raises(ValueError,
                       match=r"^three-goods needs the promised horizon from a prediction$"):
        make_allocator("three-goods", n=2, identical=True)
    general = ValuationProfile((vec("1/2", "1/2"), vec("1/4", "3/4")))
    with pytest.raises(ValueError,
                       match=r"^the form-guided allocator needs identical predictions$"):
        make_allocator("main", n=2, identical=True, prediction=general, a=F(4, 5))
    with pytest.raises(ValueError, match=r"^need at least two agents$"):
        make_allocator("ef1-lowest", n=1, identical=True)
    with pytest.raises(ValueError, match=r"^unknown allocator 'nope'; choose from \('greedy-phi', "
                                         r"'ef1-lowest', 'follower:lpt', 'follower:cut-and-choose', "
                                         r"'three-goods', 'main'\)$"):
        make_allocator("nope", n=2, identical=True)


@pytest.mark.parametrize("name,a", [("greedy-phi", None), ("three-goods", None),
                                    ("main", F(4, 5))])
def test_make_allocator_refuses_identical_only_on_general_truths(name, a):
    p = ValuationProfile.identical_from(vec("1/2", "1/4", "1/4"), 2)
    with pytest.raises(ValueError, match=rf"^{name} needs identical true valuations$"):
        make_allocator(name, n=2, identical=False, prediction=p, a=a)
    assert make_allocator(name, n=2, identical=True, prediction=p, a=a).identical_only
    for general in ("ef1-lowest", "follower:lpt", "follower:cut-and-choose"):
        assert not make_allocator(general, n=2, identical=False, prediction=p).identical_only
