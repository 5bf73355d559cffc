"""The integer-weight kernel and generators against Fraction loops written from
the definitions.

The references live in ``conftest.py`` and share no code with the library.
Inputs mix small integer weights (zero-valued goods, ties) with vectors whose
value denominators are large and pairwise coprime.  The online allocators'
integer stepping is checked decision by decision against their Fraction rules.
"""

import random
from fractions import Fraction as F
from functools import partial
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onlinefair.core import (
    NormalizationError,
    ValuationProfile,
    ValuationVector,
    fairness_report,
    rat,
    tv_distance,
)
from onlinefair.harness import PERTURB_MODES, gen_random_vector, perturb_vector
from onlinefair.offline import eliminate_envy_cycles, lpt
from onlinefair.online import (
    FormKind,
    FormThresholdAllocator,
    GreedyGoldenThreshold,
    LowestValueBundle,
    ThreeGoodsAllocator,
)

from conftest import (
    PRIMES,
    ReferenceFractionRules,
    allocations_for,
    coprime_vectors,
    direct_envy,
    identical_profiles,
    mixed_vectors,
    profiles,
    reference_envy_edges,
    reference_gen_random_vector,
    reference_lpt,
    reference_perturb_vector,
    reference_sources,
    reference_tv_distance,
    stepped,
)


def mixed_profiles(**kwargs):
    return st.one_of(profiles(**kwargs), profiles(kind=coprime_vectors, **kwargs))


@st.composite
def shared_profiles(draw, max_agents=5, max_goods=8):
    """Profiles whose agents take their vectors from a pool of one to three
    objects, so some agents share one vector object in a profile that is not
    flagged identical; an agent may instead take a distinct object equal to
    its pooled vector."""
    horizon = draw(st.integers(1, max_goods))
    pool = draw(st.lists(mixed_vectors(min_goods=horizon, max_goods=horizon),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                          min_size=2, max_size=max_agents))
    return ValuationProfile(tuple(
        ValuationVector.from_weights(pool[k].den, pool[k].weights) if copy else pool[k]
        for k, copy in picks))


def outcome(fn, *args):
    """``fn(*args)`` as ``(den, weights)``, or as the type and message it raised."""
    try:
        v = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return v.den, v.weights


class TestWeights:
    @given(mixed_vectors(max_goods=10), st.data())
    def test_weights_over_the_lcm(self, f, data):
        assert f.den == lcm(*(v.denominator for v in f.values))
        assert all(F(w, f.den) == v for w, v in zip(f.weights, f.values))
        bundle = data.draw(st.sets(st.integers(0, f.horizon - 1)))
        assert f.value(bundle) == sum((f.values[g] for g in bundle), F(0))

    def test_attributes_stay_out_of_equality_and_repr(self):
        f = ValuationVector((F(1, 2), F(1, 3), F(1, 6)))
        g = ValuationVector(("1/2", "2/6", "1/6"))
        assert (f.den, f.weights) == (6, (3, 2, 1))
        assert f == g and hash(f) == hash(g)
        assert repr(f) == repr(g)
        assert "weights" not in repr(f) and "den" not in repr(f)

    def test_normalization_message_unchanged(self):
        with pytest.raises(NormalizationError, match=r"^values sum to 5/6, expected 1$"):
            ValuationVector((F(1, 2), F(1, 3)))
        with pytest.raises(NormalizationError, match=r"^values sum to 2, expected 1$"):
            ValuationVector((F(3, 2), F(1, 2)))

    def test_negative_value_message_unchanged(self):
        with pytest.raises(ValueError, match=r"^good values must be nonnegative$"):
            ValuationVector((F(3, 2), F(-1, 2)))

    def test_from_weights_reduces_its_pair(self):
        f = ValuationVector.from_weights(4, (2, 2))
        assert f == ValuationVector(["1/2", "1/2"])
        assert (f.den, f.weights) == (2, (1, 1))
        assert ValuationVector.from_weights(12, (0, 4, 8)).weights == (0, 1, 2)

    def test_from_weights_refuses_all_zero_weights(self):
        with pytest.raises(NormalizationError, match=r"^values sum to 0, expected 1$"):
            ValuationVector.from_weights(0, (0, 0))
        with pytest.raises(ValueError, match=r"^a valuation vector needs at least one good$"):
            ValuationVector.from_weights(0, ())


class TestAgainstReferences:
    @settings(max_examples=300)
    @given(mixed_vectors(max_goods=10), mixed_vectors(max_goods=10))
    def test_tv_distance(self, p, v):
        assert tv_distance(p, v) == reference_tv_distance(p, v)

    @settings(max_examples=300)
    @given(mixed_vectors(max_goods=12), st.integers(2, 4))
    def test_lpt(self, f, n):
        assert list(lpt(f, n).bundles) == reference_lpt(f, n)

    @settings(max_examples=300)
    @given(mixed_profiles(max_goods=8), st.data())
    def test_envy_cycle_elimination(self, profile, data):
        alloc = data.draw(allocations_for(profile))
        settled, unenvied = eliminate_envy_cycles(alloc, profile)
        assert sorted(map(sorted, settled.bundles)) == sorted(map(sorted, alloc.bundles))
        assert unenvied == min(reference_sources(settled, profile))
        if reference_sources(alloc, profile):
            assert settled == alloc
        else:  # at least one rotation
            assert (len(reference_envy_edges(settled, profile))
                    < len(reference_envy_edges(alloc, profile)))

    @settings(max_examples=500)
    @given(st.one_of(mixed_profiles(max_agents=5, max_goods=8),
                     mixed_profiles(min_agents=6, max_agents=8, max_goods=8),
                     identical_profiles(kind=mixed_vectors, max_agents=8),
                     shared_profiles(max_agents=8)), st.data())
    def test_fairness_report(self, profile, data):
        alloc = data.draw(allocations_for(profile, prefix=True))
        report = fairness_report(alloc, profile)
        assert report.efx_factor == direct_envy(alloc, profile, "best")
        assert report.ef1_factor == direct_envy(alloc, profile, "worst")


class TestGeneratorsAgainstReferences:
    """The int-weight generators against their Fraction versions: the same
    vector, or the same error, and the same random state after every draw."""

    @settings(max_examples=300)
    @given(st.integers(0, 16), st.integers(0, 2 ** 32))
    def test_gen_random_vector(self, horizon, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert (outcome(gen_random_vector, horizon, ours)
                == outcome(reference_gen_random_vector, horizon, theirs))
        assert ours.getstate() == theirs.getstate()

    def test_gen_random_vector_without_goods(self):
        ours, theirs = random.Random(3), random.Random(3)
        refused = (ValueError, "a valuation vector needs at least one good")
        assert outcome(gen_random_vector, 0, ours) == refused
        assert outcome(reference_gen_random_vector, 0, theirs) == refused
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=600)
    @given(mixed_vectors(max_goods=10), st.sampled_from(PERTURB_MODES),
           st.integers(0, 2 ** 32), st.data())
    def test_perturb_vector(self, p, mode, seed, data):
        kind = data.draw(st.sampled_from(["edge", "coprime", "any"]))
        if kind == "edge":
            d = data.draw(st.sampled_from([F(0), F(1)]))
        elif kind == "coprime":  # L = lcm(p.den, q) is a proper multiple of both
            q = data.draw(st.sampled_from([q for q in PRIMES if p.den % q]))
            d = F(data.draw(st.integers(0, q)), q)
        else:
            d = data.draw(st.fractions(0, 1, max_denominator=10 ** 6))
        ours, theirs = random.Random(seed), random.Random(seed)
        assert (outcome(perturb_vector, p, d, ours, mode)
                == outcome(reference_perturb_vector, p, d, theirs, mode))
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("mode", PERTURB_MODES)
    def test_insufficient_mass_message(self, mode):
        # d <= 1 is checked first, so a normalized vector always has the mass:
        # this vector is built around the constructor's check, its weights
        # summing to half its den
        short = ValuationVector.__new__(ValuationVector)
        object.__setattr__(short, "den", 4)
        object.__setattr__(short, "weights", (1, 0, 1))
        ours, theirs = random.Random(8), random.Random(8)
        refused = (ValueError, "insufficient removable mass for distance 3/4")
        assert outcome(perturb_vector, short, F(3, 4), ours, mode) == refused
        assert outcome(reference_perturb_vector, short, F(3, 4), theirs, mode) == refused
        assert ours.getstate() == theirs.getstate()


def columns(profile: ValuationProfile) -> list[tuple[F, ...]]:
    """The profile's values as a stream: per good, its value to each agent."""
    return list(zip(*(v.values for v in profile.vectors)))


def agrees(make, stream) -> list[int]:
    """Step a fresh allocator through ``stream``, check every decision against
    the Fraction rule, and return the decisions."""
    got = list(stepped(make(), stream))
    assert got == ReferenceFractionRules(make()).run(stream)
    return got


# identical two-agent streams, and two-agent streams whose rows differ
two_agent_profiles = st.one_of(
    mixed_vectors(max_goods=10).map(lambda f: ValuationProfile.identical_from(f, 2)),
    mixed_profiles(max_agents=2, max_goods=10))

# predictions whose largest-value-first split tracks goods through a threshold
THRESHOLD_PREDICTIONS = tuple(ValuationVector(tuple(map(F, row))) for row in (
    ("33/100", "33/100", "33/100", "1/100"),
    ("13/40", "13/40", "13/40", "1/40"),
    ("34/100", "33/100", "32/100", "1/100"),
    ("355/1000", "355/1000", "285/1000", "5/1000"),
    ("355/1000", "285/1000", "355/1000", "5/1000"),
))


class TestSteppingAgainstFractionRules:
    @settings(max_examples=300)
    @given(mixed_profiles(max_agents=5, max_goods=10))
    def test_ef1_lowest(self, profile):
        agrees(partial(LowestValueBundle, profile.agents), columns(profile))

    @settings(max_examples=300)
    @given(two_agent_profiles)
    def test_greedy_phi(self, profile):
        agrees(GreedyGoldenThreshold, columns(profile))

    @settings(max_examples=300)
    @given(two_agent_profiles, st.integers(1, 3))
    def test_three_goods(self, profile, horizon):
        agrees(partial(ThreeGoodsAllocator, horizon), columns(profile))

    @settings(max_examples=300)
    @given(st.one_of(st.sampled_from(THRESHOLD_PREDICTIONS), mixed_vectors(max_goods=8)),
           st.sampled_from([F(2, 3), F(7, 10), F(4, 5), F(19, 20), F(1)]),
           mixed_vectors(max_goods=8), st.data())
    def test_main(self, prediction, a, truths, data):
        make = partial(FormThresholdAllocator, prediction, a)
        try:
            allocator = make()
        except ValueError:  # a split no balanced input reaches
            assume(False)
        stream = []
        for t, value in enumerate(truths.values):
            if t in allocator.tag.large:  # sometimes on, just above or just below
                shift = data.draw(st.sampled_from([None, 0, F(1, PRIMES[-1]), -F(1, PRIMES[-1])]))
                if shift is not None and allocator.threshold + shift >= 0:
                    value = allocator.threshold + shift
            stream.append((value, value))
        agrees(make, stream)

    def test_zero_valued_goods(self):
        zeros = [(F(0),) * 3, (F(1, 2),) * 3, (F(0),) * 3, (F(1, 4),) * 3, (F(1, 4),) * 3]
        assert agrees(partial(LowestValueBundle, 3), zeros) == [0, 0, 1, 1, 2]
        halves = [(F(v), F(v)) for v in (0, F(1, 2), 0, F(1, 2))]
        assert agrees(GreedyGoldenThreshold, halves) == [0, 0, 0, 1]
        # den is 1, so at t = 1 three-goods weighs two zero goods against a whole mass of 1
        stream = [(F(v), F(v)) for v in (0, 0, 1)]
        assert agrees(partial(ThreeGoodsAllocator, 3), stream) == [0, 0, 1]

    def test_own_value_ties(self):
        quarters = [(F(1, 4),) * 4] * 8
        assert agrees(partial(LowestValueBundle, 4), quarters) == [0, 1, 2, 3] * 2
        crossed = [(F(1, 3), F(1, 2)), (F(1, 2), F(1, 3)), (F(1, 6), F(1, 6))]
        assert agrees(partial(LowestValueBundle, 2), crossed) == [0, 1, 0]
        # max(v0, v1) equals the rest at t = 1, then equal bundles at t = 2 and 3
        thirds = [(F(1, 3),) * 2] * 3 + [(F(0),) * 2]
        assert agrees(partial(ThreeGoodsAllocator, 3), thirds) == [0, 1, 1, 0]
        halves = [(F(1, 2),) * 2] * 2 + [(F(0),) * 2]
        assert agrees(partial(ThreeGoodsAllocator, 2), halves) == [0, 1, 0]

    def test_denominators_stop_dividing_mid_stream(self):
        # each good brings a denominator the ones before do not divide; den is
        # their lcm from the first good on and stays there
        stream = [(F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)), (F(1, 6), F(1, 3)),
                  (F(1, PRIMES[6]), F(1, 5)), (F(1, 12), F(1, 10))]
        for make in (GreedyGoldenThreshold, partial(LowestValueBundle, 2),
                     partial(ThreeGoodsAllocator, 3)):
            allocator, dens = make(), []
            for _ in stepped(allocator, stream):
                dens.append(allocator.den)
            assert dens == [60 * PRIMES[6]] * 5
            agrees(make, stream)

    def test_main_admits_a_good_at_threshold_equality(self):
        make = partial(FormThresholdAllocator, THRESHOLD_PREDICTIONS[1], F(4, 5))
        allocator = make()
        assert allocator.tag.kind is FormKind.FORM1 and not allocator.fallback
        th = allocator.threshold
        stream = [(v, v) for v in (th, th + F(1, 10 ** 12), th, F(1, 40))]
        high, low = allocator.high, allocator.low
        assert agrees(make, stream) == [high, low, high, low]


class TestRatFastPath:
    @pytest.mark.parametrize("text", ["0/1", "-3/6", " 1/2", "+3/4", "1_0/3", "٣/4", "0.5",
                                      "12/30", "-0/7", "3"])
    def test_agrees_with_fraction(self, text):
        got = rat(text)
        assert type(got) is F and got == F(text)

    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
    def test_wire_format_round_trip(self, p, q):
        assert rat(f"{p}/{q}") == F(p, q)

    @pytest.mark.parametrize("text,error", [("1/0", ZeroDivisionError), ("x", ValueError),
                                            ("1/", ValueError), ("/2", ValueError),
                                            ("-/2", ValueError), ("1/2/3", ValueError)])
    def test_failures_match_fraction(self, text, error):
        with pytest.raises(error) as ours:
            rat(text)
        with pytest.raises(error) as theirs:
            F(text)
        assert type(ours.value) is type(theirs.value)
        assert str(ours.value) == str(theirs.value)
