"""The integer-weight kernel against Fraction loops written from the definitions.

The references live in ``conftest.py`` and share no code with the library.
Inputs mix small integer weights (zero-valued goods, ties) with vectors whose
value denominators are large and pairwise coprime.
"""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefair.core import (
    NormalizationError,
    ValuationVector,
    fairness_report,
    rat,
    tv_distance,
)
from onlinefair.offline import envy_graph, lpt

from conftest import (
    allocations_for,
    coprime_vectors,
    direct_envy,
    mixed_vectors,
    profiles,
    reference_envy_edges,
    reference_lpt,
    reference_tv_distance,
)


def mixed_profiles(**kwargs):
    return st.one_of(profiles(**kwargs), profiles(kind=coprime_vectors, **kwargs))


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
    def test_envy_graph(self, profile, data):
        alloc = data.draw(allocations_for(profile))
        assert set(envy_graph(alloc, profile).edges) == reference_envy_edges(alloc, profile)

    @settings(max_examples=300)
    @given(mixed_profiles(max_agents=5, max_goods=8), st.data())
    def test_fairness_report(self, profile, data):
        alloc = data.draw(allocations_for(profile))
        report = fairness_report(alloc, profile)
        efx, pair = direct_envy(alloc, profile, "best")
        assert (report.efx_factor, report.binding_pair) == (efx, pair)
        assert report.ef1_factor == direct_envy(alloc, profile, "worst")[0]


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
