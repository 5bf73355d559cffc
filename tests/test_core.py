"""Domain types, distance, and fairness metrics."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefair import core
from onlinefair.core import (
    Allocation,
    Instance,
    NormalizationError,
    PartitionError,
    ValuationProfile,
    ValuationVector,
    _GOLDEN_HI,
    _GOLDEN_LO,
    cmp_golden,
    cmp_golden_int,
    cmp_sqrt3,
    decimal_str,
    fairness_report,
    golden_floor,
    make_instance,
    rat,
    rat_str,
    sqrt3_floor,
    tv_distance,
)

from conftest import direct_envy, profile_with_allocation, vectors


def vec(*values):
    return ValuationVector(tuple(rat(v) for v in values))


class TestRationalPlumbing:
    def test_rat_parses_strings_and_ints(self):
        assert rat("3/10") == F(3, 10)
        assert rat(2) == F(2)
        assert rat(F(1, 7)) == F(1, 7)

    def test_rat_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_rat_str_round_trip(self):
        assert rat_str(F(3, 10)) == "3/10"
        assert rat(rat_str(F(-5, 4))) == F(-5, 4)

    @pytest.mark.parametrize("x,places,out", [
        (F(1, 2), 3, "0.500"),
        (F(9452925, 10 ** 7), 3, "0.945"),
        (F(1, 3), 4, "0.3333"),
        (F(9995, 10 ** 4), 3, "1.000"),  # rounds half up across the point
    ])
    def test_decimal_str(self, x, places, out):
        assert decimal_str(x, places) == out


class TestGoldenComparisons:
    def test_cmp_golden_examples(self):
        assert cmp_golden(F(3, 5)) < 0
        assert cmp_golden(F(2, 3)) > 0
        assert cmp_golden(F(1)) > 0

    def test_cmp_golden_matches_quadratic_form(self):
        for num in range(0, 40):
            a = F(num, 20)
            sign = (a * a + a - 1 > 0) - (a * a + a - 1 < 0)
            assert cmp_golden(a) == sign

    @given(st.integers(0, 10 ** 12), st.integers(1, 10 ** 12), st.integers(1, 10 ** 6))
    def test_int_form_reads_any_scaling(self, num, den, k):
        # weights over an unreduced denominator, as the allocators step on the
        # lcm of a run's denominators
        assert cmp_golden_int(k * num, k * den) == cmp_golden(F(num, den))

    @given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
    def test_int_form_is_the_squared_sign(self, num, den):
        t = (2 * num + den) ** 2 - 5 * den * den
        assert cmp_golden_int(num, den) == (t > 0) - (t < 0)

    def test_int_form_inside_its_linear_bracket(self):
        # ratios of consecutive Fibonacci numbers close in on (sqrt(5)-1)/2 from
        # both sides; from about 2^33 on they fall inside the 2^-65 bracket
        a, b = 1, 2
        for _ in range(120):
            t = (2 * a + b) ** 2 - 5 * b * b
            assert cmp_golden_int(a, b) == cmp_golden_int(3 * a, 3 * b) == (t > 0) - (t < 0)
            a, b = b, a + b

    def test_integer_brackets_straddle_their_thresholds(self):
        for k in range(1, 301):
            for floor, cmp in ((golden_floor, cmp_golden), (sqrt3_floor, cmp_sqrt3)):
                lo = floor(k)
                assert (cmp(F(lo, 2 ** k)), cmp(F(lo + 1, 2 ** k))) == (-1, 1), (floor, k)
        assert (_GOLDEN_LO, _GOLDEN_HI) == (golden_floor(65), golden_floor(65) + 1)

    def test_cmp_sqrt3_examples(self):
        assert cmp_sqrt3(F(7, 10)) < 0
        assert cmp_sqrt3(F(3, 4)) > 0
        assert cmp_sqrt3(F(74, 100)) > 0


class TestTvDistance:
    def test_identical_vectors(self):
        v = vec("1/3", "1/3", "1/3")
        assert tv_distance(v, v) == 0

    def test_padded_horizons(self):
        p = vec("1/3", "1/3", "1/3")
        v = vec("1/3", "1/3", "1/6", "1/6")
        assert tv_distance(p, v) == F(1, 6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_uniform_one_shift(self, n):
        # one good deflated by D, one inflated: distance exactly D
        t = 2 * n - 1
        u = F(1, t)
        d = F(1, 10 * n)
        p = ValuationVector((u,) * t)
        v = ValuationVector((u - d, u + d) + (u,) * (t - 2))
        assert tv_distance(p, v) == d

    @given(vectors(), vectors())
    def test_symmetric(self, p, v):
        assert tv_distance(p, v) == tv_distance(v, p)

    @given(vectors(max_goods=6), vectors(max_goods=6), vectors(max_goods=6))
    def test_triangle_inequality(self, p, q, r):
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r)

    @given(vectors(), vectors())
    def test_at_most_one(self, p, v):
        assert 0 <= tv_distance(p, v) <= 1

    @given(vectors(), st.integers(1, 3))
    def test_zero_padding_invariance(self, p, extra):
        padded = ValuationVector(p.values + (F(0),) * extra)
        assert tv_distance(p, padded) == 0
        other = vec("1/2", "1/2")
        assert tv_distance(padded, other) == tv_distance(p, other)


class TestTypes:
    def test_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            ValuationVector((F(3, 2), F(-1, 2)))

    def test_vector_requires_unit_sum(self):
        with pytest.raises(NormalizationError):
            ValuationVector((F(1, 2), F(1, 3)))

    def test_vector_has_no_normalized_option(self):
        with pytest.raises(TypeError):
            ValuationVector((F(1, 2),), normalized=False)

    @given(vectors())
    def test_every_vector_sums_to_one(self, v):
        assert sum(v.values) == 1
        assert sum(v.weights) == v.den

    def test_profile_identical_flag_checked(self):
        with pytest.raises(ValueError):
            ValuationProfile((vec("1/2", "1/2"), vec("1/3", "2/3")), identical=True)

    def test_allocation_partition_checked(self):
        with pytest.raises(PartitionError):
            Allocation.of([{0, 1}, {1}], num_goods=2)
        with pytest.raises(PartitionError):
            Allocation.of([{0}, {2}], num_goods=2)

    def test_instance_declared_accuracy_validated(self):
        p = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
        v = ValuationProfile.identical_from(vec("1/4", "3/4"), 2)
        inst = Instance(p, v, (F(3, 4), F(3, 4)))  # realized accuracy is exactly 3/4
        assert inst.realized_error == (F(1, 4), F(1, 4))
        with pytest.raises(ValueError, match="declared accuracy 4/5 exceeds realized 3/4"):
            Instance(p, v, (F(4, 5), F(4, 5)))

    @pytest.mark.parametrize("acc", [F(-1, 2), F(5, 4), "-1/1000", 2])
    def test_instance_accuracy_outside_unit_interval(self, acc):
        p = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
        with pytest.raises(ValueError, match="accuracy of agent 0 outside \\[0, 1\\]"):
            Instance(p, p, (acc, 1))

    def test_instance_accuracy_compared_exactly(self):
        # realized accuracy 1 - 1/(n(n - 1)) against accuracies one part in
        # 10^12 either side of it
        n = 10 ** 6
        p = ValuationProfile.identical_from(vec(f"1/{n}", f"{n - 1}/{n}"), 2)
        v = ValuationProfile.identical_from(vec(f"1/{n - 1}", f"{n - 2}/{n - 1}"), 2)
        realized = 1 - F(1, n * (n - 1))
        assert Instance(p, v, (realized, realized - F(1, 10 ** 12))).realized_error == \
            (1 - realized,) * 2
        with pytest.raises(ValueError, match=f"agent 1: declared accuracy .* exceeds realized {realized}"):
            Instance(p, v, (realized, realized + F(1, 10 ** 12)))

    def test_instance_json_round_trip(self):
        p = ValuationProfile.identical_from(vec("1/2", "1/2"), 2)
        v = ValuationProfile.identical_from(vec("1/4", "3/4"), 2)
        general = ValuationProfile((vec("1/4", "3/4"), vec("1/2", "1/2")))
        for inst in (Instance(p, v, (F(3, 4), F(3, 4))), Instance(general, general, (1, 1))):
            assert Instance.from_json_dict(inst.to_json_dict()) == inst


def wire(rows, n=2, identical=True, **extra):
    """An instance dict whose predictions and truths are both ``rows``."""
    return {"n": n, "identical": identical, "predictions": rows, "truths": rows,
            "accuracy": ["1"] * len(rows), **extra}


class TestInstanceWire:
    def test_identical_rows_equal_in_value_but_written_differently(self):
        inst = Instance.from_json_dict(wire([["1/2", "1/2"], ["2/4", "1/2"]]))
        assert inst.truths.vector(1).values == (F(1, 2), F(1, 2))

    def test_identical_rows_that_differ(self):
        with pytest.raises(ValueError, match="profile flagged identical but vectors differ"):
            Instance.from_json_dict(wire([["1/2", "1/2"], ["1/3", "2/3"]]))

    def test_wrong_row_count(self):
        with pytest.raises(ValueError, match="expected 3 agent rows, got 2"):
            Instance.from_json_dict(wire([["1/2", "1/2"]] * 2, n=3))

    def test_huge_agent_count_with_one_row(self):
        with pytest.raises(ValueError, match=f"^expected {10 ** 12} agent rows, got 1$"):
            Instance.from_json_dict(wire([["1/2", "1/2"]], n=10 ** 12))

    @pytest.mark.parametrize("entry", [[], {}, None, 0.5])
    def test_entry_that_is_not_a_rational(self, entry):
        name = type(entry).__name__
        with pytest.raises(ValueError, match=f"^expected a list of p/q strings: "
                                             f"expected an exact rational, got {name}$"):
            Instance.from_json_dict(wire([["1/2", entry]] * 2))

    @pytest.mark.parametrize("rows,message", [
        ([[1], [1.0]], "expected an exact rational, got float"),
        ([[1], [True]], "got a bool"),
    ])
    def test_identical_rows_equal_as_json_values_check_every_entry(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Instance.from_json_dict(wire(rows))

    def test_identical_rows_share_one_vector(self):
        inst = Instance.from_json_dict(wire([["1/4", "3/4"] for _ in range(3)], n=3))
        for profile in (inst.predictions, inst.truths):
            assert profile.vectors[0] is profile.vectors[1] is profile.vectors[2]
        written_apart = Instance.from_json_dict(wire([["1/2", "1/2"], ["2/4", "1/2"]]))
        assert written_apart.truths.vectors[0] is not written_apart.truths.vectors[1]

    def test_identical_instance_computes_one_distance(self, monkeypatch):
        distances = []
        tv = core.tv_distance

        def counted(a, b):
            distances.append(tv(a, b))
            return distances[-1]

        monkeypatch.setattr(core, "tv_distance", counted)
        d = wire([["1/4", "3/4"]] * 3, n=3, accuracy=["3/4"] * 3)
        d["predictions"] = [["1/2", "1/2"]] * 3
        loaded = Instance.from_json_dict(d)
        assert distances == [F(1, 4)] and loaded.realized_error == (F(1, 4),) * 3
        distances.clear()
        made = make_instance(ValuationProfile.identical_from(vec("1/2", "1/2"), 3),
                             ValuationProfile.identical_from(vec("1/4", "3/4"), 3))
        assert distances == [F(1, 4)] and made.declared_accuracy == (F(3, 4),) * 3

    def test_later_row_that_is_not_all_strings_is_parsed_alone(self):
        with pytest.raises(ValueError, match="^expected a list of p/q strings: "
                                             "expected an exact rational, got float$"):
            Instance.from_json_dict(wire([["1/2", "1/2"], ["1/2", 0.5]]))

    def test_general_rows_get_one_vector_each(self):
        inst = Instance.from_json_dict(wire([["1/4", "1/4", "1/2"]] * 3, n=3,
                                            identical=False))
        assert len({id(v) for v in inst.truths.vectors}) == 3
        assert not inst.truths.identical

    def test_missing_identical_means_general(self):
        d = wire([["1/2", "1/2"], ["1/3", "2/3"]])
        del d["identical"]
        assert not Instance.from_json_dict(d).truths.identical

    @pytest.mark.parametrize("key,value,message", [
        ("identical", "false", "instance key 'identical' is not a bool"),
        ("identical", 0, "instance key 'identical' is not a bool"),
        ("n", True, "instance key 'n' is not an int"),
        ("n", "2", "instance key 'n' is not an int"),
    ])
    def test_keys_are_strictly_typed(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Instance.from_json_dict(wire([["1/2", "1/2"]] * 2, **{key: value}))

    @pytest.mark.parametrize("rows", [[["1/2", "1/2"], [True, False]],
                                      [[True, False], [True, False]]])
    def test_bool_values_rejected(self, rows):
        with pytest.raises(ValueError, match="^expected a list of p/q strings, got a bool$"):
            Instance.from_json_dict(wire(rows, identical=False))

    def test_bool_accuracy_rejected(self):
        with pytest.raises(ValueError, match="got a bool"):
            Instance.from_json_dict(wire([["1", "0"]] * 2, accuracy=[True, True]))


def one_agent(prediction, truth):
    """A one-agent instance dict declaring accuracy zero, so any two rows fit."""
    return {"n": 1, "predictions": [prediction], "truths": [truth], "accuracy": ["0"]}


@st.composite
def written_rows(draw):
    """A normalized row of value strings, each value written one of several ways:
    reduced, unreduced, signed zero, bare int, or a form only ``Fraction(str)``
    reads.  The weights may be zero and their sum may exceed 2^64."""
    weights = draw(st.lists(st.one_of(st.integers(0, 12), st.integers(0, 2 ** 80)),
                            min_size=1, max_size=8).filter(lambda w: sum(w) > 0))
    row = []
    for w in weights:
        v = F(w, sum(weights))
        p, q = v.numerator, v.denominator
        forms = [f"{p}/{q}", f"{p * 2}/{q * 2}", f" {p}/{q}", f"+{p}/{q}",
                 f"{p * 3 ** 41}/{q * 3 ** 41}"]  # the last scales q past 2^64
        if p == 0:
            forms.append(f"-0/{draw(st.integers(1, 10 ** 20))}")
        if q == 1:
            forms.append(str(p))
        if q in (2, 4, 5, 8, 10):
            forms.append(f"0.{p * (1000 // q):03d}".rstrip("0"))  # e.g. "0.5"
        row.append(draw(st.sampled_from(forms)))
    return row


class TestWireLoader:
    """Wire rows of strings are built from int pairs; other rows entry by entry."""

    @settings(max_examples=300)
    @given(written_rows(), written_rows())
    def test_matches_the_rational_constructor(self, row, other):
        inst = Instance.from_json_dict(one_agent(row, other))
        for got, written in ((inst.predictions.vector(0), row), (inst.truths.vector(0), other)):
            want = ValuationVector(tuple(map(rat, written)))
            assert (got.den, got.weights) == (want.den, want.weights)
            assert got.values == want.values
            assert got == want and hash(got) == hash(want)

    @pytest.mark.parametrize("row,message", [
        ([1, True], "expected a list of p/q strings, got a bool"),
        (["1", True], "expected a list of p/q strings, got a bool"),
        (["1/2", 0.5], "expected a list of p/q strings: expected an exact rational, got float"),
        ([0, 1.0], "expected a list of p/q strings: expected an exact rational, got float"),
        (["1", ["1"]], "expected a list of p/q strings: expected an exact rational, got list"),
        ([{}, "1"], "expected a list of p/q strings: expected an exact rational, got dict"),
        ("1", "expected a list of p/q strings, got a str"),
        (["3/2", "-1/2"], "good values must be nonnegative"),
        (["1/2", "1/3"], "values sum to 5/6, expected 1"),
        ([], "a valuation vector needs at least one good"),
    ])
    def test_entries_that_hash_alike_or_not_at_all_keep_their_messages(self, row, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Instance.from_json_dict(wire([row, row]))

    @pytest.mark.parametrize("entry", ["1/0", "1/00", "-1/0"])
    def test_zero_denominator(self, entry):
        with pytest.raises(ZeroDivisionError, match=r"^Fraction\(-?1, 0\)$"):
            Instance.from_json_dict(wire([["1", entry]] * 2))

    def test_first_bad_entry_in_row_order_is_named(self):
        with pytest.raises(ZeroDivisionError):
            Instance.from_json_dict(wire([["1/2", "1/0", "x", "1/2"]] * 2))
        with pytest.raises(ValueError, match="Invalid literal for Fraction: 'x'"):
            Instance.from_json_dict(wire([["1/2", "x", "1/0", "1/2"]] * 2))

    def test_rows_share_parsed_strings_but_not_denominators(self):
        inst = Instance.from_json_dict(one_agent(["1/2", "1/2"], ["1/2", "1/6", "1/3"]))
        p, v = inst.predictions.vector(0), inst.truths.vector(0)
        assert [(p.den, p.weights), (v.den, v.weights)] == [(2, (1, 1)), (6, (3, 1, 2))]
        assert "values" not in vars(p) and "values" not in vars(v)


def without_least(bundle, f):
    """The bundle minus one least-valued good under ``f`` (empty stays empty)."""
    if not bundle:
        return frozenset()
    return frozenset(bundle) - {min(bundle, key=lambda g: f.values[g])}


class TestFairnessMetrics:
    def test_vacuous_constraints_give_one(self):
        profile = ValuationProfile.identical_from(vec("1"), 2)
        alloc = Allocation.of([{0}, set()], num_goods=1)
        report = fairness_report(alloc, profile)
        assert report.efx_factor == 1
        assert report.ef1_factor == 1

    def test_worked_two_agent_split(self):
        profile = ValuationProfile.identical_from(vec("1/2", "3/10", "1/5"), 2)
        alloc = Allocation.of([{2}, {0, 1}], num_goods=3)
        report = fairness_report(alloc, profile)
        assert report.efx_factor == F(2, 5)
        assert report.ef1_factor == F(2, 3)  # confirmed by the direct oracle below
        assert direct_envy(alloc, profile, "best") == F(2, 5)
        assert direct_envy(alloc, profile, "worst") == F(2, 3)

    def test_efx_drops_least_and_ef1_most_valued_good(self):
        profile = ValuationProfile.identical_from(vec("3/10", "1/2", "1/5"), 2)
        alloc = Allocation.of([{0}, {1, 2}], num_goods=3)
        # agent 0 compares 3/10 with {1} = 1/2 (EFX) and with {2} = 1/5 (EF1)
        report = fairness_report(alloc, profile)
        assert (report.efx_factor, report.ef1_factor) == (F(3, 5), 1)

    @settings(max_examples=150)
    @given(profile_with_allocation(max_agents=5, max_goods=12))
    def test_efx_at_most_ef1(self, pa):
        profile, alloc = pa
        report = fairness_report(alloc, profile)
        assert report.efx_factor <= report.ef1_factor

    @settings(max_examples=150)
    @given(profile_with_allocation())
    def test_matches_direct_definition(self, pa):
        profile, alloc = pa
        report = fairness_report(alloc, profile)
        assert report.efx_factor == direct_envy(alloc, profile, "best")
        assert report.ef1_factor == direct_envy(alloc, profile, "worst")

    @settings(max_examples=100)
    @given(profile_with_allocation())
    def test_exactness_iff_no_envy(self, pa):
        profile, alloc = pa
        report = fairness_report(alloc, profile)
        envious = False
        for i in range(profile.agents):
            vi = profile.vector(i)
            for j in range(profile.agents):
                if i != j and vi.value(alloc.bundles[i]) < vi.value(
                        without_least(alloc.bundles[j], vi)):
                    envious = True
        assert (report.efx_factor == 1) == (not envious)

    def test_prefix_allocations_allowed(self):
        profile = ValuationProfile.identical_from(vec("1/2", "3/10", "1/5"), 2)
        prefix = Allocation.of([{0}, {1}], num_goods=2)
        assert fairness_report(prefix, profile).efx_factor == 1
        beyond = Allocation.of([{0, 1, 2, 3}, set()], num_goods=4)
        with pytest.raises(PartitionError):
            fairness_report(beyond, profile)
