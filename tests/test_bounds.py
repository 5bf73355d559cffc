"""Closed-form bounds: values, domains, inversion, sweeps."""

from fractions import Fraction as F

import pytest

from onlinefair.bounds import (
    BoundId,
    BoundParams,
    DomainError,
    PRECISION,
    eval_bound,
    in_domain,
    invert_bound,
    parse_grid,
    sweep_csv,
    sweep_curves,
)
from onlinefair.core import ONE, ZERO


class TestEvalBound:
    @pytest.mark.parametrize("bound,a,params,expected", [
        # frozen from independent hand evaluation of each formula
        (BoundId.FOLLOWER_SUFFICIENT, F(4, 5), BoundParams(n=2), F(1, 27)),
        (BoundId.FOLLOWER_SUFFICIENT, F(1, 2), BoundParams(n=2), F(1, 9)),
        (BoundId.FOLLOWER_NECESSARY, F(4, 5), BoundParams(n=2), F(1, 27)),
        (BoundId.FOLLOWER_NECESSARY, F(1, 2), BoundParams(n=3), F(1, 15)),
        (BoundId.NONID_2_LB, F(3, 5), BoundParams(), F(2, 18)),   # min side 6a
        (BoundId.NONID_2_LB, F(4, 5), BoundParams(), F(1, 20)),   # min side 4... 6a > 4
        (BoundId.ID_2_LB, F(7, 10), BoundParams(), F(5, 63)),     # 2a(2+a) = 189/50
        (BoundId.ID_2_LB, F(4, 5), BoundParams(), F(1, 20)),      # capped at 4
        (BoundId.IDN_LB_SMALL, F(1, 2), BoundParams(n=3), F(1, 6)),
        (BoundId.IDN_LB_LARGE, F(1, 2), BoundParams(n=3), F(3, 22)),
        (BoundId.IDN_LB_COMBINED, F(1, 2), BoundParams(n=3), F(3, 22)),
        (BoundId.MAIN_SUFFICIENT, F(4, 5), BoundParams(), F(52, 1323)),
        (BoundId.THREE_GOODS_SUFFICIENT, F(1, 2), BoundParams(), F(1, 3)),
        (BoundId.TWO_VALUE_SUFFICIENT, F(4, 5), BoundParams(), F(2, 45)),
        (BoundId.TWO_VALUE_2_LB, F(4, 5), BoundParams(), F(1, 10)),
        (BoundId.TWO_VALUE_N_LB, F(1, 2), BoundParams(n=3), F(3, 11)),
    ])
    def test_frozen_values(self, bound, a, params, expected):
        assert eval_bound(bound, a, params) == expected

    def test_nonid_min_switches_at_two_thirds(self):
        at = eval_bound(BoundId.NONID_2_LB, F(2, 3))
        assert at == (1 - F(2, 3)) / 4 == (1 - F(2, 3)) / (6 * F(2, 3))

    def test_vanishing_at_one(self):
        params = BoundParams(n=3)
        for bound in BoundId:
            if bound is BoundId.IDN_LB_SMALL:
                continue
            assert eval_bound(bound, ONE, params) == 0, bound
        # the small-factor variant alone does not vanish; the combined min does
        assert eval_bound(BoundId.IDN_LB_SMALL, ONE, params) == F(1, 8)
        assert eval_bound(BoundId.IDN_LB_COMBINED, ONE, params) == 0

    def test_domain_errors_name_the_test(self):
        with pytest.raises(DomainError, match="phi-1"):
            eval_bound(BoundId.ID_2_LB, F(3, 5))
        with pytest.raises(DomainError, match="sqrt"):
            eval_bound(BoundId.TWO_VALUE_2_LB, F(7, 10))
        with pytest.raises(DomainError, match="1/2"):
            eval_bound(BoundId.NONID_2_LB, F(1, 2))
        with pytest.raises(DomainError, match="n >= 3"):
            eval_bound(BoundId.IDN_LB_SMALL, F(1, 2), BoundParams(n=2))
        with pytest.raises(DomainError, match="base factor"):
            eval_bound(BoundId.FOLLOWER_SUFFICIENT, F(9, 10),
                       BoundParams(a_tilde=F(1, 2)))

    def test_in_domain_helper(self):
        assert in_domain(BoundId.MAIN_SUFFICIENT, F(7, 10))
        assert not in_domain(BoundId.MAIN_SUFFICIENT, F(3, 5))


class TestInvertBound:
    def test_zero_error_gives_domain_supremum(self):
        assert invert_bound(BoundId.MAIN_SUFFICIENT, ZERO) == 1
        assert invert_bound(BoundId.FOLLOWER_SUFFICIENT, ZERO,
                            BoundParams(a_tilde=F(3, 4))) == F(3, 4)

    def test_follower_closed_form_round_trip(self):
        params = BoundParams(n=3, a_tilde=ONE)
        for a in (ZERO, F(1, 4), F(2, 3), F(9, 10)):
            d = eval_bound(BoundId.FOLLOWER_SUFFICIENT, a, params)
            assert invert_bound(BoundId.FOLLOWER_SUFFICIENT, d, params) == a

    @pytest.mark.parametrize("bound,a", [
        (BoundId.MAIN_SUFFICIENT, F(7, 10)),
        (BoundId.MAIN_SUFFICIENT, F(19, 20)),
        (BoundId.ID_2_LB, F(3, 4)),
        (BoundId.THREE_GOODS_SUFFICIENT, F(2, 5)),
        (BoundId.TWO_VALUE_2_LB, F(4, 5)),
    ])
    def test_bisection_round_trip(self, bound, a):
        d = eval_bound(bound, a)
        back = invert_bound(bound, d)
        assert abs(back - a) <= 2 * PRECISION

    @pytest.mark.parametrize("bound", [b for b in BoundId
                                       if b is not BoundId.FOLLOWER_SUFFICIENT])
    def test_bisection_meets_the_demand(self, bound):
        """The factor returned has bound value at least d, for d the bound's
        own value at each in-domain point of a rational grid."""
        params = BoundParams(n=3)
        for k in range(41):
            a = F(k, 40)
            if in_domain(bound, a, params):
                d = eval_bound(bound, a, params)
                assert eval_bound(bound, invert_bound(bound, d, params), params) >= d, a

    def test_small_variant_saturates_at_one(self):
        params = BoundParams(n=3)
        # any demand at or below the value at a=1 is met by the supremum
        assert invert_bound(BoundId.IDN_LB_SMALL, F(1, 8), params) == 1

    def test_out_of_range_demand(self):
        with pytest.raises(ValueError, match="out of range|exceeds"):
            invert_bound(BoundId.THREE_GOODS_SUFFICIENT, F(2))
        with pytest.raises(ValueError, match="exceeds"):
            invert_bound(BoundId.FOLLOWER_SUFFICIENT, F(1, 2))

    @pytest.mark.parametrize("bound", [
        BoundId.MAIN_SUFFICIENT, BoundId.ID_2_LB, BoundId.THREE_GOODS_SUFFICIENT,
        BoundId.FOLLOWER_NECESSARY, BoundId.TWO_VALUE_SUFFICIENT,
    ])
    def test_non_increasing_on_grid(self, bound):
        grid = [F(62, 100) + F(k, 100) for k in range(0, 39)]
        values = [eval_bound(bound, a) for a in grid if in_domain(bound, a)]
        assert all(x >= y for x, y in zip(values, values[1:]))


class TestSweep:
    def test_sentinel_outside_domain(self):
        rows = sweep_curves([BoundId.ID_2_LB], [F(1, 2), F(4, 5)])
        assert rows[0][BoundId.ID_2_LB.value] == 1
        assert rows[1][BoundId.ID_2_LB.value] == F(1, 20)

    def test_csv_header_and_shape(self):
        csv = sweep_csv([BoundId.FOLLOWER_SUFFICIENT, BoundId.MAIN_SUFFICIENT],
                        [F(7, 10), F(4, 5)])
        lines = csv.strip().splitlines()
        assert lines[0] == "a,follower-sufficient,main-sufficient"
        assert len(lines) == 3
        assert lines[2].startswith("4/5,1/27,")

    def test_parse_grid(self):
        assert parse_grid("0.62:0.68:0.03") == [F(62, 100), F(65, 100), F(68, 100)]
        assert parse_grid("1/2:1:1/4") == [F(1, 2), F(3, 4), F(1)]
        assert parse_grid("1/2:1/2:1") == [F(1, 2)]
        with pytest.raises(ValueError):
            parse_grid("0:1:0")
        with pytest.raises(ValueError, match="start must not exceed its stop"):
            parse_grid("1:0:1/10")
