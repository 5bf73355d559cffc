"""Adaptive constructions: domains, normalization, branch completeness, errors."""

import random
import re
from fractions import Fraction as F

import pytest

from onlinefair.adversaries import (
    _BUILDERS,
    AdversarySpec,
    IdenticalPredictedAdversary,
    ParameterError,
    build_adversary,
)
from onlinefair.bounds import BoundId, BoundParams, eval_bound, in_domain
from onlinefair.core import ZERO, tv_distance
from onlinefair.harness import random_walk_duel, run_duel
from onlinefair.offline import _compile_opponent, minimax_online_factor
from onlinefair.verify import verify_claims

BASE_SPECS = {
    "no-pred-2-identical": AdversarySpec("no-pred-2-identical", F(7, 10),
                                         params={"lam": F(1, 50)}),
    "no-pred-3-identical": AdversarySpec("no-pred-3-identical", F(1, 2), n=3),
    "no-pred-2-general": AdversarySpec("no-pred-2-general", F(1, 2)),
    "follower-tight": AdversarySpec("follower-tight", F(7, 10)),
    "pred-2-general": AdversarySpec("pred-2-general", F(3, 4)),
    "pred-2-identical": AdversarySpec("pred-2-identical", F(7, 10)),
    "pred-n-identical": AdversarySpec("pred-n-identical", F(1, 2), n=3),
    "two-value-2": AdversarySpec("two-value-2", F(4, 5), params={"eps": F(11, 100)}),
    "two-value-n": AdversarySpec("two-value-n", F(1, 2), n=3),
}


def walk_every_path(adv):
    """Check that every decision path reveals each agent a total of exactly one.

    Memoized on (state, round, per-agent revealed totals): what is left of a
    path depends only on the state and the round, so each key is walked once.
    """
    seen = set()

    def walk(state, t, totals):
        if (state, t, totals) in seen:
            return
        seen.add((state, t, totals))
        if t == adv.horizon:
            assert totals == (1,) * adv.n
            return
        values = adv.reveal(state)
        grown = tuple(total + v for total, v in zip(totals, values))
        for d in range(adv.n):
            walk(adv.advance(state, d), t + 1, grown)

    walk(adv.start(), 0, (ZERO,) * adv.n)


class TestParameterDomains:
    def test_factor_below_golden_rejected(self):
        with pytest.raises(ParameterError, match="phi-1"):
            build_adversary(AdversarySpec("no-pred-2-identical", F(3, 5)))

    def test_lam_too_large_rejected(self):
        with pytest.raises(ParameterError, match="lam"):
            build_adversary(AdversarySpec("no-pred-2-identical", F(7, 10),
                                          params={"lam": F(1, 10)}))

    def test_zero_lam_rejected(self):
        with pytest.raises(ParameterError, match="lam > 0"):
            build_adversary(AdversarySpec("no-pred-2-identical", F(7, 10),
                                          params={"lam": 0}))

    def test_two_agent_variant_needs_three_agents(self):
        with pytest.raises(ParameterError, match="n >= 3"):
            build_adversary(AdversarySpec("no-pred-3-identical", F(1, 2), n=2))

    def test_two_value_pair_needs_sqrt3_region(self):
        with pytest.raises(ParameterError, match="sqrt"):
            build_adversary(AdversarySpec("two-value-2", F(7, 10)))

    def test_follower_tight_deflation_limited(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            build_adversary(AdversarySpec("follower-tight", F(7, 10),
                                          params={"D": F(1, 2)}))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_follower_tight_needs_positive_a(self, n):
        # at a = 0 follower-necessary is 1/(2n-1): no deflation D can exceed it
        assert eval_bound(BoundId.FOLLOWER_NECESSARY, F(0), BoundParams(n=n)) == F(1, 2 * n - 1)
        with pytest.raises(ParameterError, match="need a > 0"):
            build_adversary(AdversarySpec("follower-tight", F(0), n=n))
        with pytest.raises(ParameterError, match="need a > 0"):
            build_adversary(AdversarySpec("follower-tight", F(0), n=n,
                                          params={"D": F(1, 2 * n - 1)}))

    def test_mirrored_pair_needs_half(self):
        with pytest.raises(ParameterError, match="1/2"):
            build_adversary(AdversarySpec("pred-2-general", F(2, 5)))

    def test_coupled_eps_interval_enforced(self):
        spec = AdversarySpec("pred-n-identical", F(1, 2), n=3,
                             params={"k": F(1, 100), "eps": F(3, 20)})
        with pytest.raises(ParameterError, match="eps"):
            build_adversary(spec)

    def test_unknown_construction(self):
        with pytest.raises(ParameterError):
            AdversarySpec("mystery", F(1, 2))

    def test_parameter_the_construction_does_not_read(self):
        with pytest.raises(ParameterError, match="has no parameter 'lamda'; it reads D, r, eps"):
            AdversarySpec("pred-2-identical", F(7, 10), params={"lamda": F(1, 100)})
        with pytest.raises(ParameterError, match="it reads none"):
            AdversarySpec("no-pred-3-identical", F(1, 2), n=3, params={"eps": F(1, 10)})

    @pytest.mark.parametrize("params", [{"lo": F(1, 2), "hi": F(3, 2)}, {"hi": F(5, 2)}])
    def test_follower_tight_targets_must_be_integers(self, params):
        with pytest.raises(ParameterError, match="integer good index"):
            build_adversary(AdversarySpec("follower-tight", F(7, 10), params=params))

    @pytest.mark.parametrize("construction,a,n,name,regime", [
        ("pred-n-identical", F(1, 10), 3, "k", "small"),
        ("pred-2-identical", F(4, 5), 2, "r", "high"),
    ])
    def test_parameter_the_chosen_regime_does_not_read(self, construction, a, n, name, regime):
        spec = AdversarySpec(construction, a, n=n, params={name: F(1, 100)})
        with pytest.raises(ParameterError, match=f"no parameter '{name}' in its {regime} regime"):
            build_adversary(spec)

    @pytest.mark.parametrize("construction", ["no-pred-2-identical", "no-pred-2-general",
                                              "pred-2-general", "pred-2-identical",
                                              "two-value-2"])
    def test_two_agent_constructions_reject_other_agent_counts(self, construction):
        for n in (3, 7):
            with pytest.raises(ParameterError, match=f"2-agent construction, not n={n}"):
                build_adversary(AdversarySpec(construction, F(4, 5), n=n))


class TestHorizons:
    def test_golden_stream_horizon_formula(self):
        adv = build_adversary(AdversarySpec("no-pred-2-identical", F(7, 10),
                                            params={"lam": F(1, 50)}))
        assert adv.horizon == 51  # ceil((2*phi-3)/(1/200)) + 3 = 48 + 3

        adv = build_adversary(AdversarySpec("no-pred-2-identical", F(19, 20),
                                            params={"lam": F(33, 100)}))
        assert adv.horizon == 6

    def test_fixed_horizons(self):
        assert build_adversary(BASE_SPECS["no-pred-3-identical"]).horizon == 4
        assert build_adversary(BASE_SPECS["no-pred-2-general"]).horizon == 10
        assert build_adversary(BASE_SPECS["pred-2-identical"]).horizon == 4
        assert build_adversary(BASE_SPECS["pred-n-identical"]).horizon == 5
        assert build_adversary(BASE_SPECS["two-value-n"]).horizon == 5


class TestPredictionShapes:
    def test_no_prediction_constructions(self):
        for cid in ("no-pred-2-identical", "no-pred-3-identical", "no-pred-2-general"):
            assert build_adversary(BASE_SPECS[cid]).prediction is None

    def test_follower_tight_uniform(self):
        adv = build_adversary(BASE_SPECS["follower-tight"])
        assert set(adv.prediction.vector(0).values) == {F(1, 3)}

    def test_two_value_predictions_have_two_levels(self):
        for cid in ("two-value-2", "two-value-n"):
            adv = build_adversary(BASE_SPECS[cid])
            assert len(set(adv.prediction.vector(0).values)) <= 2

    def test_three_value_predictions(self):
        adv = build_adversary(BASE_SPECS["pred-n-identical"])
        assert len(set(adv.prediction.vector(0).values)) <= 3


class TestPathPromises:
    @pytest.mark.parametrize("cid", sorted(BASE_SPECS))
    def test_exhaustive_normalization_small(self, cid):
        walk_every_path(build_adversary(BASE_SPECS[cid]))

    @pytest.mark.parametrize("cid", sorted(BASE_SPECS))
    def test_random_paths_normalized_and_error_bounded(self, cid):
        identical = _BUILDERS[cid].identical
        prediction = build_adversary(BASE_SPECS[cid]).prediction
        if prediction is not None:
            assert prediction.identical == identical
        rng = random.Random(17)
        for _ in range(25):
            transcript = random_walk_duel(BASE_SPECS[cid], seed=rng.randrange(2 ** 30))
            assert transcript.truths.identical == identical

    def test_golden_stream_long_paths(self):
        rng = random.Random(23)
        spec = AdversarySpec("no-pred-2-identical", F(7, 10), params={"lam": F(1, 50)})
        for _ in range(25):
            transcript = random_walk_duel(spec, seed=rng.randrange(2 ** 30))
            assert len(transcript.steps) == 51


class _LeakyPair(IdenticalPredictedAdversary):
    """pred-2-identical with half its first tail good missing."""

    def _tail(self, counts):
        first, *rest = super()._tail(counts)
        return (first / 2, *rest)


class _OverclaimingPair(IdenticalPredictedAdversary):
    """pred-2-identical claiming errors up to half of the eps it realizes."""

    def __init__(self, spec):
        super().__init__(spec)
        self.claimed_error = (ZERO, self.eps / 2)


class TestBrokenPromises:
    """A duel against a construction that breaks a promise fails loudly."""

    @pytest.mark.parametrize("cls,message", [
        (_LeakyPair, "normalization promise for agent 0"),
        (_OverclaimingPair, "agent 0 realized error .* outside claimed"),
    ])
    def test_duels_and_error_suite_report_the_breach(self, monkeypatch, cls, message):
        monkeypatch.setitem(_BUILDERS, "pred-2-identical", cls)
        spec = AdversarySpec("pred-2-identical", F(7, 10))
        with pytest.raises(AssertionError, match=message):
            random_walk_duel(spec, seed=0)
        with pytest.raises(AssertionError, match=message):
            run_duel("ef1-lowest", spec)
        (failure,) = verify_claims("error-consistency").failures
        assert re.match(f"pred-2-identical: .*{message}", failure)


class TestStreamStateGraphs:
    """The two streams' compiled state counts, which set the oracle's cost."""

    @pytest.mark.parametrize("spec,states", [
        (AdversarySpec("no-pred-2-identical", F(7, 10), params={"lam": F(1, 50)}), 145),
        (AdversarySpec("no-pred-2-identical", F(19, 20), params={"lam": F(33, 100)}), 10),
        (AdversarySpec("no-pred-2-identical", F(7, 10)), 73),
        (AdversarySpec("no-pred-2-general", F(1, 2)), 32),
        (AdversarySpec("no-pred-2-general", F(1, 10)), 160),
    ])
    def test_compiled_state_count(self, spec, states):
        assert len(_compile_opponent(build_adversary(spec), 10 ** 6)[1]) == states

    def test_asymmetric_close_depends_on_the_order_not_only_the_counts(self):
        # both paths leave each agent one good, but the stream fed different agents
        adv = build_adversary(AdversarySpec("no-pred-2-general", F(1, 2)))

        def closing_row(path):
            state = adv.start()
            for agent in path:
                state = adv.advance(state, agent)
            return adv.reveal(state)

        assert closing_row([0, 1]) == (F(7, 8), F(7, 8))
        assert closing_row([1, 0]) == (F(3, 4), F(1))


class TestRealizedError:
    def test_follower_tight_exact_distance(self):
        spec = AdversarySpec("follower-tight", F(7, 10), params={"D": F(1, 5)})
        transcript = random_walk_duel(spec, seed=4)
        assert transcript.realized_error == (F(1, 5), F(1, 5))

    def test_small_regime_error_value(self):
        spec = AdversarySpec("pred-n-identical", F(1, 10), n=3)
        adv = build_adversary(spec)
        assert adv.branch == "small"
        expected = (F(1, 2) - adv.eps) / 2  # same on both branches
        for seed in range(6):
            transcript = random_walk_duel(spec, seed=seed)
            assert transcript.realized_error == (expected,) * 3

    def test_mirrored_pair_error_equals_eps(self):
        spec = AdversarySpec("pred-2-general", F(3, 4))
        adv = build_adversary(spec)
        for seed in range(6):
            transcript = random_walk_duel(spec, seed=seed)
            assert transcript.realized_error == (adv.eps, adv.eps)

    def test_two_value_pair_error_branch_dependent(self):
        spec = AdversarySpec("two-value-2", F(4, 5), params={"eps": F(11, 100)})
        seen = set()
        for seed in range(20):
            transcript = random_walk_duel(spec, seed=seed)
            seen.update(transcript.realized_error)
        assert seen <= {ZERO, F(11, 100)}
        assert F(11, 100) in seen

    def test_rejects_predictionless_constructions(self):
        spec = BASE_SPECS["no-pred-2-general"]
        transcript = random_walk_duel(spec, seed=0)
        assert transcript.realized_error is None


class TestDefeats:
    def test_every_construction_defeats_its_target(self):
        plan = [
            (BASE_SPECS["no-pred-2-identical"], "greedy-phi", None),
            (BASE_SPECS["no-pred-3-identical"], "ef1-lowest", None),
            (BASE_SPECS["no-pred-2-general"], "ef1-lowest", None),
            (AdversarySpec("follower-tight", F(7, 10), params={"lo": 1, "hi": 0}),
             "follower:lpt", None),
            (BASE_SPECS["pred-2-general"], "follower:cut-and-choose", None),
            (BASE_SPECS["pred-2-identical"], "main", F(7, 10)),
            (BASE_SPECS["pred-n-identical"], "follower:lpt", None),
            (BASE_SPECS["two-value-2"], "main", F(4, 5)),
            (BASE_SPECS["two-value-n"], "follower:lpt", None),
        ]
        for spec, allocator, a in plan:
            transcript = run_duel(allocator, spec, a=a)
            assert transcript.report.efx_factor < spec.a, spec.construction

    def test_follower_tight_targets_larger_group(self):
        spec = AdversarySpec("follower-tight", F(7, 10), n=3,
                             params={"lo": 2, "hi": 0})
        transcript = run_duel("follower:lpt", spec)
        assert transcript.report.efx_factor < F(7, 10)

    def test_scope_misapplication_documented(self):
        # the identical-only form allocator fed a non-identical construction
        spec = AdversarySpec("pred-2-general", F(3, 4))
        transcript = run_duel("main", spec, a=F(3, 4), coerce_identical=True)
        assert transcript.report.efx_factor < F(3, 4)

    @pytest.mark.parametrize("a", [F(31, 50), F(63, 100)])
    def test_identical_pair_defeats_factors_just_above_the_golden_threshold(self, a):
        # the default r keeps lam positive here; with lam clamped to 0 the
        # minimax values were 0.674 and 0.633, not below a
        value = minimax_online_factor(build_adversary(AdversarySpec("pred-2-identical", a)))
        assert value < a

    def test_identical_pair_needs_positive_lam(self):
        with pytest.raises(ParameterError, match="lam > 0"):
            build_adversary(AdversarySpec("pred-2-identical", F(31, 50), params={"r": F(1, 100)}))

    def test_regime_b_identical_construction(self):
        spec = AdversarySpec("pred-2-identical", F(4, 5))  # above sqrt(3)-1
        transcript = run_duel("main", spec, a=F(4, 5))
        assert transcript.report.efx_factor < F(4, 5)


class TestEmittedTruthConsistency:
    @pytest.mark.parametrize("cid", sorted(BASE_SPECS))
    def test_realized_truth_matches_claimed_interval(self, cid):
        spec = BASE_SPECS[cid]
        adv = build_adversary(spec)
        if adv.prediction is None:
            pytest.skip("no prediction emitted")
        transcript = random_walk_duel(spec, seed=99)
        lo, hi = adv.claimed_error
        for i in range(adv.n):
            e = tv_distance(adv.prediction.vector(i), transcript.truths.vector(i))
            assert lo <= e <= hi


# the lower bound each construction realizes (one construction per bound)
REALIZED_BOUNDS = {
    "follower-tight": BoundId.FOLLOWER_NECESSARY,
    "pred-2-general": BoundId.NONID_2_LB,
    "pred-2-identical": BoundId.ID_2_LB,
    "pred-n-identical": BoundId.IDN_LB_COMBINED,
    "two-value-2": BoundId.TWO_VALUE_2_LB,
    "two-value-n": BoundId.TWO_VALUE_N_LB,
}


class TestBoundTable:
    def test_each_lower_bound_has_exactly_one_construction(self):
        claimed = {c: cls.bound for c, cls in _BUILDERS.items() if cls.bound is not None}
        assert claimed == REALIZED_BOUNDS
        assert len(set(claimed.values())) == len(claimed)

    @pytest.mark.parametrize("construction", sorted(REALIZED_BOUNDS))
    def test_claimed_error_exceeds_the_bound_inside_its_domain(self, construction):
        bound = REALIZED_BOUNDS[construction]
        built = 0
        for n in (2,) if _BUILDERS[construction].agents == 2 else (3, 4):
            for a in (F(i, 20) for i in range(21)):
                spec = AdversarySpec(construction, a, n=n)
                if not in_domain(bound, a, BoundParams(n=n)):
                    with pytest.raises(ParameterError, match=bound.value):
                        build_adversary(spec)
                    continue
                try:
                    adv = build_adversary(spec)
                except ParameterError:
                    continue  # in the domain, but the default parameters degenerate
                assert adv.claimed_error[1] > eval_bound(bound, a, BoundParams(n=n)), (a, n)
                built += 1
        assert built >= 4
