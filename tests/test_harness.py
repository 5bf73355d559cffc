"""Runner, generators, exact perturbation, transcripts, and the CLI surface."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from onlinefair import cli, core, harness
from onlinefair.adversaries import AdversarySpec, build_adversary
from onlinefair.core import (Allocation, Instance, ValuationProfile, ValuationVector,
                             fairness_report, rat, tv_distance)
from onlinefair.harness import (
    PERTURB_MODES,
    GameTranscript,
    gen_random_instance,
    make_instance,
    perturb,
    perturb_vector,
    random_walk_duel,
    run_duel,
    run_instance,
)
from onlinefair.cli import main as cli_main
from onlinefair.online import ALLOCATOR_NAMES, OnlineAllocator, make_allocator
from onlinefair.verify import suite_names

from conftest import reference_transcript_dict, stepped


class TestGenerators:
    def test_deterministic_per_seed(self):
        a = gen_random_instance(3, 6, identical=False, seed=42)
        b = gen_random_instance(3, 6, identical=False, seed=42)
        assert a == b
        c = gen_random_instance(3, 6, identical=False, seed=43)
        assert a != c

    def test_outputs_normalized(self):
        profile = gen_random_instance(4, 9, identical=True, seed=7)
        for i in range(4):
            assert sum(profile.vector(i).values) == 1

    def test_single_good_gets_everything(self):
        profile = gen_random_instance(2, 1, identical=True, seed=0)
        assert profile.vector(0).values == (F(1),)

    def test_make_instance_declares_realized_accuracy_once(self, monkeypatch):
        p = gen_random_instance(3, 6, identical=False, seed=21)
        truths = perturb(p, [F(1, 10), F(1, 20), F(0)], seed=22, mode="mixed")
        distances = []
        tv = core.tv_distance

        def counted(a, b):
            distances.append(tv(a, b))
            return distances[-1]

        monkeypatch.setattr(core, "tv_distance", counted)
        inst = make_instance(p, truths)
        assert distances == [F(1, 10), F(1, 20), F(0)] == list(inst.realized_error)
        assert inst.declared_accuracy == (F(9, 10), F(19, 20), F(1))
        assert inst == Instance(p, truths, inst.declared_accuracy)
        assert Instance.from_json_dict(inst.to_json_dict()) == inst

    def test_make_instance_checks_the_agent_count(self):
        p = gen_random_instance(2, 4, identical=True, seed=1)
        truths = gen_random_instance(3, 4, identical=True, seed=2)
        for pair in ((p, truths), (truths, p)):
            with pytest.raises(ValueError, match="^predictions and truths disagree"):
                make_instance(*pair)


class TestPerturb:
    def test_zero_distance_is_identity(self):
        p = gen_random_instance(2, 5, identical=True, seed=3)
        assert perturb(p, [F(0), F(0)], seed=9) == p

    def test_exact_distance_many_triples(self):
        rng = random.Random(1234)
        for trial in range(1000):
            horizon = rng.randint(1, 10)
            profile = gen_random_instance(2, horizon, identical=True,
                                          seed=rng.randrange(2 ** 30))
            d = F(rng.randint(0, 1000), 1000)
            mode = PERTURB_MODES[trial % len(PERTURB_MODES)]
            truths = perturb(profile, [d, d], seed=rng.randrange(2 ** 30), mode=mode)
            realized = tv_distance(profile.vector(0), truths.vector(0))
            assert realized == d, (trial, d, mode)

    def test_extra_goods_mode_grows_horizon(self):
        p = gen_random_instance(2, 4, identical=True, seed=5)
        truths = perturb(p, [F(1, 8), F(1, 8)], seed=6, mode="extra-goods")
        assert truths.horizon > p.horizon

    def test_mixed_mode_can_shrink_horizon(self):
        rng = random.Random(0)
        shrunk = False
        for _ in range(300):
            p = gen_random_instance(2, 6, identical=True, seed=rng.randrange(2 ** 30))
            truths = perturb(p, [F(1, 3), F(1, 3)], seed=rng.randrange(2 ** 30),
                             mode="mixed")
            if truths.horizon < p.horizon:
                shrunk = True
                break
        assert shrunk

    def test_non_identical_profiles_padded(self):
        p = gen_random_instance(2, 4, identical=False, seed=8)
        truths = perturb(p, [F(1, 4), F(1, 8)], seed=9, mode="extra-goods")
        assert truths.vector(0).horizon == truths.vector(1).horizon
        assert tv_distance(p.vector(0), truths.vector(0)) == F(1, 4)
        assert tv_distance(p.vector(1), truths.vector(1)) == F(1, 8)

    def test_infeasible_distance_rejected(self):
        p = gen_random_instance(2, 3, identical=True, seed=1)
        with pytest.raises(ValueError):
            perturb(p, [F(3, 2), F(3, 2)], seed=2)

    def test_identical_profile_needs_common_distance(self):
        p = gen_random_instance(2, 3, identical=True, seed=1)
        with pytest.raises(ValueError):
            perturb(p, [F(1, 4), F(1, 8)], seed=2)

    def test_unknown_mode_rejected(self):
        v = ValuationVector((F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            perturb_vector(v, F(1, 4), random.Random(0), mode="sideways")


def replay(transcript: GameTranscript) -> Allocation:
    """The allocation that the transcript's choices make, built here, apart
    from the allocator's own ``allocation``."""
    bundles = [set() for _ in range(transcript.truths.agents)]
    for t, agent in enumerate(transcript.choices):
        bundles[agent].add(t)
    return Allocation.of(bundles, num_goods=len(transcript.choices))


class TestTranscripts:
    def test_replay_reproduces_allocation(self):
        p = gen_random_instance(2, 6, identical=True, seed=11)
        transcript = run_instance("greedy-phi", make_instance(p, p))
        assert replay(transcript) == transcript.allocation

    def test_duel_transcripts_deterministic(self):
        spec = AdversarySpec("pred-2-identical", F(7, 10))
        a = run_duel("main", spec, a=F(7, 10))
        b = run_duel("main", spec, a=F(7, 10))
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("spec,vectors,distances", [
        (AdversarySpec("pred-n-identical", F(1, 2), n=4), 1, 1),
        (AdversarySpec("no-pred-2-general", F(1, 2)), 2, 0),
    ], ids=["identical", "general"])
    def test_duel_builds_one_truth_vector_per_distinct_column(self, monkeypatch, spec,
                                                              vectors, distances):
        # the truths are built from the revealed int weights, one vector per
        # valuation, and each distinct prediction/truth pair is measured once
        adv = build_adversary(spec)
        allocator = make_allocator("ef1-lowest", n=adv.n, identical=adv.identical)
        built, measured = [], []
        post_init, tv = ValuationVector.__post_init__, core.tv_distance

        def counting_post_init(self, den, weights):
            built.append(weights)
            post_init(self, den, weights)

        monkeypatch.setattr(ValuationVector, "__post_init__", counting_post_init)
        monkeypatch.setattr(core, "tv_distance", lambda p, v: measured.append(1) or tv(p, v))
        transcript = harness._duel(adv, allocator, None)
        assert len(built) == len({id(v) for v in transcript.truths.vectors}) == vectors
        assert len(measured) == distances
        assert built == list(dict.fromkeys(v.weights for v in transcript.truths.vectors))

    def test_random_walks_deterministic_per_seed(self):
        spec = AdversarySpec("two-value-2", F(4, 5))
        a = random_walk_duel(spec, seed=5)
        b = random_walk_duel(spec, seed=5)
        assert a.to_json() == b.to_json()

    def test_incompatible_allocator_named(self):
        p = gen_random_instance(3, 5, identical=True, seed=2)
        with pytest.raises(ValueError, match="greedy-phi"):
            run_instance("greedy-phi", make_instance(p, p))

    def test_identical_only_enforced_on_truths(self):
        p = ValuationProfile.identical_from(ValuationVector((F(1, 2), F(1, 2))), 2)
        v = ValuationProfile((ValuationVector((F(1, 4), F(3, 4))),
                              ValuationVector((F(3, 4), F(1, 4)))))
        with pytest.raises(ValueError, match="identical"):
            run_instance("greedy-phi", make_instance(p, v))

    def test_transcript_json_fields(self):
        p = gen_random_instance(2, 4, identical=True, seed=13)
        transcript = run_instance("ef1-lowest", make_instance(p, p))
        blob = json.loads(transcript.to_json())
        assert blob["allocator"] == "ef1-lowest"
        assert len(blob["steps"]) == 4
        assert blob["efx_factor"].count("/") == 1


def _instance_runs(horizon: int):
    """Every allocator on one identical two-agent instance with ``horizon`` goods."""
    p = gen_random_instance(2, horizon, identical=True, seed=horizon)
    truths = perturb(p, [F(1, 10)] * 2, seed=horizon, mode="values") if horizon > 1 else p
    inst = make_instance(p, truths)
    return [run_instance(name, inst, a=F(4, 5) if name == "main" else None)
            for name in ALLOCATOR_NAMES if name != "three-goods" or horizon <= 3]


def _general_two_denominators() -> list[GameTranscript]:
    """Two general truth rows over denominators 4 and 6, each with a zero-valued good."""
    truths = ValuationProfile((ValuationVector((F(1, 2), F(0), F(1, 4), F(1, 4))),
                               ValuationVector((F(1, 3), F(1, 6), F(1, 2), F(0)))))
    predictions = ValuationProfile((ValuationVector((F(1, 4),) * 4),) * 2)
    inst = make_instance(predictions, truths)
    return [run_instance(name, inst) for name in ("ef1-lowest", "follower:cut-and-choose")]


def _identical_shared_vector() -> list[GameTranscript]:
    """Three identical agents whose truths are one shared vector object."""
    truths = ValuationProfile.identical_from(
        ValuationVector((F(1, 5), F(0), F(3, 10), F(1, 2), F(0))), 3)
    predictions = ValuationProfile.identical_from(ValuationVector((F(1, 5),) * 5), 3)
    inst = make_instance(predictions, truths)
    return [run_instance(name, inst) for name in ("ef1-lowest", "follower:lpt")]


WRITER_CASES = {
    "every-allocator-T1": lambda: _instance_runs(1),
    "every-allocator-T3": lambda: _instance_runs(3),
    "every-allocator-T7": lambda: _instance_runs(7),
    "empty-bundle-n3": lambda: [run_instance(
        "ef1-lowest", make_instance(*[gen_random_instance(3, 2, identical=False, seed=5)] * 2))],
    "duel": lambda: [run_duel("main", AdversarySpec("pred-2-identical", F(7, 10)),
                              a=F(7, 10))],
    "duel-without-prediction": lambda: [run_duel(
        "greedy-phi", AdversarySpec("no-pred-2-identical", F(7, 10)))],
    "random-walk": lambda: [random_walk_duel(AdversarySpec("two-value-2", F(4, 5)), seed=5)],
    "no-steps": lambda: [_no_steps()],
    "general-n2-two-denominators": _general_two_denominators,
    "identical-n3-shared-vector": _identical_shared_vector,
}


def _no_steps() -> GameTranscript:
    """A transcript before any good arrives; no runner returns one."""
    truths = ValuationProfile.identical_from(ValuationVector((F(1),)), 2)
    alloc = Allocation.of([set(), set()], num_goods=0)
    return GameTranscript(source="empty", allocator="none", choices=(), allocation=alloc,
                          truths=truths, report=fairness_report(alloc, truths),
                          realized_error=None)


@pytest.mark.parametrize("case", WRITER_CASES)
def test_transcript_writer_matches_json_dumps(case):
    for transcript in WRITER_CASES[case]():
        s = transcript.to_json()
        assert json.dumps(json.loads(s), indent=2) == s
        assert json.loads(s) == reference_transcript_dict(transcript)


def test_writer_cases_cover_empty_bundles_and_null_fields():
    transcripts = [t for make in WRITER_CASES.values() for t in make()]
    assert {t.allocator for t in transcripts} >= {"random-walk", *(
        name.split(":")[0] for name in ALLOCATOR_NAMES)}
    assert any(not b for t in transcripts for b in t.allocation.bundles)
    assert any(t.realized_error is None for t in transcripts)
    assert any(t.seed is not None for t in transcripts)
    assert {len(t.choices) for t in transcripts} >= {0, 1}
    assert any(len({v.den for v in t.truths.vectors}) > 1 for t in transcripts)
    assert any(0 in v.weights for t in transcripts for v in t.truths.vectors)
    assert any(t.truths.agents == 3 and len(set(map(id, t.truths.vectors))) == 1
               for t in transcripts)


@pytest.mark.parametrize("case", WRITER_CASES)
def test_step_values_are_the_truths_columns(case, monkeypatch):
    # the writer reads step t's values from the truths' column t
    calls = []
    step = OnlineAllocator.step

    def recording(self, weights):
        t = len(self.choices)
        agent = step(self, weights)
        calls.append((t, tuple(F(w, self.den) for w in weights), agent))
        return agent

    monkeypatch.setattr(OnlineAllocator, "step", recording)
    transcripts = WRITER_CASES[case]()
    for transcript in transcripts:
        mine, calls[:len(transcript.choices)] = calls[:len(transcript.choices)], []
        vectors = transcript.truths.vectors
        assert mine == [(t, tuple(v[t] for v in vectors), agent)
                        for t, agent in enumerate(transcript.choices)]
        assert replay(transcript) == transcript.allocation
    assert not calls


@pytest.mark.parametrize("case", WRITER_CASES)
def test_writer_case_choices_match_stepping_on_values(case, monkeypatch):
    # a twin of each allocator a case builds, stepped on the truths' Fraction
    # columns over the lcm of their reduced denominators, not through columns
    built = []
    make = harness.make_allocator

    def recording(name, **kwargs):
        built.append((name, kwargs))
        return make(name, **kwargs)

    monkeypatch.setattr(harness, "make_allocator", recording)
    for transcript in WRITER_CASES[case]():
        if transcript.allocator == "random-walk":
            twin = harness._RandomWalker(transcript.truths.agents, transcript.seed)
        elif not transcript.choices:  # the transcript no runner returns
            continue
        else:
            name, kwargs = built.pop(0)
            twin = make(name, **kwargs)
        stream = zip(*(v.values for v in transcript.truths.vectors))
        assert tuple(stepped(twin, stream)) == transcript.choices
    assert not built


def _prime_vector(rng: random.Random, horizon: int, prime: int) -> ValuationVector:
    """Values k/prime, about a third of them zero; the last good takes the rest."""
    head = [0 if rng.random() < 1 / 3 else rng.randint(1, prime // horizon)
            for _ in range(horizon - 1)]
    return ValuationVector(tuple(F(w, prime) for w in head) + (F(prime - sum(head), prime),))


def _small_vector(rng: random.Random, horizon: int) -> ValuationVector:
    """Small integer weights with zeros and ties, normalized by their sum."""
    weights = [rng.choice([0, 0, 1, 2, 3, 5, 8]) for _ in range(horizon)]
    weights[rng.randrange(horizon)] += 1
    return ValuationVector(tuple(F(w, sum(weights)) for w in weights))


# primes near 10^6 and 10^9, so the rows' denominators are pairwise coprime
DIFFERENTIAL_PRIMES = (1000003, 1000033, 1000037, 999999937, 1000000007, 1000000009)
# main splits these predictions as form 1 at a = 4/5: its three top goods are tracked
TRACKING_PREDICTIONS = ValuationProfile.identical_from(
    ValuationVector((F(13, 40),) * 3 + (F(1, 40),)), 2)


def differential_instances():
    """Seeded (allocator, instance, a) triples for every allocator: general truths
    over two or more denominators (pairwise-coprime primes, or small weights),
    identical truths for the allocators that need them, zero-valued goods, n = 3."""
    rng = random.Random(1919)
    for name in ALLOCATOR_NAMES:
        general = name in ("ef1-lowest", "follower:lpt", "follower:cut-and-choose")
        for trial in range(24):
            n = 3 if general and name != "follower:cut-and-choose" and trial % 2 else 2
            horizon = rng.randint(1, 12)
            primes = rng.sample(DIFFERENTIAL_PRIMES, n)

            def row(i):
                if trial % 3:
                    return _prime_vector(rng, horizon, primes[i])
                return _small_vector(rng, horizon)

            if general:
                truths = ValuationProfile(tuple(row(i) for i in range(n)))
            else:
                truths = ValuationProfile.identical_from(row(0), n)
            t_pred = rng.randint(1, 3) if name == "three-goods" else rng.randint(1, 12)
            predictions = gen_random_instance(n, t_pred, name != "follower:cut-and-choose",
                                              seed=rng.randrange(2 ** 30))
            a = rng.choice([F(2, 3), F(4, 5), F(1)]) if name == "main" else None
            if name == "main" and trial % 2:  # the first good on, above or below the threshold
                predictions, a = TRACKING_PREDICTIONS, F(4, 5)
                th = make_allocator(name, n=2, identical=True, prediction=predictions,
                                    a=a).threshold
                first = th + F(rng.choice([-1, 0, 1]), primes[0])
                rest = _prime_vector(rng, 3, primes[1]).values
                truths = ValuationProfile.identical_from(
                    ValuationVector((first,) + tuple((1 - first) * v for v in rest)), 2)
            yield name, make_instance(predictions, truths), a


def test_differential_instances_cover_the_hard_cases():
    cases = list(differential_instances())
    assert {name for name, _, _ in cases} == set(ALLOCATOR_NAMES)
    dens = [[v.den for v in inst.truths.vectors] for _, inst, _ in cases]
    assert any(len(set(d)) >= 2 and all(math.gcd(x, y) == 1 for x, y in
                                        itertools.combinations(d, 2)) for d in dens)
    assert any(len(set(d)) >= 2 and any(math.gcd(x, y) > 1 for x, y in
                                        itertools.combinations(d, 2)) for d in dens)
    assert any(0 in v.weights for _, inst, _ in cases for v in inst.truths.vectors)
    assert {inst.agents for name, inst, _ in cases if name == "ef1-lowest"} == {2, 3}
    assert {inst.agents for name, inst, _ in cases if name == "follower:lpt"} == {2, 3}
    # main admits the first tracked good in some runs and turns it away in others
    assert {run_instance(name, inst, a=a).choices[0] for name, inst, a in cases
            if inst.predictions is TRACKING_PREDICTIONS} == {0, 1}


def test_run_choices_match_stepping_on_values():
    for name, instance, a in differential_instances():
        transcript = run_instance(name, instance, a=a)
        twin = make_allocator(name, n=instance.agents, identical=instance.truths.identical,
                              prediction=instance.predictions, a=a)
        stream = zip(*(v.values for v in instance.truths.vectors))
        assert tuple(stepped(twin, stream)) == transcript.choices, name


class TestCli:
    def _cli(self, *argv, expect=0):
        code = cli_main(list(argv))
        assert code == expect

    def test_gen_perturb_run_pipeline(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        self._cli("gen", "--n", "2", "--T", "6", "--identical", "--seed", "4",
                  "--out", str(inst))
        perturbed = tmp_path / "perturbed.json"
        self._cli("perturb", "--instance", str(inst), "--d", "1/50",
                  "--seed", "9", "--out", str(perturbed))
        loaded = Instance.from_json_dict(json.loads(perturbed.read_text()))
        realized = tv_distance(loaded.predictions.vector(0), loaded.truths.vector(0))
        assert realized == F(1, 50)
        self._cli("run", "--instance", str(perturbed), "--allocator", "main",
                  "--a", "7/10")
        blob = json.loads(capsys.readouterr().out)
        assert rat(blob["efx_factor"]) >= F(7, 10)

    def test_duel_subcommand(self, capsys):
        self._cli("duel", "--adversary", "two-value-2", "--a", "4/5",
                  "--param", "eps=11/100", "--allocator", "main",
                  "--allocator-a", "4/5")
        blob = json.loads(capsys.readouterr().out)
        assert rat(blob["efx_factor"]) < F(4, 5)

    def test_oracle_brute_force(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        self._cli("gen", "--n", "2", "--T", "5", "--identical", "--seed", "1",
                  "--out", str(inst))
        self._cli("oracle", "brute-force", "--instance", str(inst))
        blob = json.loads(capsys.readouterr().out)
        assert rat(blob["factor"]) == 1

    def test_oracle_minimax(self, capsys):
        self._cli("oracle", "minimax", "--adversary", "two-value-2", "--a", "4/5",
                  "--param", "eps=11/100")
        blob = json.loads(capsys.readouterr().out)
        assert blob["below_target"] is True

    def test_bounds_sweep_csv(self, capsys):
        self._cli("bounds", "--sweep", "--ids", "follower-sufficient,main-sufficient",
                  "--grid", "0.62:0.70:0.04", "--n", "2")
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "a,follower-sufficient,main-sufficient"
        assert len(out) == 4

    def test_bounds_eval_and_invert(self, capsys):
        self._cli("bounds", "--eval", "main-sufficient", "--a", "4/5")
        assert capsys.readouterr().out.strip() == "52/1323"
        self._cli("bounds", "--invert", "follower-sufficient", "--d", "1/27")
        assert capsys.readouterr().out.strip() == "4/5"
        # the bound is defined at a = 0, where follower-tight cannot be built
        self._cli("bounds", "--eval", "follower-necessary", "--a", "0")
        assert capsys.readouterr().out.strip() == "1/3"

    def test_verify_single_suite(self, capsys):
        self._cli("verify", "--suite", "figure-curves")
        out = capsys.readouterr().out
        assert "PASS" in out and "figure-curves" in out

    def test_verify_without_suite_runs_every_suite(self, capsys):
        self._cli("verify")
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[3].rstrip(":") for line in lines] == suite_names()
        assert all(line.startswith("PASS") for line in lines)

    def test_console_entry_point(self):
        proc = _run_module("onlinefair.cli", "bounds", "--eval", "id-2-lb", "--a", "4/5")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1/20"



EVAL_ARGV = ("bounds", "--eval", "main-sufficient", "--a", "4/5")


class TestOutFile:
    """``--out`` rewrites an existing file in place and accepts non-regular targets."""

    def _write(self, out) -> None:
        assert cli_main([*EVAL_ARGV, "--out", str(out)]) == 0

    def test_shorter_text_over_longer_file_leaves_only_the_new_bytes(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text("#" * 1000)
        self._write(out)
        assert out.read_bytes() == b"52/1323"

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("#" * 1000)
        link.symlink_to(target)
        self._write(link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"52/1323"

    def test_mode_bits_survive_a_rewrite(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text("#" * 1000)
        out.chmod(0o640)
        self._write(out)
        assert out.stat().st_mode & 0o7777 == 0o640

    def test_dev_null(self):
        self._write(os.devnull)

    def test_rewrite_keeps_the_inode_and_never_truncates_on_open(self, tmp_path, monkeypatch):
        out = tmp_path / "out.txt"
        out.write_text("#" * 1000)
        inode = out.stat().st_ino
        flags, real_open = [], os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        self._write(out)
        assert flags and not any(flag & os.O_TRUNC for flag in flags)
        assert out.stat().st_ino == inode
        assert out.read_bytes() == b"52/1323"

    @pytest.mark.parametrize("argv", [
        ("run", "--instance", "{inst}", "--allocator", "main", "--a", "4/5"),
        ("duel", "--adversary", "two-value-2", "--a", "4/5", "--param", "eps=11/100",
         "--allocator", "main", "--allocator-a", "4/5"),
        ("gen", "--n", "2", "--T", "8", "--identical", "--seed", "7"),
        ("perturb", "--instance", "{inst}", "--d", "1/25", "--seed", "3"),
        ("oracle", "brute-force", "--instance", "{inst}"),
        ("oracle", "minimax", "--adversary", "pred-2-identical", "--a", "7/10"),
        ("bounds", "--sweep", "--ids", "follower-sufficient,main-sufficient,id-2-lb",
         "--grid", "0.56:1:1/100", "--n", "2"),
        EVAL_ARGV,
    ], ids=["run", "duel", "gen", "perturb", "oracle-brute-force", "oracle-minimax",
            "bounds-sweep", "bounds-eval"])
    def test_out_file_holds_the_bytes_printed_to_stdout(self, tmp_path, capsys, argv):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", "--n", "2", "--T", "8", "--identical", "--seed", "7",
                         "--out", str(inst)]) == 0
        argv = [arg.format(inst=inst) for arg in argv]
        assert cli_main(argv) == 0
        printed = capsys.readouterr().out.encode()
        out = tmp_path / "out"
        out.write_bytes(b"#" * (2 * len(printed) + 100))
        assert cli_main([*argv, "--out", str(out)]) == 0
        written = out.read_bytes()
        # stdout alone ends the text with a newline when it lacks one
        assert printed == (written if written.endswith(b"\n") else written + b"\n")
        assert capsys.readouterr().out == ""


class TestRunPathReadsWeightsOnly:
    """``onlinefair run`` steps, measures and writes from each vector's int
    weights: no vector of an instance loaded from JSON builds its ``values``."""

    RUNS = (
        ((2, 40, True), "main", ("--a", "7/10")),
        ((2, 40, True), "greedy-phi", ()),
        ((3, 40, True), "follower:lpt", ()),
        ((3, 40, True), "ef1-lowest", ()),
        ((2, 40, False), "follower:cut-and-choose", ()),
        ((2, 40, False), "ef1-lowest", ()),
        ((2, 3, True), "three-goods", ()),
    )

    @staticmethod
    def _wire(n: int, horizon: int, identical: bool) -> dict:
        predictions = gen_random_instance(n, horizon, identical, seed=horizon + n)
        truths = perturb(predictions, [F(1, 50)] * n, seed=3, mode="mixed")
        return make_instance(predictions, truths).to_json_dict()

    @staticmethod
    def _assert_no_values(instance: Instance) -> None:
        vectors = instance.predictions.vectors + instance.truths.vectors
        assert not any("values" in vars(v) for v in vectors)

    def test_runs_cover_every_allocator(self):
        assert {name for _, name, _ in self.RUNS} == set(ALLOCATOR_NAMES)

    @pytest.mark.parametrize("shape,allocator,extra", RUNS, ids=[r[1] for r in RUNS])
    def test_run_instance(self, shape, allocator, extra):
        instance = Instance.from_json_dict(self._wire(*shape))
        transcript = run_instance(allocator, instance, a=rat(extra[1]) if extra else None)
        transcript.to_json()
        self._assert_no_values(instance)

    @pytest.mark.parametrize("shape,allocator,extra", RUNS, ids=[r[1] for r in RUNS])
    def test_cli_run(self, tmp_path, monkeypatch, shape, allocator, extra):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self._wire(*shape)))
        loaded, load = [], cli._load_instance
        monkeypatch.setattr(cli, "_load_instance", lambda p: loaded.append(load(p)) or loaded[-1])
        assert cli_main(["run", "--instance", str(path), "--allocator", allocator, *extra,
                         "--out", str(tmp_path / "run.json")]) == 0
        self._assert_no_values(*loaded)


class TestVerifyPathReadsWeightsOnly:
    """An acceptance-suite trial generates, perturbs and scores from each
    vector's int weights: no vector it makes or reads builds its ``values``."""

    @staticmethod
    def _assert_no_values(*profiles: ValuationProfile) -> None:
        assert not any("values" in vars(v) for p in profiles for v in p.vectors)

    @pytest.mark.parametrize("mode", PERTURB_MODES)
    @pytest.mark.parametrize("identical", [True, False], ids=["identical", "general"])
    def test_generate_perturb_and_score(self, identical, mode):
        n, horizon = 3, 12
        predictions = gen_random_instance(n, horizon, identical, seed=5)
        ds = [F(1, 10)] * n if identical else [F(1, 10), F(1, 7), F(1, 3)]
        truths = perturb(predictions, ds, seed=6, mode=mode)
        self._assert_no_values(predictions, truths)
        for profile in (predictions, truths):
            alloc = Allocation.of([range(i, profile.horizon, n) for i in range(n)],
                                  num_goods=profile.horizon)
            fairness_report(alloc, profile)
        run_instance("ef1-lowest", make_instance(predictions, truths))
        self._assert_no_values(predictions, truths)


SRC = Path(__file__).resolve().parent.parent / "src"

ONE_ROW_FOR_TWO_AGENTS = {"n": 2, "identical": True, "predictions": [["1/2", "1/2"]],
                          "truths": [["1/2", "1/2"]], "accuracy": ["1", "1"]}
UNNORMALIZED = {"n": 2, "identical": True, "predictions": [["1/2", "1/3"]] * 2,
                "truths": [["1/2", "1/3"]] * 2, "accuracy": ["1", "1"]}


def _run_module(module: str, *argv) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=30)


class TestCliErrors:
    """Bad input exits 2 with one ``onlinefair: <message>`` line and no traceback."""

    def _fails(self, *argv, message):
        proc = _run_module("onlinefair.cli", *argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        line, = proc.stderr.splitlines()
        assert line.startswith("onlinefair: ") and message in line
        return line

    def _instance(self, tmp_path, content) -> str:
        path = tmp_path / "inst.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)

    def test_bound_outside_its_domain(self):
        self._fails("bounds", "--eval", "main-sufficient", "--a", "1/2",
                    message="main-sufficient")

    def test_construction_parameter_violation(self):
        self._fails("duel", "--adversary", "two-value-2", "--a", "1/2",
                    "--allocator", "main", "--allocator-a", "4/5",
                    message="need a in (sqrt(3)-1, 1]")

    def test_parameter_the_construction_does_not_read(self):
        self._fails("oracle", "minimax", "--adversary", "pred-2-identical", "--a", "7/10",
                    "--param", "lamda=1/100",
                    message="pred-2-identical has no parameter 'lamda'")

    def test_fractional_follower_targets(self):
        self._fails("oracle", "minimax", "--adversary", "follower-tight", "--a", "7/10",
                    "--param", "lo=1/2", "--param", "hi=3/2",
                    message="need an integer good index lo")

    def test_follower_tight_at_zero(self):
        self._fails("oracle", "minimax", "--adversary", "follower-tight", "--a", "0",
                    message="need a > 0; at a = 0 follower-necessary(a, n) is 1/(2n-1)")

    def test_instance_with_one_row_for_two_agents(self, tmp_path):
        self._fails("run", "--instance", self._instance(tmp_path, ONE_ROW_FOR_TWO_AGENTS),
                    "--allocator", "ef1-lowest", message="expected 2 agent rows, got 1")

    def test_instance_with_one_row_and_a_huge_agent_count(self, tmp_path):
        huge = {**ONE_ROW_FOR_TWO_AGENTS, "n": 10 ** 12}
        self._fails("run", "--instance", self._instance(tmp_path, huge),
                    "--allocator", "ef1-lowest",
                    message=f"expected {10 ** 12} agent rows, got 1")

    def test_unnormalized_instance(self, tmp_path):
        self._fails("run", "--instance", self._instance(tmp_path, UNNORMALIZED),
                    "--allocator", "ef1-lowest", message="values sum to 5/6, expected 1")

    def test_bad_json(self, tmp_path):
        self._fails("run", "--instance", self._instance(tmp_path, "{"),
                    "--allocator", "ef1-lowest", message="Expecting property name")

    @pytest.mark.parametrize("argv", [
        ("run", "--allocator", "main"),
        ("perturb", "--d", "1/25"),
        ("oracle", "brute-force"),
    ], ids=["run", "perturb", "oracle-brute-force"])
    def test_instance_nested_deeper_than_the_recursion_limit(self, tmp_path, argv):
        deep = self._instance(tmp_path, "[" * 100000 + "]" * 100000)
        self._fails(*argv, "--instance", deep, message="instance JSON nests too deeply")

    def test_unknown_suite(self):
        self._fails("verify", "--suite", "ef1-baseline", "--suite", "nope",
                    message="unknown suite 'nope'; choose from lpt-exactness, ")

    def test_zero_denominator(self):
        self._fails("bounds", "--eval", "main-sufficient", "--a", "1/0",
                    message="Fraction(1, 0)")

    @pytest.mark.parametrize("entry", ["1/0", "1/00"])
    def test_zero_denominator_in_an_instance(self, tmp_path, entry):
        rows = [["1/2", entry]] * 2
        bad = {**ONE_ROW_FOR_TWO_AGENTS, "predictions": rows, "truths": rows}
        self._fails("run", "--instance", self._instance(tmp_path, bad),
                    "--allocator", "ef1-lowest", message="onlinefair: Fraction(1, 0)")

    def test_oracle_over_budget(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", "--n", "2", "--T", "24", "--identical",
                         "--out", str(inst)]) == 0
        self._fails("oracle", "brute-force", "--instance", str(inst),
                    message="2^24 allocations exceed the enumeration budget")

    def test_oracle_on_one_agent(self, tmp_path):
        one = {"n": 1, "identical": True, "predictions": [["1/1500"] * 1500],
               "truths": [["1/1500"] * 1500], "accuracy": ["1"]}
        self._fails("oracle", "brute-force", "--instance", self._instance(tmp_path, one),
                    message="need at least two agents")

    def test_missing_instance_file(self, tmp_path):
        self._fails("run", "--instance", str(tmp_path / "missing.json"),
                    "--allocator", "ef1-lowest", message="No such file or directory")

    def test_instance_without_agent_count(self, tmp_path):
        self._fails("run", "--instance", self._instance(tmp_path, {"identical": True}),
                    "--allocator", "ef1-lowest", message="instance has no 'n' key")

    def test_instance_that_is_not_an_object(self, tmp_path):
        self._fails("run", "--instance", self._instance(tmp_path, [ONE_ROW_FOR_TWO_AGENTS]),
                    "--allocator", "ef1-lowest", message="an instance is a JSON object")

    def test_instance_with_float_values(self, tmp_path):
        floats = dict(UNNORMALIZED, predictions=[[0.5, 0.5]] * 2)
        self._fails("run", "--instance", self._instance(tmp_path, floats),
                    "--allocator", "ef1-lowest", message="expected a list of p/q strings")

    @pytest.mark.parametrize("change,message", [
        ({"identical": "false"}, "instance key 'identical' is not a bool"),
        ({"n": True}, "instance key 'n' is not an int"),
        ({"truths": [[True, False]] * 2}, "expected a list of p/q strings, got a bool"),
    ], ids=["identical-string", "n-bool", "bool-values"])
    def test_instance_key_of_the_wrong_json_type(self, tmp_path, change, message):
        bad = {**ONE_ROW_FOR_TWO_AGENTS, "predictions": [["1/2", "1/2"]] * 2,
               "truths": [["1/2", "1/2"]] * 2, **change}
        self._fails("run", "--instance", self._instance(tmp_path, bad),
                    "--allocator", "ef1-lowest", message=message)

    def test_parameter_the_chosen_regime_does_not_read(self):
        self._fails("oracle", "minimax", "--adversary", "pred-n-identical", "--a", "1/10",
                    "--n", "3", "--param", "k=1/100",
                    message="no parameter 'k' in its small regime")

    def test_two_agent_construction_with_more_agents(self):
        self._fails("oracle", "minimax", "--adversary", "two-value-2", "--a", "4/5",
                    "--param", "eps=11/100", "--n", "3",
                    message="two-value-2 is a 2-agent construction, not n=3")

    @pytest.mark.parametrize("argv,message", [
        (("bounds", "--sweep", "--grid", "0:1:1/2"), "bounds --sweep needs --ids"),
        (("bounds", "--sweep", "--ids", "id-2-lb"), "bounds --sweep needs --grid"),
        (("bounds", "--eval", "id-2-lb"), "bounds --eval needs --a"),
        (("bounds", "--invert", "id-2-lb"), "bounds --invert needs --d"),
        (("bounds",), "bounds: pass --sweep, --eval, or --invert"),
        (("oracle", "brute-force"), "oracle brute-force needs --instance"),
        (("oracle", "minimax", "--a", "7/10"), "oracle minimax needs --adversary"),
        (("oracle", "minimax", "--adversary", "pred-2-identical", "--a", "7/10",
          "--param", "eps"),
         "--param expects name=p/q"),
    ], ids=["sweep-ids", "sweep-grid", "eval-a", "invert-d", "bounds-mode",
            "brute-force-instance", "minimax-adversary", "param-without-value"])
    def test_missing_argument(self, argv, message):
        self._fails(*argv, message=message)

    def test_golden_stream_factor_below_minus_phi(self):
        # a^2+a-1 > 0 at a = -3 too, so the quadratic test alone would accept it
        self._fails("oracle", "minimax", "--adversary", "no-pred-2-identical", "--a", "-3",
                    "--param", "lam=1/10", message="need a in (phi-1, 1]")

    @pytest.mark.parametrize("allocator,message", [
        (("main", "--allocator-a", "3/4"), "the form-guided allocator needs identical predictions"),
        (("greedy-phi",), "greedy-phi needs identical true valuations"),
    ], ids=["main", "greedy-phi"])
    def test_identical_only_allocator_on_a_non_identical_duel(self, allocator, message):
        self._fails("duel", "--adversary", "pred-2-general", "--a", "3/4",
                    "--allocator", *allocator, message=message)

    @pytest.mark.parametrize("allocator", [("three-goods",), ("main", "--a", "4/5")])
    def test_two_agent_allocator_on_three_agents(self, tmp_path, allocator):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", "--n", "3", "--T", "4", "--identical", "--out", str(inst)]) == 0
        self._fails("run", "--instance", str(inst), "--allocator", *allocator,
                    message=f"{allocator[0]} handles exactly 2 agents, not n=3")

    @pytest.mark.parametrize("allocator,gen,message", [
        ("follower:cut-and-choose", ("--n", "3", "--identical"),
         "cut-and-choose is a two-agent procedure"),
        ("follower:lpt", ("--n", "2"), "the largest-value-first base needs identical predictions"),
    ], ids=["cut-and-choose-on-three-agents", "lpt-on-general-predictions"])
    def test_follower_base_outside_its_scope(self, tmp_path, allocator, gen, message):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", *gen, "--T", "4", "--out", str(inst)]) == 0
        line = self._fails("run", "--instance", str(inst), "--allocator", allocator,
                           message=message)
        assert line == f"onlinefair: {message}"

    def test_target_factor_the_allocator_does_not_read_on_run(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", "--n", "2", "--T", "4", "--identical", "--out", str(inst)]) == 0
        self._fails("run", "--instance", str(inst), "--allocator", "ef1-lowest", "--a", "4/5",
                    message="ef1-lowest reads no target factor a; only main does")

    def test_target_factor_the_allocator_does_not_read_on_duel(self):
        self._fails("duel", "--adversary", "two-value-2", "--a", "4/5",
                    "--allocator", "ef1-lowest", "--allocator-a", "7/10",
                    message="ef1-lowest reads no target factor a; only main does")

    def test_minimax_horizon_deeper_than_the_recursion_limit(self):
        # a 3781-good stream is searched on the oracle's own stack, not refused
        proc = _run_module("onlinefair.cli", "oracle", "minimax", "--adversary",
                           "no-pred-2-identical", "--a", "7/10", "--param", "lam=1/4000")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == {"factor": "3778/6111", "below_target": True}

    def test_minimax_six_identical_agents_under_the_default_budget(self):
        # one agent is tried per class of equal (count, bundle stats); trying
        # every agent label runs past the 10^6-node budget here
        proc = _run_module("onlinefair.cli", "oracle", "minimax", "--adversary",
                           "pred-n-identical", "--a", "1/2", "--n", "6")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"factor": "5/22", "below_target": True}

    def test_minimax_over_its_node_budget(self):
        # 5^9 assignment sequences against the follower-tight family: over 10^6
        self._fails("oracle", "minimax", "--adversary", "follower-tight", "--a", "7/10",
                    "--n", "5", message="5^9 assignments exceed the node budget 1000000")


def test_python_dash_m_runs_the_cli():
    proc = _run_module("onlinefair", "verify", "--suite", "three-goods")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS")
