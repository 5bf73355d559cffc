"""Runner, generators, exact perturbation, transcripts, and the CLI surface."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from onlinefair.adversaries import AdversarySpec
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
    replay,
    run_duel,
    run_instance,
)
from onlinefair.cli import main as cli_main
from onlinefair.online import ALLOCATOR_NAMES
from onlinefair.verify import suite_names

from conftest import reference_transcript_dict


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
}


def _no_steps() -> GameTranscript:
    """A transcript before any good arrives; no runner returns one."""
    truths = ValuationProfile.identical_from(ValuationVector((F(1),)), 2)
    alloc = Allocation.of([set(), set()], num_goods=0)
    return GameTranscript(source="empty", allocator="none", steps=(), allocation=alloc,
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
    assert {len(t.steps) for t in transcripts} >= {0, 1}


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
        proc = subprocess.run(
            [sys.executable, "-m", "onlinefair.cli", "bounds", "--eval",
             "id-2-lb", "--a", "4/5"],
            capture_output=True, text=True)
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

    def test_oracle_over_budget(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", "--n", "2", "--T", "24", "--identical",
                         "--out", str(inst)]) == 0
        self._fails("oracle", "brute-force", "--instance", str(inst),
                    message="2^24 allocations exceed the enumeration budget")

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

    def test_minimax_horizon_deeper_than_the_recursion_limit(self):
        self._fails("oracle", "minimax", "--adversary", "no-pred-2-identical", "--a", "7/10",
                    "--param", "lam=1/4000", message="exceeds the recursion limit")


def test_python_dash_m_runs_the_cli():
    proc = _run_module("onlinefair", "verify", "--suite", "three-goods")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS")
