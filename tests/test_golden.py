"""Golden outputs, byte for byte: oracle JSON, the duel table, the curve CSVs,
seeded gen -> perturb -> run pipelines, runs on large coprime denominators,
seeded random walks and minimax values of every adaptive construction, and
main's decisions on every form of the predicted split."""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from onlinefair.adversaries import CONSTRUCTIONS, AdversarySpec, build_adversary
from onlinefair.bounds import BoundId, eval_bound, late_y_margin
from onlinefair.cli import main as cli_main
from onlinefair.core import (
    Allocation,
    ValuationProfile,
    ValuationVector,
    fairness_report,
    rat_str,
    tv_distance,
)
from onlinefair.harness import (
    PERTURB_MODES,
    make_instance,
    perturb,
    random_walk_duel,
    run_instance,
)
from onlinefair.offline import BudgetExceededError, minimax_online_factor
from onlinefair.online import (
    ALLOCATOR_NAMES,
    FormKind,
    classify_form,
    make_allocator,
)
from onlinefair.verify import MINIMAX_PLAN

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _cli_out(capsys, *argv) -> str:
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


def _brute_force_json(tmp_path, capsys, *gen_args) -> str:
    inst = tmp_path / "inst.json"
    _cli_out(capsys, "gen", *gen_args, "--out", str(inst))
    return _cli_out(capsys, "oracle", "brute-force", "--instance", str(inst))


def test_brute_force_readme_tour(tmp_path, capsys):
    out = _brute_force_json(tmp_path, capsys, "--n", "2", "--T", "8", "--identical",
                            "--seed", "7")
    want = {"factor": "1/1", "witness": [[0, 1, 2, 3, 4], [5, 6, 7]]}
    assert out == json.dumps(want, indent=2) + "\n"


def test_brute_force_general_three_agents(tmp_path, capsys):
    out = _brute_force_json(tmp_path, capsys, "--n", "3", "--T", "8", "--seed", "7")
    want = {"factor": "1/1", "witness": [[0, 1, 3, 5], [2, 7], [4, 6]]}
    assert out == json.dumps(want, indent=2) + "\n"


MINIMAX_VALUES = {
    "no-pred-2-identical": "301/433",
    "follower-tight": "7/27",
    "pred-2-general": "11/16",
    "pred-2-identical": "1925/2801",
    "two-value-2": "39/50",
}


@pytest.mark.parametrize("spec", MINIMAX_PLAN, ids=[s.construction for s in MINIMAX_PLAN])
def test_minimax_plan_values(spec, capsys):
    argv = ["oracle", "minimax", "--adversary", spec.construction,
            "--a", rat_str(spec.a), "--n", str(spec.n)]
    for name, value in spec.params.items():
        argv += ["--param", f"{name}={rat_str(value)}"]
    out = _cli_out(capsys, *argv)
    want = {"factor": MINIMAX_VALUES[spec.construction], "below_target": True}
    assert out == json.dumps(want, indent=2) + "\n"


DUEL_TABLE = """\
construction           allocator                 target a       factor  beaten
no-pred-2-identical    greedy-phi                    7/10     0.631579  True
no-pred-3-identical    ef1-lowest                     1/2     0.200000  True
no-pred-2-general      ef1-lowest                     1/2     0.142857  True
follower-tight         follower:lpt                  7/10     0.259259  True
pred-2-general         follower:cut-and-choose        3/4     0.687500  True
pred-2-identical       main                          7/10     0.687255  True
pred-n-identical       follower:lpt                  1/10     0.000000  True
pred-n-identical       follower:lpt                   1/2     0.343750  True
two-value-2            main                           4/5     0.780000  True
two-value-n            follower:lpt                   1/2     0.343750  True

game-tree certifications (no online algorithm beats the target):
no-pred-2-identical    target   19/20  best possible 0.695150  certified True
follower-tight         target    7/10  best possible 0.259259  certified True
pred-2-general         target     3/4  best possible 0.687500  certified True
pred-2-identical       target    7/10  best possible 0.687255  certified True
two-value-2            target     4/5  best possible 0.780000  certified True
"""


def test_run_duels_stdout(capsys):
    runpy.run_path(str(SCRIPTS / "run_duels.py"), run_name="__main__")
    assert capsys.readouterr().out == DUEL_TABLE


def _sweep_figures(*argv, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(SCRIPTS / "sweep_figures.py"), *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_sweep_figures_default_csvs(tmp_path):
    proc = _sweep_figures("--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("identical_two_agents.csv", "general_two_agents.csv")}
    assert digests == {
        "identical_two_agents.csv":
            "a5b8385edbdf14298e64da6f518c8a194d05d1c6521369b092d6713fe3bdcd7d",
        "general_two_agents.csv":
            "99bb86f868138c5dd4625d76b86e2cbb416305cf7a2381737284996535fcf2b4",
    }


def test_sweep_figures_rewrites_existing_csvs_in_place(tmp_path):
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    rerun.mkdir()
    names = ("identical_two_agents.csv", "general_two_agents.csv")
    for name in names:
        (rerun / name).write_text("#" * 100_000)
    for outdir in (fresh, rerun):
        proc = _sweep_figures("--outdir", str(outdir))
        assert proc.returncode == 0, proc.stderr
    assert [(rerun / n).read_bytes() for n in names] == [(fresh / n).read_bytes() for n in names]


@pytest.mark.parametrize("step", ["0", "-1/10"])
def test_sweep_figures_rejects_nonpositive_step(tmp_path, step):
    proc = _sweep_figures("--outdir", str(tmp_path), f"--step={step}", timeout=30)
    assert proc.returncode == 2
    assert "grid step must be positive" in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("outdir,reason", [("afile", "File exists"),
                                           ("afile/sub", "Not a directory")])
def test_sweep_figures_rejects_an_outdir_through_a_file(tmp_path, outdir, reason):
    (tmp_path / "afile").write_text("kept")
    proc = _sweep_figures("--outdir", str(tmp_path / outdir), timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(f"error: --outdir {tmp_path / outdir}: {reason}")
    assert (tmp_path / "afile").read_text() == "kept"


# ---------------------------------------------------------------------------
# gen -> perturb -> run: seeded pipelines give the same bytes every time
# ---------------------------------------------------------------------------

PIPELINE_GEN = {
    "identical-n2": ("--n", "2", "--T", "1000", "--identical", "--seed", "11"),
    "identical-n3": ("--n", "3", "--T", "1000", "--identical", "--seed", "12"),
    "general-n2": ("--n", "2", "--T", "1000", "--seed", "13"),
    # three-goods accepts a promised horizon of at most three goods only
    "identical-n2-T3": ("--n", "2", "--T", "3", "--identical", "--seed", "14"),
}

PIPELINE_RUNS = {
    "greedy-phi": (("identical-n2", ()),),
    "ef1-lowest": (("identical-n2", ()), ("identical-n3", ()), ("general-n2", ())),
    "follower:lpt": (("identical-n2", ()), ("identical-n3", ())),
    "follower:cut-and-choose": (("general-n2", ()),),
    "three-goods": (("identical-n2-T3", ()),),
    "main": (("identical-n2", ("--a", "4/5")),),
}

PIPELINE_DIGESTS = {
    "identical-n2.gen": "1490b6422ecd8e61f85a86a56f24ba4daa1ae0f9d6b5c219286d3ac0f0ce2896",
    "identical-n2": "2620942395293365278ce1bd165272dcd58bf30951983454e69fe15e210fe3a1",
    "identical-n3.gen": "b7514ca4d48b7f526b4df67f88eae77fd8022d37f0a9676b0744d72e25828348",
    "identical-n3": "3d5b11bec562f5803b02e8b17005e3ea7def40f9e49262ea81b0af6512273412",
    "general-n2.gen": "d29ee775abc69d69a25d2819bdf705f421b0ba8b0d3848a44e00d68fdcd5a770",
    "general-n2": "8a13c845b8d481a746fb6af9d1d684bc1ad8003eeb2d04b0e127d1c047fb6a12",
    "identical-n2-T3.gen": "c2c21a22aa60eb62a212fc3a334483bb980ad99ef48c1a6a133578ebe9ba6c30",
    "identical-n2-T3": "76affb97b05a5d5ca917b48482c302d74cda23ebde7cb24777c6e2ad3922e045",
    "identical-n2.greedy-phi":
        "39c3256ce1dc31218c183b28494617b3cc01d445c6639d92739f194da880f4fc",
    "identical-n2.ef1-lowest":
        "3e61a82354b1d506fa136343f21e27d574f664d118a1f7ab28285efb90683b73",
    "identical-n3.ef1-lowest":
        "f6cfd8f5ef87caa1d501292bad27ed9df352156c8fa7ee24611916c0a55dfe22",
    "general-n2.ef1-lowest":
        "88be21e2281984288fb97afd0e398c7cf9268723103ca717cfd4f45a71cc4305",
    "identical-n2.follower:lpt":
        "bf30c8b667f3bfcdf8248c820f15b7f7fff4b3ce27cc8cdf261bf1d7349abbcd",
    "identical-n3.follower:lpt":
        "2895a6c57cd2a6bff29188c37f0b284a79e22612c44867d581e267ad9f7f6101",
    "general-n2.follower:cut-and-choose":
        "a9aa9d94ac98a4c3e66dec3e94f96d52568b2059ad409277266a9b605a666a5c",
    "identical-n2-T3.three-goods":
        "34b7936104d47d89c8e77b5eb95b4f1db3bfd655980272d749a7c9cc1fc8dfaf",
    "identical-n2.main":
        "f7e4da52067df292e5bb5508974891d9454b37ffe543cdec18f23ad496190a7e",
}

COPRIME_DIGESTS = {
    "coprime-general.ef1-lowest":
        "c77e47954ef058caaef1c0e818d1d69d2ddc348d46708508b8c6c0bbaa79a197",
    "coprime-general.follower:cut-and-choose":
        "9945fa2cdb79eb62f4d74401e141c8e1059adb469f471e8419a14979e74f4278",
    "coprime-identical.greedy-phi":
        "40784b12f5090845dde163c110e35d3fa86d888f62726545239c898c6d996636",
    "coprime-identical.follower:lpt":
        "4e65cc31aee5eb9439608667152fd3ad3cbcfd1ff38cf8dbf1ea112f44a9ba02",
    "coprime-identical.main":
        "fb047b9c8df37352780e2f610557e73540d88cc9f74c624683e0f75538ee7d68",
    "metrics": "7a5853bdcb8639182a65ed2372f34c16520c37f16d20f1517c3f6b89446d94c4",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Each generated instance, and its predictions perturbed in mixed mode."""
    out = tmp_path_factory.mktemp("pipeline")
    for name, gen_args in PIPELINE_GEN.items():
        assert cli_main(["gen", *gen_args, "--out", str(out / f"{name}.gen.json")]) == 0
        assert cli_main(["perturb", "--instance", str(out / f"{name}.gen.json"),
                         "--d", "1/50", "--mode", "mixed", "--seed", "5",
                         "--out", str(out / f"{name}.json")]) == 0
    return out


def test_pipeline_instances(pipeline_dir):
    got = {key: _sha256(pipeline_dir / f"{key}.json")
           for name in PIPELINE_GEN for key in (f"{name}.gen", name)}
    assert got == {key: PIPELINE_DIGESTS[key] for key in got}


def test_pipeline_covers_every_allocator():
    assert set(PIPELINE_RUNS) == set(ALLOCATOR_NAMES)


@pytest.mark.parametrize("allocator", ALLOCATOR_NAMES)
def test_pipeline_run(pipeline_dir, allocator):
    got = {}
    for name, extra in PIPELINE_RUNS[allocator]:
        out = pipeline_dir / f"{name}.{allocator.replace(':', '-')}.run.json"
        assert cli_main(["run", "--instance", str(pipeline_dir / f"{name}.json"),
                         "--allocator", allocator, *extra, "--out", str(out)]) == 0
        got[f"{name}.{allocator}"] = _sha256(out)
    assert got == {key: PIPELINE_DIGESTS[key] for key in got}


# ---------------------------------------------------------------------------
# Large pairwise-coprime denominators (primes near 10^9)
# ---------------------------------------------------------------------------

PRIMES = (999999883, 999999893, 999999929, 999999937, 1000000007, 1000000009,
          1000000021, 1000000033, 1000000087, 1000000093, 1000000097, 1000000103,
          1000000123, 1000000181)


def coprime_vector(primes, shift: int) -> ValuationVector:
    """About 1/(k+2) over each of the k primes, the remainder on one last good."""
    head = [F(p // (len(primes) + 2) + shift * k, p) for k, p in enumerate(primes)]
    return ValuationVector(tuple(head) + (1 - sum(head),))


def coprime_instance(identical: bool):
    """Ten goods; every agent's truth uses primes its prediction does not."""
    preds = (coprime_vector(PRIMES[:9], 3), coprime_vector(PRIMES[5:14], 4))
    truths = (coprime_vector(PRIMES[9:] + PRIMES[:4], 5),
              coprime_vector(PRIMES[:2] + PRIMES[7:], 2))
    if identical:
        return make_instance(ValuationProfile.identical_from(preds[0], 2),
                             ValuationProfile.identical_from(truths[0], 2))
    return make_instance(ValuationProfile(preds), ValuationProfile(truths))


COPRIME_RUNS = (
    (False, "ef1-lowest", ()),
    (False, "follower:cut-and-choose", ()),
    (True, "greedy-phi", ()),
    (True, "follower:lpt", ()),
    (True, "main", ("--a", "4/5")),
)


@pytest.mark.parametrize("identical,allocator,extra", COPRIME_RUNS,
                         ids=[f"{'identical' if i else 'general'}-{name}"
                              for i, name, _ in COPRIME_RUNS])
def test_coprime_denominators_run(tmp_path, identical, allocator, extra):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(coprime_instance(identical).to_json_dict(), indent=2))
    out = tmp_path / "run.json"
    assert cli_main(["run", "--instance", str(inst), "--allocator", allocator, *extra,
                     "--out", str(out)]) == 0
    key = f"coprime-{'identical' if identical else 'general'}.{allocator}"
    assert _sha256(out) == COPRIME_DIGESTS[key]


def test_coprime_denominators_metrics():
    """TV distances and fairness reports, as exact rationals, on the coprime truths."""
    inst = coprime_instance(False)
    allocs = ([[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]], [[9], range(9)], [range(9), [9]],
              [[], range(10)], [[3, 4], [0, 1, 2, 5, 6, 7, 8, 9]])
    reports = [fairness_report(Allocation.of(b), inst.truths) for b in allocs]
    values = {
        "tv": [rat_str(tv_distance(inst.predictions.vector(i), inst.truths.vector(i)))
               for i in range(2)],
        "tv-cross": rat_str(tv_distance(inst.predictions.vector(0), inst.truths.vector(1))),
        "report": [[rat_str(r.efx_factor), rat_str(r.ef1_factor),
                    [[rat_str(x) for x in row] for row in r.per_pair_efx],
                    r.binding_pair] for r in reports],
    }
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    assert digest == COPRIME_DIGESTS["metrics"]


# ---------------------------------------------------------------------------
# Adaptive constructions: seeded random walks and minimax values
# ---------------------------------------------------------------------------

# (id, spec, minimax value or exception name, sha256 of the ten random-walk
# transcripts for seeds 0-9 joined by newlines); both regimes where a
# construction has two, and n = 4 where it takes more than two agents
ADVERSARY_GOLDENS = (
    ("golden-stream-short",
     AdversarySpec("no-pred-2-identical", F(19, 20), params={"lam": F(33, 100)}),
     "301/433", "9a94f1b3414dbecdc5a8923832da18057fcd11c7a55f1ecc134bb4ec75cf3f68"),
    ("golden-stream-long",
     AdversarySpec("no-pred-2-identical", F(7, 10), params={"lam": F(1, 50)}),
     "12/19", "6b5ad94aa021c75797d356d5adc44a17f279bad104cb1ae54abc0ba9a5c67bd8"),
    ("triple-split-n3", AdversarySpec("no-pred-3-identical", F(1, 2), n=3),
     "1/5", "71c288332427e74bf9266b089c5fd9343b44889cd55fc012e90d3d9e384a9863"),
    ("triple-split-n4", AdversarySpec("no-pred-3-identical", F(1, 2), n=4),
     "3/16", "299aa40855bf49cb51eb00f17505079d9476833978e3bd80d2ba1d1ab1713f7e"),
    ("asymmetric-stream", AdversarySpec("no-pred-2-general", F(1, 2)),
     "1/6", "4fb2ec14ca8617ec0e7150cc1e3694aee6b52a121d4bf1d9b69e80316122ae41"),
    ("follower-tight-oblivious", AdversarySpec("follower-tight", F(7, 10)),
     "7/27", "0d21bc37aa8ade2580e5a8f99a0015d6d8627ea336e297a06b28108a233ba7bb"),
    ("follower-tight-targets-n3",
     AdversarySpec("follower-tight", F(7, 10), n=3, params={"lo": 2, "hi": 0}),
     "1/1", "44eed05e160fb9b04f1cb85e3f46a70334e5994e124c1d6de9ebecd6512ef184"),
    ("follower-tight-over-budget", AdversarySpec("follower-tight", F(7, 10), n=5),
     "BudgetExceededError",
     "dfef58c454ed656fd7027f3b536db1e18637c65322bff318e71901bc6c7ad6f0"),
    ("mirrored-pair-low", AdversarySpec("pred-2-general", F(3, 5)),
     "6/11", "9dd4b7bb09f88ed641a3aa6e69f6ecc12da66da0f11318a6069cec1c4deff528"),
    ("mirrored-pair-high", AdversarySpec("pred-2-general", F(3, 4)),
     "11/16", "f20250fb0752a1533ac8c11522588f6c9a9768726d69f7a962330d5715b8b62d"),
    ("identical-predicted-low", AdversarySpec("pred-2-identical", F(7, 10)),
     "1925/2801", "6754c4e32e3a012ae0f568853c07e7dc8a6fa00b6f19409ab8142fa5039f77d9"),
    ("identical-predicted-high", AdversarySpec("pred-2-identical", F(4, 5)),
     "31/40", "37d317794fb0a6eda4577bb4285965d2df3645eeb21c3a01e23b93d93dd66cda"),
    ("many-agents-small-n3", AdversarySpec("pred-n-identical", F(1, 10), n=3),
     "1/21", "276964db593f5b76df2b8093a596d03da27ebdcca69ea05d93dfb6eb77951c5f"),
    ("many-agents-large-n3", AdversarySpec("pred-n-identical", F(1, 2), n=3),
     "16/43", "9903010df21adea7508b3446cbc56b7fb9f3559f89ad3ff4a7ac751ec930df14"),
    ("many-agents-small-n4", AdversarySpec("pred-n-identical", F(1, 10), n=4),
     "3/62", "9b02ffc8eee4a3888b1641a821017e7f55cafbfaefadcc21ef25f654973fdcd8"),
    ("many-agents-large-n4", AdversarySpec("pred-n-identical", F(1, 2), n=4),
     "24/61", "3eb39c120a5fe189e68a54c8773d6ba9c7f9d9613f231a89a2c551730d4c8d6e"),
    ("two-value-pair",
     AdversarySpec("two-value-2", F(4, 5), params={"eps": F(11, 100)}),
     "39/50", "6491d81df05e471e84f5bc2b1bd14094b185d7d6b4a8abc9dcf6fb66f67e77f7"),
    ("two-value-many-n3", AdversarySpec("two-value-n", F(1, 2), n=3),
     "16/43", "922791ed9b9961339071e07b29fee08f11495c7a62e7c7ca9f7b6e75fbaa6ded"),
    ("two-value-many-n4", AdversarySpec("two-value-n", F(1, 2), n=4),
     "24/61", "cff15a769667b3ea59f0e4f1d65bd06a5ce07a98201b069d04e5194c5be2a2f5"),
)


def test_adversary_goldens_cover_every_construction():
    assert {spec.construction for _, spec, _, _ in ADVERSARY_GOLDENS} == set(CONSTRUCTIONS)


@pytest.mark.parametrize("spec,value,digest", [case[1:] for case in ADVERSARY_GOLDENS],
                         ids=[case[0] for case in ADVERSARY_GOLDENS])
def test_adversary_golden(spec, value, digest):
    walks = "\n".join(random_walk_duel(spec, seed).to_json() for seed in range(10))
    assert hashlib.sha256(walks.encode()).hexdigest() == digest
    try:
        got = rat_str(minimax_online_factor(build_adversary(spec)))
    except (ValueError, BudgetExceededError) as exc:
        got = type(exc).__name__
    assert got == value


# ---------------------------------------------------------------------------
# The form-guided allocator: one prediction per form, knife-edge truths
# ---------------------------------------------------------------------------

# (form, a, predicted values, tracked goods); random predictions are almost
# always passthrough, so each threshold form gets hand-built predictions in
# two arrival orders
MAIN_FORMS = (
    (FormKind.PASSTHROUGH, F(7, 10), ("3/10", "3/10", "1/5", "1/5"), ()),
    (FormKind.PASSTHROUGH, F(1), ("33/100", "33/100", "33/100", "1/100"), ()),
    (FormKind.THREE_GOODS, F(7, 10), ("7/10", "1/5", "1/10"), ()),
    (FormKind.THREE_GOODS, F(4, 5), ("1/2", "1/2"), ()),
    (FormKind.SINGLETON_HIGH, F(7, 10), ("2/3", "1/12", "1/12", "1/12", "1/12"), ()),
    (FormKind.SINGLETON_HIGH, F(4, 5), ("1/12", "1/12", "2/3", "1/12", "1/12"), ()),
    (FormKind.FORM1, F(7, 10), ("33/100", "33/100", "33/100", "1/100"), (0, 1, 2)),
    (FormKind.FORM1, F(4, 5), ("1/40", "13/40", "13/40", "13/40"), (1, 2, 3)),
    (FormKind.FORM2OR4, F(7, 10), ("34/100", "33/100", "32/100", "1/100"), (0, 1, 2)),
    (FormKind.FORM2OR4, F(4, 5), ("1/100", "32/100", "34/100", "33/100"), (1, 2, 3)),
    (FormKind.FORM3_EARLY_Y, F(7, 10), ("71/200", "57/200", "71/200", "1/200"), (0, 1, 2)),
    (FormKind.FORM3_EARLY_Y, F(4, 5), ("7/20", "149/500", "7/20", "1/500"), (0, 1, 2)),
    (FormKind.FORM3_LATE_Y, F(7, 10), ("71/200", "71/200", "57/200", "1/200"), (0, 1, 2)),
    (FormKind.FORM3_LATE_Y, F(4, 5), ("1/500", "7/20", "7/20", "149/500"), (1, 2, 3)),
)


def _admission_threshold(kind, values, a):
    """The paper's admission threshold for a tracked good: the top value z or
    the second value y, plus half the error budget or the late-mid margin."""
    z = max(values)
    y = max(v for v in values if v < z)
    half = eval_bound(BoundId.MAIN_SUFFICIENT, a) / 2
    return {FormKind.FORM1: z + half, FormKind.FORM2OR4: y + half,
            FormKind.FORM3_EARLY_Y: z + half,
            FormKind.FORM3_LATE_Y: z + late_y_margin(a)}[kind]


def _main_truths(kind, a, values, tracked):
    """Each tracked good exactly at, 10^-9 above and 10^-9 below its threshold,
    the difference taken from (or given to) each other good in turn; then
    seeded perturbations in every mode, which also add and trim goods."""
    tiny = F(1, 10 ** 9)
    threshold = _admission_threshold(kind, values, a) if tracked else None
    for g in tracked:
        for delta in (0, tiny, -tiny):
            shift = threshold + delta - values[g]
            for sink in range(len(values)):
                truth = list(values)
                truth[g] += shift
                truth[sink] -= shift
                if sink != g and truth[sink] >= 0:
                    yield ValuationVector(tuple(truth))
    p = ValuationProfile.identical_from(ValuationVector(values), 2)
    for mode in PERTURB_MODES:
        for d in (F(1, 50), F(1, 20), F(1, 10)):
            for seed in range(3):
                yield perturb(p, [d, d], seed=seed, mode=mode).vector(0)


def _main_runs(kind, a, values, tracked) -> str:
    """Every truth's transcript, followed by the per-step work counts."""
    values = tuple(F(v) for v in values)
    tag = classify_form(ValuationVector(values), a)
    assert tag.kind is kind and tag.large == set(tracked)
    p = ValuationProfile.identical_from(ValuationVector(values), 2)
    out = []
    for truth in _main_truths(kind, a, values, tracked):
        truths = ValuationProfile.identical_from(truth, 2)
        out.append(run_instance("main", make_instance(p, truths), a=a).to_json())
        allocator = make_allocator("main", n=2, prediction=p, a=a)
        ops = []
        for t, v in enumerate(truth.values):
            allocator.step(t, (v, v))
            ops.append(allocator.last_step_ops)
        out.append(json.dumps(ops))
    return "\n".join(out)


MAIN_DECISION_DIGEST = "5a1644314d28168b4944f92e7126dc73acc53b031da84331caa48319569b70de"


def test_main_decision_golden():
    assert {case[0] for case in MAIN_FORMS} == set(FormKind)
    runs = "\n".join(_main_runs(*case) for case in MAIN_FORMS)
    assert hashlib.sha256(runs.encode()).hexdigest() == MAIN_DECISION_DIGEST
