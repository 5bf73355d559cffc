"""Golden outputs: oracle JSON, the duel table and the curve CSVs, byte for byte."""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from onlinefair.cli import main as cli_main
from onlinefair.core import rat_str
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


@pytest.mark.parametrize("step", ["0", "-1/10"])
def test_sweep_figures_rejects_nonpositive_step(tmp_path, step):
    proc = _sweep_figures("--outdir", str(tmp_path), f"--step={step}", timeout=30)
    assert proc.returncode == 2
    assert "grid step must be positive" in proc.stderr
    assert not list(tmp_path.iterdir())
