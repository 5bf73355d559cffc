"""Command-line interface: run, duel, oracle, bounds, gen, perturb, verify.

All rationals on the wire are ``"p/q"`` strings; instance files use the JSON
schema produced by ``gen``.  Exit code 0 only if every invoked check passes;
bad input (a domain or parameter violation, malformed JSON, a zero
denominator, an oracle over its budget, an unreadable file) exits 2 with a
one-line ``onlinefair: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from .adversaries import AdversarySpec, build_adversary
from .bounds import BoundId, BoundParams, eval_bound, invert_bound, parse_grid, sweep_csv
from .core import Instance, rat, rat_str
from .harness import (PERTURB_MODES, gen_random_instance, make_instance, perturb,
                      run_duel, run_instance)
from .offline import BudgetExceededError, brute_force_best_factor, minimax_online_factor
from .online import ALLOCATOR_NAMES
from .verify import suite_names, verify_all


def _load_instance(path: str) -> Instance:
    with open(path) as fh:
        try:
            blob = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: instance JSON nests too deeply") from None
    return Instance.from_json_dict(blob)


def write_in_place(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path``, rewriting an existing file in place.

    The file is opened without ``O_TRUNC`` and cut to the written length
    afterwards, and only if it is a regular file, so ``/dev/null``, ``/dev/stdout``
    and pipes work too.  It keeps its inode, mode and hard links, and a symlink
    is written through.  Truncating on open would be simpler, but ext4 flushes a
    file truncated to zero and rewritten when it is closed, and the next
    truncating open waits for that flush (about 0.1 s for a 1.5 MB transcript);
    writing a temporary file and renaming it over the target waits the same way.
    The trade-off: a crash mid-rewrite can leave old bytes after new ones
    instead of an empty file, which is acceptable for a derived output.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _emit(text: str, out: str | None) -> None:
    if out:
        write_in_place(out, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _require_args(args, command: str, *names: str) -> None:
    missing = [f"--{name}" for name in names if not getattr(args, name)]
    if missing:
        raise ValueError(f"{command} needs {' and '.join(missing)}")


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not _:
            raise ValueError(f"--param expects name=p/q, got {pair!r}")
        params[name] = rat(value)
    return params


def _adversary_spec(args) -> AdversarySpec:
    return AdversarySpec(construction=args.adversary, a=rat(args.a), n=args.n,
                         params=_parse_params(args.param))


def cmd_run(args) -> int:
    instance = _load_instance(args.instance)
    transcript = run_instance(args.allocator, instance,
                              a=rat(args.a) if args.a else None)
    _emit(transcript.to_json(), args.out)
    return 0


def cmd_duel(args) -> int:
    spec = _adversary_spec(args)
    transcript = run_duel(args.allocator, spec,
                          a=rat(args.allocator_a) if args.allocator_a else None)
    _emit(transcript.to_json(), args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.mode == "brute-force":
        _require_args(args, "oracle brute-force", "instance")
        instance = _load_instance(args.instance)
        factor, witness = brute_force_best_factor(instance.truths)
        _emit(json.dumps({"factor": rat_str(factor),
                          "witness": witness.as_lists()}, indent=2), args.out)
    else:
        _require_args(args, "oracle minimax", "adversary", "a")
        spec = _adversary_spec(args)
        value = minimax_online_factor(build_adversary(spec))
        _emit(json.dumps({"factor": rat_str(value),
                          "below_target": value < spec.a}, indent=2), args.out)
    return 0


def cmd_bounds(args) -> int:
    params = BoundParams(n=args.n, a_tilde=rat(args.atilde))
    if args.sweep:
        _require_args(args, "bounds --sweep", "ids", "grid")
        ids = [BoundId(i) for i in args.ids.split(",")]
        _emit(sweep_csv(ids, parse_grid(args.grid), params), args.out)
    elif args.eval:
        _require_args(args, "bounds --eval", "a")
        value = eval_bound(BoundId(args.eval), rat(args.a), params)
        _emit(rat_str(value), args.out)
    elif args.invert:
        _require_args(args, "bounds --invert", "d")
        value = invert_bound(BoundId(args.invert), rat(args.d), params)
        _emit(rat_str(value), args.out)
    else:
        raise ValueError("bounds: pass --sweep, --eval, or --invert")
    return 0


def cmd_gen(args) -> int:
    profile = gen_random_instance(args.n, args.T, args.identical, args.seed)
    instance = make_instance(profile, profile)
    _emit(json.dumps(instance.to_json_dict(), indent=2), args.out)
    return 0


def cmd_perturb(args) -> int:
    instance = _load_instance(args.instance)
    d = rat(args.d)
    truths = perturb(instance.predictions, [d] * instance.agents,
                     seed=args.seed, mode=args.mode)
    out = make_instance(instance.predictions, truths)
    _emit(json.dumps(out.to_json_dict(), indent=2), args.out)
    return 0


def cmd_verify(args) -> int:
    results = verify_all(args.suite)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onlinefair",
        description="Online fair division with prediction advice (exact rationals).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an allocator on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--allocator", required=True, choices=ALLOCATOR_NAMES)
    p.add_argument("--a", help="target factor p/q where applicable")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("duel", help="pit an allocator against a construction")
    p.add_argument("--adversary", required=True)
    p.add_argument("--a", required=True, help="construction target factor p/q")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--param", action="append", default=[], metavar="name=p/q")
    p.add_argument("--allocator", required=True, choices=ALLOCATOR_NAMES)
    p.add_argument("--allocator-a", dest="allocator_a")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_duel)

    p = sub.add_parser("oracle", help="brute-force or game-tree certification")
    p.add_argument("mode", choices=["brute-force", "minimax"])
    p.add_argument("--instance", help="instance file (brute-force)")
    p.add_argument("--adversary", help="construction id (minimax)")
    p.add_argument("--a", help="construction target factor p/q (minimax)")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--param", action="append", default=[], metavar="name=p/q")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("bounds", help="evaluate, invert, or sweep accuracy bounds")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--ids", help="comma-separated bound ids (sweep)")
    p.add_argument("--grid", help="start:stop:step (sweep)")
    p.add_argument("--eval", metavar="ID")
    p.add_argument("--invert", metavar="ID")
    p.add_argument("--a", help="factor p/q (eval)")
    p.add_argument("--d", help="error p/q (invert)")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--atilde", default="1", help="base factor p/q")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--identical", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("perturb", help="perturb an instance's predictions exactly")
    p.add_argument("--instance", required=True)
    p.add_argument("--d", required=True, help="per-agent distance p/q")
    p.add_argument("--mode", default="mixed", choices=PERTURB_MODES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_perturb)

    p = sub.add_parser("verify", help="run claim-verification suites")
    p.add_argument("--suite", action="append",
                   help=f"suite name (repeatable): {', '.join(suite_names())}")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, BudgetExceededError, OSError) as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"onlinefair: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
