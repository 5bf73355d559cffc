"""The benchmark's three workloads and the checks on every op's output.

A workload is built once per set-up, with its inputs made from the seed where
the seed applies, and then hands out its round: a fixed list of ops, each a
call into one of the package's public entry points plus a check of what it
returned.  Every round runs the same ops on the same inputs, so each op's
timings can be compared across rounds.  The checks score outputs with the
small exact scorer below, not with the package's own metric code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """An op returned an output that breaks a guarantee or is inconsistent."""


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    goods: int = 0  # goods the op places online


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def envy_factors(bundles, truths) -> tuple[F, F]:
    """Exact (EFX, EF1) factors of ``bundles`` under per-agent value rows.

    Same definition as the package: for each envious pair the own value over
    the other bundle minus its least (EFX) or most (EF1) valued good, clamped
    to 1, with empty or non-positive remainders counting as 1.
    """
    def ratio(own, rest):
        return F(1) if rest <= 0 else min(F(1), own / rest)

    efx = ef1 = F(1)
    for i, values in enumerate(truths):
        own = sum((values[g] for g in bundles[i]), F(0))
        for j, bundle in enumerate(bundles):
            if j == i or not bundle:
                continue
            seen = [values[g] for g in bundle]
            total = sum(seen, F(0))
            efx = min(efx, ratio(own, total - min(seen)))
            ef1 = min(ef1, ratio(own, total - max(seen)))
    return efx, ef1


# ---------------------------------------------------------------------------
# stream-10k: the `onlinefair run` path on three instances with 10^4 goods
# ---------------------------------------------------------------------------

STREAM_GOODS = 10_000
MAIN_A = F(4, 5)


@dataclass(frozen=True)
class StreamInstance:
    path: Path
    n: int
    d: F                      # realized TV distance of every agent
    truths: tuple[tuple[F, ...], ...]


class Stream:
    """Eight `onlinefair run` calls per round, in-process through ``cli.main``."""

    seed_applies = True
    aliases = {"run_s_p50": "op_s_p50"}

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.workdir = workdir
        harness, bounds = pkg.harness, pkg.bounds
        rng = random.Random(seed)
        d2 = (bounds.eval_bound(bounds.BoundId.MAIN_SUFFICIENT, MAIN_A) / 2
              * F(rng.randint(1, 100), 100))
        d3 = F(rng.randint(1, 100), 1000)
        dg = [F(rng.randint(1, 100), 1000) for _ in range(2)]

        def build(name, n, identical, ds):
            predictions = harness.gen_random_instance(n, STREAM_GOODS, identical,
                                                      rng.randrange(2 ** 30))
            truths = harness.perturb(predictions, ds, seed=rng.randrange(2 ** 30),
                                     mode="mixed")
            instance = harness.make_instance(predictions, truths)
            if identical:
                # precondition of the follower bound: the lightest predicted
                # bundle of the largest-value-first split holds >= 1/(2n-1)
                planned = pkg.offline.lpt(predictions.vector(0), n)
                lightest = min(predictions.vector(0).value(b) for b in planned.bundles)
                require(lightest >= F(1, 2 * n - 1),
                        f"{name}: lightest predicted bundle {lightest} < 1/{2 * n - 1}")
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(instance.to_json_dict()))
            return StreamInstance(path=path, n=n, d=max(ds),
                                  truths=tuple(v.values for v in truths.vectors))

        self.id2 = build("identical-n2", 2, True, [d2, d2])
        self.id3 = build("identical-n3", 3, True, [d3, d3, d3])
        self.gen2 = build("general-n2", 2, False, dg)

    def ops(self) -> list[Op]:
        return [
            self._op(self.id2, "main", self._at_least(MAIN_A), a=MAIN_A),
            self._op(self.id2, "greedy-phi", self._golden),
            self._op(self.id2, "follower:lpt", self._follower(self.id2)),
            self._op(self.id2, "ef1-lowest", self._exact_ef1),
            self._op(self.id3, "follower:lpt", self._follower(self.id3)),
            self._op(self.id3, "ef1-lowest", self._exact_ef1),
            self._op(self.gen2, "follower:cut-and-choose", None),
            self._op(self.gen2, "ef1-lowest", None),
        ]

    def _op(self, inst: StreamInstance, allocator: str, guarantee, a: F | None = None) -> Op:
        out = self.workdir / f"out-{inst.path.stem}-{allocator.replace(':', '-')}.json"
        argv = ["run", "--instance", str(inst.path), "--allocator", allocator, "--out", str(out)]
        if a is not None:
            argv += ["--a", f"{a.numerator}/{a.denominator}"]

        def call():
            code = self.pkg.cli.main(argv)
            require(code == 0, f"exit code {code}")
            return out

        def check(path):
            doc = json.loads(Path(path).read_text())
            steps = doc["steps"]
            require(len(steps) == len(inst.truths[0]), "one step per arriving good")
            bundles: list[list[int]] = [[] for _ in range(inst.n)]
            for t, step in enumerate(steps):
                require(step["t"] == t, "goods placed in arrival order")
                bundles[step["agent"]].append(t)
            require(bundles == doc["allocation"], "replayed steps differ from the allocation")
            efx, ef1 = envy_factors(bundles, inst.truths)
            require(F(doc["efx_factor"]) == efx, f"reported EFX {doc['efx_factor']} != {efx}")
            require(F(doc["ef1_factor"]) == ef1, f"reported EF1 {doc['ef1_factor']} != {ef1}")
            if guarantee is not None:
                guarantee(efx, ef1)

        return Op(kind=f"{allocator}@{inst.path.stem}", call=call, check=check,
                  goods=len(inst.truths[0]))

    @staticmethod
    def _at_least(a: F):
        def check(efx, _):
            require(efx >= a, f"factor {efx} below target {a}")
        return check

    @staticmethod
    def _golden(efx, _):
        require((2 * efx + 1) ** 2 > 5, f"factor {efx} below the golden threshold")

    @staticmethod
    def _exact_ef1(_, ef1):
        require(ef1 == 1, f"EF1 factor {ef1} != 1")

    @staticmethod
    def _follower(inst: StreamInstance):
        k = (2 * inst.n - 1) * inst.d
        bound = (1 - k) / (1 + k)

        def check(efx, _):
            require(efx >= bound, f"factor {efx} below the follower bound {bound}")
        return check


# ---------------------------------------------------------------------------
# certify: one full pass of the ten acceptance suites
# ---------------------------------------------------------------------------

class Certify:
    """One full pass of the acceptance suites per round, one suite per op:
    ``verify.verify_all([suite])`` runs exactly what ``verify_all()`` runs for
    that suite, and a suite-sized op is short enough to calibrate well.  The
    suites fix their own seeds, so ``--seed`` does not apply."""

    seed_applies = False
    aliases = {"verify_s": "round_s"}

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg

    def ops(self) -> list[Op]:
        verify = self.pkg.verify
        ops = []
        for suite in verify.suite_names():
            def check(results, suite=suite):
                require([res.suite for res in results] == [suite], f"one result for {suite}")
                require(results[0].passed, f"suite failed: {results[0].line()}")
            ops.append(Op(kind=f"verify:{suite}",
                          call=lambda suite=suite: verify.verify_all([suite]), check=check))
        return ops


# ---------------------------------------------------------------------------
# oracle: exhaustive certifications (brute force and minimax game trees)
# ---------------------------------------------------------------------------

# (construction, a, n, params, exact minimax value).  The first two are the
# golden-stream construction at two granularities; the last five copy the
# oracle plan of the acceptance suites, pinned here so that the workload does
# not change when the suites do.
MINIMAX_CASES = (
    ("no-pred-2-identical", F(7, 10), 2, {"lam": F(1, 50)}, F(12, 19)),
    ("no-pred-2-identical", F(7, 10), 2, {"lam": F(1, 100)}, F(38, 61)),
    ("no-pred-2-identical", F(19, 20), 2, {"lam": F(33, 100)}, F(301, 433)),
    ("follower-tight", F(7, 10), 2, {}, F(7, 27)),
    ("pred-2-general", F(3, 4), 2, {}, F(11, 16)),
    ("pred-2-identical", F(7, 10), 2, {}, F(1925, 2801)),
    ("two-value-2", F(4, 5), 2, {"eps": F(11, 100)}, F(39, 50)),
)

# (agents, goods, identical valuations): three instances each, drawn with the
# generator seeds 0, 1 and 2.  The search cost of one instance varies tenfold
# between draws (the brute force stops at the first exact allocation), so
# instances drawn from --seed would make seeds disagree more than any bound
# this benchmark could set; the instances are therefore fixed.
BRUTE_FORCE_CASES = (
    (3, 10, False),
    (3, 11, False),
    (3, 14, True),
    (4, 11, True),
)
BRUTE_FORCE_DRAWS = 3


class Oracle:
    """Minimax and brute-force certifications, called directly (no cli, no online).

    All inputs are fixed, so ``--seed`` does not apply to this workload."""

    seed_applies = False
    aliases = {"cert_s_p50": "op_s_p50", "certs_per_s": "ops_per_s"}

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        spec = pkg.adversaries.AdversarySpec
        self.minimax = [(spec(c, a, n=n, params=params), want)
                        for c, a, n, params, want in MINIMAX_CASES]
        gen = pkg.harness.gen_random_instance
        self.profiles = [gen(n, goods, identical, draw)
                         for n, goods, identical in BRUTE_FORCE_CASES
                         for draw in range(BRUTE_FORCE_DRAWS)]

    def ops(self) -> list[Op]:
        offline, adversaries = self.pkg.offline, self.pkg.adversaries
        ops = []
        for spec, want in self.minimax:
            def call(spec=spec):
                return offline.minimax_online_factor(adversaries.build_adversary(spec))

            def check(value, want=want, a=spec.a):
                require(value == want, f"minimax value {value} != {want}")
                require(value < a, f"minimax value {value} not below target {a}")
            ops.append(Op(kind=f"minimax:{spec.construction}", call=call, check=check))
        for profile in self.profiles:
            def call(profile=profile):
                return offline.brute_force_best_factor(profile)

            def check(result, profile=profile):
                factor, witness = result
                bundles = [sorted(b) for b in witness.bundles]
                require(sorted(g for b in bundles for g in b) == list(range(profile.horizon)),
                        "witness does not partition the goods")
                truths = [v.values for v in profile.vectors]
                require(envy_factors(bundles, truths)[0] == factor,
                        f"witness does not re-score to {factor}")
                # EFX allocations exist for identical additive valuations and
                # for three additive agents (Chaudhury, Garg, Mehlhorn 2020)
                require(factor == 1, f"best factor {factor} != 1")
            kind = "identical" if profile.identical else "general"
            ops.append(Op(kind=f"brute-force:{kind}-n{profile.agents}-T{profile.horizon}",
                          call=call, check=check))
        return ops


WORKLOADS = {"stream-10k": Stream, "certify": Certify, "oracle": Oracle}
