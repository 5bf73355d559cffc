#!/usr/bin/env python3
"""Duel every lower-bound construction against its natural target allocator.

Prints one row per duel (realized factor vs the construction's target) plus
the game-tree certifications for the small-horizon constructions.
"""

from onlinefair.adversaries import build_adversary
from onlinefair.harness import run_duel
from onlinefair.offline import minimax_online_factor
from onlinefair.verify import DUEL_PLAN, MINIMAX_PLAN


def main() -> None:
    print(f"{'construction':22s} {'allocator':24s} {'target a':>9s} "
          f"{'factor':>12s}  beaten")
    for spec, allocator, a in DUEL_PLAN:
        t = run_duel(allocator, spec, a=a)
        f = t.report.efx_factor
        print(f"{spec.construction:22s} {allocator:24s} {str(spec.a):>9s} "
              f"{float(f):12.6f}  {f < spec.a}")

    print("\ngame-tree certifications (no online algorithm beats the target):")
    for spec in MINIMAX_PLAN:
        value = minimax_online_factor(build_adversary(spec))
        print(f"{spec.construction:22s} target {str(spec.a):>7s}  "
              f"best possible {float(value):.6f}  certified {value < spec.a}")


if __name__ == "__main__":
    main()
