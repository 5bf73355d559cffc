#!/usr/bin/env python3
"""Write the accuracy-bound curve CSVs for the two standard comparisons.

Figure one: two identical agents — follower bound, form-guided allocator
bound, and the identical-valuations lower bound.  Figure two: two agents with
general valuations — follower bound against the non-identical lower bound.
Out-of-domain cells carry the sentinel 1 (no accuracy requirement there).
"""

import argparse
from pathlib import Path

from onlinefair.bounds import BoundId, BoundParams, parse_grid, sweep_csv
from onlinefair.cli import write_in_place


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="directory for the CSVs")
    parser.add_argument("--step", default="1/100", help="grid step as p/q")
    args = parser.parse_args()

    try:
        grid = parse_grid(f"0:1:{args.step}")
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(str(exc))

    identical = sweep_csv(
        [BoundId.FOLLOWER_SUFFICIENT, BoundId.MAIN_SUFFICIENT, BoundId.ID_2_LB],
        grid, BoundParams(n=2))
    general = sweep_csv(
        [BoundId.FOLLOWER_SUFFICIENT, BoundId.NONID_2_LB],
        grid, BoundParams(n=2))

    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write_in_place(outdir / "identical_two_agents.csv", identical)
        write_in_place(outdir / "general_two_agents.csv", general)
    except OSError as exc:  # --outdir names a file, or a path through one
        parser.error(f"--outdir {outdir}: {exc.strerror}")

    print(f"wrote {outdir / 'identical_two_agents.csv'}")
    print(f"wrote {outdir / 'general_two_agents.csv'}")


if __name__ == "__main__":
    main()
