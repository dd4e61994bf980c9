#!/usr/bin/env python3
"""Run the whole study on the default benchmark: pipeline plus both ablations.

Produces, under --out:
  split/            the serialized benchmark split
  pipeline/         stage artifacts for the default configuration; its
                    manifest.json records the reliability of the hard
                    pseudo labels before and after selection, which
                    run-pipeline also prints
  ru_sweep/         selection-ratio grid (ru_sweep.csv, ru_summary.csv)
  noise_ablation/   progressive vs vanilla pairing (noise_ablation.csv)

Every step goes through the CLI so the artifacts match what a user would
get by hand.  The grids run their cells in this process, one seed at a time.
Each command refuses an output directory that is not empty, so a rerun needs
a new --out.
"""

import argparse
import sys
from pathlib import Path

from ssda_lab.cli import main as cli


def run(args: list[str]) -> None:
    print(f"\n$ ssda-lab {' '.join(args)}")
    code = cli(args)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=0, help="seed for the split and the default pipeline run")
    parser.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9", help="seed list for the ablation grids")
    parser.add_argument("--shots", type=int, choices=(1, 3), default=3)
    parser.add_argument("--t-max", dest="t_max", type=int, default=5000)
    args = parser.parse_args()

    out = Path(args.out)
    split = out / "split"
    tm = ["--t-max", str(args.t_max)]

    run(["gen-data", "--out", str(split), "--seed", str(args.seed), "--shots", str(args.shots)])
    run(["run-pipeline", "--split", str(split), "--out", str(out / "pipeline"),
         "--seed", str(args.seed), *tm])
    run(["ablate-ru", "--split", str(split), "--out", str(out / "ru_sweep"),
         "--seeds", args.seeds, "--regen", *tm])
    run(["ablate-noise", "--split", str(split), "--out", str(out / "noise_ablation"),
         "--seeds", args.seeds, "--regen", *tm])
    print(f"\nstudy artifacts under {out}/")


if __name__ == "__main__":
    main()
