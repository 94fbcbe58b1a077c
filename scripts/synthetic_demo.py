"""Demonstrate the pipeline on synthetic data with known ground truth.

Part 1 sweeps neighborhoods planted as k well-separated caps and prints the
mean score per k (it should grow with k).  Part 2 builds the two-bundle
sense-induction fixture, runs the full induction + assignment pipeline, and
scores the result against the planted gold key (it should be perfect).

Usage:
    python scripts/synthetic_demo.py [--trials 20] [--per-cap 50] [--seed 0]
"""

import argparse

import numpy as np

from topolysemy import (
    OpnConfig,
    pinched_neighborhood_embedding,
    planted_two_sense_dataset,
    run_opn,
    score_keys,
    tps_score,
)
from topolysemy.cli import nonnegative_int, positive_int


def cap_sweep(trials: int, per_cap: int, seed: int) -> None:
    print(f"cap sweep: {trials} trials per k, {per_cap} points per cap")
    for k in range(1, 6):
        scores = []
        for trial in range(trials):
            emb, center = pinched_neighborhood_embedding(
                k, per_cap=per_cap, seed=seed + 1000 * k + trial
            )
            scores.append(tps_score(emb, center, per_cap * k).score)
        print(
            f"  k={k}: mean score {np.mean(scores):8.3f}  "
            f"(min {min(scores):.3f}, max {max(scores):.3f})"
        )


def planted_wsi() -> None:
    data = planted_two_sense_dataset()
    result = run_opn(data.embeddings, data.instances, OpnConfig(n=48))
    senses = result.senses[data.target]
    print(f"planted two-sense fixture: target {data.target!r}")
    print(f"  induced {len(senses)} senses, sizes {[len(c) for c in senses.clusters]}")
    report = score_keys(result.key, data.gold)
    print(
        f"  pooled V={report.pooled.v_measure:.3f} "
        f"paired F={report.pooled.f_score:.3f} over {report.pooled.instances} instances"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=positive_int, default=20)
    parser.add_argument("--per-cap", type=positive_int, default=50)
    parser.add_argument("--seed", type=nonnegative_int, default=0)
    args = parser.parse_args()
    cap_sweep(args.trials, args.per_cap, args.seed)
    planted_wsi()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
