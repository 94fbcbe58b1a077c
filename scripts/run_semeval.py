"""Full evaluation run against user-supplied sense-induction data.

Inputs: a .vec embedding file, instances as JSONL (target, id, tokens), a
gold key ("target instance_id label" lines), and optionally a gold
sense-count TSV and a corpus-frequency TSV for the correlation checks.

Steps: drop zero vectors with a warning (as the CLI does), induce senses
and label all instances, score every target (--tps-n neighborhood; with
--k auto these are the scores that set each target's k), evaluate against
the gold key, and correlate scores with gold sense counts and with corpus
frequency.  All outputs land in --outdir.  The options are
`topolysemy wsi`'s with the same defaults and checks, so bad values and
missing input files are rejected before the vectors load, and an empty
instances file before anything is written.  An input error is one
"error: ..." line with exit code 1.

Usage:
    python scripts/run_semeval.py --vectors vectors.vec --instances test.jsonl \
        --gold-key gold.key --outdir runs/eval \
        [--gold-counts counts.tsv] [--frequencies freq.tsv] \
        [--backend dbscan|kmeans] [--n N] [--eps EPS] [--min-pts M] \
        [--k K|auto] [--seed S] [--tps-n N]    (defaults: --help)
"""

import argparse
import os

from topolysemy import (
    load_count_table,
    load_key,
    pearson_with_p,
    run_opn,
    save_score_report,
    save_tps_csv,
    score_keys,
    tps_batch,
    write_key,
)
from topolysemy.cli import load_nonempty_instances, load_vectors, opn_config, run, wsi_options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], parents=[wsi_options()])
    parser.add_argument("--gold-key", required=True)
    parser.add_argument("--gold-counts", help="target<TAB>sense-count TSV")
    parser.add_argument("--frequencies", help="word<TAB>frequency TSV")
    parser.add_argument("--outdir", required=True)
    return parser


def main() -> int:
    return run(evaluate, build_parser().parse_args())


def evaluate(args: argparse.Namespace) -> int:
    # Instances first, so an empty file stops the run before anything is written.
    instances = load_nonempty_instances(args.instances)
    os.makedirs(args.outdir, exist_ok=True)
    embeddings = load_vectors(args.vectors)
    gold = load_key(args.gold_key)
    print(f"{len(embeddings)} vectors, {len(instances)} instances, {len(gold)} gold rows")

    result = run_opn(embeddings, instances, opn_config(args))
    # Targets in run_opn's order, each with the vocabulary entry it resolved to.
    words = {target: senses.word for target, senses in result.senses.items()}
    # Percentile k (--k auto) already scored the targets at --tps-n.  One
    # row per word, in target order: two targets may resolve to one word.
    reports = result.reports or tps_batch(embeddings, list(dict.fromkeys(words.values())), n=args.tps_n)
    scored = {r.word: r for r in reports}
    tps_path = os.path.join(args.outdir, "tps.csv")
    save_tps_csv(list(scored.values()), tps_path)
    scores = {t: scored[w].score for t, w in words.items()}
    print(f"scored {len(scores)} targets (n={args.tps_n}) -> {tps_path}")
    print(f"  score range [{min(scores.values()):.3f}, {max(scores.values()):.3f}]")

    key_path = os.path.join(args.outdir, "system.key")
    write_key(result.key, key_path)
    print(f"labeled {len(result.key)} instances -> {key_path}")

    report = score_keys(result.key, gold)
    report_path = os.path.join(args.outdir, "scores.csv")
    save_score_report(report, report_path)
    for row, kind in ((report.pooled, "pooled"), (report.weighted, "weighted")):
        print(
            f"  {kind}: V={row.v_measure:.4f} F={row.f_score:.4f} "
            f"product={row.product:.4f}"
        )

    # Gold sense counts are keyed by target, corpus frequencies by vocabulary word.
    checks = (
        (args.gold_counts, "gold sense counts:", {t: t for t in words}),
        (args.frequencies, "corpus frequency: ", words),
    )
    for path, label, entry in checks:
        if path:
            counts = load_count_table(path)
            joint = [t for t in words if entry[t] in counts]
            r = pearson_with_p([scores[t] for t in joint], [float(counts[entry[t]]) for t in joint])
            print(f"score vs {label} r={r.r:.4f} p={r.p_value:.4g} n={r.n}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
