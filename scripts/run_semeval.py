"""Full evaluation run against user-supplied sense-induction data.

Inputs: a .vec embedding file, instances as JSONL (target, id, tokens), a
gold key ("target instance_id label" lines), and optionally a gold
sense-count TSV and a corpus-frequency TSV for the correlation checks.

Steps: drop zero vectors with a warning (as the CLI does), score every
target (n=50 neighborhood), induce senses and label all instances, evaluate
against the gold key, and correlate scores with gold sense counts and with
corpus frequency.  All outputs land in --outdir.

Usage:
    python scripts/run_semeval.py --vectors vectors.vec --instances test.jsonl \
        --gold-key gold.key --outdir runs/eval \
        [--gold-counts counts.tsv] [--frequencies freq.tsv] \
        [--backend dbscan|kmeans] [--n 5000] [--k auto]
"""

import argparse
import os
import sys

from topolysemy import (
    DbscanConfig,
    KmeansConfig,
    OpnConfig,
    ParseError,
    PercentileTable,
    load_count_table,
    load_instances,
    load_key,
    load_unit_vectors,
    pearson_with_p,
    resolve_target,
    run_opn,
    save_score_report,
    save_tps_csv,
    score_keys,
    tps_batch,
    write_key,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vectors", required=True)
    parser.add_argument("--instances", required=True)
    parser.add_argument("--gold-key", required=True)
    parser.add_argument("--gold-counts", help="target<TAB>sense-count TSV")
    parser.add_argument("--frequencies", help="word<TAB>frequency TSV")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--backend", choices=("dbscan", "kmeans"), default="dbscan")
    parser.add_argument("--n", type=int, default=5000, help="neighborhood size")
    parser.add_argument("--eps", type=float, default=0.09)
    parser.add_argument("--min-pts", type=int, default=2)
    parser.add_argument("--k", default="auto", help="kmeans k, or 'auto'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tps-n", type=int, default=50, help="scoring neighborhood size")
    args = parser.parse_args()
    try:
        return evaluate(args)
    except (ParseError, ValueError, KeyError, OSError) as err:
        # The same one-line report as the topolysemy CLI.
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 1


def evaluate(args: argparse.Namespace) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    embeddings, dropped = load_unit_vectors(args.vectors)
    if dropped:
        shown = ", ".join(dropped[:10])
        extra = f" (+{len(dropped) - 10} more)" if len(dropped) > 10 else ""
        print(f"warning: skipping {len(dropped)} zero vectors: {shown}{extra}", file=sys.stderr)
    instances = load_instances(args.instances)
    gold = load_key(args.gold_key)
    print(f"{len(embeddings)} vectors, {len(instances)} instances, {len(gold)} gold rows")

    targets = sorted({inst.target for inst in instances})
    resolved = {t: resolve_target(embeddings, t) for t in targets}
    missing = [t for t, w in resolved.items() if w is None]
    if missing:
        raise SystemExit(f"{len(missing)} targets missing from the vectors: {missing[:10]}")

    reports = tps_batch(embeddings, [resolved[t] for t in targets], n=args.tps_n)
    tps_path = os.path.join(args.outdir, "tps.csv")
    save_tps_csv(reports, tps_path)
    scores = {t: r.score for t, r in zip(targets, reports)}
    table = PercentileTable(scores=scores)
    print(f"scored {len(reports)} targets (n={args.tps_n}) -> {tps_path}")
    print(f"  score range [{table.tps_min:.3f}, {table.tps_max:.3f}]")

    if args.backend == "dbscan":
        backend: DbscanConfig | KmeansConfig = DbscanConfig(eps=args.eps, min_pts=args.min_pts)
    else:
        k = None if args.k == "auto" else int(args.k)
        backend = KmeansConfig(k=k, seed=args.seed, tps_n=args.tps_n)
    result = run_opn(embeddings, instances, OpnConfig(n=args.n, backend=backend))
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

    if args.gold_counts:
        counts = load_count_table(args.gold_counts)
        joint = [t for t in targets if t in counts]
        gold_r = pearson_with_p([scores[t] for t in joint], [float(counts[t]) for t in joint])
        print(
            f"score vs gold sense counts: r={gold_r.r:.4f} "
            f"p={gold_r.p_value:.4g} n={gold_r.n}"
        )
    if args.frequencies:
        freq = load_count_table(args.frequencies)
        joint = [t for t in targets if resolved[t] in freq]
        freq_r = pearson_with_p(
            [scores[t] for t in joint], [float(freq[resolved[t]]) for t in joint]
        )
        print(
            f"score vs corpus frequency:  r={freq_r.r:.4f} "
            f"p={freq_r.p_value:.4g} n={freq_r.n}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
