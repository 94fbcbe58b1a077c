"""Command-line surface: score words, induce senses, evaluate keys, correlate.

Four subcommands over the library pipeline:

  tps        score words from a .vec file -> "word,n,tps" CSV
  wsi        induce senses and label instances -> key file
  score      evaluate a key against a gold key -> per-target CSV + aggregates
  correlate  join a score CSV with a count table -> scatter CSV + Pearson r

Every command validates its paths up front, writes outputs atomically, and
exits 0 only when all requested outputs were written.  TPS_THREADS caps the
worker pool.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._util import ParseError, atomic_write_text
from .embeddings import load_count_table, load_vec_file
from .metrics import pearson_with_p, save_score_report, score_keys
from .tps import load_tps_csv, save_tps_csv, tps_batch
from .wsi import (
    DbscanConfig,
    KmeansConfig,
    OpnConfig,
    load_instances,
    load_key,
    run_opn,
    write_key,
)

_OOV_LIST_CAP = 10


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _k_value(text: str) -> int | None:
    if text == "auto":
        return None
    return _positive_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolysemy",
        description="Topological polysemy scores and neighborhood-overlap sense induction.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    tps = sub.add_parser("tps", help="score words; write a word,n,tps CSV")
    tps.add_argument("--vectors", required=True, help=".vec embedding file")
    group = tps.add_mutually_exclusive_group(required=True)
    group.add_argument("--words", help="file with one target word per line")
    group.add_argument("--all", action="store_true", dest="all_words", help="score every word")
    tps.add_argument("--n", type=_positive_int, default=50, help="neighborhood size (default 50)")
    tps.add_argument("--out", required=True, help="output CSV path")

    wsi = sub.add_parser("wsi", help="induce senses; write a key file")
    wsi.add_argument("--vectors", required=True, help=".vec embedding file")
    wsi.add_argument("--instances", required=True, help="JSONL instances (target, id, tokens)")
    wsi.add_argument("--backend", choices=("dbscan", "kmeans"), default="dbscan")
    wsi.add_argument("--n", type=_positive_int, default=5000, help="neighborhood size (default 5000)")
    wsi.add_argument("--eps", type=float, default=0.09, help="dbscan cosine radius (default 0.09)")
    wsi.add_argument("--min-pts", type=_positive_int, default=2, help="dbscan core threshold (default 2)")
    wsi.add_argument("--k", type=_k_value, default=None, help="kmeans cluster count, or 'auto'")
    wsi.add_argument("--seed", type=int, default=0, help="kmeans seed (default 0)")
    wsi.add_argument("--out", required=True, help="output key path")

    score = sub.add_parser("score", help="evaluate a key against a gold key")
    score.add_argument("--key", required=True, help="system key file")
    score.add_argument("--gold", required=True, help="gold key file")
    score.add_argument("--out", required=True, help="output report CSV path")

    corr = sub.add_parser("correlate", help="correlate scores with a count table")
    corr.add_argument("--tps", required=True, dest="tps_csv", help="word,n,tps CSV")
    corr.add_argument("--counts", required=True, help="word<TAB>count TSV")
    corr.add_argument("--out", required=True, help="output scatter CSV path")

    return parser


def _require_file(path: str | None, label: str) -> None:
    if path is None:
        return
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{label} file not found: {path}")


def _require_writable(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"output directory does not exist: {parent}")


_INPUT_FILES = (
    ("vectors", "vectors"),
    ("words", "words"),
    ("instances", "instances"),
    ("key", "key"),
    ("gold", "gold key"),
    ("tps_csv", "tps CSV"),
    ("counts", "counts"),
)


def _validate_paths(args: argparse.Namespace) -> None:
    for name, label in _INPUT_FILES:
        _require_file(getattr(args, name, None), label)
    _require_writable(args.out)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def cmd_tps(args: argparse.Namespace) -> int:
    embeddings = load_vec_file(args.vectors)
    if args.all_words:
        requested = list(embeddings.words)
    else:
        with open(args.words, encoding="utf-8") as handle:
            listed = [line.strip() for line in handle if line.strip()]
        requested = list(dict.fromkeys(listed))
        if len(requested) < len(listed):
            _warn(f"skipping {len(listed) - len(requested)} repeated words")
    in_vocab = [w for w in requested if w in embeddings]
    oov = [w for w in requested if w not in embeddings]
    if oov:
        shown = ", ".join(oov[:_OOV_LIST_CAP])
        extra = f" (+{len(oov) - _OOV_LIST_CAP} more)" if len(oov) > _OOV_LIST_CAP else ""
        _warn(f"skipping {len(oov)} out-of-vocabulary words: {shown}{extra}")
    if not in_vocab:
        raise ValueError("no in-vocabulary words to score")
    reports = tps_batch(embeddings, in_vocab, n=args.n)
    save_tps_csv(reports, args.out)
    print(f"wrote {len(reports)} scores (n={args.n}) to {args.out}")
    return 0


def cmd_wsi(args: argparse.Namespace) -> int:
    embeddings = load_vec_file(args.vectors)
    instances = load_instances(args.instances)
    if not instances:
        raise ValueError(f"no instances in {args.instances}")
    if args.backend == "dbscan":
        backend: DbscanConfig | KmeansConfig = DbscanConfig(eps=args.eps, min_pts=args.min_pts)
    else:
        backend = KmeansConfig(k=args.k, seed=args.seed)
    result = run_opn(embeddings, instances, OpnConfig(n=args.n, backend=backend))
    write_key(result.key, args.out)
    print(
        f"wrote {len(result.key)} assignments over {len(result.senses)} targets to {args.out}"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    system = load_key(args.key)
    gold = load_key(args.gold)
    report = score_keys(system, gold)
    save_score_report(report, args.out)
    for row in (report.pooled, report.weighted):
        kind = "pooled" if row is report.pooled else "weighted"
        print(
            f"aggregate[{kind}] v_measure={row.v_measure:.6f} "
            f"f_score={row.f_score:.6f} product={row.product:.6f}"
        )
    print(f"wrote {len(report.per_target)} target rows to {args.out}")
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    reports = load_tps_csv(args.tps_csv)
    counts = load_count_table(args.counts)
    joined = [(r.word, r.score, counts[r.word]) for r in reports if r.word in counts]
    if len(joined) < 3:
        raise ValueError(
            f"need >= 3 joined rows to correlate, got {len(joined)} "
            f"({len(reports)} scored words, {len(counts)} counted words)"
        )
    result = pearson_with_p([s for _, s, _ in joined], [c for _, _, c in joined])
    lines = ["word,tps,count"]
    lines += [f"{word},{score:.6f},{count}" for word, score, count in joined]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"r={result.r:.6f} p={result.p_value:.6g} n={result.n}")
    print(f"wrote {len(joined)} rows to {args.out}")
    return 0


_COMMANDS = {
    "tps": cmd_tps,
    "wsi": cmd_wsi,
    "score": cmd_score,
    "correlate": cmd_correlate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_paths(args)
        return _COMMANDS[args.subcommand](args)
    except (ParseError, ValueError, KeyError, OSError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
