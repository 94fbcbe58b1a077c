"""Command-line surface: score words, induce senses, evaluate keys, correlate.

Four subcommands over the library pipeline:

  tps        score words from a .vec file -> "word,n,tps" CSV
  wsi        induce senses and label instances -> key file
  score      evaluate a key against a gold key -> per-target CSV + aggregates
  correlate  join a score CSV with a count table -> scatter CSV + Pearson r

Every command validates its paths up front, writes outputs atomically, and
exits 0 only when all requested outputs were written.  TPS_THREADS caps the
worker pool.  The scripts under scripts/ share wsi_options, opn_config, the
loaders, run and the checked number types.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import string
import sys
from typing import Callable, Sequence

from ._util import ParseError, atomic_write_csv, utf8_lines
from .embeddings import EmbeddingSet, load_count_table, load_unit_vectors
from .metrics import pearson_with_p, save_score_report, score_keys
from .tps import TPS_CSV_PRECISION, load_tps_csv, save_tps_csv, tps_batch
from .wsi import (
    DbscanConfig,
    Instance,
    KmeansConfig,
    OpnConfig,
    load_instances,
    load_key,
    run_opn,
    write_key,
)

_LIST_CAP = 10
logger = logging.getLogger("topolysemy")


def _checked(
    convert: Callable[[str], float], kind: str, expected: str, holds: Callable[[float], bool]
) -> Callable[[str], float]:
    """Argparse type that converts the text and requires holds(value) of the result."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return value

    return check


positive_int = _checked(int, "an integer", "a positive integer", lambda v: v >= 1)
nonnegative_int = _checked(int, "an integer", "a non-negative integer", lambda v: v >= 0)
positive_float = _checked(float, "a number", "a positive finite number", lambda v: math.isfinite(v) and v > 0.0)


def _k_value(text: str) -> int | None:
    if text == "auto":
        return None
    return positive_int(text)


def wsi_options() -> argparse.ArgumentParser:
    """Parent parser of wsi's inputs and settings, shared with scripts/run_semeval.py."""
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--vectors", required=True, help=".vec embedding file")
    options.add_argument("--instances", required=True, help="JSONL instances (target, id, tokens)")
    options.add_argument("--backend", choices=("dbscan", "kmeans"), default="dbscan")
    options.add_argument(
        "--n", type=positive_int, default=OpnConfig.n, help="neighborhood size (default %(default)s)"
    )
    options.add_argument(
        "--eps", type=positive_float, default=DbscanConfig.eps,
        help="dbscan cosine radius (default %(default)s)",
    )
    options.add_argument(
        "--min-pts", type=positive_int, default=DbscanConfig.min_pts,
        help="dbscan core threshold (default %(default)s)",
    )
    options.add_argument("--k", type=_k_value, default=KmeansConfig.k, help="kmeans cluster count, or 'auto'")
    options.add_argument(
        "--seed", type=nonnegative_int, default=KmeansConfig.seed, help="kmeans seed (default %(default)s)"
    )
    options.add_argument(
        "--tps-n", type=positive_int, default=KmeansConfig.tps_n,
        help="neighborhood size of the scores behind --k auto (default %(default)s)",
    )
    return options


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
    tps.add_argument("--n", type=positive_int, default=50, help="neighborhood size (default 50)")
    tps.add_argument("--out", required=True, help="output CSV path")

    wsi = sub.add_parser("wsi", parents=[wsi_options()], help="induce senses; write a key file")
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


_INPUT_FILES = (
    ("vectors", "vectors"),
    ("words", "words"),
    ("instances", "instances"),
    ("key", "key"),
    ("gold", "gold key"),
    ("tps_csv", "tps CSV"),
    ("counts", "counts"),
    ("gold_key", "gold key"),
    ("gold_counts", "gold counts"),
    ("frequencies", "frequencies"),
    ("corpus", "corpus"),
)


def _validate_paths(args: argparse.Namespace) -> None:
    # Any existing path but a directory is read, so a pipe or /dev/stdin is an input too.
    for name, label in _INPUT_FILES:
        path = getattr(args, name, None)
        if path is not None and not os.path.exists(path):
            raise FileNotFoundError(f"{label} file not found: {path}")
        if path is not None and os.path.isdir(path):
            raise IsADirectoryError(f"{label} file is a directory: {path}")
    if hasattr(args, "out"):
        parent = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"output directory does not exist: {parent}")
        if os.path.isdir(args.out):
            raise IsADirectoryError(f"output path is a directory: {args.out}")


def _listing(items: Sequence[str]) -> str:
    shown = ", ".join(items[:_LIST_CAP])
    extra = f" (+{len(items) - _LIST_CAP} more)" if len(items) > _LIST_CAP else ""
    return shown + extra


def _warn_skipping(kind: str, words: Sequence[str]) -> None:
    logger.warning(f"skipping {len(words)} {kind}: {_listing(words)}")


def load_vectors(path: str) -> EmbeddingSet:
    """Unit vectors of a .vec file; dropped zero vectors are listed in a warning."""
    embeddings, dropped = load_unit_vectors(path)
    if dropped:
        _warn_skipping("zero vectors", dropped)
    return embeddings


def load_nonempty_instances(path: str) -> list[Instance]:
    """Instances of a JSONL file; a file without any is an input error."""
    instances = load_instances(path)
    if not instances:
        raise ValueError(f"no instances in {path}")
    return instances


def cmd_tps(args: argparse.Namespace) -> int:
    # The words file is read before the vectors, so an error in it shows before the long parse.
    if not args.all_words:
        # ASCII whitespace, as .vec words split on: a word may hold U+3000 or U+00A0.
        listed = [word for line in utf8_lines(args.words) if (word := line.strip(string.whitespace))]
        requested = list(dict.fromkeys(listed))
        if len(requested) < len(listed):
            logger.warning(f"skipping {len(listed) - len(requested)} repeated words")
    embeddings = load_vectors(args.vectors)
    if args.all_words:
        requested = list(embeddings.words)
    in_vocab = [w for w in requested if w in embeddings]
    oov = [w for w in requested if w not in embeddings]
    if oov:
        _warn_skipping("out-of-vocabulary words", oov)
    if not in_vocab:
        raise ValueError("no in-vocabulary words to score")
    reports = tps_batch(embeddings, in_vocab, n=args.n)
    # A projected cloud falls short of n points only when the ranking ran
    # out, so its size is every other word less the skipped coincident ones.
    short = [
        f"{r.word} (cloud of {size})"
        for r in reports
        if (size := len(embeddings) - 1 - len(r.skipped)) < args.n
    ]
    if short:
        logger.warning(
            f"{len(short)} words have fewer than n={args.n} non-coincident neighbors "
            f"and were scored on smaller clouds: {_listing(short)}"
        )
    save_tps_csv(reports, args.out)
    print(f"wrote {len(reports)} scores (n={args.n}) to {args.out}")
    return 0


def opn_config(args: argparse.Namespace) -> OpnConfig:
    """The OpnConfig that wsi_options() values describe."""
    if args.backend == "dbscan":
        backend: DbscanConfig | KmeansConfig = DbscanConfig(eps=args.eps, min_pts=args.min_pts)
    else:
        backend = KmeansConfig(k=args.k, seed=args.seed, tps_n=args.tps_n)
    return OpnConfig(n=args.n, backend=backend)


def cmd_wsi(args: argparse.Namespace) -> int:
    # As in cmd_tps, the small input is read first.
    instances = load_nonempty_instances(args.instances)
    embeddings = load_vectors(args.vectors)
    result = run_opn(embeddings, instances, opn_config(args))
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
    for kind, row in (("pooled", report.pooled), ("weighted", report.weighted)):
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
    rows = ((word, TPS_CSV_PRECISION % score, count) for word, score, count in joined)
    atomic_write_csv(args.out, ["word", "tps", "count"], rows)
    print(f"r={result.r:.6f} p={result.p_value:.6g} n={result.n}")
    print(f"wrote {len(joined)} rows to {args.out}")
    return 0


_COMMANDS = {
    "tps": cmd_tps,
    "wsi": cmd_wsi,
    "score": cmd_score,
    "correlate": cmd_correlate,
}


def run(command: Callable[[argparse.Namespace], int], args: argparse.Namespace) -> int:
    """Check the paths in args, then run command; an input error is one line and exit code 1.

    While command runs, the topolysemy logger's warnings are "warning: ..." lines on stderr.
    """
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logger.addHandler(handler)
    try:
        _validate_paths(args)
        return command(args)
    except (ParseError, ValueError, KeyError, OSError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(_COMMANDS[args.subcommand], args)


if __name__ == "__main__":
    sys.exit(main())
