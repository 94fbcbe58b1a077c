"""Count token frequencies of a plain-text corpus into a word<TAB>count TSV.

The output feeds `topolysemy correlate --counts` as the frequency side of
a score-vs-frequency check.  Input errors are one "error: ..." line.

Usage:
    python scripts/count_corpus.py --corpus corpus.txt --out counts.tsv
"""

import argparse

from topolysemy import count_corpus, save_count_table
from topolysemy.cli import nonnegative_int, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, help="plain-text corpus file")
    parser.add_argument("--out", required=True, help="output TSV path")
    parser.add_argument(
        "--min-count", type=nonnegative_int, default=1, help="drop words rarer than this (default 1)"
    )
    return run(count, parser.parse_args())


def count(args: argparse.Namespace) -> int:
    table = count_corpus(args.corpus)
    kept = {w: c for w, c in table.items() if c >= args.min_count}
    save_count_table(kept, args.out)
    print(f"counted {len(table)} distinct words, wrote {len(kept)} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
