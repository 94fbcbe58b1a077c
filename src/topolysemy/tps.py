"""Topological polysemy scores and the score-to-sense-count mapping.

The score of a word is the Wasserstein norm of the degree-0 persistence
diagram of its sphere-projected punctured neighborhood.  Scores are turned
into predicted sense counts by ranking a word's score among a reference
population (integer percentile) and offsetting the percentile by one, with
both ends clamped so predictions always land in {2, ..., 100}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

from ._util import ParseError, atomic_write_csv, utf8_lines
from .embeddings import EmbeddingSet, l2_normalize_all
from .neighborhood import NeighborhoodCloud, map_clouds
from .persistence import degree0_diagram, wasserstein_norm

TPS_CSV_PRECISION = "%.6f"


@dataclass(frozen=True)
class TpsReport:
    """Score of one word.

    ``bars_used`` is the diagram size, n - 1 unless the vocabulary ran out
    of non-coincident neighbors (the coincident ones are listed in
    ``skipped``); a word whose neighbors all coincide with it scores 0 on
    no bars.  It is None for reports read back from CSV, which does not
    carry it.
    """

    word: str
    n: int
    score: float
    bars_used: int | None = None
    skipped: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.score < 0.0 or not math.isfinite(self.score):
            raise ValueError(f"score must be finite and >= 0, got {self.score}")
        object.__setattr__(self, "skipped", tuple(self.skipped))


def tps_score(embeddings: EmbeddingSet, word: str, n: int) -> TpsReport:
    """Score one word over its n-neighbor projected cloud: tps_batch of one word.

    Normalizes the embeddings first unless they already are; callers
    scoring many words should normalize once and reuse (see tps_batch).
    """
    return tps_batch(embeddings, [word], n, workers=1)[0]


def _report(cloud: NeighborhoodCloud, n: int) -> TpsReport:
    diagram = degree0_diagram(cloud.points)
    return TpsReport(
        word=cloud.center,
        n=n,
        score=wasserstein_norm(diagram),
        bars_used=len(diagram),
        skipped=cloud.skipped,
    )


def tps_batch(
    embeddings: EmbeddingSet, words: Sequence[str], n: int, workers: int | None = None
) -> list[TpsReport]:
    """Score many words, normalizing the embeddings once.

    The workers score their shares of the words through map_clouds, after
    every share's arguments are checked.  Output order matches input order,
    and scores do not depend on block or worker count.
    """
    if not embeddings.normalized:
        embeddings = l2_normalize_all(embeddings)
    return map_clouds(lambda i, cloud: _report(cloud, n), embeddings, words, n, project=True, workers=workers)


@dataclass(frozen=True)
class PercentileTable:
    """Scores of a reference word population, for integer percentile ranks."""

    scores: dict[str, float]
    tps_min: float = field(init=False)
    tps_max: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.scores:
            raise ValueError("cannot build a percentile table from zero scores")
        values = list(self.scores.values())
        if not all(math.isfinite(v) for v in values):
            raise ValueError("scores contain non-finite values")
        object.__setattr__(self, "scores", dict(self.scores))
        object.__setattr__(self, "tps_min", min(values))
        object.__setattr__(self, "tps_max", max(values))

    def percentile(self, word: str) -> int:
        """Integer percentile rank of a tabled word's score, by ceiling.

        The minimum-score word ranks 0 and the maximum 100.  A degenerate
        table (all scores equal) cannot rank anything and raises.
        """
        if word not in self.scores:
            raise KeyError(f"word {word!r} not in the percentile table")
        if self.tps_max == self.tps_min:
            raise ValueError(
                "degenerate percentile table: all reference scores are equal, ranks are undefined"
            )
        fraction = (self.scores[word] - self.tps_min) / (self.tps_max - self.tps_min)
        return min(100, max(0, math.ceil(fraction * 100.0)))


def predicted_k(percentile: int) -> int:
    """Sense-count prediction from an integer percentile rank.

    Percentiles 0 and 1 predict the 2-sense floor, 100 stays at the cap,
    and everything between maps to percentile + 1; the image is exactly
    {2, ..., 100}.
    """
    if not isinstance(percentile, int) or isinstance(percentile, bool):
        raise ValueError(f"percentile must be an int, got {percentile!r}")
    if percentile < 0 or percentile > 100:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    if percentile <= 1:
        return 2
    if percentile == 100:
        return 100
    return percentile + 1


def save_tps_csv(reports: Sequence[TpsReport], path) -> None:
    """Write "word,n,tps" rows, scores at 6 decimal places."""
    rows = ([report.word, str(report.n), TPS_CSV_PRECISION % report.score] for report in reports)
    atomic_write_csv(path, ["word", "n", "tps"], rows)


def load_tps_csv(path) -> list[TpsReport]:
    """Read back the "word,n,tps" format written by save_tps_csv."""
    reports: list[TpsReport] = []
    reader = csv.reader(utf8_lines(path, newline=""))
    header = next(reader, None)
    if header != ["word", "n", "tps"]:
        raise ParseError(f"{path}:1: expected header 'word,n,tps', got {header!r}")
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        word, raw_n, raw_score = row
        if word in seen:
            raise ParseError(f"{path}:{lineno}: duplicate word {word!r}")
        try:
            n = int(raw_n)
            score = float(raw_score)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: unparseable row {row!r}") from None
        if not (raw_n.isascii() and raw_n.isdigit() and n > 0):
            raise ParseError(f"{path}:{lineno}: n for {word!r} must be a positive integer, got {raw_n!r}")
        # float() also reads "_" digit grouping, surrounding whitespace and non-ASCII digits.
        if not raw_score.isascii() or "_" in raw_score or raw_score != raw_score.strip():
            raise ParseError(f"{path}:{lineno}: unparseable row {row!r}")
        if not math.isfinite(score) or score < 0.0:
            raise ParseError(f"{path}:{lineno}: invalid score for {word!r}")
        seen.add(word)
        reports.append(TpsReport(word=word, n=n, score=score))
    return reports
