"""Clustering agreement metrics and score aggregation for sense keys.

Two views of agreement between a system key and a gold key: the entropy
based homogeneity/completeness/V-measure, and the paired F-score over
instance pairs grouped together.  Reports carry one row per target plus
two aggregates: "pooled" (computed once over all instances, with labels
namespaced per target, so pairs form only within a target) and "weighted"
(per-target scores averaged with instance-count weights).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from ._util import atomic_write_csv
from .wsi import SenseKey

SCORE_PRECISION = "%.6f"
POOLED_ROW = "ALL_POOLED"
WEIGHTED_ROW = "ALL_WEIGHTED"


@dataclass(frozen=True)
class VMeasureScore:
    homogeneity: float
    completeness: float
    v_measure: float


@dataclass(frozen=True)
class PairedFScore:
    precision: float
    recall: float
    f_score: float


def _entropy(counts: Counter, total: int) -> float:
    return -sum((c / total) * math.log(c / total) for c in counts.values() if c)


def v_measure(gold: Sequence[Hashable], predicted: Sequence[Hashable]) -> VMeasureScore:
    """Entropy-based homogeneity, completeness, and their harmonic mean.

    Homogeneity is 1 - H(gold|predicted)/H(gold), defined as 1 when the
    gold partition has a single class; completeness mirrors it with the
    roles swapped.  The V-measure is 0 when both terms are 0.
    """
    if len(gold) != len(predicted):
        raise ValueError(f"{len(gold)} gold labels vs {len(predicted)} predicted")
    total = len(gold)
    if total == 0:
        raise ValueError("cannot score zero instances")

    gold_counts: Counter = Counter(gold)
    pred_counts: Counter = Counter(predicted)
    joint: Counter = Counter(zip(gold, predicted))

    h_gold = _entropy(gold_counts, total)
    h_pred = _entropy(pred_counts, total)
    h_gold_given_pred = -sum(
        (n / total) * math.log(n / pred_counts[k]) for (_, k), n in joint.items()
    )
    h_pred_given_gold = -sum(
        (n / total) * math.log(n / gold_counts[c]) for (c, _), n in joint.items()
    )

    homogeneity = 1.0 if h_gold == 0.0 else 1.0 - h_gold_given_pred / h_gold
    completeness = 1.0 if h_pred == 0.0 else 1.0 - h_pred_given_gold / h_pred
    # Conditional entropy never exceeds the marginal; trim float dust so
    # both terms stay inside [0, 1].
    homogeneity = min(1.0, max(0.0, homogeneity))
    completeness = min(1.0, max(0.0, completeness))
    if homogeneity + completeness == 0.0:
        v = 0.0
    else:
        v = 2.0 * homogeneity * completeness / (homogeneity + completeness)
    return VMeasureScore(homogeneity=homogeneity, completeness=completeness, v_measure=v)


def pair_counts(
    gold: Sequence[Hashable], predicted: Sequence[Hashable]
) -> tuple[int, int, int]:
    """(pairs grouped by both, pairs grouped by predicted, pairs grouped by gold)."""
    if len(gold) != len(predicted):
        raise ValueError(f"{len(gold)} gold labels vs {len(predicted)} predicted")
    joint: Counter = Counter(zip(gold, predicted))
    common = sum(math.comb(n, 2) for n in joint.values())
    in_predicted = sum(math.comb(n, 2) for n in Counter(predicted).values())
    in_gold = sum(math.comb(n, 2) for n in Counter(gold).values())
    return common, in_predicted, in_gold


def paired_fscore(gold: Sequence[Hashable], predicted: Sequence[Hashable]) -> PairedFScore:
    """Precision/recall/F over unordered instance pairs grouped together.

    A side with no groupable pairs (all singleton clusters) contributes 0
    to the corresponding ratio.
    """
    common, in_predicted, in_gold = pair_counts(gold, predicted)
    precision = common / in_predicted if in_predicted else 0.0
    recall = common / in_gold if in_gold else 0.0
    if precision + recall == 0.0:
        f = 0.0
    else:
        f = 2.0 * precision * recall / (precision + recall)
    return PairedFScore(precision=precision, recall=recall, f_score=f)


@dataclass(frozen=True)
class PearsonResult:
    r: float
    p_value: float
    n: int


def pearson_with_p(x: Sequence[float], y: Sequence[float]) -> PearsonResult:
    """Pearson correlation with the two-sided Student-t p-value.

    Degenerate cases: fewer than 3 points or a constant input raise; a
    perfect |r| = 1 (no residual variance) reports p = 0.
    """
    xs = np.asarray(list(x), dtype=np.float64)
    ys = np.asarray(list(y), dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"inputs must be equal-length 1-d sequences, got {xs.shape} and {ys.shape}")
    m = xs.shape[0]
    if m < 3:
        raise ValueError(f"need at least 3 points, got {m}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("inputs contain non-finite values")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if denom == 0.0:
        raise ValueError("correlation is undefined for constant input")
    r = float((xc * yc).sum() / denom)
    r = max(-1.0, min(1.0, r))
    if 1.0 - r * r > 0.0:
        # Imported here: only correlate needs it, and scipy.special is slow to load.
        from scipy.special import stdtr

        t = r * math.sqrt((m - 2) / (1.0 - r * r))
        p = float(2.0 * stdtr(m - 2, -abs(t)))
    else:
        p = 0.0
    return PearsonResult(r=r, p_value=p, n=m)


@dataclass(frozen=True)
class ScoreRow:
    """Scores of one target (or one aggregate pseudo-target)."""

    target: str
    instances: int
    precision: float
    recall: float
    f_score: float
    homogeneity: float
    completeness: float
    v_measure: float

    @property
    def product(self) -> float:
        return self.v_measure * self.f_score


# The ScoreRow fields an aggregate averages, in report column order.
SCORE_FIELDS = ("f_score", "precision", "recall", "v_measure", "homogeneity", "completeness")


@dataclass(frozen=True)
class ScoreReport:
    per_target: tuple[ScoreRow, ...]
    pooled: ScoreRow
    weighted: ScoreRow


def _row(target: str, gold_labels: list, system_labels: list) -> ScoreRow:
    vm = v_measure(gold_labels, system_labels)
    pf = paired_fscore(gold_labels, system_labels)
    return ScoreRow(
        target=target,
        instances=len(gold_labels),
        precision=pf.precision,
        recall=pf.recall,
        f_score=pf.f_score,
        homogeneity=vm.homogeneity,
        completeness=vm.completeness,
        v_measure=vm.v_measure,
    )


def score_keys(system: SenseKey, gold: SenseKey) -> ScoreReport:
    """Score a system key against a gold key over the same instances.

    The two keys must label exactly the same (target, instance) pairs;
    any mismatch raises with examples from both directions.
    """
    system_ids = set(system.by_instance)
    gold_ids = set(gold.by_instance)
    if system_ids != gold_ids:
        unlabeled = sorted(gold_ids - system_ids)[:5]
        unknown = sorted(system_ids - gold_ids)[:5]
        parts = []
        if unlabeled:
            parts.append(f"{len(gold_ids - system_ids)} gold instances missing from system, e.g. {unlabeled}")
        if unknown:
            parts.append(f"{len(system_ids - gold_ids)} system instances absent from gold, e.g. {unknown}")
        raise ValueError("keys label different instances: " + "; ".join(parts))
    if not gold_ids:
        raise ValueError("cannot score empty keys")

    by_target: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for target, instance_id, gold_label in gold.rows:
        by_target[target].append((gold_label, system.by_instance[(target, instance_id)]))

    rows: list[ScoreRow] = []
    pooled_gold: list[tuple[str, str]] = []
    pooled_system: list[tuple[str, str]] = []
    for target in sorted(by_target):
        gold_labels = [g for g, _ in by_target[target]]
        system_labels = [s for _, s in by_target[target]]
        rows.append(_row(target, gold_labels, system_labels))
        pooled_gold.extend((target, g) for g in gold_labels)
        pooled_system.extend((target, s) for s in system_labels)

    # Namespaced labels pair up only within their target, so the pooled
    # pair counts are the per-target sums.
    pooled = _row(POOLED_ROW, pooled_gold, pooled_system)
    total = sum(row.instances for row in rows)
    weighted = ScoreRow(
        target=WEIGHTED_ROW,
        instances=total,
        **{
            name: sum(getattr(row, name) * row.instances for row in rows) / total
            for name in SCORE_FIELDS
        },
    )
    return ScoreReport(per_target=tuple(rows), pooled=pooled, weighted=weighted)


def save_score_report(report: ScoreReport, path) -> None:
    """CSV with one row per target plus the two aggregate rows."""
    columns = (*SCORE_FIELDS, "product")
    rows = (
        [row.target, str(row.instances), *(SCORE_PRECISION % getattr(row, name) for name in columns)]
        for row in (*report.per_target, report.pooled, report.weighted)
    )
    atomic_write_csv(path, ["target", "instances", *columns], rows)
