"""Output checks: a reference tps score and a planted-bundle wsi check.

The tps reference shares no code with ``neighborhood`` or ``persistence``:
a full stable sort of the cosine similarities, the sphere projection, and
scipy's single-linkage merge heights, whose sum / 2 is the degree-0
Wasserstein norm.  Scores are compared at the CSV's printed precision.

The wsi check maps each induced sense to the planted bundle holding most of
its words; an instance fails if its label maps to any other bundle than its
gold sense (or is missing from the key).
"""

from __future__ import annotations

import csv
import hashlib
from collections import Counter

import numpy as np
from scipy.cluster.hierarchy import linkage

from workloads import SCALE

# The CSV prints six decimals; a correct score is within half a unit of the
# last digit, plus float slack for a reference summed in another order.
TPS_TOLERANCE = 0.5e-6 + 1e-9


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def unit_rows(quantized: np.ndarray) -> np.ndarray:
    rows = quantized.astype(np.float64) / SCALE
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def reference_tps(unit: np.ndarray, row: int, n: int) -> float:
    sims = unit @ unit[row]
    order = np.argsort(-sims, kind="stable")
    chosen = order[order != row][:n]
    offsets = unit[chosen] - unit[row]
    lengths = np.linalg.norm(offsets, axis=1, keepdims=True)
    if (lengths < 1e-12).any():
        raise ValueError("benchmark inputs must not have coincident neighbors")
    return float(linkage(offsets / lengths, "single")[:, 2].sum() / 2.0)


def read_tps_csv(path: str) -> dict[str, tuple[int, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["word", "n", "tps"]:
        raise ValueError(f"{path}: not a word,n,tps CSV")
    return {word: (int(n), score) for word, n, score in rows[1:]}


def tps_failures(
    scores: dict[str, tuple[int, str]],
    requested: list[str],
    n: int,
    reference: dict[str, float],
) -> list[str]:
    """Requested words that are missing, carry the wrong n, or miss the reference.

    ``reference`` holds the recomputed score of a sample of the requested
    words; the others are checked for presence only.
    """
    failed = []
    for word in requested:
        if word not in scores or scores[word][0] != n:
            failed.append(word)
        elif word in reference and abs(float(scores[word][1]) - reference[word]) > TPS_TOLERANCE:
            failed.append(word)
    return failed


def wsi_failures(
    key_rows: list[tuple[str, str, str]],
    gold: dict[tuple[str, str], str],
    senses: dict[str, list[list[str]]],
    bundle_of: dict[str, str],
) -> list[tuple[str, str]]:
    """Gold instances whose label is missing or maps to another planted bundle."""
    maps_to: dict[tuple[str, int], str | None] = {}
    for target, clusters in senses.items():
        for index, cluster in enumerate(clusters):
            votes = Counter(bundle_of[w] for w in cluster if w in bundle_of)
            maps_to[(target, index)] = votes.most_common(1)[0][0] if votes else None
    labels = {(target, instance): label for target, instance, label in key_rows}
    failed = []
    for pair, gold_label in gold.items():
        label = labels.get(pair)
        target = pair[0]
        prefix = f"{target}.sense_"
        if label is None or not label.startswith(prefix) or not label[len(prefix) :].isdigit():
            failed.append(pair)
            continue
        if maps_to.get((target, int(label[len(prefix) :]))) != gold_label:
            failed.append(pair)
    return failed
