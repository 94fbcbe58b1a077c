"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (workload family, seed): the same seed
writes byte-identical files.  Vectors are quantized to three decimals
before they are written, so the benchmark's reference checks can hold the
exact values the program parses (an int16 matrix of thousandths) without
reading the text back.  No generated vector is zero, and no two rows
coincide, so every requested word can be scored; inputs with zero vectors
abort ``tps`` today and belong to a robustness workload, not to this one.

Generated inputs are cached under ``.bench_cache/`` in the checkout (never
committed) and reused for the same seed; only the most recent few are kept.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

GENERATOR_VERSION = 1
CACHE_DIR = ".bench_cache"
CACHE_KEEP = 4
SCALE = 1000  # vectors are written as multiples of 1/SCALE
DIM = 100

# Vocabulary sizes: the criterion-7 shape for the search-bound workloads,
# a smaller one where n = 1000 neighborhoods make the diagram dominate.
VOCAB_ROWS = 127_151
WIDE_ROWS = 20_000
# The wsi vocabularies are smaller than the criterion-7 shape: parsing 127k
# rows made set-up half of each wsi invocation, and its run-to-run drift on
# a shared host pushed wall-time spread past the benchmark's bounds.
WSI_ROWS = 50_000

# Planted sense-induction data.  Each target owns 2-5 bundles (one owns 1) of
# BUNDLE_WORDS words at cosine distance about 0.0004 from each other (well
# inside the 0.09 dbscan radius) and near 1 from everything else.
WSI_TARGETS = 24
BUNDLE_WORDS = 50
# k-means (farthest-first start, then Lloyd) merges two 50-word bundles of
# one target into a single cluster in some seeds: the init centers land on
# the random background, and the nearest one to both bundles is kept at
# their midpoint.  Those would be failed instances of the algorithm, not
# of the code under test, so the k-means inputs plant fewer targets whose
# bundles fill the whole n = 5000 neighborhood; farthest-first then seeds
# every bundle before it splits any.
KMEANS_TARGETS = 8
NEIGHBORHOOD = 5000
BUNDLE_NOISE = 0.002
INSTANCES_PER_BUNDLE = 4
CONTEXT_WORDS = 6
FILLERS = ("the", "of", "and")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "tps" or "wsi"
    cli: tuple[str, ...]  # arguments beyond the input and output paths
    rows: int = VOCAB_ROWS
    batch: int = 0  # words requested per tps invocation
    n: int = 0
    targets: int = WSI_TARGETS
    fill: bool = False  # wsi bundles fill the target's whole neighborhood


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tps-vocab", "tps", ("--n", "50"), rows=VOCAB_ROWS, batch=120, n=50),
        Workload("tps-wide", "tps", ("--n", "1000"), rows=WIDE_ROWS, batch=12, n=1000),
        Workload("wsi-dbscan", "wsi", ("--backend", "dbscan", "--n", "5000"), rows=WSI_ROWS),
        Workload(
            "wsi-kmeans", "wsi", ("--backend", "kmeans", "--k", "auto", "--n", "5000"),
            rows=WSI_ROWS, targets=KMEANS_TARGETS, fill=True,
        ),
    )
}


def family(workload: Workload) -> str:
    if workload.kind == "tps":
        return f"tps{workload.rows}x{workload.batch}"
    return f"wsi{workload.rows}x{workload.targets}{'fill' if workload.fill else ''}"


def prepare(workload: Workload, seed: int) -> str:
    """Directory holding the workload's inputs for `seed`, generated on first use."""
    root = os.path.join(CACHE_DIR, "inputs")
    final = os.path.join(root, f"{family(workload)}-seed{seed}-g{GENERATOR_VERSION}")
    if os.path.exists(os.path.join(final, "DONE")):
        os.utime(final)
        return final
    partial = f"{final}.part{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    if workload.kind == "tps":
        build_tps(partial, workload.rows, workload.batch, seed)
    else:
        build_wsi(partial, seed, workload.rows, workload.targets, workload.fill)
    open(os.path.join(partial, "DONE"), "w").close()
    shutil.rmtree(final, ignore_errors=True)
    os.rename(partial, final)
    cached = sorted(
        (os.path.join(root, d) for d in os.listdir(root) if ".part" not in d),
        key=os.path.getmtime,
    )
    for stale in cached[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)
    return final


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values * SCALE), -9999, 9999).astype(np.int16)


def write_vec(path: str, words, quantized: np.ndarray) -> None:
    """Write a .vec file whose numbers parse to exactly quantized / SCALE."""
    table = np.array([f"{i / SCALE:.3f}" for i in range(-9999, 10000)], dtype=object)
    rows, dim = quantized.shape
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{rows} {dim}\n")
        for start in range(0, rows, 8192):
            block = table[quantized[start : start + 8192].astype(np.int64) + 9999]
            handle.write(
                "".join(f"{w} {' '.join(r)}\n" for w, r in zip(words[start : start + 8192], block))
            )


def _gaussian_rows(rng: np.random.Generator, rows: int) -> np.ndarray:
    quantized = _quantize(rng.standard_normal((rows, DIM)))
    if not np.abs(quantized).sum(axis=1).all():
        raise RuntimeError("generated a zero vector")
    return quantized


def build_tps(directory: str, rows: int, batch: int, seed: int) -> None:
    """vectors.vec, words.txt (the requested batch) and quantized.npy."""
    rng = np.random.default_rng([seed, rows])
    quantized = _gaussian_rows(rng, rows)
    words = [f"w{i}" for i in range(rows)]
    chosen = np.sort(rng.choice(rows, size=batch, replace=False))
    requested = tuple(words[i] for i in chosen)
    vec_path = os.path.join(directory, "vectors.vec")
    words_path = os.path.join(directory, "words.txt")
    write_vec(vec_path, words, quantized)
    with open(words_path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{w}\n" for w in requested))
    np.save(os.path.join(directory, "quantized.npy"), quantized)


def build_wsi(directory: str, seed: int, rows: int, targets: int, fill: bool = False) -> None:
    """vectors.vec, instances.jsonl, gold.key and bundles.json (word -> gold sense).

    Planted multi-sense targets inside a random background vocabulary.

    A target with m >= 2 senses is the normalized sum of its bundle
    centers, so its bundles sit at cosine 1/sqrt(m) from it and fall inside
    its 5000-neighborhood.  Unless ``fill`` is set, the background fills the
    rest of that neighborhood with vectors dbscan leaves as noise.  Sense
    counts cycle through 2..5 (plus one single-sense target) so that
    ``--k auto`` sees a spread of tps percentiles.
    """
    rng = np.random.default_rng([seed, 7])
    senses = [1] + [2 + (i % 4) for i in range(targets - 1)]
    rng.shuffle(senses)
    planted_words: list[str] = []
    planted_rows: list[np.ndarray] = []
    bundle_of: dict[str, str] = {}
    bundles: dict[str, list[list[str]]] = {}
    for t, m in enumerate(senses):
        target = f"t{t}"
        # Orthonormal directions put every bundle at exactly 1/sqrt(m) from
        # the target, so its 50 nearest words interleave all m bundles and
        # the tps score (hence k under --k auto) grows with m.  The one
        # single-sense target sits off its bundle's axis so that its
        # projected cloud is a single clump: it scores lowest and takes the
        # k = 2 that --k auto gives the bottom percentile, since k-means at
        # k = 2 cannot reliably split two bundles out of a 5000-word
        # random background.
        basis = np.linalg.qr(rng.standard_normal((DIM, m + 1)))[0].T
        centers = basis[:m]
        direction = centers.sum(axis=0) if m > 1 else centers[0] + basis[m]
        planted_words.append(target)
        planted_rows.append(direction / np.linalg.norm(direction))
        bundles[target] = []
        size = NEIGHBORHOOD // m + BUNDLE_WORDS if fill else BUNDLE_WORDS
        for j, center in enumerate(centers):
            members = center + BUNDLE_NOISE * rng.standard_normal((size, DIM))
            members /= np.linalg.norm(members, axis=1, keepdims=True)
            names = [f"t{t}s{j}w{k}" for k in range(size)]
            planted_words.extend(names)
            planted_rows.extend(members)
            bundles[target].append(names)
            for name in names:
                bundle_of[name] = f"{target}.n.gold_{j}"
    # Planted rows are scaled to the background's norm (about 10) so that
    # three-decimal quantization perturbs both equally little.
    planted = _quantize(10.0 * np.array(planted_rows))
    background = _gaussian_rows(rng, rows - len(planted_words))
    quantized = np.concatenate([planted, background])
    words = planted_words + [f"w{i}" for i in range(background.shape[0])]
    order = rng.permutation(len(words))  # spread planted rows through the file
    vec_path = os.path.join(directory, "vectors.vec")
    write_vec(vec_path, [words[i] for i in order], quantized[order])

    instances: list[dict] = []
    gold: list[str] = []
    for target in sorted(bundles):
        label_target = f"{target}.n"  # resolved through the lemma fallback
        counter = 0
        for j, names in enumerate(bundles[target]):
            for _ in range(INSTANCES_PER_BUNDLE):
                counter += 1
                instance_id = f"{label_target}.{counter}"
                picked = rng.choice(len(names), size=CONTEXT_WORDS, replace=False)
                tokens = [names[p] for p in picked] + [target, *FILLERS]
                instances.append({"target": label_target, "id": instance_id, "tokens": tokens})
                gold.append(f"{label_target} {instance_id} {label_target}.gold_{j}\n")
    instances_path = os.path.join(directory, "instances.jsonl")
    gold_path = os.path.join(directory, "gold.key")
    with open(instances_path, "w", encoding="utf-8") as handle:
        handle.write("".join(json.dumps(record) + "\n" for record in instances))
    with open(gold_path, "w", encoding="utf-8") as handle:
        handle.write("".join(gold))
    with open(os.path.join(directory, "bundles.json"), "w", encoding="utf-8") as handle:
        json.dump(bundle_of, handle)
