"""Word sense induction by clustering neighborhoods and overlap assignment.

Senses of a target word are induced by clustering the word vectors of its
punctured neighborhood; each induced cluster's member words form a sense
vocabulary.  An occurrence of the target is then assigned to the sense
whose vocabulary overlaps its context tokens the most, relative to the
vocabulary size.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from typing import Sequence

from ._util import ParseError, atomic_write_text, utf8_lines
from .clustering import NOISE, dbscan, kmeans
from .embeddings import EmbeddingSet
from .neighborhood import NeighborhoodCloud, map_clouds, punctured_neighborhood
from .tps import PercentileTable, TpsReport, predicted_k, tps_batch

logger = logging.getLogger("topolysemy")


@dataclass(frozen=True)
class Instance:
    """One occurrence of a target word: its context as a token sequence."""

    target: str
    id: str
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        # A key line is "target instance_id label" split on whitespace.
        for name, value in (("target", self.target), ("id", self.id)):
            if not isinstance(value, str):
                raise ValueError(f"instance {name} must be a string, got {value!r}")
            if value.split() != [value]:
                raise ValueError(f"instance {name} must be non-empty without whitespace, got {value!r}")
        tokens = self.tokens
        # A bare string would become its characters; None or a number has no tokens to read.
        if isinstance(tokens, Iterable) and not isinstance(tokens, str):
            tokens = tuple(tokens)
        if not isinstance(tokens, tuple) or not all(isinstance(token, str) for token in tokens):
            raise ValueError(f"instance {self.id!r} tokens must be a sequence of strings, got {self.tokens!r}")
        if not tokens:
            raise ValueError(f"instance {self.id!r} has no context tokens")
        object.__setattr__(self, "tokens", tokens)


@dataclass(frozen=True)
class SenseKey:
    """Ordered (target, instance_id, sense_label) rows; ids unique per target.

    Serves both system output and gold keys; the two share one file format.
    """

    rows: tuple[tuple[str, str, str], ...]
    by_instance: dict[tuple[str, str], str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        index: dict[tuple[str, str], str] = {}
        for target, instance_id, label in self.rows:
            pair = (target, instance_id)
            if pair in index:
                raise ValueError(f"duplicate instance {instance_id!r} for target {target!r}")
            index[pair] = label
        object.__setattr__(self, "by_instance", index)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SenseClusters:
    """Induced sense vocabularies of one target.

    ``clusters`` holds the member words of each sense in neighborhood
    order; clusters are pairwise disjoint.  ``noise`` lists neighborhood
    words left out of every sense.  ``word`` is the vocabulary entry the
    target resolved to.  ``vocabularies`` holds each cluster's word set.
    """

    target: str
    word: str
    clusters: tuple[tuple[str, ...], ...]
    noise: tuple[str, ...] = ()
    vocabularies: tuple[frozenset[str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError(f"target {self.target!r} needs at least one sense cluster")
        vocabularies = tuple(frozenset(cluster) for cluster in self.clusters)
        seen: set[str] = set()
        for members in vocabularies:
            if not members:
                raise ValueError(f"target {self.target!r} has an empty sense cluster")
            if seen & members:
                raise ValueError(f"target {self.target!r} has overlapping sense clusters")
            seen |= members
        object.__setattr__(self, "clusters", tuple(tuple(c) for c in self.clusters))
        object.__setattr__(self, "vocabularies", vocabularies)
        object.__setattr__(self, "noise", tuple(self.noise))

    def __len__(self) -> int:
        return len(self.clusters)

    def label(self, index: int) -> str:
        if not 0 <= index < len(self.clusters):
            raise IndexError(f"sense index {index} out of range for {len(self.clusters)} senses")
        return f"{self.target}.sense_{index}"


@dataclass(frozen=True)
class DbscanConfig:
    """Density backend: cosine eps ball and the core threshold (self counts)."""

    eps: float = 0.09
    min_pts: int = 2


@dataclass(frozen=True)
class KmeansConfig:
    """Partition backend; k=None derives per-target k from score percentiles."""

    k: int | None = None
    seed: int = 0
    tps_n: int = 50

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OpnConfig:
    """Neighborhood size and clustering backend."""

    n: int = 5000
    backend: DbscanConfig | KmeansConfig = DbscanConfig()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


def target_lemma(target: str) -> str:
    """Strip a trailing part-of-speech suffix: 'pivot.n' -> 'pivot'."""
    head, _, _ = target.partition(".")
    return head


def resolve_target(embeddings: EmbeddingSet, target: str) -> str | None:
    """Vocabulary entry for a target: the raw string, else its lemma, else None."""
    if target in embeddings:
        return target
    lemma = target_lemma(target)
    if lemma in embeddings:
        return lemma
    return None


def resolve_targets(embeddings: EmbeddingSet, targets: Sequence[str]) -> dict[str, str]:
    """Vocabulary entry of every target; aborts with a listing of the absent ones."""
    resolved = {t: resolve_target(embeddings, t) for t in targets}
    missing = [t for t in targets if resolved[t] is None]
    if missing:
        raise KeyError(f"{len(missing)} targets not in vocabulary: {missing}")
    return resolved


def induce_senses(
    embeddings: EmbeddingSet,
    target: str,
    n: int,
    backend: DbscanConfig | KmeansConfig,
) -> SenseClusters:
    """Cluster the target's neighborhood vectors into sense vocabularies.

    Requires L2-normalized embeddings.  With the density backend, noise
    words are excluded from every vocabulary, and an all-noise result falls
    back to a single sense holding the whole neighborhood.  With the
    partition backend, k is ``backend.k``, which must lie in [1, n].
    """
    word = resolve_target(embeddings, target)
    if word is None:
        raise KeyError(f"target {target!r} (lemma {target_lemma(target)!r}) not in vocabulary")
    return _cluster_senses(target, punctured_neighborhood(embeddings, word, n), backend)


def _cluster_senses(
    target: str, cloud: NeighborhoodCloud, backend: DbscanConfig | KmeansConfig
) -> SenseClusters:
    """induce_senses on the target's searched cloud."""
    word = cloud.center
    if isinstance(backend, DbscanConfig):
        result = dbscan(cloud.points, eps=backend.eps, min_pts=backend.min_pts)
        if result.n_clusters == 0:
            return SenseClusters(target=target, word=word, clusters=(cloud.words,))
    else:
        if backend.k is None:
            raise ValueError(f"target {target!r}: partition backend needs k (none derived)")
        if not 1 <= backend.k <= len(cloud):
            raise ValueError(
                f"target {target!r}: k must be >= 1 and at most the neighborhood size "
                f"{len(cloud)}, got {backend.k}"
            )
        result = kmeans(cloud.points, k=backend.k, seed=backend.seed).clustering
    clusters = tuple(
        tuple(cloud.words[i] for i in result.members(c).tolist())
        for c in range(result.n_clusters)
    )
    noise = tuple(cloud.words[i] for i in result.members(NOISE).tolist())
    return SenseClusters(target=target, word=word, clusters=clusters, noise=noise)


def assign_instance(instance: Instance, senses: SenseClusters) -> str:
    """Label of the sense whose vocabulary best covers the context tokens.

    The context is deduplicated and the target's own word forms are
    ignored.  Senses are ranked by overlap relative to vocabulary size,
    ties by raw overlap, then by lower sense index.  A context with no
    overlap at all falls back to the largest sense (lowest index among
    equals).
    """
    context = set(instance.tokens)
    context.discard(senses.word)
    context.discard(target_lemma(senses.target))
    overlaps = [len(context & vocabulary) for vocabulary in senses.vocabularies]
    if any(overlaps):
        ranks = [(raw / len(vocabulary), raw) for raw, vocabulary in zip(overlaps, senses.vocabularies)]
    else:
        ranks = [len(cluster) for cluster in senses.clusters]
    # index() takes the first of equal ranks: the lowest sense index.
    return senses.label(ranks.index(max(ranks)))


@dataclass(frozen=True)
class OpnResult:
    """Key over all instances plus the per-target induced senses.

    ``reports`` holds the scores that set percentile k, in target order, or is empty.
    """

    key: SenseKey
    senses: dict[str, SenseClusters]
    reports: tuple[TpsReport, ...] = ()


def run_opn(
    embeddings: EmbeddingSet,
    instances: Sequence[Instance],
    config: OpnConfig = OpnConfig(),
) -> OpnResult:
    """Induce senses for every target and label every instance.

    Requires L2-normalized embeddings, as ``load_unit_vectors`` returns
    them; a raw set raises before any target is scored.  Aborts with a
    listing if any target is absent from the vocabulary under both its raw
    form and its lemma.  With the partition backend and k=None, each
    target gets a copy of the backend whose k is derived from the target's
    score percentile within the evaluated population.  A k above
    ``config.n`` is clamped to it, with one warning per target in target
    order.  The workers search and cluster their shares of the targets
    through map_clouds.  Sense labels read "<target>.sense_<index>"; output
    is independent of instance order.
    """
    if not embeddings.normalized:
        raise ValueError("neighborhood queries require L2-normalized embeddings")
    targets = sorted({instance.target for instance in instances})
    resolved = resolve_targets(embeddings, targets)
    words = [resolved[t] for t in targets]

    backend = config.backend
    backends: dict[str, DbscanConfig | KmeansConfig] = {t: backend for t in targets}
    reports: tuple[TpsReport, ...] = ()
    if isinstance(backend, KmeansConfig) and backend.k is None and targets:
        try:
            # A word that two targets resolve to is scored once.
            scored = {r.word: r for r in tps_batch(embeddings, list(dict.fromkeys(words)), n=backend.tps_n)}
            reports = tuple(scored[w] for w in words)
            table = PercentileTable(scores={t: r.score for t, r in zip(targets, reports)})
            for t in targets:
                backends[t] = replace(backend, k=predicted_k(table.percentile(t)))
        except ValueError as err:
            raise ValueError(
                f"percentile-k scoring of the targets (tps_n={backend.tps_n}): {err}"
            ) from None
    # Clamped here, in target order, so the log does not follow the thread pool.
    for t in targets:
        if isinstance(backends[t], KmeansConfig) and backends[t].k > config.n:
            logger.warning(
                "target %r: k=%d exceeds neighborhood size %d, clamped", t, backends[t].k, config.n
            )
            backends[t] = replace(backends[t], k=config.n)

    induced = map_clouds(
        lambda i, cloud: _cluster_senses(targets[i], cloud, backends[targets[i]]), embeddings, words, config.n
    )
    senses = dict(zip(targets, induced))

    rows = tuple(
        (instance.target, instance.id, assign_instance(instance, senses[instance.target]))
        for instance in sorted(instances, key=lambda inst: (inst.target, inst.id))
    )
    return OpnResult(key=SenseKey(rows=rows), senses=senses, reports=reports)


def load_instances(path) -> list[Instance]:
    """Parse JSONL instances: {"target", "id", "tokens"} per line, each (target, id) once."""
    instances: list[Instance] = []
    first_line: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(utf8_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({err.msg})") from None
        if not isinstance(record, dict):
            raise ParseError(f"{path}:{lineno}: expected a JSON object")
        missing = [name for name in ("target", "id", "tokens") if name not in record]
        if missing:
            raise ParseError(f"{path}:{lineno}: missing fields {missing}")
        target, instance_id, tokens = record["target"], record["id"], record["tokens"]
        if not isinstance(target, str) or not isinstance(instance_id, str):
            raise ParseError(f"{path}:{lineno}: 'target' and 'id' must be strings")
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ParseError(f"{path}:{lineno}: 'tokens' must be a list of strings")
        try:
            instances.append(Instance(target=target, id=instance_id, tokens=tuple(tokens)))
        except ValueError as err:
            raise ParseError(f"{path}:{lineno}: {err}") from None
        seen = first_line.setdefault((target, instance_id), lineno)
        if seen != lineno:
            raise ParseError(
                f"{path}:{lineno}: duplicate instance {instance_id!r} for target {target!r} "
                f"(first seen on line {seen})"
            )
    return instances


def write_key(key: SenseKey, path) -> None:
    """Write "target instance_id label" lines."""
    lines = [f"{target} {instance_id} {label}" for target, instance_id, label in key.rows]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_key(path) -> SenseKey:
    """Parse the space-separated three-column key format."""
    rows: list[tuple[str, str, str]] = []
    for lineno, line in enumerate(utf8_lines(path), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ParseError(
                f"{path}:{lineno}: expected 'target instance_id label', got {line.strip()!r}"
            )
        rows.append((fields[0], fields[1], fields[2]))
    try:
        return SenseKey(rows=tuple(rows))
    except ValueError as err:
        raise ParseError(f"{path}: {err}") from None
