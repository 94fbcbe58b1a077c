"""Sense induction: neighborhood clustering and relative-overlap assignment."""

import logging
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from topolysemy import (
    DbscanConfig,
    EmbeddingSet,
    Instance,
    KmeansConfig,
    OpnConfig,
    ParseError,
    assign_instance,
    induce_senses,
    load_key,
    planted_two_sense_dataset,
    run_opn,
    write_key,
)
from topolysemy import neighborhood, wsi
from topolysemy.embeddings import l2_normalize_all
from topolysemy.wsi import SenseClusters, SenseKey, load_instances, resolve_target, target_lemma


def make_senses(clusters, target="t.n", word="t"):
    return SenseClusters(target=target, word=word, clusters=clusters)


def axis_embedding(words):
    """One orthonormal axis per word: every pairwise cosine distance is 1."""
    return l2_normalize_all(EmbeddingSet(words=tuple(words), vectors=np.eye(len(words))))


class TestAssignInstance:
    def test_relative_overlap_beats_raw_overlap(self):
        senses = make_senses((("a", "b", "c", "d"), tuple(f"q{i}" for i in range(10))))
        inst = Instance(target="t.n", id="i1", tokens=("a", "b", "q0"))
        # 2/4 in the small sense vs 1/10 in the big one.
        assert assign_instance(inst, senses) == "t.n.sense_0"

    def test_relative_tie_falls_to_raw_overlap(self):
        senses = make_senses((("a", "b"), ("c", "d", "e", "f")))
        inst = Instance(target="t.n", id="i1", tokens=("a", "c", "d"))
        # 1/2 vs 2/4 tie on the ratio; the raw count 2 wins.
        assert assign_instance(inst, senses) == "t.n.sense_1"

    def test_full_tie_keeps_lowest_index(self):
        senses = make_senses((("a", "b"), ("c", "d")))
        inst = Instance(target="t.n", id="i1", tokens=("a", "c"))
        assert assign_instance(inst, senses) == "t.n.sense_0"

    def test_zero_overlap_falls_back_to_largest_sense(self):
        senses = make_senses((("a", "b"), ("c", "d", "e"), ("f", "g", "h")))
        inst = Instance(target="t.n", id="i1", tokens=("nothing", "matches"))
        assert assign_instance(inst, senses) == "t.n.sense_1"

    def test_context_tokens_are_deduplicated(self):
        senses = make_senses((("a",), ("b", "c")))
        inst = Instance(target="t.n", id="i1", tokens=("a", "b", "b", "b"))
        # {a, b}: 1/1 beats 1/2 no matter how often b repeats.
        assert assign_instance(inst, senses) == "t.n.sense_0"

    def test_target_word_forms_do_not_count_as_overlap(self):
        senses = SenseClusters(
            target="pivot.n", word="w", clusters=(("pivot", "w"), ("y", "z"))
        )
        inst = Instance(target="pivot.n", id="i1", tokens=("pivot", "w", "y"))
        assert assign_instance(inst, senses) == "pivot.n.sense_1"

    def test_reordering_clusters_moves_the_index_not_the_choice(self):
        first = make_senses((("a", "b", "c", "d"), ("x", "y")))
        second = make_senses((("x", "y"), ("a", "b", "c", "d")))
        inst = Instance(target="t.n", id="i1", tokens=("a", "b"))
        assert assign_instance(inst, first) == "t.n.sense_0"
        assert assign_instance(inst, second) == "t.n.sense_1"


def reference_assign_instance(instance, senses):
    """assign_instance as a running-best loop over the senses."""
    context = set(instance.tokens)
    context.discard(senses.word)
    context.discard(target_lemma(senses.target))
    best_index = 0
    best_rank = (-1.0, -1)
    for index, cluster in enumerate(senses.clusters):
        vocabulary = set(cluster)
        raw = len(context & vocabulary)
        rank = (raw / len(vocabulary), raw)
        if rank > best_rank:
            best_rank = rank
            best_index = index
    if best_rank[1] == 0:
        sizes = [len(cluster) for cluster in senses.clusters]
        best_index = sizes.index(max(sizes))
    return senses.label(best_index)


@st.composite
def senses_and_contexts(draw):
    """Few small senses over a six-word pool, so ranks tie often.

    A word may repeat inside its sense (the rank divides by the distinct
    words, the no-overlap fallback by the cluster length), and contexts may
    miss every sense or hold the target's own forms.
    """
    pool = ["a", "b", "c", "d", "e", "f"]
    owner = draw(st.lists(st.integers(-1, 3), min_size=len(pool), max_size=len(pool)))
    clusters = []
    for sense in range(4):
        members = [w for w, o in zip(pool, owner) if o == sense]
        if members:
            repeats = draw(st.lists(st.sampled_from(members), max_size=2))
            clusters.append(tuple(members + repeats))
    if not clusters:
        clusters.append(("a",))
    contexts = st.lists(st.sampled_from([*pool, "t", "w", "zz"]), min_size=1, max_size=5)
    return SenseClusters(target="t.n", word="w", clusters=tuple(clusters)), draw(contexts)


@given(senses_and_contexts())
def test_assign_instance_matches_the_running_best_loop(case):
    senses, tokens = case
    instance = Instance(target="t.n", id="i", tokens=tuple(tokens))
    assert assign_instance(instance, senses) == reference_assign_instance(instance, senses)


class TestInduceSenses:
    def test_planted_bundles_recovered_by_density_backend(self):
        data = planted_two_sense_dataset()
        emb = data.embeddings
        senses = induce_senses(emb, data.target, 48, DbscanConfig())
        assert senses.word == "pivot"
        assert senses.noise == ()
        found = {frozenset(c) for c in senses.clusters}
        planted = {
            frozenset(f"b0w{i}" for i in range(24)),
            frozenset(f"b1w{i}" for i in range(24)),
        }
        assert found == planted

    def test_all_noise_falls_back_to_one_sense(self):
        emb = axis_embedding(["w", "a", "b", "c", "d"])
        senses = induce_senses(emb, "w", 3, DbscanConfig())
        assert senses.clusters == (("a", "b", "c"),)
        assert senses.noise == ()

    def test_kmeans_k_one_keeps_everything(self):
        data = planted_two_sense_dataset()
        emb = data.embeddings
        senses = induce_senses(emb, data.target, 10, KmeansConfig(k=1))
        assert len(senses) == 1
        assert len(senses.clusters[0]) == 10

    def test_kmeans_k_above_neighborhood_size_rejected(self):
        emb = axis_embedding(["w", "a", "b"])
        with pytest.raises(ValueError, match="at most the neighborhood size 2, got 3"):
            induce_senses(emb, "w", 2, KmeansConfig(k=3))

    def test_kmeans_without_k_anywhere_rejected(self):
        emb = axis_embedding(["w", "a", "b"])
        with pytest.raises(ValueError, match="needs k"):
            induce_senses(emb, "w", 2, KmeansConfig(k=None))
        with pytest.raises(ValueError, match="k must be >= 1"):
            induce_senses(emb, "w", 2, KmeansConfig(k=0))

    @pytest.mark.parametrize("n", [0, -1])
    def test_opn_config_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            OpnConfig(n=n)

    def test_kmeans_config_rejects_a_negative_seed(self):
        assert KmeansConfig(seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            KmeansConfig(seed=-1)

    def test_unknown_target_names_the_lemma(self):
        emb = axis_embedding(["w", "a", "b"])
        with pytest.raises(KeyError, match="ghost"):
            induce_senses(emb, "ghost.n", 2, DbscanConfig())

    def test_lemma_fallback_resolves_the_target(self):
        data = planted_two_sense_dataset()
        emb = data.embeddings
        assert resolve_target(emb, "pivot.n") == "pivot"
        assert resolve_target(emb, "pivot") == "pivot"
        assert resolve_target(emb, "ghost.n") is None

    def test_requires_normalized_embeddings(self):
        data = planted_two_sense_dataset()
        raw = EmbeddingSet(words=data.embeddings.words, vectors=data.embeddings.vectors)
        with pytest.raises(ValueError, match="normalized"):
            induce_senses(raw, data.target, 5, DbscanConfig())


def test_target_lemma():
    assert target_lemma("pivot.n") == "pivot"
    assert target_lemma("pivot") == "pivot"
    assert target_lemma("p.n.extra") == "p"


class TestRunOpn:
    def test_planted_dataset_is_solved_exactly(self):
        data = planted_two_sense_dataset()
        result = run_opn(data.embeddings, data.instances, OpnConfig(n=48))
        assert len(result.key) == len(data.instances)
        by_gold: dict[str, set[str]] = {}
        for (target, instance_id), label in result.key.by_instance.items():
            gold = data.gold.by_instance[(target, instance_id)]
            by_gold.setdefault(gold, set()).add(label)
        labels = [by_gold[g] for g in sorted(by_gold)]
        assert all(len(found) == 1 for found in labels)
        assert labels[0] != labels[1]

    def test_instance_order_does_not_matter(self):
        data = planted_two_sense_dataset()
        config = OpnConfig(n=48)
        forward = run_opn(data.embeddings, data.instances, config)
        backward = run_opn(data.embeddings, tuple(reversed(data.instances)), config)
        assert forward.key.rows == backward.key.rows

    def test_missing_targets_abort_with_a_listing(self):
        data = planted_two_sense_dataset()
        bad = data.instances + (
            Instance(target="ghost.n", id="g1", tokens=("x",)),
            Instance(target="wraith.v", id="g2", tokens=("y",)),
        )
        with pytest.raises(KeyError, match=r"2 targets.*ghost\.n.*wraith\.v"):
            run_opn(data.embeddings, bad, OpnConfig(n=48))

    def test_kmeans_k_clamped_to_neighborhood_size(self, caplog):
        data = planted_two_sense_dataset()
        config = OpnConfig(n=5, backend=KmeansConfig(k=30))
        with caplog.at_level(logging.WARNING, logger="topolysemy"):
            result = run_opn(data.embeddings, data.instances, config)
        assert len(result.senses[data.target]) == 5
        assert "k=30 exceeds neighborhood size 5, clamped" in caplog.text

    def test_clamp_warnings_in_target_order_whatever_the_threads(self, caplog, monkeypatch):
        monkeypatch.setenv("TPS_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        data = planted_two_sense_dataset()
        targets = [f"b{b}w{i}" for i in range(12) for b in (1, 0)]
        instances = [Instance(target=t, id="x", tokens=("pivot",)) for t in targets]
        config = OpnConfig(n=5, backend=KmeansConfig(k=30))
        for _ in range(10):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="topolysemy"):
                run_opn(data.embeddings, instances, config)
            warned = [r.args[0] for r in caplog.records if "clamped" in r.getMessage()]
            assert warned == sorted(targets)

    def test_kmeans_auto_k_over_two_targets(self):
        data = planted_two_sense_dataset()
        instances = data.instances[:2] + (
            Instance(target="b0w0", id="x1", tokens=("b0w1", "b0w2")),
        )
        config = OpnConfig(n=6, backend=KmeansConfig(k=None, tps_n=20))
        result = run_opn(data.embeddings, instances, config)
        assert set(result.senses) == {"b0w0", "pivot.n"}
        pattern = re.compile(r"^(b0w0|pivot\.n)\.sense_\d+$")
        assert all(pattern.match(label) for _, _, label in result.key.rows)

    def test_kmeans_auto_k_key_does_not_depend_on_thread_count(self, monkeypatch):
        # TPS_THREADS is capped at the CPU count; two CPUs keep two workers.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        data = planted_two_sense_dataset(bundle_size=150)
        targets = ["pivot.n", "b0w0", "b0w5", "b1w3", "b1w7"]
        instances = data.instances + tuple(
            Instance(target=t, id=f"{t}.{i}", tokens=data.instances[i].tokens) for t in targets[1:] for i in (0, 15)
        )
        config = OpnConfig(n=200, backend=KmeansConfig(k=None, tps_n=20))
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("TPS_THREADS", threads)
            results.append(run_opn(data.embeddings, instances, config))
        assert results[0].key == results[1].key
        assert results[0].senses == results[1].senses
        # Each target gets its own percentile k, none of them clamped.
        assert len({len(senses) for senses in results[0].senses.values()}) == len(targets)

    def test_raw_set_raises_before_any_work(self, monkeypatch):
        data = planted_two_sense_dataset()
        raw = EmbeddingSet(words=data.embeddings.words, vectors=data.embeddings.vectors)
        instances = data.instances[:2] + (Instance(target="b0w0", id="x1", tokens=("b0w1",)),)
        calls = []

        def counted(name):
            original = getattr(wsi, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return call

        for name in ("tps_batch", "_cluster_senses"):
            monkeypatch.setattr(wsi, name, counted(name))
        config = OpnConfig(n=6, backend=KmeansConfig(k=None, tps_n=20))
        with pytest.raises(ValueError, match="require L2-normalized embeddings"):
            run_opn(raw, instances, config)
        assert calls == []
        # The same set, marked unit, goes through both steps.
        run_opn(data.embeddings, instances, config)
        assert calls[0] == "tps_batch" and calls.count("_cluster_senses") == 2

    @pytest.mark.parametrize("backend", [DbscanConfig(), KmeansConfig(k=3)], ids=["dbscan", "kmeans"])
    def test_each_worker_share_takes_one_candidate_pass(self, monkeypatch, tmp_path, candidate_passes, backend):
        # TPS_THREADS is capped at the CPU count; two CPUs keep two workers.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        data = planted_two_sense_dataset()
        targets = [f"b{b}w{i}" for i in range(12) for b in (1, 0)]
        instances = [
            Instance(target=t, id=f"{t}.{i}", tokens=data.instances[i].tokens) for t in targets for i in (0, 15)
        ]
        config = OpnConfig(n=12, backend=backend)
        senses = {t: induce_senses(data.embeddings, t, config.n, backend) for t in targets}
        expected = SenseKey(
            rows=tuple(
                (instance.target, instance.id, assign_instance(instance, senses[instance.target]))
                for instance in sorted(instances, key=lambda inst: (inst.target, inst.id))
            )
        )
        write_key(expected, tmp_path / "expected.key")
        for threads, shares in (("1", [24]), ("2", [12, 12])):
            monkeypatch.setenv("TPS_THREADS", threads)
            candidate_passes.clear()
            result = run_opn(data.embeddings, instances, config)
            assert [len(rows) for rows in candidate_passes] == shares
            assert result.senses == senses
            write_key(result.key, tmp_path / "system.key")
            assert (tmp_path / "system.key").read_bytes() == (tmp_path / "expected.key").read_bytes()

    @pytest.mark.parametrize("backend", [DbscanConfig(), KmeansConfig(k=3)], ids=["dbscan", "kmeans"])
    def test_three_workers_take_interleaved_shares(self, monkeypatch, candidate_passes, backend):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        data = planted_two_sense_dataset()
        targets = sorted(f"b{b}w{i}" for i in range(13) for b in (1, 0))[:25]
        instances = [
            Instance(target=t, id=f"{t}.{i}", tokens=data.instances[i].tokens) for t in targets for i in (0, 15)
        ]
        config = OpnConfig(n=12, backend=backend)
        rows = [data.embeddings.row(t) for t in targets]
        results = []
        for threads, shares in (("1", [rows]), ("3", [rows[0::3], rows[1::3], rows[2::3]])):
            monkeypatch.setenv("TPS_THREADS", threads)
            candidate_passes.clear()
            results.append(run_opn(data.embeddings, instances, config))
            assert sorted(candidate_passes) == sorted(shares)
        assert results[1].key == results[0].key
        assert results[1].senses == results[0].senses

    def test_workers_take_every_cloud_once_under_stress(self, monkeypatch):
        # Eight workers on two CPUs, passes of five targets and a short switch
        # interval: a cloud taken twice or clustered for the wrong target
        # would change the senses.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(neighborhood, "_BLOCK_WORDS", 5)
        data = planted_two_sense_dataset()
        targets = [f"b{b}w{i}" for i in range(24) for b in (1, 0)]
        instances = [Instance(target=t, id="x", tokens=("pivot",)) for t in targets]
        config = OpnConfig(n=7)
        expected = {t: induce_senses(data.embeddings, t, config.n, config.backend) for t in targets}
        monkeypatch.setenv("TPS_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert run_opn(data.embeddings, instances, config).senses == expected
        finally:
            sys.setswitchinterval(interval)

    def test_kmeans_auto_k_single_target_is_degenerate(self):
        data = planted_two_sense_dataset()
        config = OpnConfig(n=6, backend=KmeansConfig(k=None, tps_n=20))
        with pytest.raises(ValueError, match="degenerate"):
            run_opn(data.embeddings, data.instances[:1], config)

    def test_rows_grouped_by_target_and_sorted_by_id(self):
        data = planted_two_sense_dataset(instances_per_sense=3)
        result = run_opn(data.embeddings, data.instances, OpnConfig(n=48))
        ids = [instance_id for _, instance_id, _ in result.key.rows]
        assert ids == sorted(ids)

    def test_rows_sorted_by_target_before_id(self):
        data = planted_two_sense_dataset()
        pairs = [("pivot.n", "a"), ("b0w0", "c"), ("pivot.n", "b"), ("b0w0", "a")]
        instances = [Instance(target=t, id=i, tokens=("b0w1",)) for t, i in pairs]
        result = run_opn(data.embeddings, instances, OpnConfig(n=6))
        assert [row[:2] for row in result.key.rows] == sorted(pairs)


class TestSenseContainers:
    def test_sense_key_rejects_duplicate_instances(self):
        rows = (("t", "i1", "a"), ("t", "i1", "b"))
        with pytest.raises(ValueError, match="duplicate"):
            SenseKey(rows=rows)

    def test_sense_clusters_must_be_disjoint(self):
        with pytest.raises(ValueError, match="overlapping"):
            make_senses((("a", "b"), ("b", "c")))

    def test_sense_clusters_must_be_non_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            make_senses(())
        with pytest.raises(ValueError, match="empty"):
            make_senses((("a",), ()))

    def test_label_range(self):
        senses = make_senses((("a",), ("b",)))
        assert senses.label(1) == "t.n.sense_1"
        with pytest.raises(IndexError):
            senses.label(2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target": "", "id": "i", "tokens": ("a",)},
            {"target": "t", "id": "", "tokens": ("a",)},
            {"target": "t", "id": "i", "tokens": ()},
            {"target": "t n", "id": "i", "tokens": ("a",)},
            {"target": "t", "id": "a 1.0", "tokens": ("a",)},
            {"target": "t", "id": "a\t1", "tokens": ("a",)},
        ],
    )
    def test_instance_validation(self, kwargs):
        with pytest.raises(ValueError):
            Instance(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"target": "t.n", "id": "1", "tokens": "river water"}, "sequence of strings"),
            ({"target": "t.n", "id": "1", "tokens": ("river", 7)}, "sequence of strings"),
            ({"target": "t.n", "id": "1", "tokens": 5}, "sequence of strings"),
            ({"target": "t.n", "id": "1", "tokens": None}, "sequence of strings"),
            ({"target": 3, "id": "1", "tokens": ("a",)}, "target must be a string"),
            ({"target": "t.n", "id": 1, "tokens": ("a",)}, "id must be a string"),
        ],
        ids=["str-tokens", "int-token", "int-tokens", "none-tokens", "int-target", "int-id"],
    )
    def test_instance_field_types(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Instance(**kwargs)


class TestInstanceIo:
    def test_load_instances(self, tmp_path):
        path = tmp_path / "i.jsonl"
        path.write_text(
            '{"target": "t.n", "id": "t.n.1", "tokens": ["a", "b"]}\n'
            "\n"
            '{"target": "t.n", "id": "t.n.2", "tokens": ["c"]}\n'
        )
        instances = load_instances(path)
        assert [i.id for i in instances] == ["t.n.1", "t.n.2"]
        assert instances[0].tokens == ("a", "b")

    @pytest.mark.parametrize(
        "line,match",
        [
            ("not json", "invalid JSON"),
            ("[1, 2]", "JSON object"),
            ('{"target": "t", "id": "i"}', "missing fields"),
            ('{"target": 3, "id": "i", "tokens": ["a"]}', "must be strings"),
            ('{"target": "t", "id": "i", "tokens": "a"}', "list of strings"),
            ('{"target": "t", "id": "i", "tokens": []}', "no context tokens"),
        ],
    )
    def test_load_instances_errors(self, tmp_path, line, match):
        path = tmp_path / "i.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ParseError, match=match):
            load_instances(path)
        with pytest.raises(ParseError, match=":1:"):
            load_instances(path)

    def test_a_repeated_instance_names_both_lines(self, tmp_path):
        path = tmp_path / "i.jsonl"
        path.write_text(
            '{"target": "bank.n", "id": "bank.n.1", "tokens": ["a"]}\n'
            '{"target": "bank.v", "id": "bank.n.1", "tokens": ["b"]}\n'
            "\n"
            '{"target": "bank.n", "id": "bank.n.1", "tokens": ["c"]}\n'
        )
        with pytest.raises(ParseError) as raised:
            load_instances(path)
        assert str(raised.value) == (
            f"{path}:4: duplicate instance 'bank.n.1' for target 'bank.n' (first seen on line 1)"
        )
        # The same id under another target is a different instance.
        path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
        assert [(i.target, i.id) for i in load_instances(path)] == [("bank.n", "bank.n.1"), ("bank.v", "bank.n.1")]


class TestKeyIo:
    def test_round_trip(self, tmp_path):
        key = SenseKey(rows=(("t.n", "t.n.1", "t.n.sense_0"), ("t.n", "t.n.2", "t.n.sense_1")))
        path = tmp_path / "k.key"
        write_key(key, path)
        assert load_key(path).rows == key.rows

    def test_file_format(self, tmp_path):
        key = SenseKey(rows=(("t", "i", "t.sense_0"),))
        path = tmp_path / "k.key"
        write_key(key, path)
        assert path.read_text() == "t i t.sense_0\n"

    def test_empty_lines_skipped(self, tmp_path):
        path = tmp_path / "k.key"
        path.write_text("t i a\n\n \r\nt j b\n")
        assert load_key(path).rows == (("t", "i", "a"), ("t", "j", "b"))

    def test_bad_arity_rejected(self, tmp_path):
        path = tmp_path / "k.key"
        path.write_text("t i\n")
        with pytest.raises(ParseError, match="expected"):
            load_key(path)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "k.key"
        path.write_text("t i a\nt i b\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_key(path)
