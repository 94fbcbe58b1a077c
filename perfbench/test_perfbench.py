"""Tests of the benchmark's own parts: generator, checkers, span arithmetic.

Run from the repository root: python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import POOL, Span, Tracer, self_times  # noqa: E402


def _files(directory: str) -> dict[str, bytes]:
    return {name: open(os.path.join(directory, name), "rb").read() for name in sorted(os.listdir(directory))}


def test_tps_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for directory, seed in zip(dirs, (1, 1, 2)):
        directory.mkdir()
        workloads.build_tps(str(directory), rows=300, batch=5, seed=seed)
    first, again, other = (_files(str(d)) for d in dirs)
    assert first == again
    assert first["vectors.vec"] != other["vectors.vec"]
    assert first["words.txt"] != other["words.txt"]


def test_wsi_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for directory, seed in zip(dirs, (1, 1, 2)):
        directory.mkdir()
        workloads.build_wsi(str(directory), seed, rows=3000, targets=4)
    first, again, other = (_files(str(d)) for d in dirs)
    assert first == again
    assert first["vectors.vec"] != other["vectors.vec"]
    assert first["instances.jsonl"] != other["instances.jsonl"]


def test_written_vectors_parse_to_the_quantized_values(tmp_path):
    from topolysemy.embeddings import load_vec_file

    workloads.build_tps(str(tmp_path), rows=200, batch=3, seed=5)
    parsed = load_vec_file(str(tmp_path / "vectors.vec")).vectors
    quantized = np.load(tmp_path / "quantized.npy")
    assert np.array_equal(parsed, quantized.astype(np.float64) / workloads.SCALE)
    assert np.abs(quantized).sum(axis=1).all()


@pytest.fixture(scope="module")
def small_vocab(tmp_path_factory):
    directory = tmp_path_factory.mktemp("vocab")
    workloads.build_tps(str(directory), rows=400, batch=6, seed=3)
    return directory


def test_tps_reference_matches_the_program(small_vocab):
    from topolysemy.embeddings import load_vec_file
    from topolysemy.tps import TPS_CSV_PRECISION, tps_batch

    embeddings = load_vec_file(str(small_vocab / "vectors.vec"))
    unit = checks.unit_rows(np.load(small_vocab / "quantized.npy"))
    words = ["w0", "w17", "w399"]
    reports = tps_batch(embeddings, words, n=30, workers=1)
    reference = {w: checks.reference_tps(unit, int(w[1:]), 30) for w in words}
    scores = {r.word: (30, TPS_CSV_PRECISION % r.score) for r in reports}
    assert checks.tps_failures(scores, words, 30, reference) == []


def test_tps_checker_flags_a_perturbed_last_digit_and_missing_words(small_vocab):
    unit = checks.unit_rows(np.load(small_vocab / "quantized.npy"))
    reference = {w: checks.reference_tps(unit, int(w[1:]), 30) for w in ("w1", "w2")}
    printed = {w: float("%.6f" % s) for w, s in reference.items()}
    for word in reference:
        away = 1e-6 if reference[word] <= printed[word] else -1e-6
        scores = {w: (30, "%.6f" % (printed[w] + (away if w == word else 0.0))) for w in reference}
        assert checks.tps_failures(scores, list(reference), 30, reference) == [word]
    exact = {w: (30, "%.6f" % printed[w]) for w in reference}
    assert checks.tps_failures(exact, ["w1", "w2", "w3"], 30, reference) == ["w3"]
    assert checks.tps_failures({**exact, "w1": (31, exact["w1"][1])}, ["w1", "w2"], 30, reference) == ["w1"]


def test_wsi_checker_flags_one_relabelled_instance():
    bundle_of = {f"a{i}": "t.n.gold_0" for i in range(5)} | {f"b{i}": "t.n.gold_1" for i in range(5)}
    senses = {"t.n": [[f"b{i}" for i in range(5)] + ["noise"], [f"a{i}" for i in range(5)]]}
    gold = {("t.n", f"t.n.{i}"): f"t.n.gold_{i % 2}" for i in range(6)}
    rows = [("t.n", iid, f"t.n.sense_{1 - int(label[-1])}") for (_, iid), label in gold.items()]
    assert checks.wsi_failures(rows, gold, senses, bundle_of) == []
    relabelled = [rows[0][:2] + ("t.n.sense_0",)] + rows[1:]
    assert checks.wsi_failures(relabelled, gold, senses, bundle_of) == [("t.n", "t.n.0")]
    assert checks.wsi_failures(rows[1:], gold, senses, bundle_of) == [("t.n", "t.n.0")]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1, "r"),
        Span(2, "a", 1.0, 4.0, 1, 1, "r"),
        Span(3, "b", 3.0, 6.0, 1, 2, "r"),  # overlaps a on another thread
        Span(4, "leaf", 2.0, 3.0, 2, 1, "r"),
        Span(5, "late", 9.5, 11.0, 1, 1, "r"),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx({1: 4.5, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.5})


def test_pool_tasks_are_parented_to_the_pool_span():
    tracer = Tracer(run="t")

    def pool(fn, items):
        with ThreadPoolExecutor(max_workers=2) as executor:
            return list(executor.map(fn, items))

    def task(item):
        return tracer.call("leaf", lambda x: (x, threading.get_ident()), (item,), {})

    results = tracer.call(POOL, pool, (task, [1, 2, 3, 4]), {})
    assert [r[0] for r in results] == [1, 2, 3, 4]
    pool_span = next(s for s in tracer.spans if s.name == POOL)
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4 and all(s.parent == pool_span.id for s in leaves)
    assert all(s.thread != pool_span.thread for s in leaves)


def test_missing_public_name_is_recorded_not_raised():
    tracer = Tracer(run="t")
    tracer.install(["tps.no_such_function", "no_such_module.f"])
    assert tracer.missing == ["tps.no_such_function", "no_such_module.f"]


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == layers.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
