"""Smoke runs of the scripts under scripts/, which import the package's public names."""

import dataclasses
import glob
import json
import os
import re
import runpy
import sys

import numpy as np
import pytest

import topolysemy
from conftest import fed_fifo, save_vec_file
from topolysemy import (
    EmbeddingSet,
    Instance,
    load_unit_vectors,
    pearson_with_p,
    planted_two_sense_dataset,
    tps_batch,
    write_key,
)
from topolysemy.cli import build_parser, main
from topolysemy.tps import load_tps_csv
from topolysemy.wsi import SenseKey

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, monkeypatch, *args, code=0):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(os.path.join(SCRIPTS, name), run_name="__main__")
    assert exit_info.value.code == code


def test_synthetic_demo(monkeypatch, capsys):
    run_script("synthetic_demo.py", monkeypatch, "--trials", "1", "--per-cap", "10")
    out = capsys.readouterr().out
    assert "k=5: mean score" in out
    assert "pooled V=1.000 paired F=1.000" in out


def test_count_corpus(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("The cat saw the dog.\nA dog!\n")
    out = tmp_path / "counts.tsv"
    run_script("count_corpus.py", monkeypatch, "--corpus", str(corpus), "--out", str(out), "--min-count", "2")
    assert out.read_text() == "dog\t2\nthe\t2\n"


def test_count_corpus_reads_a_pipe(tmp_path, monkeypatch):
    corpus, out = tmp_path / "corpus.pipe", tmp_path / "counts.tsv"
    with fed_fifo(corpus, b"The cat saw the dog.\nA dog!\n"):
        run_script("count_corpus.py", monkeypatch, "--corpus", str(corpus), "--out", str(out), "--min-count", "2")
    assert out.read_text() == "dog\t2\nthe\t2\n"


@pytest.mark.parametrize(
    "corpus, out, message",
    [
        ("absent.txt", "counts.tsv", "corpus file not found: {tmp}/absent.txt"),
        ("corpus.txt", "absent/counts.tsv", "output directory does not exist: {tmp}/absent"),
        ("corpus.txt", "outdir", "output path is a directory: {tmp}/outdir"),
    ],
    ids=["missing-corpus", "missing-outdir", "outdir-is-a-directory"],
)
def test_count_corpus_reports_input_errors_in_one_line(tmp_path, monkeypatch, capsys, corpus, out, message):
    (tmp_path / "corpus.txt").write_text("a dog\n")
    (tmp_path / "outdir").mkdir()
    run_script(
        "count_corpus.py", monkeypatch, "--corpus", str(tmp_path / corpus), "--out", str(tmp_path / out), code=1
    )
    assert capsys.readouterr().err == "error: " + message.format(tmp=tmp_path) + "\n"
    assert list((tmp_path / "outdir").iterdir()) == []


def semeval_inputs(tmp_path, embeddings, data):
    """--vectors, --instances and --gold-key arguments for run_semeval.py."""
    vectors = tmp_path / "planted.vec"
    save_vec_file(embeddings, vectors)
    instances = tmp_path / "instances.jsonl"
    instances.write_text(
        "".join(
            json.dumps({"target": i.target, "id": i.id, "tokens": list(i.tokens)}) + "\n"
            for i in data.instances
        )
    )
    gold = tmp_path / "gold.key"
    write_key(data.gold, gold)
    return ["--vectors", str(vectors), "--instances", str(instances), "--gold-key", str(gold)]


def test_run_semeval_drops_zero_vectors(tmp_path, monkeypatch, capsys):
    data = planted_two_sense_dataset()
    embeddings = EmbeddingSet(
        words=(*data.embeddings.words, "blank"),
        vectors=np.vstack([data.embeddings.vectors, np.zeros(data.embeddings.dim)]),
    )
    outdir = tmp_path / "eval"
    run_script(
        "run_semeval.py", monkeypatch,
        *semeval_inputs(tmp_path, embeddings, data),
        "--outdir", str(outdir),
        "--n", "48",
        "--tps-n", "10",
    )
    captured = capsys.readouterr()
    assert "warning: skipping 1 zero vectors: blank" in captured.err
    assert "pooled: V=1.0000 F=1.0000" in captured.out
    assert sorted(os.listdir(outdir)) == ["scores.csv", "system.key", "tps.csv"]


def counted_tps_batch(monkeypatch):
    """The (words, n) of every tps_batch call, through the binding the script imports and the one run_opn calls."""
    calls = []

    def counted(real):
        def tps_batch(embeddings, words, n, **kwargs):
            calls.append((list(words), n))
            return real(embeddings, words, n, **kwargs)

        return tps_batch

    monkeypatch.setattr(topolysemy, "tps_batch", counted(topolysemy.tps_batch))
    monkeypatch.setattr(topolysemy.wsi, "tps_batch", counted(topolysemy.wsi.tps_batch))
    return calls


def test_run_semeval_auto_k_scores_each_target_once(tmp_path, monkeypatch, capsys):
    data = planted_two_sense_dataset()
    words = ["b0w0", "b0w5", "b1w3", "b1w7"]
    planted = dataclasses.replace(
        data,
        instances=data.instances + tuple(Instance(target=w, id="x", tokens=("pivot",)) for w in words),
        gold=SenseKey(rows=data.gold.rows + tuple((w, "x", "g") for w in words)),
    )
    calls = counted_tps_batch(monkeypatch)
    outdir = tmp_path / "eval"
    run_script(
        "run_semeval.py", monkeypatch,
        *semeval_inputs(tmp_path, planted.embeddings, planted),
        "--outdir", str(outdir),
        "--backend", "kmeans", "--k", "auto", "--n", "20", "--tps-n", "10",
    )
    assert calls == [([*words, "pivot"], 10)]
    assert "scored 5 targets (n=10)" in capsys.readouterr().out
    assert sorted(os.listdir(outdir)) == ["scores.csv", "system.key", "tps.csv"]


@pytest.mark.parametrize(
    "backend", [("--n", "48"), ("--backend", "kmeans", "--k", "auto", "--n", "20")], ids=["dbscan", "kmeans-auto"]
)
def test_run_semeval_writes_one_tps_row_per_word(tmp_path, monkeypatch, capsys, backend):
    # pivot.n and pivot.v both resolve to the vocabulary word pivot.
    data = planted_two_sense_dataset()
    targets = ["b0w0", "b1w3", "pivot.v"]
    planted = dataclasses.replace(
        data,
        instances=data.instances + tuple(Instance(target=t, id="x", tokens=("pivot",)) for t in targets),
        gold=SenseKey(rows=data.gold.rows + tuple((t, "x", "g") for t in targets)),
    )
    calls = counted_tps_batch(monkeypatch)
    outdir = tmp_path / "eval"
    run_script(
        "run_semeval.py", monkeypatch,
        *semeval_inputs(tmp_path, planted.embeddings, planted),
        "--outdir", str(outdir), "--tps-n", "10", *backend,
    )
    assert "scored 4 targets (n=10)" in capsys.readouterr().out
    assert calls == [(["b0w0", "b1w3", "pivot"], 10)]
    assert [(r.word, r.n) for r in load_tps_csv(outdir / "tps.csv")] == [("b0w0", 10), ("b1w3", 10), ("pivot", 10)]


def test_run_semeval_reports_input_errors_in_one_line(tmp_path, monkeypatch, capsys):
    data = planted_two_sense_dataset()
    run_script(
        "run_semeval.py", monkeypatch,
        *semeval_inputs(tmp_path, data.embeddings, data),
        "--outdir", str(tmp_path / "eval"),
        "--n", "48",
        code=1,
    )
    err = capsys.readouterr().err
    assert err == "error: n=50 exceeds the 48 available neighbors\n"


def test_run_semeval_rejects_an_empty_instances_file_before_writing(tmp_path, monkeypatch, capsys):
    data = planted_two_sense_dataset()
    inputs = semeval_inputs(tmp_path, data.embeddings, data)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    inputs[inputs.index("--instances") + 1] = str(empty)
    outdir = tmp_path / "eval"
    run_script("run_semeval.py", monkeypatch, *inputs, "--outdir", str(outdir), code=1)
    assert capsys.readouterr().err == f"error: no instances in {empty}\n"
    assert not outdir.exists()


@pytest.mark.parametrize(
    "option, value, expected",
    [
        pytest.param("--k", "0", "a positive integer, got 0", id="--k"),
        pytest.param("--n", "0", "a positive integer, got 0", id="--n"),
        pytest.param("--eps", "0", "a positive finite number, got 0.0", id="--eps"),
        pytest.param("--seed", "-1", "a non-negative integer, got -1", id="--seed"),
    ],
)
def test_run_semeval_rejects_bad_values_before_loading(tmp_path, monkeypatch, capsys, option, value, expected):
    data = planted_two_sense_dataset()
    outdir = tmp_path / "eval"
    run_script(
        "run_semeval.py", monkeypatch,
        *semeval_inputs(tmp_path, data.embeddings, data),
        "--outdir", str(outdir),
        "--backend", "kmeans",
        option, value,
        code=2,
    )
    err = capsys.readouterr().err
    assert err.endswith(f"run_semeval.py: error: argument {option}: expected {expected}\n")
    assert not outdir.exists()


def test_run_semeval_correlates_gold_counts_by_target_and_frequencies_by_word(tmp_path, monkeypatch, capsys):
    data = planted_two_sense_dataset()
    words = ["b0w0", "b0w5", "b1w3"]
    planted = dataclasses.replace(
        data,
        instances=data.instances + tuple(Instance(target=w, id="x", tokens=("pivot",)) for w in words),
        gold=SenseKey(rows=data.gold.rows + tuple((w, "x", "g") for w in words)),
    )
    inputs = semeval_inputs(tmp_path, planted.embeddings, planted)
    # Each file also counts the other spelling of pivot.n, which must not join.
    gold_counts = tmp_path / "gold_counts.tsv"
    gold_counts.write_text("b0w0\t1\nb0w5\t3\npivot\t40\npivot.n\t2\n")
    frequencies = tmp_path / "frequencies.tsv"
    frequencies.write_text("b0w0\t7\nb0w5\t3\nb1w3\t12\npivot\t50\npivot.n\t1\n")
    run_script(
        "run_semeval.py", monkeypatch, *inputs,
        "--outdir", str(tmp_path / "eval"), "--n", "48", "--tps-n", "10",
        "--gold-counts", str(gold_counts), "--frequencies", str(frequencies),
    )
    embeddings, _ = load_unit_vectors(inputs[1])
    score = {r.word: r.score for r in tps_batch(embeddings, [*words, "pivot"], n=10)}
    gold = pearson_with_p([score["b0w0"], score["b0w5"], score["pivot"]], [1.0, 3.0, 2.0])
    freq = pearson_with_p([score[w] for w in [*words, "pivot"]], [7.0, 3.0, 12.0, 50.0])
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"score vs gold sense counts: r={gold.r:.4f} p={gold.p_value:.4g} n=3",
        f"score vs corpus frequency:  r={freq.r:.4f} p={freq.p_value:.4g} n=4",
    ]


@pytest.mark.parametrize("option, label", [("--gold-counts", "gold counts"), ("--frequencies", "frequencies")])
def test_run_semeval_checks_input_files_before_loading(tmp_path, monkeypatch, capsys, option, label):
    data = planted_two_sense_dataset()
    outdir = tmp_path / "eval"
    missing = tmp_path / "missing.tsv"
    run_script(
        "run_semeval.py", monkeypatch,
        *semeval_inputs(tmp_path, data.embeddings, data),
        "--outdir", str(outdir),
        "--n", "48",
        "--tps-n", "10",
        option, str(missing),
        code=1,
    )
    assert capsys.readouterr().err == f"error: {label} file not found: {missing}\n"
    assert not outdir.exists()


def test_run_semeval_reports_a_missing_target_in_one_line(tmp_path, monkeypatch, capsys):
    data = planted_two_sense_dataset()
    rows = [i for i, word in enumerate(data.embeddings.words) if word != "pivot"]
    embeddings = EmbeddingSet(
        words=tuple(data.embeddings.words[i] for i in rows), vectors=data.embeddings.vectors[rows]
    )
    run_script(
        "run_semeval.py", monkeypatch,
        *semeval_inputs(tmp_path, embeddings, data),
        "--outdir", str(tmp_path / "eval"),
        "--n", "47",
        "--tps-n", "10",
        code=1,
    )
    assert capsys.readouterr().err == "error: 1 targets not in vocabulary: ['pivot.n']\n"


def test_run_semeval_takes_the_wsi_options_and_defaults():
    # Every wsi option but --out parses to the same name and value, defaults included.
    script_parser = runpy.run_path(os.path.join(SCRIPTS, "run_semeval.py"))["build_parser"]()
    required = ["--vectors", "v.vec", "--instances", "i.jsonl"]
    settings = [
        "--backend", "kmeans", "--n", "7", "--eps", "0.5", "--min-pts", "3",
        "--k", "4", "--seed", "9", "--tps-n", "11",
    ]
    for wsi_argv in ([], settings):
        cli_args = vars(build_parser().parse_args(["wsi", *required, *wsi_argv, "--out", "o"]))
        del cli_args["subcommand"], cli_args["out"]
        script_args = vars(script_parser.parse_args([*required, *wsi_argv, "--gold-key", "g", "--outdir", "d"]))
        assert {name: script_args.get(name, "absent") for name in cli_args} == cli_args


def test_every_export_is_used_by_the_readme_or_a_script():
    # The README's export rule: the package exports what the README and the
    # scripts use, plus ParseError and __version__.
    readme = os.path.join(os.path.dirname(SCRIPTS), "README.md")
    texts = [readme, *sorted(glob.glob(os.path.join(SCRIPTS, "*.py")))]
    used = ""
    for path in texts:
        with open(path, encoding="utf-8") as handle:
            used += handle.read()
    exported = set(topolysemy.__all__) - {"ParseError", "__version__"}
    assert sorted(n for n in exported if not re.search(rf"\b{n}\b", used)) == []


_WSI_BAD_VALUES = [
    ("--n", "0", "a positive integer, got 0"),
    ("--eps", "0", "a positive finite number, got 0.0"),
    ("--min-pts", "0", "a positive integer, got 0"),
    ("--k", "0", "a positive integer, got 0"),
    ("--seed", "-1", "a non-negative integer, got -1"),
    ("--tps-n", "0", "a positive integer, got 0"),
]
_BAD_VALUES = {
    "tps": [("--n", "0", "a positive integer, got 0")],
    "wsi": _WSI_BAD_VALUES,
    "run_semeval.py": _WSI_BAD_VALUES,
    "count_corpus.py": [("--min-count", "-3", "a non-negative integer, got -3")],
    "synthetic_demo.py": [
        ("--trials", "0", "a positive integer, got 0"),
        ("--per-cap", "0", "a positive integer, got 0"),
        ("--seed", "-5000", "a non-negative integer, got -5000"),
    ],
}


@pytest.mark.parametrize(
    "command, option, value, expected",
    [
        pytest.param(command, *case, id=f"{command}{case[0]}")
        for command, cases in _BAD_VALUES.items()
        for case in cases
    ],
)
def test_every_numeric_flag_rejects_a_bad_value_before_reading_files(
    tmp_path, monkeypatch, capsys, command, option, value, expected
):
    # No input file exists, so only the parser can exit 2.
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out" / "o")
    inputs = {
        "tps": ["--vectors", missing, "--all", "--out", out],
        "wsi": ["--vectors", missing, "--instances", missing, "--out", out],
        "run_semeval.py": ["--vectors", missing, "--instances", missing, "--gold-key", missing, "--outdir", out],
        "count_corpus.py": ["--corpus", missing, "--out", out],
        "synthetic_demo.py": [],
    }[command]
    if command.endswith(".py"):
        run_script(command, monkeypatch, *inputs, option, value, code=2)
    else:
        with pytest.raises(SystemExit) as exit_info:
            main([command, *inputs, option, value])
        assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.endswith(f": error: argument {option}: expected {expected}\n")
    assert os.listdir(tmp_path) == []
