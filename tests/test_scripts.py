"""Smoke runs of the scripts under scripts/, which import the package's public names."""

import json
import os
import runpy
import sys

import numpy as np
import pytest

from conftest import save_vec_file
from topolysemy import EmbeddingSet, planted_two_sense_dataset, write_key

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
