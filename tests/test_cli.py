"""End-to-end command-line behavior: files in, files out, exit codes."""

import csv
import inspect
import json
import os
import subprocess
import sys

import pytest

from conftest import fed_fifo, save_vec_file
import topolysemy
from topolysemy import (
    DbscanConfig,
    EmbeddingSet,
    KmeansConfig,
    OpnConfig,
    dbscan,
    kmeans,
    load_key,
    planted_two_sense_dataset,
    save_tps_csv,
    score_keys,
    write_key,
)
from topolysemy.synthetic import random_embedding
from topolysemy.tps import TpsReport
from topolysemy.wsi import SenseKey
from topolysemy.cli import build_parser, main, opn_config


@pytest.fixture()
def planted_files(tmp_path):
    data = planted_two_sense_dataset()
    vectors = tmp_path / "planted.vec"
    instances = tmp_path / "instances.jsonl"
    gold = tmp_path / "gold.key"
    save_vec_file(data.embeddings, vectors)
    lines = [
        json.dumps({"target": i.target, "id": i.id, "tokens": list(i.tokens)})
        for i in data.instances
    ]
    instances.write_text("\n".join(lines) + "\n")
    write_key(data.gold, gold)
    return {"data": data, "vectors": vectors, "instances": instances, "gold": gold}


class TestTpsCommand:
    def test_scores_all_words(self, planted_files, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        rc = main(
            ["tps", "--vectors", str(planted_files["vectors"]), "--all", "--n", "10", "--out", str(out)]
        )
        assert rc == 0
        assert "wrote 49 scores (n=10)" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "word,n,tps"
        assert len(lines) == 50

    def test_word_list_with_oov_warns_and_continues(self, planted_files, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("pivot\nghost\nb0w0\n")
        out = tmp_path / "scores.csv"
        rc = main(
            [
                "tps",
                "--vectors", str(planted_files["vectors"]),
                "--words", str(words),
                "--n", "10",
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "skipping 1 out-of-vocabulary words: ghost" in captured.err
        body = out.read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in body] == ["pivot", "b0w0"]

    def test_repeated_word_scored_once_and_correlates(self, planted_files, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("pivot\nb0w0\nb1w0\npivot\n")
        out = tmp_path / "scores.csv"
        rc = main(
            [
                "tps",
                "--vectors", str(planted_files["vectors"]),
                "--words", str(words),
                "--n", "10",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "skipping 1 repeated words" in capsys.readouterr().err
        body = out.read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in body] == ["pivot", "b0w0", "b1w0"]

        counts = tmp_path / "counts.tsv"
        counts.write_text("pivot\t9\nb0w0\t4\nb1w0\t1\n")
        scatter = tmp_path / "scatter.csv"
        rc = main(["correlate", "--tps", str(out), "--counts", str(counts), "--out", str(scatter)])
        assert rc == 0, capsys.readouterr().err
        assert "n=3" in capsys.readouterr().out

    def test_all_words_oov_fails(self, planted_files, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("ghost\nwraith\n")
        out = tmp_path / "scores.csv"
        rc = main(
            [
                "tps",
                "--vectors", str(planted_files["vectors"]),
                "--words", str(words),
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert "no in-vocabulary words" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_n_rejected_by_parser(self, planted_files, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "tps",
                    "--vectors", str(planted_files["vectors"]),
                    "--all",
                    "--n", "0",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2

    def test_word_list_strips_only_ascii_whitespace(self, tmp_path, capsys):
        # "\u3000x" and "x" are distinct .vec words, so the list must not strip U+3000.
        vectors = tmp_path / "v.vec"
        vectors.write_text("4 2\n10\u00a0000 1 0\n\u3000x 0 1\nx 1 1\ny -1 1\n", encoding="utf-8")
        listed = tmp_path / "words.txt"
        listed.write_text(" \u3000x\t\r\n", encoding="utf-8")
        argv = ["tps", "--vectors", str(vectors), "--n", "2"]
        assert main([*argv, "--words", str(listed), "--out", str(tmp_path / "listed.csv")]) == 0
        assert main([*argv, "--all", "--out", str(tmp_path / "all.csv")]) == 0
        assert "out-of-vocabulary" not in capsys.readouterr().err
        (scored,) = (tmp_path / "listed.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert scored.startswith("\u3000x,2,")
        assert scored in (tmp_path / "all.csv").read_text(encoding="utf-8").splitlines()

    def test_csv_bytes_do_not_depend_on_thread_count(self, planted_files, tmp_path, monkeypatch):
        # TPS_THREADS is capped at the CPU count; two CPUs keep two workers.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("TPS_THREADS", threads)
            out = tmp_path / f"scores{threads}.csv"
            argv = ["tps", "--vectors", str(planted_files["vectors"]), "--all", "--n", "10"]
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_vectors_file(self, tmp_path, capsys):
        rc = main(
            ["tps", "--vectors", str(tmp_path / "nope.vec"), "--all", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        assert "vectors file not found" in capsys.readouterr().err

    def test_missing_output_directory(self, planted_files, tmp_path, capsys):
        rc = main(
            [
                "tps",
                "--vectors", str(planted_files["vectors"]),
                "--all",
                "--out", str(tmp_path / "missing" / "x.csv"),
            ]
        )
        assert rc == 1
        assert "output directory does not exist" in capsys.readouterr().err


class TestWsiCommand:
    def run_wsi(self, planted_files, out, extra=()):
        return main(
            [
                "wsi",
                "--vectors", str(planted_files["vectors"]),
                "--instances", str(planted_files["instances"]),
                "--n", "48",
                "--out", str(out),
                *extra,
            ]
        )

    def test_density_backend_solves_the_planted_dataset(self, planted_files, tmp_path, capsys):
        out = tmp_path / "system.key"
        rc = self.run_wsi(planted_files, out)
        assert rc == 0
        assert "wrote 20 assignments over 1 targets" in capsys.readouterr().out
        report = score_keys(load_key(out), planted_files["data"].gold)
        assert report.pooled.v_measure == 1.0
        assert report.pooled.f_score == 1.0

    def test_repeat_runs_are_byte_identical(self, planted_files, tmp_path):
        first = tmp_path / "a.key"
        second = tmp_path / "b.key"
        assert self.run_wsi(planted_files, first) == 0
        assert self.run_wsi(planted_files, second) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
    def test_eps_must_be_positive_and_finite_before_vectors_load(self, tmp_path, capsys, eps):
        # The vectors file does not exist, so only the parser can exit 2.
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "wsi",
                    "--vectors", str(tmp_path / "missing.vec"),
                    "--instances", str(tmp_path / "missing.jsonl"),
                    "--eps", eps,
                    "--out", str(tmp_path / "system.key"),
                ]
            )
        assert exc.value.code == 2
        assert "--eps: expected a positive finite number" in capsys.readouterr().err

    def test_negative_seed_rejected_before_vectors_load(self, tmp_path, capsys):
        # The vectors file does not exist, so only the parser can exit 2.
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "wsi",
                    "--vectors", str(tmp_path / "missing.vec"),
                    "--instances", str(tmp_path / "missing.jsonl"),
                    "--backend", "kmeans",
                    "--seed", "-1",
                    "--out", str(tmp_path / "system.key"),
                ]
            )
        assert exc.value.code == 2
        assert "argument --seed: expected a non-negative integer, got -1" in capsys.readouterr().err

    def test_a_repeated_instance_is_one_error_line_before_any_search(
        self, planted_files, tmp_path, monkeypatch, capsys
    ):
        instances = planted_files["instances"]
        first = instances.read_text().splitlines()[0]
        with open(instances, "a") as handle:
            handle.write(first + "\n")
        lineno = len(instances.read_text().splitlines())
        record = json.loads(first)
        called = []
        monkeypatch.setattr(topolysemy.cli, "run_opn", lambda *args: called.append(args))
        out = tmp_path / "system.key"
        assert self.run_wsi(planted_files, out) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {instances}:{lineno}: duplicate instance {record['id']!r} "
            f"for target {record['target']!r} (first seen on line 1)\n"
        )
        assert captured.out == ""
        assert called == []
        assert not out.exists()

    def test_kmeans_backend_with_fixed_k(self, planted_files, tmp_path):
        out = tmp_path / "system.key"
        rc = self.run_wsi(planted_files, out, extra=("--backend", "kmeans", "--k", "2"))
        assert rc == 0
        labels = {label for _, _, label in load_key(out).rows}
        assert labels <= {"pivot.n.sense_0", "pivot.n.sense_1"}

    def test_clamp_warnings_are_warning_lines_once_per_run(self, planted_files, tmp_path, capsys):
        for _ in range(2):
            rc = self.run_wsi(
                planted_files, tmp_path / "system.key", extra=("--backend", "kmeans", "--k", "30", "--n", "10")
            )
            assert rc == 0
            assert capsys.readouterr().err.splitlines() == [
                "warning: target 'pivot.n': k=30 exceeds neighborhood size 10, clamped"
            ]

    def test_kmeans_auto_k_single_target_fails_honestly(self, tmp_path, capsys):
        vectors = tmp_path / "big.vec"
        save_vec_file(random_embedding(60, 8), vectors)
        instances = tmp_path / "one.jsonl"
        instances.write_text('{"target": "w0", "id": "w0.1", "tokens": ["w1", "w2"]}\n')
        out = tmp_path / "system.key"
        rc = main(
            [
                "wsi",
                "--vectors", str(vectors),
                "--instances", str(instances),
                "--backend", "kmeans",
                "--k", "auto",
                "--n", "10",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: percentile-k scoring of the targets (tps_n=50): degenerate percentile table: "
        )
        assert not out.exists()

    def test_kmeans_auto_k_scoring_error_names_the_step(self, planted_files, tmp_path, capsys):
        out = tmp_path / "system.key"
        rc = self.run_wsi(planted_files, out, extra=("--backend", "kmeans", "--k", "auto"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: percentile-k scoring of the targets (tps_n=50): n=50 exceeds" in err
        assert not out.exists()

    def test_kmeans_auto_k_with_tps_n_on_a_small_vocabulary(self, planted_files, tmp_path, capsys):
        # A second target makes the percentile table non-degenerate.
        instances = tmp_path / "two.jsonl"
        instances.write_text(
            planted_files["instances"].read_text()
            + '{"target": "b0w0.n", "id": "b0w0.1", "tokens": ["b0w1"]}\n'
        )
        out = tmp_path / "system.key"
        rc = self.run_wsi(
            {**planted_files, "instances": instances},
            out,
            extra=("--backend", "kmeans", "--k", "auto", "--tps-n", "10"),
        )
        assert rc == 0
        assert "over 2 targets" in capsys.readouterr().out

    def test_oov_target_aborts(self, planted_files, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"target": "ghost.n", "id": "g1", "tokens": ["x"]}\n')
        rc = main(
            [
                "wsi",
                "--vectors", str(planted_files["vectors"]),
                "--instances", str(bad),
                "--n", "48",
                "--out", str(tmp_path / "x.key"),
            ]
        )
        assert rc == 1
        assert "not in vocabulary" in capsys.readouterr().err

    @pytest.mark.parametrize("instance_id", ["a 1.0", "a\t1"])
    def test_whitespace_in_instance_id_rejected(self, planted_files, tmp_path, capsys, instance_id):
        instances = tmp_path / "spaced.jsonl"
        lines = planted_files["instances"].read_text().splitlines()
        bad = json.dumps({"target": "pivot.n", "id": instance_id, "tokens": ["b0w1"]})
        instances.write_text("\n".join(lines[:3] + [bad] + lines[3:]) + "\n")
        out = tmp_path / "system.key"
        rc = self.run_wsi({**planted_files, "instances": instances}, out)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"spaced.jsonl:4: instance id must be non-empty without whitespace, got {instance_id!r}" in err
        assert not out.exists()

    def test_missing_instances_file(self, planted_files, tmp_path, capsys):
        rc = main(
            [
                "wsi",
                "--vectors", str(planted_files["vectors"]),
                "--instances", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "x.key"),
            ]
        )
        assert rc == 1
        assert "instances file not found" in capsys.readouterr().err

    def test_empty_instances_file(self, planted_files, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "x.key"
        rc = main(["wsi", "--vectors", str(planted_files["vectors"]), "--instances", str(empty), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: no instances in {empty}\n"
        assert not out.exists()

    def test_defaults_are_the_configs(self):
        argv = ["wsi", "--vectors", "v.vec", "--instances", "i.jsonl", "--out", "o.key"]
        assert opn_config(build_parser().parse_args(argv)) == OpnConfig()
        kmeans_args = build_parser().parse_args([*argv, "--backend", "kmeans"])
        assert opn_config(kmeans_args) == OpnConfig(backend=KmeansConfig())


def test_backend_configs_default_to_the_backend_signatures():
    dbscan_defaults = inspect.signature(dbscan).parameters
    assert DbscanConfig().eps == dbscan_defaults["eps"].default
    assert DbscanConfig().min_pts == dbscan_defaults["min_pts"].default
    assert KmeansConfig().seed == inspect.signature(kmeans).parameters["seed"].default


class TestZeroVectors:
    """Zero vectors have no direction: dropped on load, listed in a warning."""

    @pytest.fixture()
    def files(self, tmp_path):
        vectors = tmp_path / "zero.vec"
        vectors.write_text("4 2\na 1 0\nb 0.9 0.1\nc 0 1\nz 0 0\n")
        words = tmp_path / "words.txt"
        words.write_text("a\n")
        return {"vectors": str(vectors), "words": str(words), "dir": tmp_path}

    def wsi(self, files, target, out):
        instances = files["dir"] / f"{target}.jsonl"
        instances.write_text(json.dumps({"target": target, "id": f"{target}.1", "tokens": ["b"]}) + "\n")
        return main(
            ["wsi", "--vectors", files["vectors"], "--instances", str(instances), "--n", "2", "--out", str(out)]
        )

    def test_tps_word_list_skips_zero_vector(self, files, capsys):
        out = files["dir"] / "scores.csv"
        rc = main(["tps", "--vectors", files["vectors"], "--words", files["words"], "--n", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "skipping 1 zero vectors: z" in captured.err
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["word", "a"]

    def test_tps_all_scores_the_rest(self, files, capsys):
        out = files["dir"] / "scores.csv"
        rc = main(["tps", "--vectors", files["vectors"], "--all", "--n", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "wrote 3 scores" in captured.out
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["word", "a", "b", "c"]

    def test_listing_is_capped(self, tmp_path, capsys):
        vectors = tmp_path / "many.vec"
        zeros = [f"z{i:02d} 0 0" for i in range(12)]
        vectors.write_text("15 2\n" + "\n".join(["a 1 0", "b 0 1", "c 1 1", *zeros]) + "\n")
        out = tmp_path / "scores.csv"
        rc = main(["tps", "--vectors", str(vectors), "--all", "--n", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        shown = ", ".join(f"z{i:02d}" for i in range(10))
        assert f"skipping 12 zero vectors: {shown} (+2 more)" in captured.err

    def test_wsi_unaffected_target_runs(self, files, capsys):
        out = files["dir"] / "a.key"
        rc = self.wsi(files, "a", out)
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "skipping 1 zero vectors: z" in captured.err
        assert load_key(out).rows[0][:2] == ("a", "a.1")

    def test_wsi_zero_vector_target_aborts(self, files, capsys):
        out = files["dir"] / "z.key"
        rc = self.wsi(files, "z", out)
        assert rc == 1
        assert "1 targets not in vocabulary: ['z']" in capsys.readouterr().err
        assert not out.exists()


class TestShortClouds:
    """Coincident neighbors are skipped, so a cloud can fall short of n."""

    def run_tps(self, tmp_path, rows, n):
        vectors = tmp_path / "short.vec"
        vectors.write_text(f"{len(rows)} 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "scores.csv"
        rc = main(["tps", "--vectors", str(vectors), "--all", "--n", str(n), "--out", str(out)])
        return rc, out

    def test_words_holding_non_ascii_whitespace_are_scored(self, tmp_path, capsys):
        rows = ["10\u00a0000 1 0", "\u3000x 0 1", "x 1 1", "y -1 1"]
        rc, out = self.run_tps(tmp_path, rows, n=2)
        assert rc == 0, capsys.readouterr().err
        with open(out, encoding="utf-8", newline="") as handle:
            written = [row[0] for row in csv.reader(handle)][1:]
        assert written == ["10\u00a0000", "\u3000x", "x", "y"]

    def test_all_coincident_words_score_zero(self, tmp_path, capsys):
        rc, out = self.run_tps(tmp_path, ["a 1 0", "b 2 0", "c 3 0"], n=2)
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "3 words have fewer than n=2" in captured.err
        assert "a (cloud of 0), b (cloud of 0), c (cloud of 0)" in captured.err
        assert out.read_text().splitlines()[1:] == ["a,2,0.000000", "b,2,0.000000", "c,2,0.000000"]

    def test_empty_clouds_at_n_1_are_listed(self, tmp_path, capsys):
        rc, out = self.run_tps(tmp_path, ["a 1 0", "b 2 0"], n=1)
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "2 words have fewer than n=1" in captured.err
        assert "a (cloud of 0), b (cloud of 0)" in captured.err
        assert out.read_text().splitlines()[1:] == ["a,1,0.000000", "b,1,0.000000"]

    def test_warning_lists_only_the_short_clouds(self, tmp_path, capsys):
        rc, out = self.run_tps(tmp_path, ["a 1 0", "b 2 0", "c 3 0", "d 0 1"], n=3)
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        (warning,) = [line for line in captured.err.splitlines() if "fewer than n=3" in line]
        assert "a (cloud of 1)" in warning
        assert "d (" not in warning
        assert out.read_text().splitlines()[1] == "a,3,0.000000"


class TestScoreCommand:
    def test_self_agreement(self, planted_files, tmp_path, capsys):
        out = tmp_path / "report.csv"
        gold = str(planted_files["gold"])
        rc = main(["score", "--key", gold, "--gold", gold, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "aggregate[pooled] v_measure=1.000000 f_score=1.000000 product=1.000000" in captured.out
        assert "aggregate[weighted] v_measure=1.000000" in captured.out
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + pivot.n + two aggregates

    def test_single_cluster_key_scores_zero_v(self, planted_files, tmp_path, capsys):
        data = planted_files["data"]
        collapsed = tmp_path / "collapsed.key"
        rows = tuple((t, i, f"{t}.sense_0") for t, i, _ in data.gold.rows)
        write_key(SenseKey(rows=rows), collapsed)
        out = tmp_path / "report.csv"
        rc = main(
            ["score", "--key", str(collapsed), "--gold", str(planted_files["gold"]), "--out", str(out)]
        )
        assert rc == 0
        assert "aggregate[pooled] v_measure=0.000000" in capsys.readouterr().out

    def test_mismatched_keys(self, planted_files, tmp_path, capsys):
        partial = tmp_path / "partial.key"
        rows = planted_files["data"].gold.rows[:-1]
        write_key(SenseKey(rows=rows), partial)
        rc = main(
            [
                "score",
                "--key", str(partial),
                "--gold", str(planted_files["gold"]),
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 1
        assert "different instances" in capsys.readouterr().err


class TestCorrelateCommand:
    def write_inputs(self, tmp_path, counts_lines):
        tps = tmp_path / "scores.csv"
        save_tps_csv(
            [
                TpsReport(word="a", n=50, score=1.0),
                TpsReport(word="b", n=50, score=2.0),
                TpsReport(word="c", n=50, score=3.0),
                TpsReport(word="d", n=50, score=4.0),
            ],
            tps,
        )
        counts = tmp_path / "counts.tsv"
        counts.write_text("".join(f"{w}\t{c}\n" for w, c in counts_lines))
        return tps, counts

    def test_joins_and_reports_r(self, tmp_path, capsys):
        tps, counts = self.write_inputs(tmp_path, [("a", 2), ("b", 4), ("c", 6), ("z", 9)])
        out = tmp_path / "scatter.csv"
        rc = main(["correlate", "--tps", str(tps), "--counts", str(counts), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "r=1.000000 p=0 n=3" in captured.out
        assert out.read_text() == "word,tps,count\na,1.000000,2\nb,2.000000,4\nc,3.000000,6\n"

    def test_word_with_a_comma_is_quoted_as_tps_quotes_it(self, tmp_path, capsys):
        base = random_embedding(8, 4)
        words = ("1,000",) + base.words[1:]
        vectors = tmp_path / "v.vec"
        save_vec_file(EmbeddingSet(words=words, vectors=base.vectors), vectors)
        tps = tmp_path / "tps.csv"
        assert main(["tps", "--vectors", str(vectors), "--all", "--n", "3", "--out", str(tps)]) == 0
        counts = tmp_path / "counts.tsv"
        counts.write_text("".join(f"{w}\t{i}\n" for i, w in enumerate(words)))
        out = tmp_path / "scatter.csv"
        assert main(["correlate", "--tps", str(tps), "--counts", str(counts), "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows] == ["word", *words]
        lines = out.read_text().splitlines()
        assert lines[1].startswith('"1,000",')
        for (word, score, count), line in zip(rows[2:], lines[2:]):
            assert line == f"{word},{float(score):.6f},{count}"

    def test_constant_counts_fail(self, tmp_path, capsys):
        tps, counts = self.write_inputs(tmp_path, [("a", 5), ("b", 5), ("c", 5)])
        rc = main(
            ["correlate", "--tps", str(tps), "--counts", str(counts), "--out", str(tmp_path / "s.csv")]
        )
        assert rc == 1
        assert "constant" in capsys.readouterr().err

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_count_is_one_error_line(self, tmp_path, capsys, digits):
        tps, counts = self.write_inputs(tmp_path, [("a", 2), ("b", 4), ("c", "9" * digits)])
        rc = main(["correlate", "--tps", str(tps), "--counts", str(counts), "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {counts}:3: count for 'c' exceeds 2**53, the exact float64 limit\n"

    def test_grouped_tps_is_one_error_line(self, tmp_path, capsys):
        tps, counts = self.write_inputs(tmp_path, [("a", 2), ("b", 4), ("c", 6)])
        tps.write_text(tps.read_text().replace("3.000000", "3_0"))
        out = tmp_path / "s.csv"
        rc = main(["correlate", "--tps", str(tps), "--counts", str(counts), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tps}:4: unparseable row ['c', '50', '3_0']\n"
        assert not out.exists()

    def test_too_small_join_fails(self, tmp_path, capsys):
        tps, counts = self.write_inputs(tmp_path, [("a", 2), ("x", 1), ("y", 1)])
        out = tmp_path / "s.csv"
        rc = main(["correlate", "--tps", str(tps), "--counts", str(counts), "--out", str(out)])
        assert rc == 1
        assert "need >= 3 joined rows" in capsys.readouterr().err
        assert not out.exists()


class TestPaths:
    def test_tps_reads_vectors_and_words_from_pipes(self, planted_files, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("pivot\nb0w0\nb1w3\n")
        argv = ["tps", "--vectors", planted_files["vectors"], "--words", words, "--n", "10"]
        assert main([*map(str, argv), "--out", str(tmp_path / "files.csv")]) == 0
        vectors, listed = tmp_path / "v.pipe", tmp_path / "w.pipe"
        with fed_fifo(vectors, planted_files["vectors"].read_bytes()), fed_fifo(listed, words.read_bytes()):
            argv = ["tps", "--vectors", vectors, "--words", listed, "--n", "10"]
            assert main([*map(str, argv), "--out", str(tmp_path / "pipes.csv")]) == 0
        assert (tmp_path / "pipes.csv").read_bytes() == (tmp_path / "files.csv").read_bytes()

    def test_a_directory_is_not_an_input_file(self, tmp_path, capsys):
        argv = ["tps", "--vectors", str(tmp_path), "--all", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: vectors file is a directory: {tmp_path}\n"

    @pytest.mark.parametrize("command", ["tps", "wsi", "score", "correlate"])
    def test_a_directory_as_out_is_rejected_before_any_work(self, planted_files, tmp_path, capsys, command):
        tps, counts = TestCorrelateCommand().write_inputs(tmp_path, [("a", 2), ("b", 4), ("c", 6)])
        inputs = {
            "tps": ["--vectors", planted_files["vectors"], "--all", "--n", "10"],
            "wsi": ["--vectors", planted_files["vectors"], "--instances", planted_files["instances"], "--n", "48"],
            "score": ["--key", planted_files["gold"], "--gold", planted_files["gold"]],
            "correlate": ["--tps", tps, "--counts", counts],
        }
        out = tmp_path / "outdir"
        out.mkdir()
        assert main([command, *map(str, inputs[command]), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: output path is a directory: {out}\n")
        assert list(out.iterdir()) == []
        assert not [path for path in tmp_path.iterdir() if path.name.startswith(".tmp-")]


class TestInvalidUtf8:
    """Every text input names the path and line of bytes that are not UTF-8."""

    def expect_error(self, argv, path, lineno, capsys):
        assert main([str(arg) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {path}:{lineno}: b'\\xff' is not valid UTF-8\n"

    def test_tps_word_list(self, planted_files, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_bytes(b"pivot\nb0w0\n\xffx\n")
        argv = ["tps", "--vectors", planted_files["vectors"], "--words", words, "--out", tmp_path / "t.csv"]
        self.expect_error(argv, words, 3, capsys)

    def test_wsi_instances(self, planted_files, tmp_path, capsys):
        instances = tmp_path / "instances.jsonl"
        good = planted_files["instances"].read_bytes().splitlines(keepends=True)
        instances.write_bytes(b"".join(good[:2]) + b'{"target": "pivot\xff"}\n')
        argv = ["wsi", "--vectors", planted_files["vectors"], "--instances", instances, "--out", tmp_path / "k"]
        self.expect_error(argv, instances, 3, capsys)

    def test_score_key(self, planted_files, tmp_path, capsys):
        key = tmp_path / "system.key"
        key.write_bytes(planted_files["gold"].read_bytes() + b"pivot x\xff pivot.1\n")
        lineno = len(planted_files["gold"].read_bytes().splitlines()) + 1
        argv = ["score", "--key", key, "--gold", planted_files["gold"], "--out", tmp_path / "r.csv"]
        self.expect_error(argv, key, lineno, capsys)

    def test_correlate_tps_csv(self, tmp_path, capsys):
        tps, counts = TestCorrelateCommand().write_inputs(tmp_path, [("a", 2), ("b", 4), ("c", 6)])
        tps.write_bytes(tps.read_bytes() + b"\xff,50,1.000000\n")
        argv = ["correlate", "--tps", tps, "--counts", counts, "--out", tmp_path / "s.csv"]
        self.expect_error(argv, tps, 6, capsys)

    def test_correlate_count_table(self, tmp_path, capsys):
        tps, counts = TestCorrelateCommand().write_inputs(tmp_path, [("a", 2), ("b", 4), ("c", 6)])
        counts.write_bytes(b"a\t2\n\xff\t2\n")
        argv = ["correlate", "--tps", tps, "--counts", counts, "--out", tmp_path / "s.csv"]
        self.expect_error(argv, counts, 2, capsys)


def fresh_python(*args, check=True):
    """Run a fresh interpreter that imports this source tree of topolysemy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(topolysemy.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=check)


def test_cli_import_leaves_scipy_stats_and_optimize_unloaded():
    code = (
        "import sys, topolysemy.cli; "
        "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
    )
    assert fresh_python("-c", code).stdout == "[]\n"


def test_tps_and_wsi_run_without_loading_scipy(planted_files, tmp_path):
    # A second target makes the percentile table of --k auto non-degenerate.
    instances = tmp_path / "two.jsonl"
    instances.write_text(
        planted_files["instances"].read_text() + '{"target": "b0w0.n", "id": "b0w0.1", "tokens": ["b0w1"]}\n'
    )
    wsi = ["wsi", "--vectors", planted_files["vectors"], "--instances", instances, "--n", "48"]
    runs = [
        ["tps", "--vectors", planted_files["vectors"], "--all", "--n", "10", "--out", tmp_path / "tps.csv"],
        [*wsi, "--backend", "dbscan", "--out", tmp_path / "dbscan.key"],
        [*wsi, "--backend", "kmeans", "--k", "auto", "--tps-n", "10", "--out", tmp_path / "kmeans.key"],
    ]
    code = (
        "import json, sys; from topolysemy.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = fresh_python("-c", code, json.dumps([[str(arg) for arg in argv] for argv in runs]))
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_every_command_closes_its_files_in_dev_mode(planted_files, tmp_path):
    words, counts = tmp_path / "words.txt", tmp_path / "counts.tsv"
    listed = planted_files["data"].embeddings.words[:6]
    words.write_text("".join(f"{word}\n" for word in listed))
    counts.write_text("".join(f"{word}\t{i}\n" for i, word in enumerate(listed)))
    vectors, tps_csv, key = planted_files["vectors"], tmp_path / "tps.csv", tmp_path / "system.key"
    commands = [
        ["tps", "--vectors", vectors, "--words", words, "--n", "10", "--out", tps_csv],
        ["wsi", "--vectors", vectors, "--instances", planted_files["instances"], "--n", "48", "--out", key],
        ["score", "--key", key, "--gold", planted_files["gold"], "--out", tmp_path / "report.csv"],
        ["correlate", "--tps", tps_csv, "--counts", counts, "--out", tmp_path / "scatter.csv"],
    ]
    code = "import sys; from topolysemy.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in commands:
        proc = fresh_python("-X", "dev", "-W", "error::ResourceWarning", "-c", code, *map(str, argv), check=False)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr
