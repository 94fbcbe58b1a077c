"""End-to-end command-line behavior: files in, files out, exit codes."""

import json

import pytest

from topolysemy import (
    SenseKey,
    TpsReport,
    load_key,
    planted_two_sense_dataset,
    random_embedding,
    save_tps_csv,
    save_vec_file,
    score_keys,
    write_key,
)
from topolysemy.cli import main


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

    def test_kmeans_backend_with_fixed_k(self, planted_files, tmp_path):
        out = tmp_path / "system.key"
        rc = self.run_wsi(planted_files, out, extra=("--backend", "kmeans", "--k", "2"))
        assert rc == 0
        labels = {label for _, _, label in load_key(out).rows}
        assert labels <= {"pivot.n.sense_0", "pivot.n.sense_1"}

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
        assert "degenerate" in capsys.readouterr().err
        assert not out.exists()

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

    def test_constant_counts_fail(self, tmp_path, capsys):
        tps, counts = self.write_inputs(tmp_path, [("a", 5), ("b", 5), ("c", 5)])
        rc = main(
            ["correlate", "--tps", str(tps), "--counts", str(counts), "--out", str(tmp_path / "s.csv")]
        )
        assert rc == 1
        assert "constant" in capsys.readouterr().err

    def test_too_small_join_fails(self, tmp_path, capsys):
        tps, counts = self.write_inputs(tmp_path, [("a", 2), ("x", 1), ("y", 1)])
        out = tmp_path / "s.csv"
        rc = main(["correlate", "--tps", str(tps), "--counts", str(counts), "--out", str(out)])
        assert rc == 1
        assert "need >= 3 joined rows" in capsys.readouterr().err
        assert not out.exists()
