"""The README's library quickstart runs and its command lines parse against the current API."""

import os
import re
import shlex

from conftest import save_vec_file
from topolysemy import EmbeddingSet
from topolysemy.cli import build_parser
from topolysemy.synthetic import random_embedding

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_quickstart_runs_verbatim(tmp_path, monkeypatch, capsys):
    with open(README, encoding="utf-8") as handle:
        quickstart = re.search(r"```python\n(.*?)```", handle.read(), re.DOTALL).group(1)
    # OpnConfig(n=5000) needs 5,000 neighbors besides the target.
    background = random_embedding(5_001, 16, seed=0)
    save_vec_file(
        EmbeddingSet(words=("bank", *background.words[1:]), vectors=background.vectors),
        tmp_path / "vectors.vec",
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(quickstart, README, "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("bank ")
    assert [line.split()[:2] for line in lines[1:]] == [
        ["bank.n", "bank.n.1"],
        ["bank.n", "bank.n.2"],
    ]


def test_command_lines_parse():
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```sh\n(.*?)```", handle.read(), re.DOTALL)
    lines = next(block for block in blocks if "topolysemy " in block).replace("\\\n", " ").splitlines()
    parser = build_parser()
    commands = [
        (lines[i - 1], parser.parse_args(shlex.split(line)[1:]))
        for i, line in enumerate(lines)
        if line.startswith("topolysemy ")
    ]
    assert {args.subcommand for _, args in commands} == {"tps", "wsi", "score", "correlate"}
    [at_defaults] = [args for comment, args in commands if "at its defaults" in comment]
    defaults = parser.parse_args(["wsi", "--vectors", "v", "--instances", "i", "--out", "o"])
    assert (at_defaults.eps, at_defaults.min_pts, at_defaults.n) == (
        defaults.eps,
        defaults.min_pts,
        defaults.n,
    )
