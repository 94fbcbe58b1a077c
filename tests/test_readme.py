"""The README's library quickstart runs as written against the current API."""

import os
import re

from conftest import save_vec_file
from topolysemy import EmbeddingSet
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
