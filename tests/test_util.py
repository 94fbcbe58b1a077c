"""Shared plumbing: atomic writes."""

import os
import stat

import pytest

from topolysemy._util import atomic_write_text


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "atomic.txt", "x\n")
        with open(tmp_path / "plain.txt", "w") as handle:
            handle.write("x\n")
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("atomic.txt", "plain.txt")]
    assert modes == [0o666 & ~umask] * 2
    assert (tmp_path / "atomic.txt").read_text() == "x\n"
