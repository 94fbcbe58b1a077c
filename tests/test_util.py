"""Shared plumbing: atomic writes, the worker cap and spanning forests."""

import os
import stat

import numpy as np
import pytest
from hypothesis import given, strategies as st

from topolysemy._util import THREADS_ENV, atomic_write_text, spanning_forest, worker_count


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


def test_atomic_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # Setting the umask, even to restore it, changes the mode of files other
    # threads create meanwhile.
    previous = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", lambda mask: pytest.fail("atomic_write_text set the umask"))
            atomic_write_text(tmp_path / "atomic.txt", "x\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(tmp_path / "atomic.txt").st_mode) == 0o640
    assert os.listdir(tmp_path) == ["atomic.txt"]


def test_atomic_write_takes_a_name_near_the_length_limit(tmp_path):
    # 250 bytes: valid on Linux, whose NAME_MAX is 255, but not with a 22-byte temp prefix on top.
    path = tmp_path / ("n" * 246 + ".csv")
    atomic_write_text(path, "x\n")
    assert path.read_text() == "x\n"
    assert os.listdir(tmp_path) == [path.name]


def test_atomic_write_that_fails_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "atomic.txt"
    path.write_bytes(b"old\n")
    # A lone surrogate cannot be encoded as UTF-8.
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "\udcff")
    assert os.listdir(tmp_path) == ["atomic.txt"]
    assert path.read_bytes() == b"old\n"


# Only the returned cap is checked: no pool of the requested size is started.
@pytest.mark.parametrize(
    "threads, cpus, cap",
    [(None, 16, 8), (None, 2, 2), (None, None, 1), ("3", 4, 3), ("100000", 4, 4), ("2", 1, 1)],
)
def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, threads, cpus, cap):
    if threads is None:
        monkeypatch.delenv(THREADS_ENV, raising=False)
    else:
        monkeypatch.setenv(THREADS_ENV, threads)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert worker_count() == cap


def kruskal_by_hand(count, edges):
    """Plain-Python Kruskal in list order: (kept flags, component of each vertex as a frozenset)."""
    component = {v: frozenset([v]) for v in range(count)}
    kept = []
    for a, b in edges:
        joins = component[a] != component[b]
        kept.append(joins)
        if joins:
            merged = component[a] | component[b]
            for v in merged:
                component[v] = merged
    return kept, component


@given(
    st.integers(1, 30).flatmap(
        lambda count: st.tuples(
            st.just(count),
            st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)), max_size=60),
        )
    )
)
def test_spanning_forest_is_kruskal_in_list_order(case):
    count, edges = case
    heads = np.array([a for a, _ in edges], dtype=np.int32)
    tails = np.array([b for _, b in edges], dtype=np.int32)
    kept, root = spanning_forest(count, heads, tails)
    expected_kept, component = kruskal_by_hand(count, edges)
    assert kept.tolist() == expected_kept
    for v in range(count):
        assert {w for w in range(count) if root[w] == root[v]} == component[v]
