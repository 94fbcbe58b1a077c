"""Shared test utilities: deterministic random fixtures, a .vec writer, a fed FIFO, a candidate-pass spy, a CI profile and a child-process guard."""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from topolysemy import EmbeddingSet, neighborhood

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

VEC_PRECISION = "%.9g"


def save_vec_file(embeddings: EmbeddingSet, path) -> None:
    """Write the ".vec" text format at 9 significant digits."""
    lines = [f"{len(embeddings)} {embeddings.dim}"]
    for word, row in zip(embeddings.words, embeddings.vectors):
        rendered = " ".join(VEC_PRECISION % value for value in row)
        lines.append(f"{word} {rendered}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextlib.contextmanager
def fed_fifo(path, data: bytes):
    """A FIFO at path that a thread writes data into once a reader opens it.

    On exit, a writer still waiting for a reader is given one, so a run
    that never opened the FIFO fails its test instead of hanging it.
    """
    os.mkfifo(path)
    writer = threading.Thread(target=Path(path).write_bytes, args=(data,))
    writer.start()
    try:
        yield
    finally:
        writer.join(timeout=10)
        if writer.is_alive():
            Path(path).read_bytes()
            writer.join()


def random_cloud(rng: np.random.Generator, m: int, d: int, scale: float = 2.0) -> np.ndarray:
    return scale * rng.standard_normal((m, d))


def random_unit_rows(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    points = rng.standard_normal((m, d))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def random_diagram_bars(rng: np.random.Generator, max_bars: int) -> np.ndarray:
    m = int(rng.integers(0, max_bars + 1))
    births = rng.uniform(0.0, 2.0, size=m)
    deaths = births + rng.uniform(0.0, 2.0, size=m)
    return np.column_stack([births, deaths]) if m else np.empty((0, 2))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


@pytest.fixture
def small_embedding(rng) -> EmbeddingSet:
    vectors = rng.standard_normal((30, 6))
    words = tuple(f"w{i}" for i in range(30))
    return EmbeddingSet(words=words, vectors=vectors)


@pytest.fixture
def candidate_passes(monkeypatch) -> list[list[int]]:
    """The center rows of every neighbor search candidate pass, as each pass starts."""
    original, passes = neighborhood._candidates, []

    def counted(vectors, rows, k):
        passes.append(list(rows))
        return original(vectors, rows, k)

    monkeypatch.setattr(neighborhood, "_candidates", counted)
    return passes


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = "a child process is still running" if pid == 0 else f"child process {pid} was never reaped"
    pytest.fail(f"the test left {left}")
