"""Resource-lifecycle tests for the binary store tier.

The contract under test: every consumer of :class:`repro.store.format.StoreFile`
releases the memory map (and its file descriptor) when it is done with it —
``close()`` on the store file itself and on store-backed datasets/graphs,
automatically for the self-contained readers (``inspect_store``,
``salvage_store``) — so a store file can be deleted or replaced after use.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.datasets import service_requests
from repro.exceptions import StoreError
from repro.lod.graph import Graph
from repro.lod.publish import publish_dataset
from repro.recovery import salvage_store
from repro.store import StoreFile, inspect_store
from repro.tabular.dataset import Dataset


def _open_fds() -> set[str]:
    """The process's open file descriptors, as resolved target paths."""
    fd_dir = Path("/proc/self/fd")
    targets = set()
    for entry in fd_dir.iterdir():
        try:
            targets.add(f"{entry.name}:{os.readlink(entry)}")
        except OSError:  # raced with a closing descriptor
            pass
    return targets


def _holds_fd(path: Path) -> bool:
    return any(target.endswith(str(path)) for target in _open_fds())


@pytest.fixture
def dataset_store(tmp_path) -> Path:
    path = tmp_path / "lifecycle.rps"
    service_requests(n_rows=60, dirty=True).save(path)
    return path


@pytest.fixture
def graph_store(tmp_path) -> Path:
    path = tmp_path / "lifecycle-graph.rps"
    graph = publish_dataset(service_requests(n_rows=40))
    graph.save(path)
    return path


def test_store_file_close_releases_descriptor(dataset_store):
    store_file = StoreFile(dataset_store)
    assert _holds_fd(dataset_store)
    store_file.close()
    assert not _holds_fd(dataset_store)
    assert store_file.closed


def test_store_file_close_is_idempotent(dataset_store):
    store_file = StoreFile(dataset_store)
    store_file.close()
    store_file.close()
    assert store_file.closed


def test_store_file_access_after_close_raises(dataset_store):
    store_file = StoreFile(dataset_store)
    store_file.close()
    with pytest.raises(StoreError, match="closed"):
        store_file.json("meta")


def test_store_file_context_manager(dataset_store):
    with StoreFile(dataset_store) as store_file:
        assert not store_file.closed
        assert _holds_fd(dataset_store)
    assert store_file.closed
    assert not _holds_fd(dataset_store)


def test_open_close_delete_cycle(dataset_store):
    """The headline bug: open a store, close it, delete the file."""
    opened = Dataset.open(dataset_store)
    assert opened.n_rows > 0
    assert _holds_fd(dataset_store)
    opened.close()
    assert not _holds_fd(dataset_store)
    dataset_store.unlink()  # would fail on platforms that lock mapped files
    assert not dataset_store.exists()


def test_dataset_close_is_idempotent_and_noop_in_memory(dataset_store):
    opened = Dataset.open(dataset_store)
    opened.close()
    opened.close()
    service_requests(n_rows=10).close()  # in-memory dataset: no-op


def test_graph_open_close_delete_cycle(graph_store):
    opened = Graph.open(graph_store)
    assert _holds_fd(graph_store)
    opened.close()
    assert not _holds_fd(graph_store)
    graph_store.unlink()
    assert not graph_store.exists()


def test_force_memory_graph_outlives_its_store_file(graph_store, tmp_path):
    opened = Graph.open(graph_store, force_memory=True)
    opened.close()
    resaved = opened.save(tmp_path / "resaved.rps")
    assert resaved.read_bytes() == graph_store.read_bytes()


def test_graph_close_is_noop_in_memory():
    Graph("ephemeral").close()


def test_inspect_store_releases_descriptor(dataset_store):
    summary = inspect_store(dataset_store)
    assert summary["payload"] == "dataset"
    assert not _holds_fd(dataset_store)


def test_salvage_store_releases_descriptor(dataset_store):
    result = salvage_store(dataset_store)
    assert result.report.is_clean
    assert not _holds_fd(dataset_store)
