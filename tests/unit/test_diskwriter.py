"""The background disk writer and the file writes it takes off the
request path.

* a blocking 1-trial ``simulate()`` makes no file-system write on the
  calling thread: the cache entry and the trace sink line are written
  by the writer thread, byte-identical to a synchronous store;
* a queued entry is never missed: a disk read of it waits for the
  writer;
* a forked child writes inline, because ``multiprocessing`` workers
  exit through ``os._exit`` and never drain a queue.
"""

from __future__ import annotations

import os
import threading

import pytest

import repro.sim.cache as cache_module
from repro import diskwriter
from repro.obs.trace import (
    clear_ring,
    configure_tracing,
    ring_spans,
    spans_for_trace,
)
from repro.sim import (
    AlgorithmSpec,
    SimulationRequest,
    simulate,
    simulate_async,
)
from repro.sim.cache import SimulationCache, cache_key, configure_cache


def _request(seed):
    return SimulationRequest(
        algorithm=AlgorithmSpec.feinerman(),
        n_agents=1,
        target=(6, 2),
        move_budget=4000,
        n_trials=1,
        seed=seed,
    )


@pytest.fixture
def fresh_cache(tmp_path):
    cache = configure_cache(directory=tmp_path)
    configure_tracing(enabled=True, sink=True)
    clear_ring()
    yield cache
    diskwriter.drain()
    configure_cache(directory=cache_module.default_cache_dir())


def _blocked_writer():
    """Stall the writer thread until the returned event is set."""
    release = threading.Event()
    diskwriter.submit(lambda: release.wait(30))
    return release


class TestRequestPath:
    def test_blocking_simulate_writes_files_on_the_writer_thread(
        self, fresh_cache, tmp_path, monkeypatch
    ):
        writers = []
        for name in ("open", "replace"):
            original = getattr(os, name)

            def recording(path, *args, _original=original, **kwargs):
                if str(path).startswith(str(tmp_path)):
                    writers.append(threading.current_thread().name)
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(os, name, recording)
        request = _request(seed=81)
        result = simulate(request, backend="closed_form")
        diskwriter.drain()
        monkeypatch.undo()
        # Entry temp file + rename, and the trace's sink append (plus a
        # retry after creating the traces directory).
        assert len(writers) >= 3
        assert set(writers) == {"repro-disk-writer"}
        (root,) = [sp for sp in ring_spans() if sp.name == "simulate"]
        assert (tmp_path / "traces" / f"{root.trace_id}.jsonl").is_file()
        # Same bytes as a synchronous store of the same outcomes.
        direct = SimulationCache(directory=tmp_path / "direct")
        direct.store(request, "closed_form", result.outcomes)
        key = cache_key(request, "closed_form")
        assert (
            fresh_cache._path_for(key).read_bytes()
            == direct._path_for(key).read_bytes()
        )

    def test_queued_entry_is_read_after_the_writer_catches_up(
        self, fresh_cache, tmp_path
    ):
        request = _request(seed=82)
        release = _blocked_writer()
        try:
            result = simulate(request, backend="closed_form")
            path = fresh_cache._path_for(cache_key(request, "closed_form"))
            assert not path.exists(), "the entry was written inline"
        finally:
            threading.Timer(0.2, release.set).start()
        # Another instance misses memory and reads the disk: it must
        # wait for the queued write instead of reporting a miss.
        reader = SimulationCache(directory=tmp_path)
        assert reader.lookup(request, "closed_form") == result.outcomes
        assert reader.info().hits_disk == 1

    def test_info_and_clear_see_queued_entries(self, fresh_cache):
        release = _blocked_writer()
        try:
            simulate(_request(seed=83), backend="closed_form")
        finally:
            threading.Timer(0.2, release.set).start()
        assert fresh_cache.info().disk_files == 1
        assert fresh_cache.clear() == 1

    def test_sink_reader_waits_for_queued_lines(self, fresh_cache):
        release = _blocked_writer()
        try:
            simulate(_request(seed=85), backend="closed_form")
            (root,) = [sp for sp in ring_spans() if sp.name == "simulate"]
            clear_ring()
        finally:
            threading.Timer(0.2, release.set).start()
        # With the ring empty, only the sink file can answer.
        names = sorted(sp.name for sp in spans_for_trace(root.trace_id))
        assert names == ["cache.lookup", "job", "shard", "simulate"]

    def test_async_jobs_still_write_through(self, fresh_cache):
        request = _request(seed=84)
        release = _blocked_writer()
        try:
            simulate_async(request, backend="closed_form").result(60)
            path = fresh_cache._path_for(cache_key(request, "closed_form"))
            # A ledger job can be resumed from its entries, so they are
            # on disk before its result is.
            assert path.is_file()
        finally:
            release.set()


class TestFork:
    def test_forked_child_writes_inline(self, tmp_path):
        diskwriter.submit(lambda: None)  # the parent's thread is running
        diskwriter.drain()
        target = tmp_path / "from-child"
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            try:
                diskwriter.submit(lambda: target.write_text("ok"))
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        assert target.read_text() == "ok"
