"""The observability layer: spans, propagation, ring, metrics.

Pins the ISSUE's observability guarantees:

* **parentage** — nested ``span()`` blocks parent automatically; a
  pooled shard task in another *process* parents under the submitting
  job span via the pickled :class:`SpanContext`;
* **boundedness** — a 10k-span flood leaves the ring at its maximum
  length (no unbounded memory on long-lived servers);
* **sink batching** — a trace's sink lines go out in one write when
  the chain's first span in this process closes (or at the buffer
  cap), including from forked pool workers;
* **propagation** — ``traceparent`` round-trips through the W3C
  header format, and malformed headers degrade to ``None`` rather
  than failing the request;
* **exposition** — the Prometheus text rendering is format 0.0.4:
  HELP/TYPE lines, escaped label values, cumulative histogram buckets
  closed by ``+Inf`` with ``_sum``/``_count``;
* **cache ratios** — :class:`CacheInfo` derives entry- and
  shard-level hit ratios for ``cache info`` and ``/v1/stats``.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.sim.service as service_module
from repro import diskwriter
from repro.obs.metrics import (
    LATENCY_BOUNDARIES,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import (
    _SINK_BUFFER_SPANS,
    _STATE,
    Span,
    SpanContext,
    child_span,
    clear_ring,
    configure_tracing,
    current_context,
    find_trace_for_job,
    parse_traceparent,
    render_trace,
    ring_spans,
    span,
    spans_for_trace,
    trace_dir,
    traceparent_header,
)
from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.cache import configure_cache, default_cache_dir
from repro.sim.jobs import JobManager


@pytest.fixture(autouse=True)
def _fresh_ring():
    """Each test starts from an empty ring at the default bound."""
    configure_tracing(enabled=True, ring_size=4096, sink=True)
    clear_ring()
    yield
    configure_tracing(enabled=True, ring_size=4096, sink=True)
    clear_ring()


@pytest.fixture
def sink_dir(tmp_path):
    """A private cache directory, so the trace sink starts empty."""
    configure_cache(directory=tmp_path)
    yield tmp_path / "traces"
    configure_cache(directory=default_cache_dir())


def _sink_writes():
    """Completed sink writes, once the disk-writer thread has caught up."""
    diskwriter.drain()
    return _STATE.sink_writes


def _sink_lines(trace_id):
    diskwriter.drain()
    path = os.path.join(trace_dir(), f"{trace_id}.jsonl")
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _pooled_request(seed):
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(8),
        n_agents=4,
        target=(8, 8),
        move_budget=300_000,
        n_trials=4,
        seed=seed,
    )


class TestSpans:
    def test_nested_spans_parent_automatically(self):
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        recorded = {sp.name: sp for sp in ring_spans()}
        assert recorded["inner"].end_time is not None
        assert recorded["inner"].end_time >= recorded["inner"].start_time
        assert recorded["outer"].parent_id is None

    def test_exception_marks_status_error_and_reraises(self):
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        (recorded,) = ring_spans()
        assert recorded.status == "error"

    def test_child_span_is_noop_without_ambient_parent(self):
        assert current_context() is None
        with child_span("orphan") as sp:
            assert sp is None
        assert ring_spans() == []

    def test_disabled_tracing_yields_none_and_records_nothing(self):
        configure_tracing(enabled=False)
        with span("invisible") as sp:
            assert sp is None
        assert ring_spans() == []

    def test_explicit_context_overrides_ambient(self):
        remote = SpanContext(trace_id="a" * 32, span_id="b" * 16)
        with span("local"):
            with span("stitched", context=remote) as sp:
                assert sp.trace_id == remote.trace_id
                assert sp.parent_id == remote.span_id

    def test_span_payload_round_trip(self):
        with span("payload", backend="batched") as sp:
            sp.set_attribute("n_trials", 4)
        rebuilt = Span.from_payload(sp.to_payload())
        assert rebuilt.name == "payload"
        assert rebuilt.attributes == {"backend": "batched", "n_trials": 4}
        assert rebuilt.context == sp.context

    def test_ring_stays_bounded_under_flood(self):
        configure_tracing(ring_size=256, sink=False)
        for i in range(10_000):
            with span(f"flood-{i}"):
                pass
        spans = ring_spans()
        assert len(spans) == 256
        # Oldest evicted first: only the newest 256 survive.
        assert spans[-1].name == "flood-9999"
        assert spans[0].name == "flood-9744"


class TestPropagation:
    def test_traceparent_round_trip(self):
        with span("root") as sp:
            header = traceparent_header()
            parsed = parse_traceparent(header)
            assert parsed == sp.context

    @pytest.mark.parametrize("value", [
        None, "", "garbage", "00-zz-ff-01",
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",
        "01-" + "a" * 32 + "-" + "b" * 16,
    ])
    def test_malformed_traceparent_parses_to_none(self, value):
        assert parse_traceparent(value) is None

    def test_pooled_shard_spans_parent_under_the_job_span(self):
        """Span context crosses the ProcessPool boundary.

        A 2-worker, multi-trial run shards through
        ``ProcessPoolExecutor``; the workers cannot see this process's
        contextvars, so their shard spans parent correctly only if the
        pickled ``SpanContext`` travels in the task payload and the
        JSONL sink carries the spans back."""
        simulate(
            _pooled_request(20260808), backend="reference", workers=2,
            cache=False,
        )
        # simulate() drives the job on this thread: its span is
        # already recorded when the call returns.
        job_span = next(
            (sp for sp in ring_spans() if sp.name == "job"), None
        )
        assert job_span is not None, "job span not recorded by return"
        spans = spans_for_trace(job_span.trace_id)
        shards = [sp for sp in spans if sp.name == "shard"]
        assert len(shards) >= 2
        assert {sp.parent_id for sp in shards} == {job_span.span_id}
        assert {sp.trace_id for sp in shards} == {job_span.trace_id}
        assert find_trace_for_job(
            job_span.attributes["job_id"]
        ) == job_span.trace_id


class TestSinkBatching:
    def test_one_trial_simulate_is_one_sink_write(self, sink_dir):
        request = SimulationRequest(
            algorithm=AlgorithmSpec.algorithm1(8),
            n_agents=2,
            target=(5, 3),
            move_budget=100_000,
            n_trials=1,
            seed=20261017,
        )
        before = _sink_writes()
        simulate(request, backend="closed_form")
        assert _sink_writes() == before + 1
        (root,) = [sp for sp in ring_spans() if sp.name == "simulate"]
        names = sorted(line["name"] for line in _sink_lines(root.trace_id))
        assert names == ["cache.lookup", "job", "shard", "simulate"]

    def test_forked_worker_shard_spans_reach_the_sink(
        self, sink_dir, monkeypatch
    ):
        # A fresh manager forks its pool during this call, while the
        # parent holds buffered lines of the same trace.
        manager = JobManager()
        monkeypatch.setattr(service_module, "get_manager", lambda: manager)
        try:
            simulate(
                _pooled_request(20261018), backend="reference", workers=2,
            )
        finally:
            manager.close()
        (root,) = [sp for sp in ring_spans() if sp.name == "simulate"]
        lines = _sink_lines(root.trace_id)
        ids = [line["span_id"] for line in lines]
        assert len(ids) == len(set(ids)), "a span was written twice"
        shards = [line for line in lines if line["name"] == "shard"]
        assert len(shards) == 2
        # The worker's spans are in no ring of this process.
        ring_ids = {sp.span_id for sp in ring_spans()}
        assert not {line["span_id"] for line in shards} & ring_ids

    def test_concurrent_chains_write_every_span_exactly_once(self, sink_dir):
        import sys
        import threading

        shared = SpanContext(trace_id="c" * 32, span_id="d" * 16)

        def work(index):
            for chain in range(20):
                # Own trace per chain, plus a chain in the shared trace
                # whose buffer every thread appends to and flushes.
                for context in (None, shared):
                    with span(f"root-{index}-{chain}", context=context):
                        for leaf in range(3):
                            with span(f"leaf-{index}-{chain}-{leaf}"):
                                pass

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        diskwriter.drain()
        written = []
        for name in os.listdir(sink_dir):
            with open(sink_dir / name, encoding="utf-8") as handle:
                lines = [json.loads(line) for line in handle]
            written.extend(
                line["span_id"] for line in lines
                if line["name"].startswith(("root-", "leaf-"))
            )
        assert len(written) == len(set(written)) == 8 * 20 * 2 * 4
        assert shared.trace_id not in _STATE.pending

    def test_process_exit_keeps_settled_and_open_chains(self, tmp_path):
        """A process exiting right after ``result()`` loses no lines.

        The async job's driver thread closes its job span (and writes
        the trace) after the job settles; a daemon thread's chain is
        still open at exit, with one finished child buffered."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import threading
            from repro.obs.trace import ring_spans, span
            from repro.sim import (
                AlgorithmSpec, SimulationRequest, simulate_async,
            )

            def hold_open(ready):
                with span("open-root"):
                    with span("finished-child"):
                        pass
                    ready.set()
                    threading.Event().wait()

            ready = threading.Event()
            threading.Thread(target=hold_open, args=(ready,), daemon=True).start()
            ready.wait(30)
            request = SimulationRequest(
                algorithm=AlgorithmSpec.feinerman(), n_agents=1,
                target=(6, 2), move_budget=4000, n_trials=1, seed=5,
            )
            job = simulate_async(request, backend="closed_form")
            job.result(timeout=30)
            print(job.job_id)
        """)
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, REPRO_ANTS_CACHE_DIR=str(tmp_path))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        job_id = done.stdout.strip()
        names = {}
        for name in os.listdir(tmp_path / "traces"):
            with open(tmp_path / "traces" / name, encoding="utf-8") as handle:
                for line in handle:
                    payload = json.loads(line)
                    names[payload["name"]] = payload
        assert names["job"]["attributes"]["job_id"] == job_id
        assert "shard" in names and "cache.lookup" in names
        assert "finished-child" in names

    def test_long_chain_flushes_at_the_buffer_cap(self, sink_dir):
        before = _sink_writes()
        with span("root") as root:
            for i in range(300):
                with span(f"child-{i}"):
                    pass
            assert _sink_writes() == before + 1
            assert len(_sink_lines(root.trace_id)) == _SINK_BUFFER_SPANS
        assert _sink_writes() == before + 2
        assert len(_sink_lines(root.trace_id)) == 301


class TestRenderTrace:
    def test_tree_shows_durations_and_promotes_orphans(self):
        spans = [
            Span(name="root", trace_id="t", span_id="r",
                 start_time=0.0, end_time=0.010),
            Span(name="kid", trace_id="t", span_id="k", parent_id="r",
                 start_time=0.001, end_time=0.005),
            Span(name="stray", trace_id="t", span_id="s",
                 parent_id="not-recorded",
                 start_time=0.0, end_time=0.001),
        ]
        text = render_trace(spans)
        assert "root  10.0ms (self 6.0ms)" in text
        assert "└─ kid  4.0ms" in text
        assert "stray" in text  # promoted to a root, not dropped

    def test_empty_trace(self):
        assert render_trace([]) == "(no spans)"


class TestMetrics:
    def test_counter_rejects_negative_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ["kind"])
        counter.inc(kind="a")
        counter.inc(2, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3
        assert counter.total() == 4
        with pytest.raises(ValueError):
            counter.inc(-1, kind="a")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ["kind"])
        with pytest.raises(ValueError):
            counter.inc(other="x")

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", ["kind"])
        again = registry.counter("c_total", "ignored", ["kind"])
        assert again is first

    def test_redeclare_with_different_type_or_labels_raises(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ["kind"])
        with pytest.raises(ValueError):
            registry.gauge("c_total", "help", ["kind"])
        with pytest.raises(ValueError):
            registry.counter("c_total", "help", ["other"])

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "h_seconds", "help", boundaries=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 2.0, 5.0):
            hist.observe(value)
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(7.55)
        text = registry.render_prometheus()
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 4' in text
        assert "h_seconds_count 4" in text

    def test_prometheus_rendering_escapes_and_annotates(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "c_total", 'multi\nline "help"', ["path"]
        )
        counter.inc(path='a"b\\c\nd')
        text = registry.render_prometheus()
        assert '# HELP c_total multi\\nline "help"' in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{path="a\\"b\\\\c\\nd"} 1' in text

    def test_payload_mirrors_rendering(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ["kind"]).inc(kind="x")
        payload = registry.to_payload()
        assert payload["c_total"]["type"] == "counter"
        assert payload["c_total"]["values"] == [
            {"labels": {"kind": "x"}, "value": 1.0}
        ]

    def test_default_latency_boundaries_are_increasing(self):
        assert list(LATENCY_BOUNDARIES) == sorted(LATENCY_BOUNDARIES)
        assert len(set(LATENCY_BOUNDARIES)) == len(LATENCY_BOUNDARIES)

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestCacheHitRatio:
    def test_ratios_derive_from_counters(self):
        from repro.sim.cache import CacheInfo

        info = CacheInfo(
            directory=None, disk_enabled=False, disk_error=None,
            memory_entries=0, max_memory_entries=8, disk_files=0,
            disk_bytes=0, hits_memory=3, hits_disk=1, misses=4,
            stores=4, code_version="sim-v4", hits_shard=2, misses_shard=6, stores_shard=6,
        )
        assert info.hit_ratio == pytest.approx(0.5)
        assert info.hit_ratio_shard == pytest.approx(0.25)
        payload = info.to_payload()
        assert payload["hit_ratio"] == pytest.approx(0.5)
        assert payload["hit_ratio_shard"] == pytest.approx(0.25)
        assert any(
            "hit ratio" in line for line in info.summary_lines()
        )

    def test_ratio_is_none_before_any_lookup(self):
        from repro.sim.cache import CacheInfo

        info = CacheInfo(
            directory=None, disk_enabled=False, disk_error=None,
            memory_entries=0, max_memory_entries=8, disk_files=0,
            disk_bytes=0, hits_memory=0, hits_disk=0, misses=0,
            stores=0, code_version="sim-v4", hits_shard=0, misses_shard=0, stores_shard=0,
        )
        assert info.hit_ratio is None
        assert info.hit_ratio_shard is None
