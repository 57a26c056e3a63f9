"""Unit tests for the async job layer (``repro.sim.jobs``).

The contracts under test:

* ``simulate()`` is a thin view over the job layer — its outcomes are
  bit-identical to running the resolved backend directly (the
  pre-refactor behavior) for the per-trial backends — driven on the
  caller's thread, registered like any job, and hashing its request
  once;
* ``simulate_async().iter_results()`` streams completed trial shards
  incrementally, including cache-served ones;
* every finished shard is written through to the cache, so a killed or
  cancelled job/sweep resumes from cache with **zero** backend runs for
  the work already done — proven with ``backend_run_count()``;
* cancellation mid-sweep leaves the cache consistent: only complete
  shard/point entries exist, and the union of the runs before and
  after cancellation covers the grid exactly once.
"""

from __future__ import annotations

import threading

import pytest

import repro.sim.cache as cache_module
import repro.sim.service as service_module
from repro.errors import InvalidParameterError, JobCancelledError
from repro.sim import (
    AlgorithmSpec,
    JobState,
    SimulationRequest,
    SimulationTrial,
    Sweep,
    simulate,
    simulate_async,
)
from repro.sim.backends.registry import get_backend
from repro.sim.cache import cache_key, configure_cache, shard_cache_key
from repro.sim.jobs import (
    JobManager,
    get_manager,
    ledger_dir,
    prune_job_records,
    read_job_records,
    request_cancel,
)
from repro.sim.service import backend_run_count


def _request(**overrides):
    defaults = dict(
        algorithm=AlgorithmSpec.algorithm1(8),
        n_agents=2,
        target=(5, 3),
        move_budget=100_000,
        n_trials=6,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationRequest(**defaults)


GRID = [{"D": 8}, {"D": 10}, {"D": 12}, {"D": 14}]


def _factory(params):
    distance = int(params["D"])
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(distance),
        n_agents=2,
        target=(distance, distance),
        move_budget=100_000,
    )


@pytest.fixture
def fresh_cache(tmp_path):
    """A private cache installed as the process default (see test_cache)."""
    cache = configure_cache(directory=tmp_path, max_memory_entries=64)
    cache.clear()
    yield cache
    configure_cache(
        directory=cache_module.default_cache_dir(), max_memory_entries=256
    )


class TestThinWrapper:
    """simulate() must add nothing to what the backend computes."""

    @pytest.mark.parametrize("backend", ["closed_form", "reference"])
    def test_simulate_bit_identical_to_direct_backend_run(self, backend):
        request = _request(n_trials=4, move_budget=200_000)
        direct = get_backend(backend).run(request)
        via_facade = simulate(request, backend=backend, cache=False)
        assert via_facade.outcomes == direct
        assert via_facade.backend == backend

    def test_sharded_simulate_bit_identical_to_serial(self):
        request = _request(n_trials=7)
        serial = simulate(request, backend="closed_form", cache=False)
        sharded = simulate(
            request, backend="closed_form", workers=3, cache=False
        )
        assert serial.outcomes == sharded.outcomes

    def test_validation_raises_at_the_call_site(self):
        with pytest.raises(InvalidParameterError):
            simulate_async(_request(), workers=0)


class TestBlockingFacade:
    """simulate() drives its job on the calling thread."""

    @pytest.fixture
    def private_manager(self, monkeypatch):
        """A fresh manager behind simulate(), closed afterwards."""
        manager = JobManager()
        monkeypatch.setattr(service_module, "get_manager", lambda: manager)
        yield manager
        manager.close()

    def test_blocking_simulate_starts_no_thread(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("simulate() must not start a thread")

        monkeypatch.setattr(threading, "Thread", no_threads)
        result = simulate(_request(seed=71), backend="closed_form", cache=False)
        assert len(result.outcomes) == 6

    def test_registry_keeps_exactly_the_newest_jobs(self, private_manager):
        cap = JobManager.MAX_RETAINED_JOBS
        newest = []
        for i in range(2 * cap):
            simulate(
                _request(seed=1000 + i, n_trials=1),
                backend="closed_form", cache=False,
            )
            newest.append(private_manager.jobs()[-1].job_id)
        assert len(set(newest)) == 2 * cap
        retained = [job.job_id for job in private_manager.jobs()]
        assert retained == newest[-cap:]

    def test_eviction_never_drops_a_live_job(self, private_manager):
        cap = JobManager.MAX_RETAINED_JOBS
        # Registered but never driven: stays PENDING throughout.
        live, _ = private_manager._create_job(
            _request(seed=72), backend="closed_form"
        )
        try:
            for i in range(cap + 8):
                simulate(
                    _request(seed=2000 + i, n_trials=1),
                    backend="closed_form", cache=False,
                )
            retained = private_manager.jobs()
            assert len(retained) == cap
            assert retained[0] is live
            assert all(job.done() for job in retained[1:])
        finally:
            live._finish(JobState.CANCELLED)

    def test_request_fingerprinted_once_per_job(
        self, fresh_cache, monkeypatch
    ):
        calls = []
        original = cache_module._content_hash

        def counting(request):
            calls.append(request)
            return original(request)

        monkeypatch.setattr(cache_module, "_content_hash", counting)
        request = _request(seed=73, n_trials=1)
        result = simulate(request, backend="closed_form")
        assert len(calls) == 1
        # Keys are unchanged: the stored entry sits at the public address.
        assert fresh_cache._path_for(cache_key(request, "closed_form")).exists()
        assert fresh_cache.lookup(request, "closed_form") == result.outcomes

    def test_ledgerless_job_cancels_without_marker(self, fresh_cache):
        manager = get_manager()
        job, _ = manager._create_job(
            _request(seed=74), backend="closed_form", ledger=False
        )
        assert request_cancel(job.job_id) is True
        assert job.cancel_requested()
        assert not ledger_dir().joinpath(f"{job.job_id}.cancel").exists()
        manager._drive(job, get_backend("closed_form"))
        assert job.state is JobState.CANCELLED

    def test_ledger_job_still_gets_a_cancel_marker(self, fresh_cache):
        manager = get_manager()
        job, _ = manager._create_job(_request(seed=75), backend="closed_form")
        assert request_cancel(job.job_id) is True
        marker = ledger_dir().joinpath(f"{job.job_id}.cancel")
        assert marker.exists()
        manager._drive(job, get_backend("closed_form"))
        assert job.state is JobState.CANCELLED
        assert not marker.exists()


class TestJobLifecycle:
    def test_job_reaches_done_with_full_progress(self, fresh_cache):
        job = simulate_async(_request(seed=21), backend="closed_form")
        result = job.result(timeout=60)
        assert job.state is JobState.DONE
        assert job.done()
        progress = job.progress()
        assert progress.done_shards == progress.total_shards
        assert progress.done_trials == progress.total_trials == 6
        assert len(result.outcomes) == 6

    def test_iter_results_streams_every_shard_exactly_once(self, fresh_cache):
        request = _request(seed=22, n_trials=8)
        job = simulate_async(request, backend="closed_form", workers=2)
        shards = list(job.iter_results())
        assert len(shards) == 2
        covered = sorted(
            index for shard in shards for index in shard.trial_indices
        )
        assert covered == list(range(8))
        assert all(not shard.from_cache for shard in shards)
        # Replaying the iterator after completion sees the same shards.
        assert [s.shard_index for s in job.iter_results()] == [
            s.shard_index for s in shards
        ]

    def test_cached_job_streams_one_cached_shard(self, fresh_cache):
        request = _request(seed=23)
        simulate(request, backend="closed_form")
        before = backend_run_count()
        job = simulate_async(request, backend="closed_form")
        shards = list(job.iter_results())
        assert backend_run_count() == before
        assert len(shards) == 1 and shards[0].from_cache
        assert job.progress().cached_shards == 1

    def test_unsupported_backend_fails_at_submit_time(self, fresh_cache):
        from repro.sim.backends.base import BackendError

        with pytest.raises(BackendError):
            simulate_async(
                SimulationRequest(
                    algorithm=AlgorithmSpec.spiral(),
                    n_agents=1, target=(4, 4), move_budget=1000,
                ),
                backend="batched",
            )

    def test_failed_job_raises_from_result_and_iter(
        self, fresh_cache, monkeypatch
    ):
        backend = get_backend("closed_form")

        def boom(request, trial_indices=None):
            raise RuntimeError("backend exploded")

        monkeypatch.setattr(backend, "run", boom)
        job = simulate_async(
            _request(seed=25), backend="closed_form", cache=False
        )
        with pytest.raises(RuntimeError, match="backend exploded"):
            job.result(timeout=60)
        assert job.state is JobState.FAILED
        assert isinstance(job.exception(), RuntimeError)
        with pytest.raises(RuntimeError, match="backend exploded"):
            list(job.iter_results())

    def test_ledger_records_the_job(self, fresh_cache):
        import time

        job = simulate_async(_request(seed=24), backend="closed_form")
        job.result(timeout=60)
        # The terminal ledger write is asynchronous wrt result(); give
        # the driver thread a moment to flush it.
        deadline = time.time() + 5.0
        mine = []
        while time.time() < deadline:
            mine = [
                r for r in read_job_records() if r["job_id"] == job.job_id
            ]
            if mine and mine[0]["state"] == "done":
                break
            time.sleep(0.05)
        assert mine and mine[0]["state"] == "done"
        assert ledger_dir().joinpath(f"{job.job_id}.json").exists()


class TestResumeFromCache:
    def test_resubmission_runs_zero_backend_executions(self, fresh_cache):
        request = _request(seed=31, n_trials=8)
        simulate_async(request, backend="closed_form", workers=2).result(60)
        before = backend_run_count()
        resumed = simulate_async(request, backend="closed_form", workers=2)
        result = resumed.result(timeout=60)
        assert backend_run_count() == before
        assert len(result.outcomes) == 8

    def test_partial_shards_resume_with_only_missing_work(self, fresh_cache):
        """Kill simulation: drop the full entry and one shard entry."""
        request = _request(seed=32, n_trials=8)
        full = simulate_async(
            request, backend="closed_form", workers=2
        ).result(60)
        # Simulate a killed job: the assembled full-request entry and
        # one of the two shard entries never got written.
        fresh_cache.clear(memory=True, disk=False)
        full_key = cache_key(request, "closed_form")
        lost_shard_key = shard_cache_key(request, "closed_form", 0, 4)
        for key in (full_key, lost_shard_key):
            path = fresh_cache._path_for(key)
            assert path.exists()
            path.unlink()
        before = backend_run_count()
        resumed = simulate_async(request, backend="closed_form", workers=2)
        shards = list(resumed.iter_results())
        # Exactly one backend run: the lost shard; the survivor shard
        # came from cache.
        assert backend_run_count() == before + 1
        assert sorted(s.from_cache for s in shards) == [False, True]
        assert resumed.result(timeout=60).outcomes == full.outcomes

    def test_resumed_outcomes_bit_identical_to_uninterrupted(self, fresh_cache):
        request = _request(seed=33, n_trials=9)
        uninterrupted = simulate(
            request, backend="closed_form", workers=3, cache=False
        )
        resumed = simulate(request, backend="closed_form", workers=3)
        assert resumed.outcomes == uninterrupted.outcomes


class TestSweepJobs:
    def test_sweep_handle_streams_rows_in_grid_order(self, fresh_cache):
        sweep = Sweep(
            SimulationTrial(_factory, backend="closed_form"),
            GRID, trials=4, seed=41,
        )
        reference = Sweep(
            SimulationTrial(_factory, backend="closed_form"),
            GRID, trials=4, seed=41,
        ).run()
        handle = sweep.submit()
        streamed = list(handle.iter_rows())
        assert [index for index, _ in streamed] == list(range(len(GRID)))
        assert [row.estimate for _, row in streamed] == [
            row.estimate for row in reference
        ]
        progress = handle.progress()
        assert progress.state is JobState.DONE
        assert progress.done_points == len(GRID)
        assert progress.done_trials == len(GRID) * 4

    def test_sweep_progress_callback_fires_per_point(self, fresh_cache):
        seen = []
        Sweep(
            SimulationTrial(_factory, backend="closed_form"),
            GRID, trials=3, seed=42,
        ).run(progress=seen.append)
        assert len(seen) == len(GRID)
        assert seen[-1].done_points == len(GRID)
        assert [p.done_points for p in seen] == sorted(
            p.done_points for p in seen
        )

    def test_cancelled_sweep_resumes_with_no_rework(self, fresh_cache):
        """Cancellation leaves only complete point entries in the cache,
        and the resumed sweep simulates exactly the missing points."""
        trial = SimulationTrial(_factory, backend="closed_form")
        sweep = Sweep(trial, GRID, trials=4, seed=43)
        reference = [
            row.estimate
            for row in Sweep(trial, GRID, trials=4, seed=43).run()
        ]
        fresh_cache.clear()

        before = backend_run_count()
        handle = sweep.submit()
        rows = handle.iter_rows()
        next(rows)  # at least one point landed (and is cached)
        assert handle.cancel()
        with pytest.raises(JobCancelledError):
            handle.result(timeout=60)
        assert handle.state is JobState.CANCELLED
        first_runs = backend_run_count() - before

        resumed = Sweep(trial, GRID, trials=4, seed=43).run()
        second_runs = backend_run_count() - before - first_runs
        # Every point simulated exactly once across both attempts: the
        # cancelled run's completed points were served from cache.
        assert first_runs + second_runs == len(GRID)
        assert first_runs >= 1
        assert [row.estimate for row in resumed] == reference

    def test_cancel_after_completion_returns_false(self, fresh_cache):
        handle = Sweep(
            SimulationTrial(_factory, backend="closed_form"),
            GRID[:2], trials=2, seed=44,
        ).submit()
        handle.result(timeout=60)
        assert handle.cancel() is False

    def test_submit_rejects_plain_trial_sweeps(self):
        with pytest.raises(InvalidParameterError):
            Sweep(lambda params, rng: 0.0, GRID, trials=2, seed=1).submit()


class TestManagerAndCancellation:
    def test_manager_registry_tracks_jobs(self, fresh_cache):
        manager = get_manager()
        job = manager.submit(_request(seed=51), backend="closed_form")
        assert manager.get(job.job_id) is job
        assert job in manager.jobs()
        job.result(timeout=60)

    def test_request_cancel_reaches_in_process_jobs(self, fresh_cache):
        job = simulate_async(_request(seed=52), backend="closed_form")
        request_cancel(job.job_id)
        assert job.cancel_requested() or job.done()
        # Whichever side won the race, the terminal state is coherent.
        try:
            job.result(timeout=60)
            assert job.state is JobState.DONE
        except JobCancelledError:
            assert job.state is JobState.CANCELLED

    def test_request_cancel_rejects_unknown_and_finished_jobs(
        self, fresh_cache
    ):
        assert request_cancel("job-nonexistent") is False
        assert not ledger_dir().joinpath("job-nonexistent.cancel").exists()
        job = simulate_async(_request(seed=54), backend="closed_form")
        job.result(timeout=60)
        assert request_cancel(job.job_id) is False

    def test_prune_job_records_bounds_the_ledger(self, fresh_cache):
        jobs = [
            simulate_async(_request(seed=60 + i), backend="closed_form")
            for i in range(4)
        ]
        for job in jobs:
            job.result(timeout=60)
        get_manager().close()  # flush terminal records
        # An orphan marker with no live job behind it.
        ledger_dir().joinpath("job-orphan.cancel").touch()
        before = len(read_job_records())
        assert before >= 4
        prune_job_records(max_records=2)
        remaining = read_job_records()
        assert len(remaining) == 2
        # Newest records survive.
        assert remaining[0]["submitted_at"] >= remaining[-1]["submitted_at"]
        assert not ledger_dir().joinpath("job-orphan.cancel").exists()

    def test_cancelled_job_raises_job_cancelled_error(self, fresh_cache):
        # A many-shard job over the pool gives cancel() room to land.
        request = _request(seed=53, n_trials=64, move_budget=5_000_000)
        job = simulate_async(request, backend="closed_form", workers=4)
        cancelled = job.cancel()
        if cancelled and job.state is not JobState.DONE:
            with pytest.raises(JobCancelledError):
                job.result(timeout=60)
            assert job.state is JobState.CANCELLED
        else:  # pragma: no cover - scheduling race: job already finished
            job.result(timeout=60)
