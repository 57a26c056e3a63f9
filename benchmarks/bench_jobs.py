"""Job-layer benchmark — updates ``BENCH_sim_backends.json``.

Measures what the job layer costs and what it buys:

* **async overhead** — on the standard workload (Algorithm 1 colonies
  hunting the corner target, the request shape of
  ``bench_sim_backends.py``) the gate asserts the async path
  (``simulate_async`` on a driver thread, streamed) stays within 10%
  of the blocking ``simulate()``, which drives the same pipeline on
  the caller's thread;
* **submit -> first shard latency** — how quickly a streaming consumer
  (``iter_results()``) sees its first completed trial shard after
  submission, the number an incremental dashboard or HTTP front end
  would care about;
* **small-request overhead** — a 1-trial ``simulate()`` at n=1 with
  the cache and tracing on, against the bare backend run of the same
  request.  Pairs are interleaved so drift hits both sides alike, and
  the gate bounds the median of the per-pair ratios.

The first two bypass the result cache — a cached replay would measure
the cache, not the job layer — and take the best of N runs to damp
scheduler noise.  The third keeps the cache on and gives every pair a
fresh seed, so each request misses and stores, as in real use.

Run as pytest (CI's perf step)::

    PYTHONPATH=src python -m pytest benchmarks/bench_jobs.py -q
"""

from __future__ import annotations

import json
import statistics
import time

from bench_sim_backends import update_record
from repro.obs.trace import configure_tracing
from repro.sim import AlgorithmSpec, SimulationRequest, simulate, simulate_async
from repro.sim.backends.registry import resolve_backend

WORKLOAD = {
    "algorithm": "algorithm1",
    "distance": 32,
    "n_agents": 8,
    "target": (32, 32),
    "move_budget": 100_000,
    "n_trials": 400,
    "backend": "batched",
}

_REPEATS = 3


def _request() -> SimulationRequest:
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(WORKLOAD["distance"]),
        n_agents=WORKLOAD["n_agents"],
        target=WORKLOAD["target"],
        move_budget=WORKLOAD["move_budget"],
        n_trials=WORKLOAD["n_trials"],
        seed=20140507,
    )


def _time_blocking() -> float:
    start = time.perf_counter()
    result = simulate(_request(), backend=WORKLOAD["backend"], cache=False)
    elapsed = time.perf_counter() - start
    assert len(result.outcomes) == WORKLOAD["n_trials"]
    return elapsed


def _time_async() -> tuple:
    """(total wall-clock, submit->first-shard latency) for one run."""
    start = time.perf_counter()
    job = simulate_async(_request(), backend=WORKLOAD["backend"], cache=False)
    first_shard = None
    trials_seen = 0
    for shard in job.iter_results():
        if first_shard is None:
            first_shard = time.perf_counter() - start
        trials_seen += shard.trial_count
    job.result()
    elapsed = time.perf_counter() - start
    assert trials_seen == WORKLOAD["n_trials"]
    return elapsed, first_shard


def test_job_layer_overhead_record():
    blocking = min(_time_blocking() for _ in range(_REPEATS))
    async_runs = [_time_async() for _ in range(_REPEATS)]
    async_seconds = min(total for total, _ in async_runs)
    first_shard_seconds = min(first for _, first in async_runs)

    overhead = async_seconds / blocking
    payload = {
        "workload": WORKLOAD,
        "blocking_seconds": round(blocking, 4),
        "async_streaming_seconds": round(async_seconds, 4),
        "submit_to_first_shard_seconds": round(first_shard_seconds, 4),
        "async_overhead_ratio": round(overhead, 3),
        "repeats": _REPEATS,
    }
    record = update_record("jobs", payload)
    print()
    print(json.dumps(record["jobs"], indent=2, sort_keys=True))
    # Relative bound plus a small absolute allowance: on a sub-second
    # workload, scheduler jitter on a loaded CI runner can exceed 10%
    # of the wall-clock on its own — the allowance keeps the gate about
    # the job layer, not the runner's noise floor.
    assert async_seconds <= blocking * 1.10 + 0.25, (
        f"async streaming must stay within 10% (+0.25s noise allowance) "
        f"of the blocking path: blocking {blocking:.3f}s, "
        f"async {async_seconds:.3f}s ({overhead:.2f}x)"
    )


SMALL_REQUEST = {
    "algorithm": "feinerman",
    "n_agents": 1,
    "target": (16, 5),
    "move_budget": 4000,
    "n_trials": 1,
    "backend": "auto",
}
_SMALL_PAIRS = 500
_SMALL_WARMUP = 20
_MAX_SMALL_RATIO = 4.0


def _small_request(seed: int) -> SimulationRequest:
    return SimulationRequest(
        algorithm=AlgorithmSpec.feinerman(),
        n_agents=SMALL_REQUEST["n_agents"],
        target=SMALL_REQUEST["target"],
        move_budget=SMALL_REQUEST["move_budget"],
        n_trials=SMALL_REQUEST["n_trials"],
        seed=seed,
    )


def _time_small_pair(seed: int, simulate_first: bool) -> tuple:
    """(simulate() seconds, bare backend seconds) for one fresh seed."""
    request = _small_request(seed)
    backend = resolve_backend(request, SMALL_REQUEST["backend"])

    def via_simulate() -> float:
        start = time.perf_counter()
        result = simulate(request)
        elapsed = time.perf_counter() - start
        assert len(result.outcomes) == 1
        return elapsed

    def direct() -> float:
        start = time.perf_counter()
        outcomes = backend.run(request)
        elapsed = time.perf_counter() - start
        assert len(outcomes) == 1
        return elapsed

    if simulate_first:
        facade = via_simulate()
        return facade, direct()
    bare = direct()
    return via_simulate(), bare


def test_small_request_overhead_record():
    configure_tracing(enabled=True, sink=True)
    for index in range(_SMALL_WARMUP):
        _time_small_pair(900_000 + index, index % 2 == 0)
    pairs = [
        _time_small_pair(1_000_000 + index, index % 2 == 0)
        for index in range(_SMALL_PAIRS)
    ]
    ratios = [facade / bare for facade, bare in pairs]
    median_ratio = statistics.median(ratios)
    payload = {
        "workload": SMALL_REQUEST,
        "pairs": _SMALL_PAIRS,
        "simulate_median_ms": round(
            1000 * statistics.median(facade for facade, _ in pairs), 4
        ),
        "backend_run_median_ms": round(
            1000 * statistics.median(bare for _, bare in pairs), 4
        ),
        "median_pair_ratio": round(median_ratio, 3),
        "max_median_pair_ratio": _MAX_SMALL_RATIO,
        "cache": True,
        "tracing": True,
    }
    record = update_record("small_request", payload)
    print()
    print(json.dumps(record["small_request"], indent=2, sort_keys=True))
    assert median_ratio <= _MAX_SMALL_RATIO, (
        f"a 1-trial simulate() costs {median_ratio:.2f}x the bare backend "
        f"run in the median pair (bound {_MAX_SMALL_RATIO}x)"
    )
