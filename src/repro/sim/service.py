"""The simulation service facade: ``repro.sim.simulate``.

Every caller that wants the colony metric — CLI, experiments,
benchmarks, examples — funnels through :func:`simulate`: build a
:class:`~repro.sim.backends.base.SimulationRequest`, pick a backend (or
leave ``"auto"``), optionally shard the trial batch across worker
processes.  Sharding preserves the per-trial seed contract
(``derive_seed(seed, *seed_keys, trial)``), so for the per-trial
backends the outcomes are bit-identical whatever ``workers`` is; the
batched backend re-anchors its pooled stream per shard and is equal in
distribution instead.

The facade owns no execution logic: the resolve -> cache -> shard ->
run -> store pipeline lives in :mod:`repro.sim.jobs`.  :func:`simulate`
builds a job on the process-wide :class:`~repro.sim.jobs.JobManager`
exactly as a submission would, then drives that one pipeline on the
calling thread and returns the job's result, so a small request pays
for no thread start and hand-off.  :func:`simulate_async` is the same
job driven on a background thread — it returns the
:class:`~repro.sim.jobs.SimulationJob` handle for progress polling,
incremental shard streaming, and cancellation.  Both views share the
content-addressed result cache (full-request and per-shard entries),
and :func:`backend_run_count` still counts the backend executions this
process actually performed — how the tests prove cached re-runs and
resumed jobs simulate nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.trace import span
from repro.sim.backends.base import SimulationRequest, SimulationResult
from repro.sim.backends.registry import AUTO
from repro.sim.jobs import (
    AdaptiveRun,
    SimulationJob,
    backend_run_count,
    get_manager,
    simulate_adaptive,
    simulate_async,
)
from repro.sim.selector import SimulationPlan

__all__ = [
    "simulate",
    "simulate_async",
    "simulate_adaptive",
    "backend_run_count",
    "AdaptiveRun",
    "SimulationJob",
]


def simulate(
    request: SimulationRequest,
    backend: str = AUTO,
    workers: int = 1,
    cache: Optional[bool] = None,
    plan: Optional[SimulationPlan] = None,
) -> SimulationResult:
    """Execute a simulation request on the best (or named) backend.

    A thin blocking view over the job layer: registers a job with the
    process-wide :class:`~repro.sim.jobs.JobManager` (so
    ``manager.cancel(job_id)`` from another thread still reaches it)
    and drives it on the calling thread.  Use :func:`simulate_async`
    for the non-blocking handle.

    Parameters
    ----------
    request:
        The job: algorithm spec, colony size, target, budgets, trials,
        seed stream.
    backend:
        A registered backend name, or ``"auto"`` to pick the highest
        priority backend supporting the request.
    workers:
        When > 1 and the request has several trials, shard the trial
        range across the manager's worker process pool.
    cache:
        ``True``/``False`` forces the result cache on/off for this
        call; ``None`` (default) follows the process-wide setting
        (:func:`repro.sim.cache.configure_cache`, default on).  The
        cache key is ``(request hash, resolved backend, code
        version)`` — ``workers`` is an execution detail and does not
        participate.
    plan:
        A :class:`~repro.sim.selector.SimulationPlan` (from
        :func:`repro.sim.selector.plan_request`) to execute instead of
        the fixed ``backend``/``workers`` layout — the cost-model
        selector's backend choice and shard count take over.
    """
    # ledger=False: a blocking job is settled before the caller could
    # inspect it through the jobs CLI, so skip the per-call disk writes.
    # The "simulate" span is the root of a local trace (or a child of
    # whatever ambient span the caller holds); the job span opens under
    # it as the ambient parent of this thread.
    with span(
        "simulate",
        algorithm=request.algorithm.name,
        n_trials=request.n_trials,
    ):
        manager = get_manager()
        job, chosen = manager._create_job(
            request, backend=backend, workers=workers, cache=cache,
            ledger=False, plan=plan,
        )
        manager._drive(job, chosen)
        return job.result()
