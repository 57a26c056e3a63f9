"""Per-layer measurement from outside the program.

The traced run wraps the public functions each layer exposes (timing
every call, with a per-thread stack so nested calls give self times)
and reads deltas of the counters the program already exports: the
in-process registry (``repro.obs.metrics.get_registry()``) and, on
remote-replay, the server's registry (``RemoteClient.metrics()``).
Nothing under ``src/`` is changed; the wrappers are installed only in
the traced run, so end-to-end numbers are measured without them.
"""

from __future__ import annotations

import contextlib
import functools
import re
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: The modules a request passes through, in the order the table lists them.
LAYERS = (
    "sim.kernels", "sim.backends", "sim.jobs", "sim.cache", "sim.selector",
    "obs", "server.wire", "server.app", "server.client", "experiments",
)
EXPERIMENT_IDS = tuple(f"E{index:02d}" for index in range(1, 17))
BACKENDS = ("reference", "closed_form", "batched")
#: Name prefix of the job layer's driver threads.
DRIVER_PREFIX = "repro-job-"

_SERIES = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Dict[Tuple[str, frozenset], float]:
    """``{(series name, labels): value}`` from Prometheus text format."""
    values: Dict[Tuple[str, frozenset], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SERIES.match(line)
        if match is None:
            continue
        labels = frozenset(_LABEL.findall(match.group(2) or ""))
        values[(match.group(1), labels)] = float(match.group(3))
    return values


def counter_delta(
    before: Dict[Tuple[str, frozenset], float],
    after: Dict[Tuple[str, frozenset], float],
    name: str,
    **labels: str,
) -> float:
    """Sum of ``after - before`` over the series of ``name`` matching ``labels``."""
    wanted = set(labels.items())
    total = 0.0
    for (series, series_labels), value in after.items():
        if series == name and wanted <= series_labels:
            total += value - before.get((series, series_labels), 0.0)
    return total


class Probe:
    """Wall-clock accounting for wrapped calls, by metric and by layer.

    ``busy[metric]`` is inclusive time, ``calls[metric]`` the call count,
    and ``self_time[layer]`` the time a call spent outside nested wrapped
    calls of the same thread.  Self times of a job's driver thread are
    kept apart in ``driver_self`` until the caller collects the job's
    result (see :meth:`charge_job`), so that ``self_time`` partitions the
    callers' wall time even though the driver runs on its own thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.driver_self: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.values: Dict[str, float] = defaultdict(float)
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def stop(
        self, layer: str, metric: str, started: float, count: bool = True
    ) -> float:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        nested = stack.pop()
        thread = threading.current_thread().name
        with self._lock:
            self.busy[metric] += elapsed
            self.calls[metric] += count
            if thread.startswith(DRIVER_PREFIX):
                self.driver_self[thread][layer] += elapsed - nested
            else:
                self.self_time[layer] += elapsed - nested
            if stack:
                stack[-1] += elapsed
        return elapsed

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.values[key] += amount

    def charge_job(self, job_id: str, waited: float, pooled: float) -> float:
        """Split a caller's ``waited`` seconds in a job's result.

        The caller waits while the job's driver thread (and, for pooled
        jobs, the pool workers) work.  ``pooled`` seconds go to
        sim.backends; the driver thread's self times, scaled down to the
        wait they can have overlapped, go to their layers; the rest is
        job-layer wait, which is returned.  Driver-thread work recorded
        after this call overlapped the caller's next request and is not
        charged again.
        """
        with self._lock:
            driver = self.driver_self.pop(DRIVER_PREFIX + job_id, {})
            pooled = min(pooled, waited)
            self.self_time["sim.jobs"] -= waited
            self.self_time["sim.backends"] += pooled
            remaining = waited - pooled
            total = sum(driver.values())
            charged = min(total, remaining)
            for layer, amount in driver.items():
                self.self_time[layer] += charged * amount / total
            wait = remaining - charged
            self.self_time["sim.jobs"] += wait
            return wait

    def timed(
        self,
        layer: str,
        metric: str,
        function: Callable,
        done: Optional[Callable] = None,
    ) -> Callable:
        """``function`` timed under ``layer``/``metric``.

        ``done(args, kwargs, result, elapsed)`` runs after a successful call.
        """

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = self.start()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = self.stop(layer, metric, started)
            if done is not None:
                done(args, kwargs, result, elapsed)
            return result

        return wrapper

    def timed_context(self, function: Callable) -> Callable:
        """A span factory whose enter and exit are timed, body excluded."""
        probe = self

        class _Timed:
            __slots__ = ("_inner",)

            def __init__(self, inner) -> None:
                self._inner = inner

            def __enter__(self):
                started = probe.start()
                try:
                    return self._inner.__enter__()
                finally:
                    probe.stop("obs", "obs.span_s", started)

            def __exit__(self, *exc_info):
                started = probe.start()
                try:
                    return self._inner.__exit__(*exc_info)
                finally:
                    probe.stop("obs", "obs.span_s", started, count=False)

        @functools.wraps(function)
        def factory(*args, **kwargs):
            return _Timed(function(*args, **kwargs))

        return factory

    def patch(self, owner: object, name: str, replacement: object) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def patch_everywhere(self, original: Callable, replacement: Callable,
                         skip: Iterable[str] = ()) -> None:
        """Rebind every ``repro`` module attribute that is ``original``."""
        skipped = set(skip)
        for module_name, module in list(sys.modules.items()):
            if (
                module is None
                or module_name in skipped
                or not (module_name == "repro" or module_name.startswith("repro."))
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attribute, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


def install(probe: Probe) -> None:
    """Wrap every layer's public entry points (traced run only)."""
    import repro.experiments.compiler as compiler
    import repro.obs.trace as trace
    import repro.server.client as client
    import repro.server.wire as wire
    import repro.sim.backends.batched as batched
    import repro.sim.jobs as jobs
    import repro.sim.selector as selector
    from repro.obs.metrics import get_registry
    from repro.sim.backends.closed_form import ClosedFormBackend
    from repro.sim.backends.reference import ReferenceBackend
    from repro.sim.cache import SimulationCache

    # Spans: every call site, not the trace module's own child_span -> span.
    for factory in (trace.span, trace.child_span):
        probe.patch_everywhere(
            factory, probe.timed_context(factory), skip=("repro.obs.trace",)
        )

    def kernel_done(args, kwargs, result, elapsed):
        probe.add("kernels.trials", args[3] if len(args) > 3 else kwargs["n_trials"])

    probe.patch(batched, "run_family", probe.timed(
        "sim.kernels", "kernels.busy_s", batched.run_family, kernel_done))
    for backend_class in (ClosedFormBackend, batched.BatchedBackend, ReferenceBackend):
        probe.patch(backend_class, "run", probe.timed(
            "sim.backends", "backends.run_s", backend_class.run))

    compute = next(
        metric for metric in get_registry().metrics()
        if metric.name == "repro_sim_compute_seconds_total"
    )
    compute_at_submit: Dict[str, float] = {}

    def submit_wrapper(original):
        @functools.wraps(original)
        def submit(self, *args, **kwargs):
            before = compute.total()
            job = timed_submit(self, *args, **kwargs)
            compute_at_submit[job.job_id] = before
            return job

        timed_submit = probe.timed("sim.jobs", "jobs.submit_s", original)
        return submit

    def result_done(args, kwargs, result, elapsed):
        job = args[0]
        pooled = 0.0
        shards = job.progress().total_shards
        if shards > 1:
            # Pooled shards run side by side: the job's backend critical
            # path is its compute divided over the shards that ran at once.
            # Exact when one job is in flight, as in local-batch.
            spent = compute.total() - compute_at_submit.pop(job.job_id, 0.0)
            pooled = spent / shards
            probe.add("jobs.pool_shards", shards - job.progress().cached_shards)
        else:
            compute_at_submit.pop(job.job_id, None)
        probe.add("jobs.wait_s", probe.charge_job(job.job_id, elapsed, pooled))

    probe.patch(jobs.JobManager, "submit", submit_wrapper(jobs.JobManager.submit))
    probe.patch(jobs.SimulationJob, "result", probe.timed(
        "sim.jobs", "jobs.result_s", jobs.SimulationJob.result, result_done))

    for method in ("lookup", "lookup_shard"):
        probe.patch(SimulationCache, method, probe.timed(
            "sim.cache", "cache.lookup_s", getattr(SimulationCache, method)))
    for method in ("store", "store_shard"):
        probe.patch(SimulationCache, method, probe.timed(
            "sim.cache", "cache.store_s", getattr(SimulationCache, method)))

    probe.patch_everywhere(selector.plan_request, probe.timed(
        "sim.selector", "selector.plan_s", selector.plan_request))
    probe.patch_everywhere(selector.observe_timing, probe.timed(
        "sim.selector", "selector.observe_s", selector.observe_timing))

    probe.patch(wire, "request_to_wire", probe.timed(
        "server.wire", "wire.encode_s", wire.request_to_wire))
    probe.patch(wire, "result_from_wire", probe.timed(
        "server.wire", "wire.decode_s", wire.result_from_wire))
    probe.patch(client.RemoteClient, "submit", probe.timed(
        "server.app", "http.rtt_s", client.RemoteClient.submit))
    probe.patch(client.RemoteJob, "result", probe.timed(
        "server.app", "http.rtt_s", client.RemoteJob.result))

    def finalize_done(args, kwargs, result, elapsed):
        probe.add(f"experiments.{args[0].experiment_id}.finalize_s", elapsed)

    def program_done(args, kwargs, result, elapsed):
        probe.add("experiments.points_executed", result.points_executed)

    probe.patch(compiler, "compile_program", probe.timed(
        "experiments", "experiments.compile_s", compiler.compile_program))
    probe.patch(compiler, "execute_spec", probe.timed(
        "experiments", "experiments.finalize_s", compiler.execute_spec,
        finalize_done))
    probe.patch(compiler, "execute_program", probe.timed(
        "experiments", "experiments.program_s", compiler.execute_program,
        program_done))
    probe.patch(jobs.JobManager, "run_many", probe.timed(
        "experiments", "experiments.sim_s", jobs.JobManager.run_many))


def layer_metrics(
    probe: Probe,
    before: Dict[Tuple[str, frozenset], float],
    after: Dict[Tuple[str, frozenset], float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``before``/``after`` are counter snapshots (local registry plus the
    server's, when there is one) taken around the timed loop.
    """
    delta = functools.partial(counter_delta, before, after)
    busy, calls, values = probe.busy, probe.calls, probe.values
    metrics: Dict[str, float] = {
        "kernels.calls": calls["kernels.busy_s"],
        "kernels.trials": values["kernels.trials"],
        "kernels.busy_s": busy["kernels.busy_s"],
    }
    for backend in BACKENDS:
        metrics[f"backends.{backend}.busy_s"] = delta(
            "repro_sim_compute_seconds_total", backend=backend)
        metrics[f"backends.{backend}.colonies"] = delta(
            "repro_sim_colonies_total", backend=backend)
    metrics["backends.wrapper_s"] = busy["backends.run_s"] - busy["kernels.busy_s"]
    metrics.update({
        "jobs.count": delta("repro_jobs_submitted_total"),
        "jobs.submit_s": busy["jobs.submit_s"],
        "jobs.wait_s": values["jobs.wait_s"],
        "jobs.pool_shards": values["jobs.pool_shards"],
        "jobs.retries": delta("repro_retries_total", layer="shard"),
        "jobs.failed": delta("repro_jobs_completed_total", state="failed"),
    })
    lookups = delta("repro_cache_lookups_total")
    hits = lookups - delta("repro_cache_lookups_total", outcome="miss")
    metrics.update({
        "cache.lookups": lookups,
        "cache.hits": hits,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.lookup_s": busy["cache.lookup_s"],
        "cache.stores": delta("repro_cache_stores_total"),
        "cache.store_s": busy["cache.store_s"],
        "selector.plans": delta("repro_selector_plans_total"),
        "selector.plan_s": busy["selector.plan_s"],
        "selector.observes": delta("repro_selector_observations_total"),
        "selector.observe_s": busy["selector.observe_s"],
        "obs.spans": calls["obs.span_s"],
        "obs.span_s": busy["obs.span_s"],
        "wire.calls": calls["wire.encode_s"] + calls["wire.decode_s"],
        "wire.encode_s": busy["wire.encode_s"],
        "wire.decode_s": busy["wire.decode_s"],
        "http.requests": delta("repro_http_requests_total"),
        "http.server_s": delta("repro_http_request_seconds_sum"),
        "http.rtt_s": busy["http.rtt_s"],
    })
    # Server-side job time: submission to settlement of the server's jobs.
    server_jobs = delta("repro_job_seconds_sum") if metrics["http.requests"] else 0.0
    metrics["http.overhead_s"] = (
        metrics["http.rtt_s"] - server_jobs if metrics["http.requests"] else 0.0
    )
    metrics.update({
        "client.retries": delta("repro_client_retries_total"),
        "client.rejected": delta("repro_client_retries_total", kind="429"),
        "experiments.compile_s": busy["experiments.compile_s"],
        "experiments.sim_s": busy["experiments.sim_s"],
        "experiments.finalize_s": busy["experiments.finalize_s"],
        "experiments.points_executed": values["experiments.points_executed"],
    })
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"experiments.{experiment_id}.finalize_s"] = values[
            f"experiments.{experiment_id}.finalize_s"]
    return metrics


def layer_table(
    workload: str,
    probe: Probe,
    metrics: Dict[str, float],
    wall_s: float,
    overhead: Dict[str, float],
) -> str:
    """The per-layer table: self time and its share of wall, plus counts.

    ``wall_s`` is the client-side wall time of the timed requests (summed
    over client threads).  Self times partition it: a job's driver-thread
    work is charged to the layers it ran in, not to the caller's wait, and
    ``unattributed`` is what no wrapped call covers (the benchmark loop and
    program code between layer entry points).
    """
    counts = {
        "sim.kernels": ("kernels.calls", "kernels.trials"),
        "sim.backends": tuple(f"backends.{b}.colonies" for b in BACKENDS)
        + tuple(f"backends.{b}.busy_s" for b in BACKENDS),
        "sim.jobs": ("jobs.count", "jobs.pool_shards", "jobs.wait_s",
                     "jobs.retries", "jobs.failed"),
        "sim.cache": ("cache.lookups", "cache.hits", "cache.hit_ratio",
                      "cache.stores"),
        "sim.selector": ("selector.plans", "selector.observes"),
        "obs": ("obs.spans",),
        "server.wire": ("wire.calls", "wire.encode_s", "wire.decode_s"),
        "server.app": ("http.requests", "http.server_s", "http.overhead_s"),
        "server.client": ("client.retries", "client.rejected"),
        "experiments": ("experiments.compile_s", "experiments.sim_s",
                        "experiments.finalize_s",
                        "experiments.points_executed"),
    }
    lines = [
        f"per-layer table: {workload} (wall {wall_s:.3f} s over client threads)",
        "| layer | self s | share of wall | counts |",
        "|---|---|---|---|",
    ]
    attributed = 0.0
    for layer in LAYERS:
        own = probe.self_time.get(layer, 0.0)
        attributed += own
        detail = ", ".join(
            f"{name}={_fmt(metrics[name])}" for name in counts[layer]
            if metrics.get(name)
        )
        lines.append(
            f"| {layer} | {own:.4f} | {_share(own, wall_s)} | {detail or '-'} |"
        )
    rest = wall_s - attributed
    lines.append(f"| unattributed | {rest:.4f} | {_share(rest, wall_s)} | - |")
    compute = metrics["kernels.busy_s"] + sum(
        metrics[f"backends.{b}.busy_s"] for b in BACKENDS
    )
    lines.append(
        f"kernels.busy_s + backends.*.busy_s = {compute:.3f} s "
        f"= {_share(compute, wall_s)} of wall (pooled compute is summed "
        f"over workers, so it can exceed 100%)"
    )
    if overhead:
        lines.append(
            "tracing overhead (traced - untraced): " + ", ".join(
                f"{name} {value:+.4g}" for name, value in overhead.items()
            )
        )
    return "\n".join(lines)


def _share(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole > 0 else "-"


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


@contextlib.contextmanager
def installed(probe: Probe):
    install(probe)
    try:
        yield probe
    finally:
        probe.uninstall()
