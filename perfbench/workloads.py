"""The four workloads: request streams, closed loops and output checks.

Every input comes from the workload seed.  Shapes (families, colony
sizes, D, budgets, trial counts, clients, repeat share) live in
``workloads.json`` next to this file, which is also their documentation.
Each request is issued with one fixed ``workers`` value; see README.md
for why cross-layout identity is not checked here.
"""

from __future__ import annotations

import hashlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from layers import parse_prometheus

#: No timed loop runs longer than this, whatever its minimum sample count,
#: so a run always ends well inside its time limit.
HARD_CAP_SECONDS = 120.0

#: Warm-up and verification requests draw seeds from here, far from the
#: timed stream's seeds, so they never pre-fill the cache for it.
WARMUP_SEED = 1 << 60


@dataclass
class PassResult:
    """What one timed loop produced."""

    latencies: List[float] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    trials: float = 0.0
    elapsed: float = 0.0
    client_wall: float = 0.0
    fingerprints: Dict[int, str] = field(default_factory=dict)
    backends: Dict[int, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def fingerprint(result) -> str:
    """A digest of every field of every outcome, and the backend."""
    digest = hashlib.sha256(result.backend.encode())
    for outcome in result.outcomes:
        digest.update(repr(outcome).encode())
    return digest.hexdigest()[:20]


def spec_for(family: str, distance: int):
    from repro import AlgorithmSpec

    builders = {
        "algorithm1": lambda: AlgorithmSpec.algorithm1(distance),
        "nonuniform": lambda: AlgorithmSpec.nonuniform(distance, 1),
        "uniform": AlgorithmSpec.uniform,
        "doubly-uniform": AlgorithmSpec.doubly_uniform,
        "random-walk": AlgorithmSpec.random_walk,
        "feinerman": AlgorithmSpec.feinerman,
    }
    return builders[family]()


def ring_target(rng: np.random.Generator, distance: int):
    """A target cell at max-norm exactly ``distance``."""
    offset = int(rng.integers(-distance, distance + 1))
    side = int(rng.integers(4))
    return [(distance, offset), (-distance, offset),
            (offset, distance), (offset, -distance)][side]


def make_request(family: str, n_agents: int, distance: int, budget: int,
                 trials: int, seed: int, rng: np.random.Generator):
    from repro import SimulationRequest

    return SimulationRequest(
        algorithm=spec_for(family, distance),
        n_agents=n_agents,
        target=ring_target(rng, distance),
        move_budget=budget,
        n_trials=trials,
        seed=seed,
    )


class Cycle:
    """Seeded permutations of ``items``, one after another.

    Every block of ``len(items)`` draws holds each item once, so runs of
    similar length have nearly the same work mix whatever the seed.
    """

    def __init__(self, rng: np.random.Generator, items: list):
        self.rng = rng
        self.items = items
        self.pending: List = []

    def next(self):
        if not self.pending:
            self.pending = [self.items[i] for i in self.rng.permutation(len(self.items))]
        return self.pending.pop()


def request_seed(workload_seed: int, index: int) -> int:
    """A seed unique to this request of this run."""
    return (workload_seed << 24) + index


def process_tree_peak_mb() -> float:
    """Sum of peak resident sets (VmHWM) of this process and its descendants."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            parents[int(entry)] = int(fields[1])
        except (OSError, IndexError, ValueError):
            continue
    tree = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, parent in parents.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grew = True
    total_kb = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def run_closed_loop(next_request, issue, seconds: float, min_requests: int,
                    clients: int = 1, stop_every: int = 1) -> PassResult:
    """Drive ``issue(request)`` from ``clients`` threads in a closed loop.

    ``next_request(index)`` builds request ``index``; ``issue`` returns
    ``(result, trials)``.  The loop stops only after a multiple of
    ``stop_every`` requests.  A failed request stays in the sample.  Only
    each answer's fingerprint and backend are kept, so the benchmark's
    own memory does not grow with the number of answers.  The peak
    resident set is read once ``min_requests`` have completed, so every
    run reports it after the same amount of work however fast it went.
    """
    out = PassResult()
    lock = threading.Lock()
    counter = [0]
    started = time.perf_counter()

    def client() -> None:
        busy = 0.0
        while True:
            with lock:
                now = time.perf_counter() - started
                if (now >= seconds and counter[0] >= min_requests
                        and counter[0] % stop_every == 0) or (
                    now >= HARD_CAP_SECONDS
                ):
                    break
                index = counter[0]
                counter[0] += 1
                request = next_request(index)
            begin = time.perf_counter()
            try:
                result, trials = issue(request)
            except Exception as error:  # noqa: BLE001 — counted, never dropped
                latency = time.perf_counter() - begin
                with lock:
                    out.latencies.append(float("inf"))
                    out.failed += 1
                    out.attempted += 1
                    out.errors.append(f"request {index}: {error!r}")
                busy += latency
                continue
            latency = time.perf_counter() - begin
            busy += latency
            print_ = fingerprint(result)
            problem = check_result(request, result)
            with lock:
                out.latencies.append(latency)
                out.attempted += 1
                out.trials += trials
                out.fingerprints[index] = print_
                out.backends[index] = result.backend
                if problem:
                    out.errors.append(f"request {index}: {problem}")
                if out.attempted == min_requests:
                    out.peak_rss_mb = process_tree_peak_mb()
        with lock:
            out.client_wall += busy

    threads = [threading.Thread(target=client, name=f"bench-client-{k}")
               for k in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.elapsed = time.perf_counter() - started
    if not out.peak_rss_mb:
        out.peak_rss_mb = process_tree_peak_mb()
    return out


def check_result(request, result) -> Optional[str]:
    """Shape checks every answer must pass."""
    if len(result.outcomes) != request.n_trials:
        return f"{len(result.outcomes)} outcomes for {request.n_trials} trials"
    for outcome in result.outcomes:
        if outcome.n_agents != request.n_agents:
            return f"outcome n_agents {outcome.n_agents} != {request.n_agents}"
        if outcome.found and not 0 <= outcome.m_moves <= request.move_budget:
            return f"m_moves {outcome.m_moves} outside the budget"
    return None


class Workload:
    """Set-up, one timed pass, output checks and tear-down."""

    def __init__(self, shape: dict, seed: int, workdir: Path):
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        self.requests: Dict[int, object] = {}
        self._next_request = None

    def setup(self) -> None:
        raise NotImplementedError

    def _stream(self):
        raise NotImplementedError

    def stream(self):
        """The request stream, built once so every pass sees the same inputs."""
        if self._next_request is None:
            self._next_request = self._stream()
        return self._next_request

    def reset(self, label: str) -> None:
        """Point the program at a fresh cache before another pass."""
        from repro.sim.cache import configure_cache

        configure_cache(directory=self.workdir / f"cache-{label}")

    def run(self, seconds: float) -> PassResult:
        raise NotImplementedError

    def verify(self, out: PassResult) -> List[str]:
        return []

    def counters(self) -> dict:
        from repro.obs.metrics import get_registry

        return parse_prometheus(get_registry().render_prometheus())

    def teardown(self) -> None:
        from repro.sim.jobs import get_manager
        import multiprocessing

        get_manager().close()
        for child in multiprocessing.active_children():
            child.join(timeout=10)
            if child.is_alive():
                child.terminate()
                child.join(timeout=10)


class LocalWorkload(Workload):
    """local-small and local-batch: in-process ``simulate()`` calls."""

    def setup(self) -> None:
        from repro import simulate

        rng = np.random.default_rng([self.seed, 1])
        warm_trials = 4 if self.shape["workers"] > 1 else 1
        for k, family in enumerate(self.shape["families"]):
            request = make_request(
                family, self.shape["n_agents"][0], self.shape["distance"],
                2000, warm_trials, WARMUP_SEED + k, rng,
            )
            simulate(request, workers=self.shape["workers"])

    def _stream(self):
        shape = self.shape
        rng = np.random.default_rng([self.seed, 2])
        cells = Cycle(rng, [(family, n) for family in shape["families"]
                            for n in shape["n_agents"]])
        # Trial counts are stratified too: over len(levels) cycles every
        # cell sees every level once.
        levels = np.linspace(*shape["trials"], shape["trial_levels"]).round().astype(int)
        strata = {cell: rng.permutation(len(levels)) for cell in cells.items}
        visits: Dict[tuple, int] = {}

        def next_request(index: int):
            if index not in self.requests:
                cell = cells.next()
                visit = visits[cell] = visits.get(cell, -1) + 1
                trials = int(levels[strata[cell][visit % len(levels)]])
                self.requests[index] = make_request(
                    cell[0], cell[1], shape["distance"], shape["move_budget"],
                    trials, request_seed(self.seed, index), rng)
            return self.requests[index]

        return next_request

    def run(self, seconds: float) -> PassResult:
        from repro import simulate

        workers = self.shape["workers"]

        def issue(request):
            return simulate(request, workers=workers), request.n_trials

        # Whole epochs only: then every run issues each (family, n_agents,
        # trials) kind equally often, and its median is not set by where a
        # partial epoch happened to stop.
        shape = self.shape
        epoch = len(shape["families"]) * len(shape["n_agents"]) * shape["trial_levels"]
        return run_closed_loop(
            self.stream(), issue, seconds, shape["min_requests"], stop_every=epoch
        )

    def verify(self, out: PassResult) -> List[str]:
        from repro import simulate

        errors = []
        # A seeded sample, recomputed without the cache and replayed
        # through it, must match the answers of the timed loop bit for bit.
        rng = np.random.default_rng([self.seed, 3])
        done = sorted(out.fingerprints)
        sample_size = 16 if self.shape["workers"] == 1 else 2
        for index in rng.choice(done, size=min(sample_size, len(done)), replace=False):
            request = self.requests[int(index)]
            workers = self.shape["workers"]
            fresh = fingerprint(simulate(request, workers=workers, cache=False))
            replay = fingerprint(simulate(request, workers=workers))
            if not fresh == replay == out.fingerprints[int(index)]:
                errors.append(f"request {index}: answer not reproducible "
                              f"(loop {out.fingerprints[int(index)]}, "
                              f"uncached {fresh}, cached {replay})")
        return errors


class RemoteWorkload(Workload):
    """remote-replay: two client threads against a server child process."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        self.boots = 0

    def _boot(self) -> None:
        from repro.server import RemoteClient

        self.boots += 1
        env = dict(os.environ)
        env["REPRO_ANTS_CACHE_DIR"] = str(self.workdir / f"server-{self.boots}")
        log = open(self.workdir / f"server-{self.boots}.log", "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, env=env,
        )
        log.close()
        line = self.server.stdout.readline().decode()
        match = re.search(r"serving on (http://\S+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = match.group(1)
        client = RemoteClient(self.url)
        deadline = time.monotonic() + 60
        while client.health().get("status") != "ok":
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.05)

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    def setup(self) -> None:
        from repro.server import RemoteClient

        self._boot()
        client = RemoteClient(self.url)
        rng = np.random.default_rng([self.seed, 1])
        for k, family in enumerate(self.shape["families"]):
            client.simulate(make_request(
                family, 1, self.shape["distance"], 2000, 1, WARMUP_SEED + k, rng))

    def reset(self, label: str) -> None:
        self._stop_server()
        self._boot()

    def _stream(self):
        shape = self.shape
        rng = np.random.default_rng([self.seed, 2])
        unique: List[object] = []
        self.unique_of: Dict[int, int] = {}
        small = Cycle(rng, [(family, n) for family in shape["families"]
                            for n in shape["n_agents"]])
        large = Cycle(rng, list(shape["families"]))
        # One request in ``large_every`` is large and a ``repeat_share`` of
        # each kind repeats an earlier one, in seeded blocks rather than
        # coin flips, so every run has the same mix.
        kind = Cycle(rng, [True] + [False] * (shape["large_every"] - 1))
        share = shape["repeat_share"]
        blocks = [True] * round(10 * share) + [False] * round(10 * (1 - share))
        repeats = {True: Cycle(rng, blocks), False: Cycle(rng, blocks)}
        large_seen: List[int] = []
        small_seen: List[int] = []

        def next_request(index: int):
            if index in self.requests:
                return self.requests[index]
            is_large = kind.next()
            pool = large_seen if is_large else small_seen
            if pool and repeats[is_large].next():
                pick = pool[int(rng.integers(len(pool)))]
            else:
                pick = len(unique)
                if is_large:
                    family, n_agents = large.next(), shape["large_n_agents"]
                    trials = shape["large_trials"]
                else:
                    (family, n_agents), trials = small.next(), 1
                unique.append(make_request(
                    family, n_agents, shape["distance"], shape["move_budget"],
                    trials, request_seed(self.seed, pick), rng))
                pool.append(pick)
            self.requests[index] = unique[pick]
            self.unique_of[index] = pick
            return unique[pick]

        return next_request

    def run(self, seconds: float) -> PassResult:
        from repro.server import RemoteClient

        local = threading.local()
        workers = self.shape["workers"]
        url = self.url

        def issue(request):
            client = getattr(local, "client", None)
            if client is None:
                client = local.client = RemoteClient(url)
            return client.simulate(request, workers=workers), request.n_trials

        return run_closed_loop(
            self.stream(), issue, seconds, self.shape["min_requests"],
            clients=self.shape["clients"],
        )

    def verify(self, out: PassResult) -> List[str]:
        from repro import simulate

        errors = []
        first: Dict[int, str] = {}
        for index in sorted(out.fingerprints):
            unique = self.unique_of[index]
            seen = first.setdefault(unique, out.fingerprints[index])
            if seen != out.fingerprints[index]:
                errors.append(f"request {index}: repeat differs from the first answer")
        rng = np.random.default_rng([self.seed, 3])
        answered = sorted({self.unique_of[i]: i for i in out.fingerprints}.values())
        for index in rng.choice(answered, size=min(8, len(answered)), replace=False):
            index = int(index)
            backend = out.backends[index]
            local = simulate(self.requests[index], backend=backend,
                             workers=self.shape["workers"], cache=False)
            if fingerprint(local) != out.fingerprints[index]:
                errors.append(f"request {index}: remote answer differs from "
                              f"in-process simulate on {backend}")
        return errors

    def counters(self) -> dict:
        from repro.server import RemoteClient

        merged = dict(super().counters())
        for key, value in parse_prometheus(RemoteClient(self.url).metrics()).items():
            merged[key] = merged.get(key, 0.0) + value
        return merged

    def teardown(self) -> None:
        self._stop_server()
        super().teardown()


class ReportWorkload(Workload):
    """report-smoke: regenerate EXPERIMENTS.md in-process, fresh cache each time."""

    def __init__(self, *args, root: Path, **kwargs):
        super().__init__(*args, **kwargs)
        self.expected = (root / "EXPERIMENTS.md").read_text(encoding="utf-8")
        self.reports = 0

    def setup(self) -> None:
        from repro import simulate
        from repro.experiments import SPEC_REGISTRY
        import repro.experiments.compiler  # noqa: F401 — imported by the report

        for key in sorted(SPEC_REGISTRY):
            SPEC_REGISTRY[key](self.shape["scale"])
        rng = np.random.default_rng([self.seed, 1])
        simulate(make_request("algorithm1", 1, 16, 2000, 1, WARMUP_SEED, rng))

    def reset(self, label: str) -> None:
        pass  # every report already starts from a fresh cache

    def run(self, seconds: float) -> PassResult:
        from repro.experiments import SPEC_REGISTRY
        from repro.experiments.__main__ import generate_report
        from repro.obs.metrics import get_registry
        from repro.sim.cache import configure_cache

        colonies = next(metric for metric in get_registry().metrics()
                        if metric.name == "repro_sim_colonies_total")
        out = PassResult()
        started = time.perf_counter()
        index = 0
        while True:
            now = time.perf_counter() - started
            if (now >= seconds and index >= self.shape["min_reports"]) or (
                now >= HARD_CAP_SECONDS
            ):
                break
            self.reports += 1
            configure_cache(directory=self.workdir / f"report-{self.reports}")
            before = colonies.total()
            begin = time.perf_counter()
            try:
                report, _ = generate_report(
                    scale=self.shape["scale"], compiled=self.shape["compiled"],
                    workers=self.shape["workers"], echo=lambda message: None,
                )
            except Exception as error:  # noqa: BLE001 — counted, never dropped
                out.latencies.append(float("inf"))
                out.attempted += len(SPEC_REGISTRY)
                out.failed += len(SPEC_REGISTRY)
                out.errors.append(f"report {index}: {error!r}")
                index += 1
                continue
            latency = time.perf_counter() - begin
            out.latencies.append(latency)
            out.client_wall += latency
            out.trials += colonies.total() - before
            sections = report.split("\n### ")[1:]
            out.attempted += len(sections)
            out.failed += sum("[FAIL]" in section for section in sections)
            if report != self.expected:
                out.errors.append(f"report {index}: differs from EXPERIMENTS.md")
            out.fingerprints[index] = hashlib.sha256(report.encode()).hexdigest()[:20]
            index += 1
            if index == self.shape["min_reports"]:
                out.peak_rss_mb = process_tree_peak_mb()
        out.elapsed = time.perf_counter() - started
        if not out.peak_rss_mb:
            out.peak_rss_mb = process_tree_peak_mb()
        return out


def build(name: str, shape: dict, seed: int, workdir: Path, root: Path) -> Workload:
    if name.startswith("local-"):
        return LocalWorkload(shape, seed, workdir)
    if name == "remote-replay":
        return RemoteWorkload(shape, seed, workdir)
    return ReportWorkload(shape, seed, workdir, root=root)
