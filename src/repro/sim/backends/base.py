"""Backend substrate: request/result records and the backend interface.

A :class:`SimulationRequest` is the uniform unit of work every caller
in this repository ultimately produces: *which algorithm*, *how many
agents*, *which target/world*, *what budgets*, *how many trials*, and
*which deterministic seed stream*.  A :class:`SimulationBackend` turns
a request into one :class:`~repro.sim.metrics.SearchOutcome` per trial.

The seeding contract is the load-bearing part: trial ``t`` of a request
draws from ``derive_seed(seed, *seed_keys, t)``.  Backends that simulate
one trial at a time (``reference``, ``closed_form``) honor it exactly,
which makes their outputs bit-identical to the historical hand-rolled
loops in ``experiments/``; the vectorized ``batched`` backend pools the
batch into one stream and is equal in distribution instead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError, ReproError
from repro.grid.geometry import Point, chebyshev_norm
from repro.sim.metrics import SearchOutcome


class BackendError(ReproError):
    """A simulation backend could not serve a request."""


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declarative description of a search algorithm.

    Only the parameters the paper's algorithms actually take are
    modeled; ``n_agents`` lives on the request (algorithms that need it,
    like Algorithm 5 and the Feinerman baseline, read it from there at
    build time).  Use the classmethod constructors — they validate the
    per-algorithm parameter domain eagerly.
    """

    name: str
    distance: Optional[int] = None
    ell: Optional[int] = None
    K: Optional[int] = None
    max_phase: Optional[int] = None

    @classmethod
    def algorithm1(cls, distance: int) -> "AlgorithmSpec":
        """Algorithm 1: knows ``D``, fine ``1/D`` stop coins."""
        if distance < 2:
            raise InvalidParameterError(f"distance must be >= 2, got {distance}")
        return cls(name="algorithm1", distance=distance)

    @classmethod
    def nonuniform(cls, distance: int, ell: int = 1) -> "AlgorithmSpec":
        """Non-Uniform-Search: knows ``D``, coarse ``2^{-l}`` coins."""
        if distance < 2:
            raise InvalidParameterError(f"distance must be >= 2, got {distance}")
        if ell < 1:
            raise InvalidParameterError(f"ell must be >= 1, got {ell}")
        return cls(name="nonuniform", distance=distance, ell=ell)

    @classmethod
    def uniform(
        cls, ell: int = 1, K: Optional[int] = None, max_phase: Optional[int] = None
    ) -> "AlgorithmSpec":
        """Algorithm 5: uniform in ``D``; ``K`` defaults to the calibrated value."""
        from repro.core.uniform import calibrated_K

        if ell < 1:
            raise InvalidParameterError(f"ell must be >= 1, got {ell}")
        resolved_K = calibrated_K(ell) if K is None else K
        if resolved_K < 1:
            raise InvalidParameterError(f"K must be >= 1, got {resolved_K}")
        if max_phase is not None and max_phase < 1:
            raise InvalidParameterError(f"max_phase must be >= 1, got {max_phase}")
        return cls(name="uniform", ell=ell, K=resolved_K, max_phase=max_phase)

    @classmethod
    def doubly_uniform(
        cls, ell: int = 1, K: Optional[int] = None, max_phase: Optional[int] = None
    ) -> "AlgorithmSpec":
        """Doubly uniform search: unknown ``D`` and unknown ``n``."""
        from repro.core.uniform import calibrated_K

        if ell < 1:
            raise InvalidParameterError(f"ell must be >= 1, got {ell}")
        resolved_K = calibrated_K(ell) if K is None else K
        return cls(name="doubly-uniform", ell=ell, K=resolved_K, max_phase=max_phase)

    @classmethod
    def random_walk(cls) -> "AlgorithmSpec":
        """Uniform random walk baseline (chi = 4)."""
        return cls(name="random-walk")

    @classmethod
    def feinerman(cls) -> "AlgorithmSpec":
        """Feinerman et al. harmonic search baseline (chi = Theta(log D))."""
        return cls(name="feinerman")

    @classmethod
    def spiral(cls) -> "AlgorithmSpec":
        """Deterministic spiral: the informed single-agent optimum."""
        return cls(name="spiral")

    @classmethod
    def levy(cls) -> "AlgorithmSpec":
        """Levy walk baseline."""
        return cls(name="levy")

    def build(self, n_agents: int):
        """Instantiate the concrete :class:`~repro.core.base.SearchAlgorithm`.

        The faithful engine needs a live process generator; vectorized
        backends never call this.
        """
        if self.name == "algorithm1":
            from repro.core.algorithm1 import Algorithm1

            return Algorithm1(self.distance)
        if self.name == "nonuniform":
            from repro.core.nonuniform import NonUniformSearch

            return NonUniformSearch(self.distance, self.ell or 1)
        if self.name == "uniform":
            from repro.core.uniform import UniformSearch

            return UniformSearch(n_agents, self.ell or 1, self.K, self.max_phase)
        if self.name == "doubly-uniform":
            from repro.core.doubly_uniform import DoublyUniformSearch

            return DoublyUniformSearch(self.ell or 1, self.K)
        if self.name == "random-walk":
            from repro.baselines.random_walk import RandomWalkSearch

            return RandomWalkSearch()
        if self.name == "feinerman":
            from repro.baselines.feinerman import FeinermanSearch

            return FeinermanSearch(n_agents)
        if self.name == "spiral":
            from repro.baselines.spiral import SpiralSearch

            return SpiralSearch()
        if self.name == "levy":
            from repro.baselines.levy import LevyWalk

            return LevyWalk()
        raise BackendError(f"unknown algorithm spec {self.name!r}")


KNOWN_ALGORITHMS = (
    "algorithm1",
    "nonuniform",
    "uniform",
    "doubly-uniform",
    "random-walk",
    "feinerman",
    "spiral",
    "levy",
)


@dataclass(frozen=True)
class SimulationRequest:
    """One uniform simulation job: algorithm x colony x world x budget x seed.

    Attributes
    ----------
    algorithm:
        The algorithm descriptor.
    n_agents:
        Colony size ``n``.
    target:
        Target cell coordinates.
    move_budget:
        Per-agent move budget.
    step_budget:
        Optional per-agent Markov-step budget (faithful engine only).
    n_trials:
        Independent repetitions of the whole colony search.
    seed / seed_keys:
        Trial ``t`` draws from ``derive_seed(seed, *seed_keys, t)`` —
        the same addressing scheme the experiment sweeps have always
        used, so migrated callers keep their exact random streams.
    distance_bound:
        The world's ``D``; defaults to the spec's distance or the
        target's max-norm, whichever is larger.
    deadline_seconds:
        Optional wall-clock budget for the whole job, measured from
        submission.  An *execution* detail like ``workers`` — it never
        enters the request fingerprint, so deadlined and undeadlined
        runs of the same request share cache entries, and a run that
        died on its deadline resumes from its completed shards.
    """

    algorithm: AlgorithmSpec
    n_agents: int
    target: Point
    move_budget: int
    step_budget: Optional[int] = None
    n_trials: int = 1
    seed: int = 0
    seed_keys: Tuple[int, ...] = ()
    distance_bound: Optional[int] = None
    deadline_seconds: Optional[float] = None
    # Memo of repro.sim.cache.request_fingerprint, filled on first use.
    # The request is frozen, so the hash never goes stale; it takes no
    # part in __init__, equality, hashing, repr or replace().
    _fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise InvalidParameterError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.move_budget < 1:
            raise InvalidParameterError(
                f"move_budget must be >= 1, got {self.move_budget}"
            )
        if self.n_trials < 1:
            raise InvalidParameterError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be non-negative, got {self.seed}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise InvalidParameterError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.algorithm.name not in KNOWN_ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {self.algorithm.name!r}; "
                f"known: {', '.join(KNOWN_ALGORITHMS)}"
            )

    @property
    def effective_distance_bound(self) -> int:
        """The ``D`` used to build the world."""
        if self.distance_bound is not None:
            return self.distance_bound
        candidates = [chebyshev_norm(self.target)]
        if self.algorithm.distance is not None:
            candidates.append(self.algorithm.distance)
        return max(candidates)

    def trial_seed(self, trial_index: int) -> np.random.SeedSequence:
        """The deterministic stream for one trial of this request."""
        from repro.sim.rng import derive_seed

        return derive_seed(self.seed, *self.seed_keys, trial_index)


@dataclass(frozen=True)
class SimulationResult:
    """The outcomes of one request, plus which backend produced them."""

    request: SimulationRequest
    backend: str
    outcomes: Tuple[SearchOutcome, ...]

    @property
    def outcome(self) -> SearchOutcome:
        """The first (often only) trial's outcome."""
        return self.outcomes[0]

    @property
    def find_rate(self) -> float:
        """Fraction of trials that found the target within budget."""
        return float(np.mean([outcome.found for outcome in self.outcomes]))

    def moves_or_budget(self) -> np.ndarray:
        """Per-trial censored move counts (``m_moves`` or the budget)."""
        return np.array(
            [outcome.moves_or_budget for outcome in self.outcomes], dtype=np.int64
        )


class SimulationBackend(ABC):
    """One way of executing :class:`SimulationRequest` jobs."""

    #: Registry key; subclasses override.
    name: str = "abstract"

    #: Whether trial ``t`` of a request draws only from its own
    #: ``derive_seed`` address, independent of ``n_trials`` and shard
    #: layout.  When True, a trial prefix of a longer run is
    #: bit-identical to a standalone shorter run, which is what lets
    #: the experiment compiler merge grid points across different trial
    #: counts.  Stream-anchored backends (batched kernels pool a
    #: request's trials into one generator) leave this False.
    trial_addressed: bool = False

    @abstractmethod
    def supports(self, request: SimulationRequest) -> bool:
        """Whether this backend can serve ``request`` faithfully."""

    def support_reason(self, request: SimulationRequest) -> Optional[str]:
        """Why :meth:`supports` declines ``request`` (None when it doesn't).

        Backends override this with specific gating reasons ("no
        device", "step_budget set", ...) so the CLI ``backends`` table
        and the ``/v1/backends`` route can explain declines instead of
        printing a bare dash.
        """
        if self.supports(request):
            return None
        return f"algorithm {request.algorithm.name!r} not supported"

    @abstractmethod
    def run(
        self,
        request: SimulationRequest,
        trial_indices: Optional[Sequence[int]] = None,
    ) -> Tuple[SearchOutcome, ...]:
        """Execute the request's trials (or the given subset of them).

        ``trial_indices`` lets the parallel sweep executor shard one
        request across processes while preserving per-trial seeds.
        """

    def auto_priority(self, request: SimulationRequest) -> int:
        """Ranking used by ``backend="auto"``; higher wins."""
        return 0

    def cache_name(self) -> str:
        """The identity the result cache keys this backend under.

        Defaults to the registry name.  Backends whose output stream
        depends on more than their code — the accelerator's depends on
        which array namespace/device is bound — must fold that binding
        in, so a host whose binding changes can never replay another
        binding's cached stream.
        """
        return self.name

    def device_description(self) -> Optional[str]:
        """Human-readable device binding, or ``None`` for host backends.

        Introspection surfaces include a ``device`` entry only when this
        returns a string; the accelerator backend overrides it with its
        bound namespace/device (or the unavailability reason).
        """
        return None

    def calibration_trials(self) -> Tuple[int, int]:
        """(low, high) probe trial counts for selector calibration.

        Slow per-trial engines override with tiny counts so a
        micro-profile stays short; vectorized backends override with
        enough trials to expose their per-batch amortization.
        """
        return (4, 16)

    def coverage_and_reasons(self) -> Tuple[Dict[str, bool], Dict[str, str]]:
        """One probe pass: (family -> supported?, family -> decline reason).

        Introspection surfaces (CLI table, ``/v1/backends``) want both;
        a single loop keeps each probe request built and gated once.
        """
        coverage: Dict[str, bool] = {}
        reasons: Dict[str, str] = {}
        for name in KNOWN_ALGORITHMS:
            probe = probe_request(name)
            if probe is None:
                coverage[name] = False
                continue
            reason = self.support_reason(probe)
            coverage[name] = reason is None
            if reason is not None:
                reasons[name] = reason
        return coverage, reasons

    def coverage(self) -> Dict[str, bool]:
        """Which algorithm families this backend supports (for the CLI)."""
        return self.coverage_and_reasons()[0]

    def decline_reasons(self) -> Dict[str, str]:
        """Per-family :meth:`support_reason` strings for declined probes."""
        return self.coverage_and_reasons()[1]


def probe_request(
    algorithm_name: str,
    n_trials: int = 1,
    n_agents: int = 2,
    target: Tuple[int, int] = (4, 3),
    move_budget: int = 1000,
) -> Optional[SimulationRequest]:
    """A representative request per algorithm family.

    Coverage reports probe with the default single trial; the CLI also
    probes with a trial batch to show each backend's
    ``auto_priority`` for the batch case — the number that explains
    what ``auto`` picks for sweeps.  The selector's calibration probes
    reuse the same family builders at its own scale via the keyword
    overrides.
    """
    builders = {
        "algorithm1": lambda: AlgorithmSpec.algorithm1(8),
        "nonuniform": lambda: AlgorithmSpec.nonuniform(8, 1),
        "uniform": lambda: AlgorithmSpec.uniform(1),
        "doubly-uniform": lambda: AlgorithmSpec.doubly_uniform(1),
        "random-walk": AlgorithmSpec.random_walk,
        "feinerman": AlgorithmSpec.feinerman,
        "spiral": AlgorithmSpec.spiral,
        "levy": AlgorithmSpec.levy,
    }
    builder = builders.get(algorithm_name)
    if builder is None:
        return None
    return SimulationRequest(
        algorithm=builder(),
        n_agents=n_agents,
        target=target,
        move_budget=move_budget,
        n_trials=n_trials,
    )
