"""Vectorized, distribution-exact simulators for the paper's algorithms.

The faithful engine advances one coin flip at a time; these simulators
advance one *iteration* at a time, exploiting the closed forms:

* each walk leg's length is ``Geometric(p) - 1`` (one numpy draw);
* whether an L-shaped sortie visits the target, and after how many
  moves, is a closed-form predicate of the four iteration variables
  (see :mod:`repro.grid.geometry`).

Because the sorties are sampled from exactly the process distribution
(no conditioning tricks, no approximation), the outputs are equal in
distribution to the faithful engine's — an equivalence the integration
tests check statistically.

All simulators compute the exact colony minimum ``M_moves`` with the
same retire-when-unimprovable policy as the engine.

Raw-word sign contract.  The per-trial streams (``closed_form``, the
goldens, the result cache, ``EXPERIMENTS.md``) are pinned to a round of
``c`` L-sorties drawing ``integers(0, 2, size=c)`` twice (signs) and
``geometric(p, size=c)`` twice (lengths).  NumPy takes each
``integers(0, 2)`` value from a 32-bit half of a 64-bit word (low half
first, the high half parked in the ``has_uint32``/``uinteger`` state)
and, Lemire's method never rejecting range 2, returns its bit 31; a
sequential ``geometric`` fill consumes whole words.  So
:class:`_SortieDraw` takes a round's signs from one
``bit_generator.random_raw(c)`` and its lengths from one
``geometric(p, size=2c)``, bit for bit.  Precondition: the bit generator
parks halves (PCG64, PCG64DXSM, Philox, SFC64); MT19937, whose 32-bit
draws are native, raises :class:`~repro.errors.InvalidParameterError`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.uniform import phase_coin_exponent
from repro.errors import InvalidParameterError
from repro.grid.geometry import Point
from repro.sim.metrics import FastRunStats, SearchOutcome

__all__ = [
    "FastRunStats",
    "lshape_first_find",
    "fast_algorithm1",
    "fast_nonuniform",
    "fast_uniform",
    "fast_doubly_uniform",
    "fast_random_walk",
]

#: A sign half with bit 31 set draws ``integers(0, 2) == 1``: ``+1``.
_SIGN_BIT = 1 << 31


class _SortieDraw:
    """One simulator run's sortie sampler over ``rng``'s raw words.

    Entry picks up a parked 32-bit half from the state; exit writes the
    last round's trailing half back, so the generator's later draws
    match the four-call sequence too.  Between rounds, callers may only
    make draws that consume whole words (``geometric``, ``random``).
    """

    __slots__ = ("_bitgen", "_random_raw", "_geometric", "_parked")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        state = bitgen.state
        if "has_uint32" not in state:
            raise InvalidParameterError(
                "closed-form sortie draws need a bit generator that parks 32-bit "
                f"halves (PCG64, PCG64DXSM, Philox, SFC64), got {type(bitgen).__name__}"
            )
        self._bitgen = bitgen
        self._random_raw = bitgen.random_raw
        self._geometric = rng.geometric
        self._parked: Optional[int] = state["uinteger"] if state["has_uint32"] else None

    def __enter__(self) -> "_SortieDraw":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._parked is not None:
            state = self._bitgen.state
            state["uinteger"] = self._parked
            self._bitgen.state = state

    def __call__(self, stop_probability: float, count: int):
        """``count`` sorties' sign halves and ``Geometric(p) - 1`` lengths, v and h."""
        halves = self._random_raw(count).view(np.uint32)
        if self._parked is not None:
            parked, self._parked = self._parked, int(halves[-1])
            halves = np.concatenate(([parked], halves[:-1]))
        lengths = self._geometric(stop_probability, size=2 * count)
        lengths -= 1
        return halves[:count], lengths[:count], halves[count:], lengths[count:]


def _points_toward(signs, coordinate: int):
    """Which legs walk toward ``coordinate``'s side of the axis (nonzero)."""
    return signs >= _SIGN_BIT if coordinate > 0 else signs < _SIGN_BIT


def _sortie_hits(target: Point, signs_v, lengths_v, signs_h, lengths_h):
    """Vectorized L-path hit test (:func:`repro.grid.geometry.l_path_hit_moves`).

    Off the vertical axis only the horizontal leg can hit, from a corner
    on row ``y`` — rare, so the sign tests wait until one does.  On it
    (``x == 0``, ``y != 0``) the vertical leg must point at ``y`` and reach it.
    """
    x, y = target
    if x == 0:
        hit = lengths_v >= abs(y)
        hit &= _points_toward(signs_v, y)
        return hit
    hit = lengths_v == abs(y)
    if not np.count_nonzero(hit):
        return hit
    if y != 0:
        hit &= _points_toward(signs_v, y)
    hit &= _points_toward(signs_h, x)
    hit &= lengths_h >= abs(x)
    return hit


def _moves_at_hit(target: Point, lengths_v):
    """Moves a hitting sortie makes before it reaches ``target``."""
    x, y = target
    return lengths_v + abs(x) if x != 0 else abs(y)


def lshape_first_find(
    stop_probability: float,
    n_agents: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
) -> SearchOutcome:
    """Colony ``M_moves`` for repeated L-sorties with one stop probability.

    Covers Algorithm 1 (``p = 1/D``) and Non-Uniform-Search
    (``p = 2^{-kl}``): both repeat identical sorties followed by an
    (uncharged) oracle return.
    """
    if not 0.0 < stop_probability < 1.0:
        raise InvalidParameterError(
            f"stop_probability must be in (0, 1), got {stop_probability}"
        )
    _check_colony(n_agents, move_budget)
    if target == (0, 0):
        return _found_at_origin(n_agents, move_budget)

    cumulative = np.zeros(n_agents, dtype=np.int64)
    agent_ids = np.arange(n_agents)
    best: Optional[int] = None
    best_finder: Optional[int] = None
    # Failsafe against pathological parameter corners; the budget prune
    # guarantees progress in expectation, this guards the worst case.
    expected_len = max(1.0, 2.0 * (1.0 / stop_probability - 1.0))
    max_rounds = int(200 * (move_budget / expected_len + 1)) + 10_000
    rounds_executed = 0
    iterations_executed = 0

    with _SortieDraw(rng) as draw:
        for _ in range(max_rounds):
            count = agent_ids.size
            if count == 0:
                break
            rounds_executed += 1
            iterations_executed += count
            sv, lv, sh, lh = draw(stop_probability, count)
            hit = _sortie_hits(target, sv, lv, sh, lh)
            if np.count_nonzero(hit):
                totals = cumulative + _moves_at_hit(target, lv)
                eligible = hit & (totals <= move_budget)
                if np.count_nonzero(eligible):
                    candidate_index = int(
                        np.argmin(np.where(eligible, totals, np.iinfo(np.int64).max))
                    )
                    candidate_total = int(totals[candidate_index])
                    if best is None or candidate_total < best:
                        best = candidate_total
                        best_finder = int(agent_ids[candidate_index])
                survivors = ~hit
                cumulative = cumulative[survivors] + (lv + lh)[survivors]
                agent_ids = agent_ids[survivors]
            else:
                cumulative += lv
                cumulative += lh
            limit = move_budget if best is None else min(move_budget, best)
            keep = cumulative < limit
            if np.count_nonzero(keep) < keep.size:
                cumulative = cumulative[keep]
                agent_ids = agent_ids[keep]

    return _outcome(
        best, best_finder, n_agents, move_budget,
        FastRunStats(iterations_executed, rounds_executed),
    )


def fast_algorithm1(
    distance: int,
    n_agents: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
) -> SearchOutcome:
    """Fast path for Algorithm 1: sorties with stop probability ``1/D``."""
    if distance < 2:
        raise InvalidParameterError(f"distance must be >= 2, got {distance}")
    return lshape_first_find(1.0 / distance, n_agents, target, rng, move_budget)


def fast_nonuniform(
    distance: int,
    ell: int,
    n_agents: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
) -> SearchOutcome:
    """Fast path for Non-Uniform-Search: stop probability ``2^{-kl}``."""
    from repro.core.nonuniform import NonUniformSearch

    algorithm = NonUniformSearch(distance, ell)
    return lshape_first_find(
        algorithm.stop_probability, n_agents, target, rng, move_budget
    )


_SORTIE_CHUNK = 1 << 18


def fast_uniform(
    n_agents: int,
    ell: int,
    K: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
    max_phase: int = 50,
) -> SearchOutcome:
    """Fast path for Algorithm 5 (uniform in ``D``).

    Agents are independent, so each is simulated to completion in turn:
    per phase, the number of sorties is one geometric draw
    (``Geometric(1/rho_i) - 1``) and the sorties themselves are sampled
    as one vectorized batch with a closed-form first-hit scan.  Later
    agents stop early once they can no longer beat the best find so
    far, preserving the exact colony minimum.
    """
    _check_colony(n_agents, move_budget, ell)

    def run_agent(draw: _SortieDraw, move_limit: int):
        cumulative = phase = iterations = rounds = 0
        while phase < max_phase and cumulative < move_limit:
            phase += 1
            rounds += 1
            rho_i = 2.0 ** (phase_coin_exponent(phase, n_agents, ell, K) * ell)
            calls = int(rng.geometric(1.0 / rho_i)) - 1
            cumulative, drawn, found = _phase_sorties(
                draw, target, 2.0 ** -(phase * ell), calls, cumulative, move_limit
            )
            iterations += drawn
            if found:
                return cumulative, iterations, rounds
        return None, iterations, rounds

    return _agents_in_turn(n_agents, target, rng, move_budget, run_agent)


def fast_doubly_uniform(
    n_agents: int,
    ell: int,
    K: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
    max_epoch: int = 40,
) -> SearchOutcome:
    """Fast path for the doubly uniform search (unknown ``D`` and ``n``).

    Mirrors :class:`repro.core.doubly_uniform.DoublyUniformSearch`:
    epoch ``j`` guesses ``n_j = 2^j`` and runs phases ``1..j`` of
    Algorithm 5 under that guess, with the same per-agent-phase batched
    sampling as :func:`fast_uniform`.
    """
    _check_colony(n_agents, move_budget, ell)

    def run_agent(draw: _SortieDraw, move_limit: int):
        cumulative = iterations = rounds = 0
        for epoch in range(1, max_epoch + 1):
            for phase in range(1, epoch + 1):
                if cumulative >= move_limit:
                    return None, iterations, rounds
                rounds += 1
                exponent = phase_coin_exponent(phase, 2**epoch, ell, K)
                calls = int(rng.geometric(1.0 / 2.0 ** (exponent * ell))) - 1
                cumulative, drawn, found = _phase_sorties(
                    draw, target, 2.0 ** -(phase * ell), calls, cumulative, move_limit
                )
                iterations += drawn
                if found:
                    return cumulative, iterations, rounds
        return None, iterations, rounds

    return _agents_in_turn(n_agents, target, rng, move_budget, run_agent)


def _agents_in_turn(
    n_agents: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
    run_agent: Callable[[_SortieDraw, int], Tuple[Optional[int], int, int]],
) -> SearchOutcome:
    """Colony outcome of independent agents, each simulated to completion.

    ``run_agent(draw, move_limit)`` returns one agent's ``(moves at its
    first find or None, iterations, rounds)``.  Each agent's limit is
    the best find so far, so a later agent stops once it can no longer
    beat it and the colony minimum stays exact.
    """
    if target == (0, 0):
        return _found_at_origin(n_agents, move_budget)
    best: Optional[int] = None
    best_finder: Optional[int] = None
    iterations_executed = rounds_executed = 0
    with _SortieDraw(rng) as draw:
        for agent_id in range(n_agents):
            limit = move_budget if best is None else min(move_budget, best)
            total, iterations, rounds = run_agent(draw, limit)
            iterations_executed += iterations
            rounds_executed += rounds
            if total is not None and total <= limit and (best is None or total < best):
                best = total
                best_finder = agent_id
    return _outcome(
        best, best_finder, n_agents, move_budget,
        FastRunStats(iterations_executed, rounds_executed),
    )


def _phase_sorties(
    draw: _SortieDraw,
    target: Point,
    stop_probability: float,
    calls: int,
    cumulative: int,
    move_limit: int,
) -> Tuple[int, int, bool]:
    """One agent's ``calls`` sorties of one phase, up to its first find.

    Sorties are sampled in chunks so that a phase with millions of
    expected calls (large ``K * l``) stays memory-bounded, and stop
    once ``cumulative`` reaches ``move_limit``.  Returns ``(moves,
    iterations, found)``: ``moves`` is the agent's move count at its
    find, or after the sorties drawn when none found.
    """
    iterations = 0
    while calls > 0 and cumulative < move_limit:
        batch = min(calls, _SORTIE_CHUNK)
        calls -= batch
        iterations += batch
        sv, lv, sh, lh = draw(stop_probability, batch)
        hit = _sortie_hits(target, sv, lv, sh, lh)
        if np.count_nonzero(hit):
            first = int(np.argmax(hit))
            moves_before = int(lv[:first].sum()) + int(lh[:first].sum())
            moves = cumulative + moves_before + int(_moves_at_hit(target, lv[first]))
            return moves, iterations, True
        cumulative += int(lv.sum()) + int(lh.sum())
    return cumulative, iterations, False


def fast_random_walk(
    n_agents: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
    chunk: int = 2048,
) -> SearchOutcome:
    """Colony ``M_moves`` for independent uniform random walks.

    Every step is a move, so all agents' move counts advance in
    lockstep and the first find in simulated time is the exact colony
    minimum — the simulation stops there.
    """
    _check_colony(n_agents, move_budget)
    if target == (0, 0):
        return _found_at_origin(n_agents, move_budget)

    steps_vectors = np.array([(0, 1), (0, -1), (-1, 0), (1, 0)], dtype=np.int64)
    positions = np.zeros((n_agents, 2), dtype=np.int64)
    moves_done = 0
    rounds_executed = 0
    x, y = target
    while moves_done < move_budget:
        block = min(chunk, move_budget - moves_done)
        rounds_executed += 1
        choices = rng.integers(0, 4, size=(n_agents, block))
        displacements = steps_vectors[choices]
        trajectory = positions[:, None, :] + np.cumsum(displacements, axis=1)
        hits = (trajectory[:, :, 0] == x) & (trajectory[:, :, 1] == y)
        if np.any(hits):
            step_of_hit = np.where(hits.any(axis=1), hits.argmax(axis=1), block)
            winner = int(np.argmin(step_of_hit))
            m_moves = moves_done + int(step_of_hit[winner]) + 1
            return _outcome(
                m_moves, winner, n_agents, move_budget,
                FastRunStats(n_agents * m_moves, rounds_executed),
            )
        positions = trajectory[:, -1, :]
        moves_done += block
    return _outcome(
        None, None, n_agents, move_budget,
        FastRunStats(n_agents * moves_done, rounds_executed),
    )


def _check_colony(n_agents: int, move_budget: int, ell: Optional[int] = None) -> None:
    if n_agents < 1:
        raise InvalidParameterError(f"n_agents must be >= 1, got {n_agents}")
    if ell is not None and ell < 1:
        raise InvalidParameterError(f"ell must be >= 1, got {ell}")
    if move_budget < 1:
        raise InvalidParameterError(f"move_budget must be >= 1, got {move_budget}")


def _found_at_origin(n_agents: int, move_budget: int) -> SearchOutcome:
    return SearchOutcome(
        found=True,
        m_moves=0,
        m_steps=0,
        finder=0,
        n_agents=n_agents,
        move_budget=move_budget,
        stats=FastRunStats(0, 0),
    )


def _outcome(
    m_moves: Optional[int],
    finder: Optional[int],
    n_agents: int,
    move_budget: int,
    stats: Optional[FastRunStats] = None,
) -> SearchOutcome:
    """A colony's outcome: first find after ``m_moves`` (None: no find)."""
    return SearchOutcome(
        found=m_moves is not None,
        m_moves=m_moves,
        m_steps=None,
        finder=finder,
        n_agents=n_agents,
        move_budget=move_budget,
        stats=stats,
    )
