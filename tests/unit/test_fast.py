"""Unit tests for the vectorized simulators (repro.sim.fast)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import theory
from repro.errors import InvalidParameterError
from repro.sim.fast import (
    _moves_at_hit,
    _points_toward,
    _sortie_hits,
    _SortieDraw,
    fast_algorithm1,
    fast_doubly_uniform,
    fast_nonuniform,
    fast_random_walk,
    fast_uniform,
    lshape_first_find,
)
from repro.sim.kernels import numpy_namespace, sortie_hits


class TestLShapeFirstFind:
    def test_finds_near_target(self, rng):
        outcome = lshape_first_find(0.125, 4, (2, 1), rng, move_budget=100_000)
        assert outcome.found
        assert outcome.m_moves is not None and outcome.m_moves >= 3

    def test_target_at_origin(self, rng):
        outcome = lshape_first_find(0.5, 2, (0, 0), rng, 100)
        assert outcome.found and outcome.m_moves == 0

    def test_m_moves_at_least_manhattan_distance(self, rng):
        # The L-path to (x, y) costs at least |x| + |y| moves.
        for target in [(3, 2), (0, 5), (-4, 1)]:
            outcome = lshape_first_find(0.1, 8, target, rng, 1_000_000)
            assert outcome.found
            assert outcome.m_moves >= abs(target[0]) + abs(target[1])

    def test_tiny_budget_fails(self, rng):
        outcome = lshape_first_find(0.125, 1, (6, 6), rng, move_budget=5)
        assert not outcome.found
        assert outcome.m_moves is None

    def test_mean_matches_theory_single_agent(self, rng):
        """E[M_moves] for one agent ~ 4D/(1-q) envelope (Theorem 3.5)."""
        distance = 16
        target = (distance, distance)  # hardest corner
        samples = [
            fast_algorithm1(distance, 1, target, rng, 10**7).m_moves
            for _ in range(300)
        ]
        mean = float(np.mean(samples))
        bound = theory.expected_moves_upper_bound(distance, 1)
        assert mean <= bound  # the proof's explicit envelope holds

    def test_more_agents_never_slower(self, rng_factory):
        distance, target = 32, (20, -13)
        means = []
        for n_agents in (1, 8, 64):
            generator = rng_factory(17)
            samples = [
                fast_algorithm1(distance, n_agents, target, generator, 10**7).m_moves
                for _ in range(150)
            ]
            means.append(np.mean(samples))
        assert means[1] < means[0]
        assert means[2] < means[1]

    def test_parameter_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            lshape_first_find(0.0, 1, (1, 1), rng, 10)
        with pytest.raises(InvalidParameterError):
            lshape_first_find(1.0, 1, (1, 1), rng, 10)
        with pytest.raises(InvalidParameterError):
            lshape_first_find(0.5, 0, (1, 1), rng, 10)
        with pytest.raises(InvalidParameterError):
            lshape_first_find(0.5, 1, (1, 1), rng, 0)


class TestFastWrappers:
    def test_fast_nonuniform_smaller_stop_probability(self, rng):
        outcome = fast_nonuniform(16, 1, 4, (5, 5), rng, 10**6)
        assert outcome.found

    def test_fast_algorithm1_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            fast_algorithm1(1, 1, (0, 0), rng, 10)

    def test_fast_uniform_finds_close_targets_quickly(self, rng):
        outcome = fast_uniform(4, 1, 2, (2, 2), rng, 10**6)
        assert outcome.found
        assert outcome.m_moves < 10**5

    def test_fast_uniform_respects_budget(self, rng):
        outcome = fast_uniform(1, 1, 2, (50, 50), rng, move_budget=20)
        assert not outcome.found

    def test_fast_uniform_max_phase_truncation(self, rng):
        # With max_phase=1 the square side is 2; a far target is unreachable.
        outcome = fast_uniform(2, 1, 2, (40, 40), rng, 10**6, max_phase=1)
        assert not outcome.found

    def test_fast_uniform_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            fast_uniform(0, 1, 2, (1, 1), rng, 10)
        with pytest.raises(InvalidParameterError):
            fast_uniform(1, 0, 2, (1, 1), rng, 10)


    @pytest.mark.parametrize("simulator", [fast_uniform, fast_doubly_uniform])
    def test_find_beyond_budget_is_not_a_find(self, rng_factory, simulator):
        """A first find that lands past the budget mid-phase reports none."""
        budget = 6
        outcomes = [
            simulator(1, 1, 2, (2, 2), rng_factory(seed), budget)
            for seed in range(200)
        ]
        assert any(outcome.found for outcome in outcomes)
        assert all(
            outcome.m_moves <= budget for outcome in outcomes if outcome.found
        )


class TestFastRandomWalk:
    def test_finds_adjacent_target(self, rng):
        outcome = fast_random_walk(8, (1, 0), rng, 10_000)
        assert outcome.found
        assert outcome.m_moves >= 1

    def test_budget_exhaustion(self, rng):
        outcome = fast_random_walk(1, (90, 90), rng, move_budget=50)
        assert not outcome.found

    def test_m_moves_parity(self, rng):
        """A walk reaching (x, y) needs moves with the parity of x+y."""
        for _ in range(20):
            outcome = fast_random_walk(2, (1, 2), rng, 100_000)
            if outcome.found:
                assert (outcome.m_moves - 3) % 2 == 0

    def test_origin_target(self, rng):
        assert fast_random_walk(1, (0, 0), rng, 10).m_moves == 0

    def test_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            fast_random_walk(0, (1, 1), rng, 10)
        with pytest.raises(InvalidParameterError):
            fast_random_walk(1, (1, 1), rng, 0)

    def test_reproducible_with_same_seed(self, rng_factory):
        first = fast_random_walk(2, (2, 1), rng_factory(99), 5_000).m_moves
        second = fast_random_walk(2, (2, 1), rng_factory(99), 5_000).m_moves
        assert first == second

    def test_chunk_size_does_not_bias_results(self, rng_factory):
        """Different chunkings draw differently but agree in distribution."""
        means = []
        for chunk, seed in ((5, 1), (2048, 2)):
            generator = rng_factory(seed)
            samples = [
                fast_random_walk(2, (2, 1), generator, 100_000, chunk=chunk)
                .moves_or_budget
                for _ in range(200)
            ]
            means.append(np.mean(samples))
        assert means[0] == pytest.approx(means[1], rel=0.35)


#: Bit generators whose 32-bit draws are halves of 64-bit words.
HALF_PARKING_BIT_GENERATORS = [
    np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
]


def _signs(halves):
    """Decode sign halves the way ``integers(0, 2) * 2 - 1`` does."""
    return np.where(halves >= 1 << 31, 1, -1)


def _next_draws(generator):
    """A probe of the generator's position: 32-bit, 64-bit and float draws."""
    return (
        generator.integers(0, 2, size=5).tolist(),
        generator.integers(0, 1 << 40, size=3).tolist(),
        generator.random(3).tolist(),
    )


class TestSortieDraw:
    """The raw-word sampler against the literal four-call sequence."""

    @pytest.mark.parametrize(
        "bit_generator", HALF_PARKING_BIT_GENERATORS,
        ids=lambda bg: bg.__name__,
    )
    @pytest.mark.parametrize("parked", [False, True], ids=["fresh", "parked"])
    def test_matches_integers_and_geometric_calls(self, bit_generator, parked):
        for seed in range(4):
            ours = np.random.Generator(bit_generator(seed))
            reference = np.random.Generator(bit_generator(seed))
            if parked:
                # A 32-bit draw leaves the word's high half parked.
                ours.integers(0, 2, size=1)
                reference.integers(0, 2, size=1)
            with _SortieDraw(ours) as draw:
                for step, count in enumerate((1, 2, 3, 8, 257) * 3):
                    p = (0.5, 0.0625, 0.01)[step % 3]
                    sv, lv, sh, lh = draw(p, count)
                    assert _signs(sv).tolist() == (
                        reference.integers(0, 2, size=count) * 2 - 1
                    ).tolist()
                    assert _signs(sh).tolist() == (
                        reference.integers(0, 2, size=count) * 2 - 1
                    ).tolist()
                    assert lv.tolist() == (
                        reference.geometric(p, size=count) - 1
                    ).tolist()
                    assert lh.tolist() == (
                        reference.geometric(p, size=count) - 1
                    ).tolist()
                    if step % 4 == 1:
                        # Whole-word draws between rounds (the uniform
                        # simulators' phase-length draws) keep the
                        # parked half in place.
                        assert ours.geometric(0.3) == reference.geometric(0.3)
            # Compare positions through fresh draws, not the state's
            # ``uinteger`` field, which is stale when nothing is parked.
            assert _next_draws(ours) == _next_draws(reference)

    @pytest.mark.parametrize("simulator", [
        lambda rng: lshape_first_find(0.1, 2, (3, 3), rng, 100),
        lambda rng: fast_uniform(2, 1, 2, (3, 3), rng, 100),
        lambda rng: fast_doubly_uniform(2, 1, 2, (3, 3), rng, 100),
    ], ids=["lshape", "uniform", "doubly-uniform"])
    def test_mt19937_is_rejected(self, simulator):
        """MT19937's 32-bit draws are native: no raw-word contract holds."""
        with pytest.raises(InvalidParameterError, match="MT19937"):
            simulator(np.random.Generator(np.random.MT19937(1)))

    def test_sign_bit_boundary(self):
        """Bit 31 decides the direction: 2^31 - 1 walks -1, 2^31 walks +1."""
        halves = np.array([0, 2**31 - 1, 2**31, 2**32 - 1], dtype=np.uint32)
        assert _points_toward(halves, 5).tolist() == [False, False, True, True]
        assert _points_toward(halves, -5).tolist() == [True, True, False, False]

    def test_hit_test_matches_kernel_sortie_hits(self, rng):
        """The sign-half hit test equals the signed-integer closed form."""
        count = 4000
        targets = [(0, 3), (0, -2), (2, 0), (-3, 0), (2, 3), (-1, -4), (4, -1)]
        for target in targets:
            halves = rng.bit_generator.random_raw(count).view(np.uint32)
            sv, sh = halves[:count], halves[count:]
            lv = rng.geometric(0.25, size=count) - 1
            lh = rng.geometric(0.25, size=count) - 1
            expected_hit, expected_moves = sortie_hits(
                numpy_namespace(), target, _signs(sv), lv, _signs(sh), lh
            )
            hit = _sortie_hits(target, sv, lv, sh, lh)
            assert hit.tolist() == expected_hit.tolist()
            assert hit.any(), f"no hit exercised for {target}"
            moves = np.broadcast_to(_moves_at_hit(target, lv), lv.shape)
            assert moves[hit].tolist() == expected_moves[hit].tolist()
