"""Additive perturbation of transition probabilities.

The noise model: every realized coin bias ``p`` becomes
``clip(p + U[-eps, +eps], 0, 1)`` independently, then each automaton
row is renormalized.  Additive (not relative) noise is the point — a
physical process that mis-calibrates a bias by ``eps = 0.01`` barely
moves a fair coin but *triples* a ``1/256`` bias, which is exactly why
the paper's chi metric charges for fine probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.core.automaton import Automaton
from repro.errors import InvalidParameterError


def perturb_probability(
    p: float, epsilon: float, rng: np.random.Generator
) -> float:
    """One noisy realization of a nominal coin bias ``p``.

    ``clip(p + U[-eps, eps], 0, 1)``.  Note the *relative* error scales
    like ``eps / p`` — small for fair coins, huge for ``1/D`` coins.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"p must be in [0, 1], got {p}")
    if epsilon < 0.0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    noisy = p + float(rng.uniform(-epsilon, epsilon))
    return min(max(noisy, 0.0), 1.0)


def perturb_automaton(
    automaton: Automaton, epsilon: float, rng: np.random.Generator
) -> Automaton:
    """A noisy copy of ``automaton``: every positive edge disturbed.

    Zero edges stay zero (the machine's wiring is genetic; only the
    realized biases are noisy) and rows are renormalized.  A row whose
    noisy mass collapses to zero falls back to its nominal values —
    this can only happen when every edge probability is below
    ``epsilon``, i.e. far outside the regime of interest.
    """
    if epsilon < 0.0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    matrix = automaton.matrix
    noisy = np.zeros_like(matrix)
    positive = matrix > 0.0
    noise = rng.uniform(-epsilon, epsilon, size=matrix.shape)
    noisy[positive] = np.clip(matrix[positive] + noise[positive], 0.0, 1.0)
    row_sums = noisy.sum(axis=1)
    for row in np.flatnonzero(row_sums <= 0.0):
        noisy[row] = matrix[row]
        row_sums[row] = 1.0
    noisy /= noisy.sum(axis=1, keepdims=True)
    return Automaton(
        noisy,
        automaton.labels,
        start=automaton.start,
        name=f"{automaton.name}+noise({epsilon})",
    )


def degradation_ratio(
    nominal_performance: float, perturbed_performance: float
) -> float:
    """How many times worse the perturbed machine performs.

    Both arguments are expected move counts (or budget-censored means);
    a ratio near 1 means the machine shrugged the noise off.
    """
    if nominal_performance <= 0.0 or perturbed_performance <= 0.0:
        raise InvalidParameterError("performances must be positive")
    return perturbed_performance / nominal_performance


def expected_walk_length_under_noise(
    stop_probability: float, epsilon: float, rng: np.random.Generator, trials: int
) -> float:
    """Mean geometric-walk length when the stop bias is noisy per agent.

    Each trial draws one realized stop probability (one agent's
    development, in the biological reading) and reports the expected
    walk length ``1/p' - 1`` under it; the average over trials is the
    population mean.  For ``p ~ 1/D`` and ``eps >~ 1/D`` the population
    mean explodes, because agents whose realized ``p'`` is near zero
    walk nearly forever — the concrete failure the paper's metric
    anticipates.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    total = 0.0
    for _ in range(trials):
        realized = perturb_probability(stop_probability, epsilon, rng)
        # Clip away exact zero: a zero stop bias means an infinite walk;
        # report the budgeted equivalent of "essentially never stops".
        realized = max(realized, 1e-9)
        total += 1.0 / realized - 1.0
    return total / trials
