"""Uniform-with-replacement sampling, at two levels of granularity.

The model (Section 1.3, item 2) has every agent sample ``h`` agents
uniformly at random *with replacement* — self-samples and duplicates are
allowed.  Two equivalent realizations are provided:

* :func:`sample_indices` — explicit indices, the literal model.  Needed
  when observations must be traced back to individual sampled agents.
* :func:`sample_observation_counts` — per-agent counts of observed
  *symbols*.  Given the population's current display counts, each agent's
  ``h`` noisy observations are i.i.d. from ``(counts/n) @ N``, so the
  per-symbol tallies are multinomial.  This is an exact identity
  (exchangeability), not an approximation, and it is what makes the fast
  protocol engines run in O(d) per agent-round instead of O(h).

:func:`symbol_tallies` goes the other way for the agent-level engines:
it turns one round's explicit ``(n, h)`` observations into the same
per-agent symbol counts.
"""

from __future__ import annotations

import numpy as np

from ..noise import NoiseMatrix, observation_distribution
from ..types import RngLike, coerce_rng

__all__ = [
    "sample_indices",
    "sample_observation_counts",
    "multinomial_rows",
    "symbol_tallies",
]


def sample_indices(
    n: int, num_agents: int, h: int, rng: RngLike = None
) -> np.ndarray:
    """Indices sampled by each agent this round.

    Returns an ``(num_agents, h)`` integer array; row ``i`` holds the
    agents sampled by agent ``i``, uniform on ``[0, n)`` with replacement.
    """
    if n < 1:
        raise ValueError(f"population size must be positive, got {n}")
    if h < 1:
        raise ValueError(f"sample size h must be positive, got {h}")
    generator = coerce_rng(rng)
    return generator.integers(0, n, size=(num_agents, h))


def multinomial_rows(
    trials: int, probabilities: np.ndarray, rows: int, rng: RngLike = None
) -> np.ndarray:
    """Draw ``rows`` independent Multinomial(trials, probabilities) vectors.

    A thin wrapper that centralizes the degenerate cases (zero trials, a
    single symbol) so callers stay branch-free.
    """
    p = np.asarray(probabilities, dtype=float)
    generator = coerce_rng(rng)
    if trials == 0:
        return np.zeros((rows, p.shape[0]), dtype=np.int64)
    return generator.multinomial(trials, p, size=rows).astype(np.int64)


def sample_observation_counts(
    display_counts: np.ndarray,
    noise: NoiseMatrix,
    num_agents: int,
    h: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-agent symbol tallies for one round of noisy PULL(h).

    Parameters
    ----------
    display_counts:
        ``(d,)`` array; entry ``sigma`` is how many of the ``n`` agents
        currently display symbol ``sigma`` (so it sums to ``n``).
    noise:
        The channel each observation traverses.
    num_agents:
        Number of observing agents (usually ``n``).
    h:
        Observations per agent.

    Returns
    -------
    ``(num_agents, d)`` integer array; row ``i`` tallies the noisy symbols
    agent ``i`` observed.  Rows are i.i.d. ``Multinomial(h, q)`` with
    ``q = (display_counts/n) @ N`` — exactly the model's distribution.
    """
    q = observation_distribution(display_counts, noise)
    return multinomial_rows(h, q, num_agents, rng)


def symbol_tallies(observations: np.ndarray, d: int) -> np.ndarray:
    """Per-row counts of each symbol in an ``(rows, width)`` array.

    Returns a ``(rows, d)`` ``int64`` array whose entry ``[i, sigma]`` is
    how many entries of row ``i`` equal ``sigma``; every entry of
    ``observations`` must lie in ``[0, d)``.  One ``bincount`` over the
    keys ``row * d + symbol`` replaces ``d`` comparison passes over the
    whole array.
    """
    obs = np.asarray(observations)
    rows = obs.shape[0]
    keys = obs + np.arange(0, rows * d, d)[:, None]
    return np.bincount(keys.ravel(), minlength=rows * d).reshape(rows, d)
