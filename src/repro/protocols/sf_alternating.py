"""The alternating-display SF variant (Remark, Section 2.1).

The paper remarks that instead of displaying a long block of 0s (Phase 0)
followed by a long block of 1s (Phase 1), a "perhaps more natural"
protocol would have each non-source agent flip one fair coin for its
first-round message and then deterministically alternate 0,1,0,1,...
while counting, in every listening round, observed 1s in rounds where it
displays 0 and observed 0s in rounds where it displays 1.  The paper
conjectures this works equally well but analyses the block version for
simplicity.  We implement the variant and let the ablation benchmark
(`benchmarks/bench_sf_variants.py`) test the conjecture empirically.

Because displays now mix 0s and 1s within every round, each listening
round has (in expectation) half the population showing each symbol, and
the per-pair step distribution differs slightly from block-SF's.  The
vectorized engine below subclasses :class:`FastSourceFilter` and
replaces only its listening stage: by symmetry, in every listening
round the number of non-sources displaying 1 is Binomial(n - s, 1/2)
(first round) and then alternates deterministically per agent, so the
stage tracks the two cohorts (agents that started with 0 vs 1) round by
round.  Majority Boosting, ``run`` and ``run_batch`` are inherited.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..model.config import PopulationConfig
from ..noise import NoiseMatrix
from .parameters import SFSchedule
from .sf_fast import FastSourceFilter, observe_one_probability
from .ssf import majority_with_ties


class FastAlternatingSourceFilter(FastSourceFilter):
    """Vectorized alternating-display Source Filter.

    The listening stage lasts ``2 * ceil(m/h)`` rounds like SF's two
    phases.  Each non-source agent i flips a coin b_i, displays
    ``b_i XOR (t mod 2)`` in listening round t, and accumulates:

    * Counter1 — observed 1s in rounds where it displayed 0,
    * Counter0 — observed 0s in rounds where it displayed 1,

    then forms the weak opinion ``1{Counter1 > Counter0}`` and enters the
    identical Majority Boosting phase.  Sources display their preference
    throughout the listening stage, split their counting rounds evenly
    (even rounds count 1s, odd rounds count 0s) so their comparison stays
    symmetric.  Runs on the complete graph without faults.
    """

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
        schedule: Optional[SFSchedule] = None,
        constant: Optional[float] = None,
    ) -> None:
        super().__init__(config, noise, schedule=schedule, constant=constant)

    def _listen(self, obs, shape, generator):
        """Simulate the listening stage round by round (displays change
        every round, so the per-phase binomial shortcut does not apply;
        the per-round one does)."""
        cfg, sched = self.config, self.schedule
        n, h = cfg.n, cfg.h
        num_sources = cfg.num_sources
        num_free = n - num_sources

        # coins[..., i] = first-round display of non-source cohort member i.
        coins = generator.integers(
            0, 2, size=shape[:-1] + (num_free,)
        ).astype(np.int8)
        # Non-sources displaying 1 on even t, per run (a scalar for one
        # run, like the complete observation model's counts).
        ones_at_even = np.count_nonzero(coins == 1, axis=-1)
        if len(shape) > 1:
            ones_at_even = ones_at_even[:, None]

        counter1 = np.zeros(shape, dtype=np.int64)
        counter0 = np.zeros(shape, dtype=np.int64)
        counting_ones = np.empty(shape, dtype=bool)
        for t in range(2 * sched.phase_rounds):
            parity = t % 2
            free_ones = ones_at_even if parity == 0 else num_free - ones_at_even
            q1 = observe_one_probability(cfg.s1 + free_ones, n, self.delta)
            observed_ones = generator.binomial(h, q1, size=shape)
            # Which agents count 1s this round? Non-sources displaying 0,
            # plus sources on even rounds.
            counting_ones[..., :num_sources] = parity == 0
            counting_ones[..., num_sources:] = (coins ^ parity) == 0
            counter1 += np.where(counting_ones, observed_ones, 0)
            counter0 += np.where(counting_ones, 0, h - observed_ones)
        return majority_with_ties(counter1, counter0, generator)
