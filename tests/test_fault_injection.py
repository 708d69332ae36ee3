"""Tests for the sample-loss fault-injection extension of fast SF."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.model.config import PopulationConfig
from repro.protocols import FastSourceFilter
from repro.topology import RandomRegularTopology
from repro.types import SourceCounts
from repro.verify import FalsePositiveBudget, assert_success_probability


def config(n=512, s1=1, h=None):
    return PopulationConfig(
        n=n, sources=SourceCounts(0, s1), h=h if h is not None else n
    )


class TestSampleLoss:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FastSourceFilter(config(), 0.2, sample_loss=1.0)
        with pytest.raises(ConfigurationError):
            FastSourceFilter(config(), 0.2, sample_loss=-0.1)

    def test_zero_loss_matches_default(self):
        a = FastSourceFilter(config(), 0.2).run(rng=0)
        b = FastSourceFilter(config(), 0.2, sample_loss=0.0).run(rng=0)
        assert np.array_equal(a.final_opinions, b.final_opinions)

    def test_converges_under_moderate_loss(self):
        """Losing 30% of all observations does not break SF — the
        budget's slack absorbs it."""
        engine = FastSourceFilter(config(), 0.2, sample_loss=0.3)
        assert all(engine.run(rng=s).converged for s in range(10))

    def test_loss_degrades_weak_opinions(self):
        clean = FastSourceFilter(config(n=1024), 0.2)
        lossy = FastSourceFilter(config(n=1024), 0.2, sample_loss=0.5)
        clean_mean = np.mean(
            [clean.draw_weak_opinions(np.random.default_rng(s)).mean()
             for s in range(30)]
        )
        lossy_mean = np.mean(
            [lossy.draw_weak_opinions(np.random.default_rng(s)).mean()
             for s in range(30)]
        )
        assert 0.5 < lossy_mean < clean_mean

    @pytest.mark.statistical
    @pytest.mark.parametrize("topology", ["complete-graph", "explicit-graph"])
    def test_loss_applied_once_on_every_observation_model(self, topology):
        """Half the observations lost still converges, whether the
        complete graph runs as the uniform model or as an explicit
        (n-1)-regular graph through the per-agent model: both thin each
        window once."""
        n = 400
        graph = RandomRegularTopology(degree=n - 1)
        engine = FastSourceFilter(
            config(n=n, s1=3),
            0.1,
            sample_loss=0.5,
            topology=graph if topology == "explicit-graph" else None,
        )
        trials = 20
        successes = sum(engine.run(rng=seed).converged for seed in range(trials))
        assert_success_probability(
            successes,
            trials,
            claimed_lower_bound=0.9,
            context=f"SF convergence at sample_loss=0.5 ({topology})",
            budget=FalsePositiveBudget(total=1e-5, strict=True),
        )

    def test_ssf_converges_under_loss(self):
        """SSF's update clock slows under loss (buffers fill late) but
        convergence survives."""
        from repro.protocols import FastSelfStabilizingSourceFilter

        engine = FastSelfStabilizingSourceFilter(
            config(n=256), 0.1, sample_loss=0.3
        )
        result = engine.run(rng=0)
        assert result.converged

    def test_ssf_loss_validation(self):
        from repro.protocols import FastSelfStabilizingSourceFilter

        with pytest.raises(ConfigurationError):
            FastSelfStabilizingSourceFilter(config(), 0.1, sample_loss=1.5)

    def test_ssf_loss_slows_updates(self):
        from repro.protocols import FastSelfStabilizingSourceFilter

        clean = FastSelfStabilizingSourceFilter(config(n=256), 0.1)
        lossy = FastSelfStabilizingSourceFilter(
            config(n=256), 0.1, sample_loss=0.5
        )
        clean_result = clean.run(rng=1)
        lossy_result = lossy.run(rng=1)
        assert clean_result.converged and lossy_result.converged
        assert lossy_result.consensus_round > clean_result.consensus_round

    def test_boost_step_majority_over_received(self):
        """With heavy loss the boosting majority is over far fewer
        messages but remains unbiased."""
        engine = FastSourceFilter(config(n=20_000), 0.1, sample_loss=0.9)
        opinions = np.zeros(20_000, dtype=np.int8)
        opinions[:14_000] = 1  # 70% ones
        out = engine.boost_step(opinions, window=300, rng=0)
        assert out.mean() > 0.85
