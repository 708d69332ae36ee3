"""PERF — telemetry overhead on the engine hot paths.

Two guarantees back the telemetry layer:

* **Disabled is near-free.**  With ``telemetry=None`` the engines route
  through the :data:`~repro.telemetry.NULL_TELEMETRY` singleton; the
  per-round cost is one ``enabled`` attribute check.  Measured here
  against a reference replica of the pre-telemetry
  :class:`~repro.model.batched_engine.BatchedPullEngine` round loop and
  gated at 5% — the CI smoke job fails if instrumentation ever leaks
  real work onto the disabled path.
* **Enabled is observational only.**  Recording costs time (the
  per-round opinion reductions) but never touches the RNG streams, so
  the results are bit-identical either way (asserted here and in
  ``tests/test_telemetry.py``).

Measurements land in ``BENCH_telemetry_overhead.json`` at the repo root
via ``conftest.record``; the record's row in
``benchmarks/check_regression.py`` gates ``overhead_pct`` at
:data:`OVERHEAD_LIMIT_PCT` and goes stale when the telemetry package or
the batched engine changes.
"""

import time

import numpy as np

from repro.model import BatchedPullEngine, Population, PopulationConfig
from repro.model.batched_engine import _spawn_generators
from repro.noise import NoiseMatrix
from repro.protocols import BatchedSourceFilter, SFSchedule
from repro.telemetry import AggregatingSink, Telemetry
from repro.types import SourceCounts

from .conftest import record

REPLICAS = 64
ROUNDS = 60
REPS = 7
OVERHEAD_LIMIT_PCT = 5.0


def _reference_batched_run(population, noise, protocol, max_rounds, replicas, seed):
    """The pre-telemetry BatchedPullEngine round loop, spawn mode.

    A faithful replica of the seed engine's hot path — same generators,
    same draws, same consensus bookkeeping, no telemetry or tracing —
    serving as the baseline the instrumented (but disabled) engine is
    measured against.
    """
    generators = _spawn_generators(replicas, seed, None)
    n, h = population.n, population.h
    correct = population.correct_opinion
    protocol.reset(population, generators)

    active = np.arange(replicas)
    streak = np.zeros(replicas, dtype=np.int64)
    consensus_start = np.full(replicas, -1, dtype=np.int64)
    rounds_executed = np.zeros(replicas, dtype=np.int64)

    for t in range(max_rounds):
        if active.size == 0 or protocol.finished(t):
            break
        displayed = np.asarray(protocol.displays(t))
        num_active = active.size
        all_active = num_active == replicas
        sampled = np.empty((num_active, n * h), dtype=np.int64)
        uniforms = np.empty((num_active, n * h))
        for i, r in enumerate(active):
            g = generators[r]
            sampled[i] = g.integers(0, n, size=(n, h)).reshape(n * h)
            uniforms[i] = g.random(n * h)
        gathered = np.take_along_axis(
            displayed if all_active else displayed[active], sampled, axis=1
        )
        observations = noise.corrupt_with_uniforms(
            gathered, uniforms, dtype=np.int8
        ).reshape(num_active, n, h)
        protocol.receive(t, observations, active)
        rounds_executed[active] = t + 1

        if correct is not None:
            opinions = protocol.opinions()
            active_opinions = opinions if all_active else opinions[active]
            all_correct = np.all(active_opinions == correct, axis=1)
            streak[active] = np.where(all_correct, streak[active] + 1, 0)
            consensus_start[active] = np.where(
                all_correct,
                np.where(consensus_start[active] < 0, t, consensus_start[active]),
                -1,
            )
    return protocol.opinions()


def _best_of(callable_, reps=REPS):
    """Minimum wall time over ``reps`` runs — the noise-robust estimator."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_perf_disabled_telemetry_overhead():
    """Disabled telemetry must cost <= 5% on the batched-engine microbench.

    This is the guarantee the hot-loop ``if telemetry.enabled`` guards
    exist to provide; the CI smoke job runs exactly this test.
    """
    config = PopulationConfig(n=128, sources=SourceCounts(1, 3), h=4)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=10 * config.h)
    engine = BatchedPullEngine(population, noise)

    def instrumented_disabled():
        return engine.run(
            BatchedSourceFilter(schedule),
            max_rounds=ROUNDS,
            replicas=REPLICAS,
            rng=5,
        )

    def reference():
        return _reference_batched_run(
            population, noise, BatchedSourceFilter(schedule), ROUNDS, REPLICAS, 5
        )

    # Interleave warmups so neither side benefits from cache priming.
    reference()
    instrumented_disabled()

    reference_s = _best_of(reference)
    disabled_s = _best_of(instrumented_disabled)
    overhead_pct = 100.0 * (disabled_s - reference_s) / reference_s

    record(
        "telemetry_overhead",
        {
            "case": "batched_engine_disabled",
            "n": config.n,
            "h": config.h,
            "replicas": REPLICAS,
            "rounds": ROUNDS,
            "reference_seconds": round(reference_s, 5),
            "disabled_seconds": round(disabled_s, 5),
            "overhead_pct": round(overhead_pct, 2),
        }
    )
    print(
        f"\n  reference {reference_s * 1e3:.2f}ms, "
        f"disabled-telemetry {disabled_s * 1e3:.2f}ms, "
        f"overhead {overhead_pct:+.2f}%"
    )
    assert overhead_pct <= OVERHEAD_LIMIT_PCT, (
        f"disabled telemetry costs {overhead_pct:.2f}% on the batched-engine "
        f"microbench (limit {OVERHEAD_LIMIT_PCT}%)"
    )


def test_perf_enabled_telemetry_cost_and_neutrality():
    """Record the honest cost of *enabled* telemetry; assert RNG-neutrality.

    Enabled recording pays for the per-round opinion reductions and event
    dispatch — that cost is recorded (not gated), and the protocol
    results must remain bit-identical to the disabled run.
    """
    config = PopulationConfig(n=128, sources=SourceCounts(1, 3), h=4)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=10 * config.h)
    engine = BatchedPullEngine(population, noise)

    def run(telemetry=None):
        return engine.run(
            BatchedSourceFilter(schedule),
            max_rounds=ROUNDS,
            replicas=REPLICAS,
            rng=5,
            telemetry=telemetry,
        )

    off = run()
    on = run(telemetry=Telemetry([AggregatingSink()]))
    for a, b in zip(off, on):
        assert np.array_equal(a.final_opinions, b.final_opinions)
        assert a.rounds_executed == b.rounds_executed

    off_s = _best_of(lambda: run(), reps=3)
    on_s = _best_of(
        lambda: run(telemetry=Telemetry([AggregatingSink()])), reps=3
    )
    record(
        "telemetry_overhead",
        {
            "case": "batched_engine_enabled",
            "n": config.n,
            "h": config.h,
            "replicas": REPLICAS,
            "rounds": ROUNDS,
            "disabled_seconds": round(off_s, 5),
            "enabled_seconds": round(on_s, 5),
            "enabled_overhead_pct": round(100.0 * (on_s - off_s) / off_s, 2),
        }
    )
    print(
        f"\n  disabled {off_s * 1e3:.2f}ms, enabled {on_s * 1e3:.2f}ms "
        f"({100.0 * (on_s - off_s) / off_s:+.1f}%)"
    )
