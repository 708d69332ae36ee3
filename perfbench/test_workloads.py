"""Checks of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import harness

harness.use_checkout_sources()

import workload_service as service  # noqa: E402  (needs the sources path)

#: A cheap pool with the workload's shape: seeded keys, unseeded runs,
#: a trials>1 configuration.
SMALL_POOL = (
    ("count", "sf", 1000, 1),
    ("fast", "sf", 256, 1),
    ("fast", "sf", 128, 2),
)


def _signature(streams):
    return [[(r.config, r.seed, r.client) for r in stream] for stream in streams]


def test_same_seed_gives_the_same_stream_and_another_seed_does_not():
    first = service.request_streams(3, passes=4)
    again = service.request_streams(3, passes=4)
    other = service.request_streams(4, passes=4)
    assert _signature(first) == _signature(again)
    assert _signature(first) != _signature(other)
    for stream in first:
        assert len(stream) == len(service.POOL) * (
            sum(service.MULTIPLICITY) + service.UNSEEDED)


def test_same_seed_gives_the_same_cache_hits_and_misses():
    streams = service.request_streams(5, passes=2, pool=SMALL_POOL)
    expected = service.expected_cache_counts(streams, [2] * service.CLIENTS)
    observed = []
    with harness.work_directory() as work:
        for attempt in range(2):
            with service._serve(work, f"cache{attempt}") as server:
                driver = service.Driver(server.url, streams, pool=SMALL_POOL)
                driver.drive(passes=[2] * service.CLIENTS)
                stats = server.service.cache.stats()
            outcome = harness.Outcome()
            service.check_records(outcome, service.Checker(SMALL_POOL), driver)
            assert outcome.failed == 0, outcome.failures
            observed.append({k: stats[k] for k in expected})
    assert observed == [expected, expected]
    assert expected["hits"] > 0 and expected["misses"] > 0


def test_patched_attributes_are_restored():
    class Owner:
        def method(self):
            return 1

    class Child(Owner):
        pass

    tracer = harness.Tracer()
    original = vars(Owner)["method"]
    with harness.patched([(Child, "method", harness.traced(tracer, "m"))]):
        assert Child().method() == 1
    assert "method" not in vars(Child)
    assert vars(Owner)["method"] is original
    assert tracer.calls["m"] == 1
