"""Ablation benches for the design choices DESIGN.md calls out.

1. **Distance-based baseline** (reviewed in the paper, simulated in [15]):
   sits between flooding and the location scheme.
2. **Oracle vs HELLO-derived neighbor counts** for the adaptive counter:
   quantifies what stale neighbor knowledge costs.
3. **Mobility-model robustness**: the AC conclusions survive swapping the
   paper's random-direction model for random waypoint.
4. **Scheme-level jitter**: removing the S2 random delay (0..31 slots)
   degrades the counter scheme's collision profile.
"""

import pytest

from conftest import run_once
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation


def _config(**kwargs):
    defaults = dict(num_broadcasts=30, seed=1)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def test_distance_baseline_between_flood_and_suppression(benchmark):
    def run():
        return {
            name: run_broadcast_simulation(
                _config(scheme=name, scheme_params=params, map_units=3)
            )
            for name, params in [
                ("flooding", {}),
                ("distance", {"threshold": 125.0}),
                ("counter", {"threshold": 2}),
            ]
        }

    results = run_once(benchmark, run)
    print()
    for name, result in results.items():
        print(f"  {result.summary()}")
    # Distance saves something, but less than the aggressive counter.
    assert results["flooding"].srb == 0.0
    assert 0.05 < results["distance"].srb < results["counter"].srb
    assert results["distance"].re > 0.95


def test_oracle_vs_hello_neighbor_counts(benchmark):
    def run():
        hello = run_broadcast_simulation(
            _config(scheme="adaptive-counter", map_units=9)
        )
        oracle = run_broadcast_simulation(
            _config(scheme="adaptive-counter", map_units=9,
                    oracle_neighbors=True)
        )
        return hello, oracle

    hello, oracle = run_once(benchmark, run)
    print()
    print(f"  hello-derived n: {hello.summary()}")
    print(f"  oracle n:        {oracle.summary()}")
    # Oracle knowledge should not be (much) worse; both keep RE high.
    assert oracle.re > 0.9
    assert hello.re > 0.85
    assert oracle.re >= hello.re - 0.05


def test_nc_oracle_knowledge_ablation(benchmark):
    """How much of NC's sparse-map RE loss is neighbor-knowledge staleness?

    Replaces the HELLO-built one/two-hop tables with the channel's
    geometric truth.  The oracle recovers several points of RE; the rest is
    intrinsic to NC's assumption that a heard transmission reached the
    sender's whole neighborhood (hidden-terminal collisions violate it).
    """
    from repro.net.host import HelloConfig

    def run():
        dhi = HelloConfig(dynamic=True)
        hello = run_broadcast_simulation(
            _config(scheme="neighbor-coverage", map_units=9, hello=dhi)
        )
        oracle = run_broadcast_simulation(
            _config(scheme="neighbor-coverage",
                    scheme_params={"oracle": True}, map_units=9, hello=dhi)
        )
        return hello, oracle

    hello, oracle = run_once(benchmark, run)
    print()
    print(f"  hello-built tables: {hello.summary()}")
    print(f"  oracle tables:      {oracle.summary()}")
    assert oracle.re >= hello.re - 0.02  # oracle should not be worse
    assert oracle.re > 0.85


def test_adaptive_counter_robust_to_mobility_model(benchmark):
    def run():
        return {
            model: run_broadcast_simulation(
                _config(scheme="adaptive-counter", map_units=9, mobility=model)
            )
            for model in ("random-direction", "random-waypoint")
        }

    results = run_once(benchmark, run)
    print()
    for model, result in results.items():
        print(f"  {model}: {result.summary()}")
    for model, result in results.items():
        assert result.re > 0.85, model


def test_capture_effect_softens_the_storm(benchmark):
    """How much of flooding's collision damage comes from the no-capture
    assumption?  Enabling SIR-based capture lets the strongest frame of an
    overlap survive; corrupted receptions drop and RE recovers on the
    dense map where flooding collides hardest."""
    from repro.phy.capture import CaptureModel

    def run():
        base = run_broadcast_simulation(
            _config(scheme="flooding", map_units=1, num_broadcasts=20)
        )
        captured = run_broadcast_simulation(
            _config(scheme="flooding", map_units=1, num_broadcasts=20,
                    capture=CaptureModel(threshold_db=10.0))
        )
        return base, captured

    base, captured = run_once(benchmark, run)
    print()
    print(f"  no capture:   {base.summary()} "
          f"collisions={base.channel_stats.collisions}")
    print(f"  capture 10dB: {captured.summary()} "
          f"collisions={captured.channel_stats.collisions}")
    assert captured.channel_stats.collisions < base.channel_stats.collisions
    assert captured.re >= base.re - 0.02


def test_scheme_jitter_reduces_collisions(benchmark):
    """Disable the S2 random assessment delay and watch collisions rise."""
    from repro.schemes.counter import CounterScheme

    class NoJitterCounter(CounterScheme):
        jitter_slots = 0

    def run():
        import repro.schemes as schemes

        baseline = run_broadcast_simulation(
            _config(scheme="counter", scheme_params={"threshold": 3},
                    map_units=1, num_broadcasts=20)
        )
        # Swap the registry entry for the no-jitter variant.
        original = schemes.SCHEME_REGISTRY["counter"]
        schemes.SCHEME_REGISTRY["counter"] = original.with_factory(
            NoJitterCounter
        )
        try:
            nojitter = run_broadcast_simulation(
                _config(scheme="counter", scheme_params={"threshold": 3},
                        map_units=1, num_broadcasts=20)
            )
        finally:
            schemes.SCHEME_REGISTRY["counter"] = original
        return baseline, nojitter

    baseline, nojitter = run_once(benchmark, run)
    print()
    print(f"  with jitter:    {baseline.summary()} "
          f"collisions={baseline.channel_stats.collisions}")
    print(f"  without jitter: {nojitter.summary()} "
          f"collisions={nojitter.channel_stats.collisions}")
    # Removing the random assessment delay concentrates rebroadcasts:
    # more corrupted receptions per transmission.
    base_rate = baseline.channel_stats.collisions / max(
        baseline.channel_stats.transmissions, 1
    )
    nj_rate = nojitter.channel_stats.collisions / max(
        nojitter.channel_stats.transmissions, 1
    )
    assert nj_rate > base_rate * 0.8  # at least comparable; usually higher
