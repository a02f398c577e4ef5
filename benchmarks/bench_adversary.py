"""E16 — adversary arms-race campaigns (acceptance: < 5 s).

The acceptance configuration is a seeded 10^6-client, 200-epoch campaign
sweeping ISP aggressiveness × adoption sensitivity over 32 Monte-Carlo
replicas total: it must run end-to-end in under five seconds, be
bit-deterministic from its seed, and its frontier must exhibit the
self-defeating-discrimination regime (escalation losing to cheap
adoption).  ``SCALE_BENCH_CLIENTS`` scales the population down for CI
smoke runs (e.g. ``SCALE_BENCH_CLIENTS=2000``); the default is the full
million.
"""

import os

from repro.scale import AdversaryCampaignRunner, cross_validate_adversary
from repro.scale.runner import compare_variance_reduction

from conftest import emit

_CLIENTS = int(os.environ.get("SCALE_BENCH_CLIENTS", "1000000"))
_SEED = 81


def test_e16_campaign_end_to_end(once):
    """The acceptance target: 10^6 clients x 200 epochs x 32 replicas < 5 s."""
    runner = AdversaryCampaignRunner(clients=_CLIENTS, epochs=200, seed=_SEED)
    assert runner.total_replicas == 32
    result = once(runner.run)
    if _CLIENTS >= 1_000_000:
        # The wall-clock bound is defined for the full-scale configuration;
        # smoke populations barely shrink the epoch x replica cost and the
        # assert would be machine-luck on shared CI runners.
        assert result.duration_seconds < 5.0
    assert len(result.points) == 8
    # The headline claim: at the cheap-adoption end, escalation backfires.
    defeated = result.self_defeating_points()
    assert defeated, "the frontier must show the self-defeating regime"
    assert all(point.sensitivity == max(runner.sensitivities)
               for point in defeated)
    # And the mechanism is visible: adoption saturates while the
    # discriminated share collapses toward the leakage floor.
    frontier = result.frontier(max(runner.sensitivities))
    assert frontier[-1].final_adoption > frontier[0].final_adoption
    emit(result.report)


def test_e16_same_seed_same_frontier(once):
    """Determinism at bench scale: rerunning the campaign changes nothing."""
    clients = min(_CLIENTS, 50_000)
    first = AdversaryCampaignRunner(
        clients=clients, epochs=60, replicas_per_point=2, seed=_SEED).run()
    second = once(AdversaryCampaignRunner(
        clients=clients, epochs=60, replicas_per_point=2, seed=_SEED).run)
    assert first.points == second.points


def test_e16_adversary_validates_against_discrimination_path(once):
    """The fluid adversary epoch agrees with the packet-level rules (10%)."""
    result = once(cross_validate_adversary, seed=_SEED)
    assert result.within_tolerance, result.failures
    emit(result.report)


def test_e16_variance_reduction_is_measured(once):
    """The satellite: stratified/antithetic estimator spread is measured."""
    result = once(
        compare_variance_reduction,
        clients=min(_CLIENTS, 20_000), epochs=40, replicas=8, batches=4,
        seed=_SEED, max_sites=12, nominal_sites=10,
    )
    assert set(result.mean_estimator_std) == {"iid", "stratified", "antithetic"}
    emit(result.report)
