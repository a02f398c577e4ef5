"""E15 — Monte-Carlo queueing-latency campaigns (acceptance: < 5 s).

The acceptance configuration is a seeded 10^6-client, 200-epoch, 32-replica
campaign on the *elastic* demand mix (TCP-like web/video + CBR VoIP) with a
latency-aware autoscaler: it must run end-to-end in under five seconds and
emit P50/P95/P99 path-delay distributions plus per-replica latency-vs-cost
numbers.  ``SCALE_BENCH_CLIENTS`` scales the population down for CI smoke
runs (e.g. ``SCALE_BENCH_CLIENTS=2000``); the default is the full million.
"""

import os

from repro.scale import LatencyCampaignRunner, run_latency_cost_frontier
from repro.scale.validate import cross_validate_latency

from conftest import emit

_CLIENTS = int(os.environ.get("SCALE_BENCH_CLIENTS", "1000000"))
_SEED = 81


def test_e15_campaign_end_to_end(once):
    """The acceptance target: 10^6 clients x 200 epochs x 32 replicas < 5 s."""
    runner = LatencyCampaignRunner(
        clients=_CLIENTS, epochs=200, replicas=32, seed=_SEED)
    result = once(runner.run)
    if _CLIENTS >= 1_000_000:
        # The wall-clock acceptance bound is defined for the full-scale
        # configuration; the campaign cost is dominated by epochs x
        # replicas x solver passes, so smoke populations barely shrink it
        # and the assert would be machine-luck on shared CI runners.
        assert result.duration_seconds < 5.0
    assert len(result.records) == 32
    pooled = result.distributions["latency p95 (ms)"]
    assert pooled.samples == 32 * 200
    # Latency is an upper-tail risk: the P99 row is the per-epoch P95 only
    # 1% of epochs exceed, so the percentiles are ordered upward.
    assert pooled.p50 <= pooled.p95 <= pooled.p99
    assert all(record.mean_latency_p95_seconds > 0 for record in result.records)
    emit(result.report)


def test_e15_same_seed_same_distributions(once):
    """Determinism at bench scale: rerunning the campaign changes nothing."""
    clients = min(_CLIENTS, 50_000)
    first = LatencyCampaignRunner(
        clients=clients, epochs=60, replicas=8, seed=_SEED).run()
    second = once(LatencyCampaignRunner(
        clients=clients, epochs=60, replicas=8, seed=_SEED).run)
    assert first.distributions == second.distributions


def test_e15_latency_cost_frontier(once):
    """The latency-vs-cost frontier across P95 delay targets."""
    result = once(
        run_latency_cost_frontier,
        targets_p95_seconds=(0.045, 0.055, 0.07, 0.1),
        clients=min(_CLIENTS, 200_000), epochs=96, replicas=6, seed=_SEED,
    )
    assert len(result.points) == 4
    # Looser latency targets spend fewer dollars.
    assert result.points[-1].mean_cost_usd <= result.points[0].mean_cost_usd
    emit(result.report)


def test_e15_proxy_validates_against_netsim(once):
    """The latency proxy agrees with the packet-level arm within 15%."""
    result = once(cross_validate_latency, seed=_SEED)
    assert result.within_tolerance, result.failures
    emit(result.report)
