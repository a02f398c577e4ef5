"""E14 — Monte-Carlo stochastic availability campaigns (acceptance: < 5 s).

The acceptance configuration is a seeded 10^6-client, 200-epoch, 32-replica
campaign with a target-utilization autoscaler: it must run end-to-end in
under five seconds and emit P50/P95/P99 availability plus per-replica
churn-vs-SLO numbers.  ``SCALE_BENCH_CLIENTS`` scales the population down
for CI smoke runs (e.g. ``SCALE_BENCH_CLIENTS=2000``); the default is the
full million.
"""

import os

from repro.analysis.experiments import run_stochastic_campaign
from repro.scale import StochasticCampaignRunner, run_churn_slo_frontier

from conftest import emit

_CLIENTS = int(os.environ.get("SCALE_BENCH_CLIENTS", "1000000"))
_SEED = 81


def test_e14_campaign_end_to_end(once):
    """The acceptance target: 10^6 clients x 200 epochs x 32 replicas < 5 s."""
    runner = StochasticCampaignRunner(
        clients=_CLIENTS, epochs=200, replicas=32, seed=_SEED)
    result = once(runner.run)
    assert result.duration_seconds < 5.0
    assert len(result.records) == 32
    availability = result.availability
    assert availability.samples == 32 * 200
    # Low-tail semantics: the P99 is the availability 99% of epochs exceed.
    assert availability.p50 >= availability.p95 >= availability.p99
    assert len(result.churn_slo_points()) == 32
    emit(result.report)


def test_e14_same_seed_same_distributions(once):
    """Determinism at bench scale: rerunning the campaign changes nothing."""
    clients = min(_CLIENTS, 50_000)
    first = StochasticCampaignRunner(
        clients=clients, epochs=60, replicas=8, seed=_SEED).run()
    second = once(StochasticCampaignRunner(
        clients=clients, epochs=60, replicas=8, seed=_SEED).run)
    assert first.distributions == second.distributions


def test_e14_frontier(once):
    """The churn-vs-SLO frontier across autoscaler utilization targets."""
    result = once(
        run_churn_slo_frontier,
        targets=(0.45, 0.6, 0.75, 0.9),
        clients=min(_CLIENTS, 200_000), epochs=96, replicas=6, seed=_SEED,
    )
    assert len(result.points) == 4
    # Hotter operating points spend fewer dollars.
    assert result.points[-1].mean_cost_usd < result.points[0].mean_cost_usd
    emit(result.report)


def test_e14_report(once):
    """Regenerate the E14 wrapper report (the rows EXPERIMENTS.md quotes)."""
    result = once(
        run_stochastic_campaign,
        clients=min(_CLIENTS, 100_000), epochs=100, replicas=16, seed=_SEED,
    )
    assert result.distributions_ordered
    rendered = result.report.render()
    assert "E14" in rendered and "availability" in rendered
