"""E12 — fleet-scale fluid solve (acceptance: 10^6 clients, 16 sites, < 30 s).

``SCALE_BENCH_CLIENTS`` scales the headline population down for CI smoke
runs (e.g. ``SCALE_BENCH_CLIENTS=2000``); the default is the full million.
"""

import os

from repro.analysis.experiments import run_fleet_scale
from repro.scale import (
    ClientPopulation,
    FleetScaleRunner,
    NeutralizerFleet,
)

from conftest import emit

_CLIENTS = int(os.environ.get("SCALE_BENCH_CLIENTS", "1000000"))
_SEED = 81


def test_e12_population_build(benchmark):
    """Vectorized population materialization (class/region/ring arrays)."""
    benchmark(lambda: ClientPopulation(_CLIENTS, seed=_SEED))


def test_e12_fleet_assignment(benchmark):
    """Consistent-hash assignment of the whole population to 16 sites."""
    population = ClientPopulation(_CLIENTS, seed=_SEED)
    fleet = NeutralizerFleet.build(16)
    benchmark(lambda: fleet.assign_sites(population.ring_positions))


def test_e12_million_client_solve(once):
    """The acceptance target: a full solve of the headline population."""
    runner = FleetScaleRunner(client_counts=(_CLIENTS,), n_sites=16, seed=_SEED)
    result = once(runner.run)
    assert result.largest_point.clients == _CLIENTS
    assert result.largest_point.delivered_fraction > 0.0


def test_e12_report(once):
    """Regenerate the E12 sweep + cross-validation tables."""
    counts = tuple(sorted({max(100, _CLIENTS // 100), max(100, _CLIENTS // 10), _CLIENTS}))
    result = once(run_fleet_scale, counts, seed=_SEED, validate=True)
    emit(result.report)
    assert result.validated
    assert result.sweep.largest_point.clients == _CLIENTS
    assert result.sweep.largest_point.wall_seconds < 30.0
