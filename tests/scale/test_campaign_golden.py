"""Cross-commit identity: golden digests of every campaign's result and events.

Every other identity gate compares two runs of ONE commit (serial vs pool,
telemetry on vs off, commit vs rollback), so a refactor that changed both
sides the same way would pass them all.  These digests were captured at
commit accb6b6 — before the campaign engine was collapsed into one
lifecycle — and are committed as literals: a change to any simulated
number, any event payload or the order of any lifecycle event fails here.

A digest that moves because the *model* changed on purpose is re-captured
with ``python tests/scale/test_campaign_golden.py``; one that moves under a
refactor is a bug in the refactor.
"""

import hashlib

import pytest

from repro.scale import (
    AdversaryCampaignRunner,
    FleetScaleRunner,
    LatencyCampaignRunner,
    StochasticCampaignRunner,
    Telemetry,
    TimelineCampaignRunner,
    attach_detectors,
    canonical_result_bytes,
)

CLIENTS = 2000


def make_e12(telemetry):
    return FleetScaleRunner(client_counts=(500, CLIENTS), n_sites=4,
                            regions=4, seed=12, telemetry=telemetry)


def make_e13(telemetry):
    return TimelineCampaignRunner(
        scenarios=("flash_crowd", "regional_outage"), clients=CLIENTS,
        seed=13, telemetry=telemetry)


def make_e14(telemetry):
    return StochasticCampaignRunner(
        clients=CLIENTS, nominal_sites=4, max_sites=6, epochs=12, replicas=4,
        seed=14, variance_reduction="antithetic", telemetry=telemetry)


def make_e15(telemetry):
    return LatencyCampaignRunner(
        clients=CLIENTS, nominal_sites=4, max_sites=6, epochs=10, replicas=3,
        seed=15, telemetry=telemetry)


def make_e16(telemetry):
    return AdversaryCampaignRunner(
        clients=CLIENTS, n_sites=4, epochs=10, replicas_per_point=2,
        aggressiveness=(0.3, 0.8), sensitivities=(2.0, 12.0), seed=16,
        variance_reduction="stratified", telemetry=telemetry)


#: experiment -> (factory, result sha256, event-stream sha256)
GOLDEN = {
    "E12": (make_e12,
            "d3ad1cbf491ca35960a225d73789eed63300c4247e94879ffa6f26dec63ff120",
            "93df694f25937695f40a193126d7e969e028388b947dabb455f9bceb26fdea9c"),
    "E13": (make_e13,
            "99c526ee42b90e4b51bfe971384625a3e20a1595c595f270e5b2340e966683e5",
            "8f9c2e17d3e8431bebdcf5a8afddfeb432626458bd3ce72b0e62c2250bb75a4c"),
    "E14": (make_e14,
            "f585e6603278a90ef2e9cee7f33f3ecf282d640378faba01d19b9499443d7a6f",
            "c90ab96eb634be8717bc2f4b1676b838b68d98db459e3e7185c8fbe4abde4e98"),
    "E15": (make_e15,
            "351a0c81c52a815d6421db566e6127cd86c279bfd3a9b38d6663317050dc3031",
            "acfd4764e221f19c9a0643e32c7381859f829b0f565dd75171d7f6f998dcd6eb"),
    "E16": (make_e16,
            "41b01a4a54363df6a1ff2a414f6038557ce848ce3e988c7721f78a471e019e52",
            "a8bb913345b8ff9a7dacb9e1dbe59726158c1e3ac2c6b30f115c80bf6b491d22"),
}


def digests(factory):
    """(result sha256, NDJSON sha256) of one serial ``run()``, detectors on."""
    telemetry = Telemetry(trace=False, events=True)
    attach_detectors(telemetry.events)
    result = factory(telemetry).run()
    return (
        hashlib.sha256(canonical_result_bytes(result)).hexdigest(),
        hashlib.sha256(telemetry.events.to_ndjson().encode("utf-8")).hexdigest(),
    )


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_result_and_event_stream_match_the_committed_digests(experiment):
    factory, result_sha, events_sha = GOLDEN[experiment]
    assert digests(factory) == (result_sha, events_sha)


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        print(name, *digests(GOLDEN[name][0]))
