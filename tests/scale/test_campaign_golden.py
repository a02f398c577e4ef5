"""Cross-commit identity: golden digests of every campaign's result and events.

Every other identity gate compares two runs of ONE commit (serial vs pool,
telemetry on vs off, commit vs rollback), so a refactor that changed both
sides the same way would pass them all.  These digests were captured at
commit accb6b6 — before the campaign engine was collapsed into one
lifecycle — and are committed as literals: a change to any simulated
number, any event payload or the order of any lifecycle event fails here.

The five campaign rows hash summaries; the 13 timeline rows (captured at
a790758, before ``FluidTimeline._run_epochs`` became a per-run object) pin
every ``EpochRecord`` field, the per-site matrices, the span nesting and
every counter/histogram of each catalogue scenario.

A digest that moves because the *model* changed on purpose is re-captured
with ``python tests/scale/test_campaign_golden.py``; one that moves under a
refactor is a bug in the refactor.
"""

import hashlib
import json

import pytest

from repro.scale import (
    AdversaryCampaignRunner,
    FleetScaleRunner,
    LatencyCampaignRunner,
    StochasticCampaignRunner,
    Telemetry,
    TimelineCampaignRunner,
    attach_detectors,
    build_scenario,
    canonical_result_bytes,
    scenario_names,
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


#: catalogue scenario -> (result, NDJSON, span tree, metrics, re-run result)
TIMELINE_GOLDEN = {
    "flash_crowd": (
        "b9b95fe7335dad67821f8de28204c2f7f6ce94118fad05fdf65925cf4cf31c0a",
        "5efaccec8cdd78cbc793d8d7d2bd3bd2b3060eec882edca6166e7986400d3c1f",
        "1424fba3b32ac1405cf73c5061bab9cae6feabe51a0e560fa7ca454dbde71a3d",
        "ebdbed6daccda9688fc6c17888bceb800ed0e6891ece7b7733df54dc7e920409",
        "b9b95fe7335dad67821f8de28204c2f7f6ce94118fad05fdf65925cf4cf31c0a",
    ),
    "regional_outage": (
        "e88136598195a267bca70b072f14aaf73bd4d26cbfc64735482d18060d61edd6",
        "719eb414f22f24b0bc4e476147855a60eb718adc87d70d895112c9b80a455df3",
        "931325d18b6447a00d290187cc21a18ce76930bab1d48a0e5836017a310bba04",
        "d29b7c019fdf7d4be362acb88d6c030359bc000436ed5edf257a6108219c7edd",
        "e88136598195a267bca70b072f14aaf73bd4d26cbfc64735482d18060d61edd6",
    ),
    "diurnal_week": (
        "f0c2d2f7777a83382e68c09cde6c68fd32ac7d9b41dee6f30c5944f824195d6f",
        "169069b9bae76dd820bc72b4838e946bc7074c3026f57573581c9c7b10cac2d6",
        "84d4ed1bd1fe7c92bfbc12989d73ce6e74781c8533a2abf90e85e4655148c500",
        "1de7d7ef83da913eb4a7d7d970319e593d8b83fefd4d47beeb8664453d94135e",
        "f0c2d2f7777a83382e68c09cde6c68fd32ac7d9b41dee6f30c5944f824195d6f",
    ),
    "heterogeneous_fleet": (
        "623aace1bba44254e5ef66e56835578f96bbfb75da94173d11119e45fbdaa0fe",
        "d575728d1114ac65e336659a835daf96ca4680dee720891f62c62cdf12387751",
        "0adc341ef50c6d6dea5a6bf9975d2462ee6766c2d6942abe081a3536c7241154",
        "bed4dee9763bd05331a27faec486e019cd654925e9e3c5a887788f56182e1722",
        "623aace1bba44254e5ef66e56835578f96bbfb75da94173d11119e45fbdaa0fe",
    ),
    "cascading_overload": (
        "c0bb44102b63ed8d2dfcad8206f3d69440e72a542363c5514871d491c2aad251",
        "363ed4188c27bdbadb13490c92ad02d7ea8a81870e472e80a436b173eaa983d0",
        "ed5118b413dd556223ee5ccb96cc24929620c6944ed80faab0f0c6a6a33b7141",
        "0c37c908d386bba5a3c43bdd32e1582637bc636a6dacc7ee5398a11f1d169f23",
        "c0bb44102b63ed8d2dfcad8206f3d69440e72a542363c5514871d491c2aad251",
    ),
    "discrimination_rollout": (
        "5a7f41972fd358704b3fc7265756304e386266ecc900d8454871348164dd3360",
        "0fc237448825e86df9776b5df1f95e9219537bf3222ec7bf8ca4b974471af594",
        "7e8fe0254b3cf1aa7ed09bba7b3a4168366dcc530b0403e36c7f0cf230654cb6",
        "d9bf08f2abf94ec8b30f5fd8bcaf027b6c84d435c357ee8f99195148edf39a0d",
        "5a7f41972fd358704b3fc7265756304e386266ecc900d8454871348164dd3360",
    ),
    "autoscaled_diurnal": (
        "fd114a7c1f443b84d38dbfad53f1db3b901322ae77cd81693f0ddcd35e223ed1",
        "8542ab2f5d2febb64482c2cb20e1814786e254d70894da8d0a3b5d93d12dc571",
        "41a865a3944a9b53d3cb15eae2f17d0a5ca3d6ae5b6dd966e7290bd7128ecf6d",
        "0a84c3c53f214286cacd8ac0c238a9a6b7d8b0c35dd3e5684c02b784e4502808",
        "fd114a7c1f443b84d38dbfad53f1db3b901322ae77cd81693f0ddcd35e223ed1",
    ),
    "stochastic_unreliable": (
        "7303a1e2f3f6bc5e00cd15d87a07464ef8f4302db22f02a192d8912d0a1f162a",
        "f3b38a9cfe7834d31bdc62ebefc9b98c55dad1b0faa8e32dbad1a4afc231dbaa",
        "ed888878d0986042ae191f577b12127e5640ae3718a164b0d6fa079cf734203d",
        "b5bd4a9416c883cb5d8a9468766d3c50ab7a1853a900602412699a97d11e307d",
        "7303a1e2f3f6bc5e00cd15d87a07464ef8f4302db22f02a192d8912d0a1f162a",
    ),
    "elastic_web_mix": (
        "c2cb90207732174881722b2e4c3be50269cc9254215ffbab496dc81048586290",
        "a9d462e21f0930a22763ae958f838b6c50c99da6aaa44ed46451bebade84b13b",
        "5d8be7af630dd231e3a4abaeb7e1b972cdb7ca3e3c385e3c0539bad28b1759b1",
        "af4264ad1de51b6251666c953bb198e5421827b0953eb503454c009a6510b086",
        "c2cb90207732174881722b2e4c3be50269cc9254215ffbab496dc81048586290",
    ),
    "latency_slo_autoscaled": (
        "43bd9d3f920c286048b5a5d75ff1610074131fc0613b5c44b969110141526b12",
        "1d0438c395c863d8dfe1c46f230237d5df1d752726ef2f0b2b81ecf3a05ecc85",
        "5d97d4173a24f4309f934d8f5d4df5cd3e93101a0d9e2c118d7be38668631d95",
        "82604e2cdacf9a0c61b93ae8dd5575e7a8759ee42edacc59fc4425716e563959",
        "43bd9d3f920c286048b5a5d75ff1610074131fc0613b5c44b969110141526b12",
    ),
    "adaptive_throttler": (
        "6c1fad587a145aab56d45dba8d326c559c5d1c0a3f7b834a0affd08cbd55ed7d",
        "c496b35b785de9550960d5c4bd8f356dc371d983b9f4aa976d8f389999331b67",
        "26cab65eae965b2a8e62e61df9bc5a602b8f1b056369080007419fc2ff4cf0a5",
        "42fe690acecc226f23af180927d244dbd77d396059639fc99012d1babfafbba3",
        "6c1fad587a145aab56d45dba8d326c559c5d1c0a3f7b834a0affd08cbd55ed7d",
    ),
    "neutralizer_arms_race": (
        "2c193b5e9a505cddf44a37c7219d9ee60f79c5fa0c84457c6d7533d96d6021ac",
        "87c71e2fce293ba853bf5aa89a61bcf8f44619a8d6adcf31a0fb76e1805c951c",
        "06fe3402f5a6c418201ccc0ec2028a02af82729d6a1ff416acd7f51782a7f0bb",
        "8288c80f6ecd7791535eda0ee1b300b08d5406cc51420427ca87988ad375de59",
        "2c193b5e9a505cddf44a37c7219d9ee60f79c5fa0c84457c6d7533d96d6021ac",
    ),
    "targeted_class_slo": (
        "a5659c6ffa9941deaed9c4606edf25c6ecac981fccea37ef900989567acb91cc",
        "61c44604c87a2200306bdeb883f78297191fc4e536008eec8fa288ebd825187a",
        "dcf899c92bf6a5b2f883e52cf8b1daf0c3bff4293ae8cc48750de4090762880e",
        "372c9f863332f9bf257c168cdda904bbb9cd96b10c6d80bd6dfcd36aeab6d7a3",
        "a5659c6ffa9941deaed9c4606edf25c6ecac981fccea37ef900989567acb91cc",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timeline_digests(name):
    """One traced, observed run of a catalogue timeline, then a second run().

    The span tree is hashed as ``(id, parent, name, sorted attrs)`` — nesting
    and attributes, never durations; the re-run digest proves the per-run
    state really is per run.
    """
    telemetry = Telemetry(trace=True, events=True)
    attach_detectors(telemetry.events)
    timeline = build_scenario(name, clients=CLIENTS, seed=7,
                              telemetry=telemetry)
    result = timeline.run()
    first = (
        hashlib.sha256(canonical_result_bytes(result)).hexdigest(),
        _sha(telemetry.events.to_ndjson()),
        _sha(json.dumps([(span.id, span.parent, span.name,
                          sorted((span.attrs or {}).items()))
                         for span in telemetry.tracer.spans])),
        _sha(json.dumps(telemetry.metrics.as_dict(), sort_keys=True)),
    )
    rerun = hashlib.sha256(canonical_result_bytes(timeline.run())).hexdigest()
    return first + (rerun,)


def test_timeline_rows_cover_the_whole_catalogue():
    assert sorted(TIMELINE_GOLDEN) == sorted(scenario_names())


@pytest.mark.parametrize("name", sorted(TIMELINE_GOLDEN))
def test_catalogue_timeline_matches_the_committed_digests(name):
    assert timeline_digests(name) == TIMELINE_GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        print(name, *digests(GOLDEN[name][0]))
    for name in scenario_names():
        print(f'    "{name}": (')
        for digest in timeline_digests(name):
            print(f'        "{digest}",')
        print("    ),")
