"""Cross-commit identity: golden digests of every campaign's result and events.

Every other identity gate compares two runs of ONE commit (serial vs pool,
telemetry on vs off, commit vs rollback), so a refactor that changed both
sides the same way would pass them all.  These digests were captured at
commit accb6b6 — before the campaign engine was collapsed into one
lifecycle — and are committed as literals: a change to any simulated
number, any event payload or the order of any lifecycle event fails here.

The campaign rows hash summaries (``E15_congested``, captured at 26851ee,
is the one row whose fleet runs full enough to reach the alpha-fair dual;
it and ``elastic_web_mix`` were re-captured when the dual's Rprop loop
became a projected Newton solve, which moves their floats below 1.5e-3
relative, and again when the timeline stopped seeding the dual with the
previous epoch's prices, which moves them below 6e-8 relative);
the 13 timeline rows (captured at
a790758, before ``FluidTimeline._run_epochs`` became a per-run object) pin
every ``EpochRecord`` field, the per-site matrices, the span nesting and
every counter/histogram of each catalogue scenario; the three sweep rows
pin the two frontiers and the variance-reduction comparison.  The
rest-breaker row (captured at a650bf2) pins an adversary timeline whose game
rests between disturbances — a throttle window, a degradation window, a site
failure and recovery, a load step and an adoption retune — so every cache a
resting epoch leans on is seen to break when its inputs move.  The legacy
builder rows pin each catalogue document's build against the python builder
it replaced, and the rest-path test runs the timelines again with resting
epochs made impossible: resting is a shortcut, never a different answer.

A digest that moves because the *model* changed on purpose is re-captured
with ``python tests/scale/test_campaign_golden.py``; one that moves under a
refactor is a bug in the refactor.
"""

import dataclasses
import hashlib
import json
from functools import partial

import pytest

import repro.scale.timeline as timeline_module
from repro.scale import (
    AdoptionModel,
    AdversaryCampaignRunner,
    AdversaryGame,
    CapacityDegradation,
    ClientPopulation,
    DiscriminationToggle,
    FlashCrowdLoad,
    FleetScaleRunner,
    FluidTimeline,
    IspStrategy,
    LatencyCampaignRunner,
    LatencyModel,
    ReconfigEvent,
    SiteFailure,
    SiteRecovery,
    StochasticCampaignRunner,
    Telemetry,
    TimelineCampaignRunner,
    attach_detectors,
    build_scenario,
    canonical_result_bytes,
    compare_variance_reduction,
    provisioned_fleet,
    run_churn_slo_frontier,
    run_latency_cost_frontier,
    scenario_names,
)
from repro.scale.catalogue import CATALOGUE
from repro.scale.timeline import _TimelineRun

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


def make_e15_congested(telemetry):
    """E15 with the fleet sized to run full, so the alpha-fair dual runs."""
    return LatencyCampaignRunner(
        clients=CLIENTS, nominal_sites=4, max_sites=6, epochs=20, replicas=3,
        at_utilization=1.0, seed=15, telemetry=telemetry)


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
    "E15_congested": (
        make_e15_congested,
        "4d23678a9ec27a8fb2af587e22ac57195e370d79e932df3575fc7192699dd48c",
        "1f992d5f2da838d5e3b4481c1625ab4d53a8c8c243da5638546f9124e9535677"),
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


def test_the_congested_e15_row_reaches_the_elastic_dual():
    telemetry = Telemetry(trace=False, events=False)
    make_e15_congested(telemetry).run()
    assert telemetry.metrics.counter_value("solver.alpha_fair_iterations") > 0


def sweep_churn_slo():
    return run_churn_slo_frontier(
        targets=(0.5, 0.8), clients=CLIENTS, nominal_sites=4, max_sites=6,
        epochs=12, replicas=3, seed=14)


def sweep_latency_cost():
    return run_latency_cost_frontier(
        targets_p95_seconds=(0.02, 0.05), clients=CLIENTS, nominal_sites=4,
        max_sites=6, epochs=10, replicas=2, seed=15)


def sweep_variance():
    return compare_variance_reduction(
        clients=CLIENTS, nominal_sites=4, max_sites=6, epochs=10, replicas=4,
        batches=2, seed=14)


#: sweep -> (factory, result sha256); captured at 47beb44, before the
#: runners' uncalled parameters became constants.
SWEEP_GOLDEN = {
    "churn_slo_frontier": (
        sweep_churn_slo,
        "d4e620206076edf4c80aa67417f3787257ad3831a1fe447e2000d111ff3726f6"),
    "latency_cost_frontier": (
        sweep_latency_cost,
        "ed23d85c28631039a06079665650f660189ced9eef8301d7675be1c02cd4a73a"),
    "variance_reduction": (
        sweep_variance,
        "6ab3c8b5b1decc9b4b779931ce5332d1f3c199f1d12bf837cd18b2fdab147667"),
}


def sweep_digest(factory):
    return hashlib.sha256(canonical_result_bytes(factory())).hexdigest()


@pytest.mark.parametrize("sweep", sorted(SWEEP_GOLDEN))
def test_sweep_result_matches_the_committed_digest(sweep):
    factory, result_sha = SWEEP_GOLDEN[sweep]
    assert sweep_digest(factory) == result_sha


#: catalogue scenario -> (result, NDJSON, span tree, metrics, re-run result)
TIMELINE_GOLDEN = {
    "flash_crowd": (
        "b9b95fe7335dad67821f8de28204c2f7f6ce94118fad05fdf65925cf4cf31c0a",
        "5efaccec8cdd78cbc793d8d7d2bd3bd2b3060eec882edca6166e7986400d3c1f",
        "0343f2ef2683d1e156214bd237f91c76e2353869da291900bace98b367c95ee6",
        "d02194e73ef5d8edde40a5f8565be6b646d326bb5f8e26c22948dc961320f910",
        "b9b95fe7335dad67821f8de28204c2f7f6ce94118fad05fdf65925cf4cf31c0a",
    ),
    "regional_outage": (
        "e88136598195a267bca70b072f14aaf73bd4d26cbfc64735482d18060d61edd6",
        "719eb414f22f24b0bc4e476147855a60eb718adc87d70d895112c9b80a455df3",
        "ae790a3211e1ccc6abb346c184ddf5addf47c48725134e43e05856e361bb7f79",
        "9af2f898347fae54fcd515bf968533c1f85e9213b68a5841a13a61f199e21151",
        "e88136598195a267bca70b072f14aaf73bd4d26cbfc64735482d18060d61edd6",
    ),
    "diurnal_week": (
        "f0c2d2f7777a83382e68c09cde6c68fd32ac7d9b41dee6f30c5944f824195d6f",
        "169069b9bae76dd820bc72b4838e946bc7074c3026f57573581c9c7b10cac2d6",
        "84d4ed1bd1fe7c92bfbc12989d73ce6e74781c8533a2abf90e85e4655148c500",
        "ff63db0e3e5e32131987f09ef06fa7327d918f0f73dd1e65145739700af95386",
        "f0c2d2f7777a83382e68c09cde6c68fd32ac7d9b41dee6f30c5944f824195d6f",
    ),
    "heterogeneous_fleet": (
        "623aace1bba44254e5ef66e56835578f96bbfb75da94173d11119e45fbdaa0fe",
        "d575728d1114ac65e336659a835daf96ca4680dee720891f62c62cdf12387751",
        "0adc341ef50c6d6dea5a6bf9975d2462ee6766c2d6942abe081a3536c7241154",
        "304483c403ec263972bd721cbf7acd42bbc6a2c08146ef9420e255b69ac9b865",
        "623aace1bba44254e5ef66e56835578f96bbfb75da94173d11119e45fbdaa0fe",
    ),
    "cascading_overload": (
        "c0bb44102b63ed8d2dfcad8206f3d69440e72a542363c5514871d491c2aad251",
        "363ed4188c27bdbadb13490c92ad02d7ea8a81870e472e80a436b173eaa983d0",
        "ed5118b413dd556223ee5ccb96cc24929620c6944ed80faab0f0c6a6a33b7141",
        "e09974b0a275d2ac446a1d426ef5655cd183d4fb63ae9e70d0327015dbce8e70",
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
        "0c220911fa66b4076160a4cc4b80839b6834d763225725a4ba619ac4e09f26ac",
        "6f0fabe44ae1342f7d05e44dac559d6919e6f69f59c76e9610003accc890e94a",
        "7303a1e2f3f6bc5e00cd15d87a07464ef8f4302db22f02a192d8912d0a1f162a",
    ),
    "elastic_web_mix": (
        "a51ae2b0a8c6478acf73291dcbf96a21728ee1ac64fe0519f98d129658ece411",
        "348241e2c0717461a6a76f52024a9f92834cb87b12cd70d0af67656e50c719c3",
        "57a1ba575f2bf2c72c3e592723efd572355aefc1a6398ab312acef2a147d55ca",
        "4d30677d96c845f9be15ad322c5e273b3d8239cf30ef97f3632ec116f3feb6c9",
        "a51ae2b0a8c6478acf73291dcbf96a21728ee1ac64fe0519f98d129658ece411",
    ),
    "latency_slo_autoscaled": (
        "43bd9d3f920c286048b5a5d75ff1610074131fc0613b5c44b969110141526b12",
        "1d0438c395c863d8dfe1c46f230237d5df1d752726ef2f0b2b81ecf3a05ecc85",
        "5d97d4173a24f4309f934d8f5d4df5cd3e93101a0d9e2c118d7be38668631d95",
        "6df4998c70b1a3df314af7590e8b1d0e576d2d31b9ad416ff4f27f5dde745bd0",
        "43bd9d3f920c286048b5a5d75ff1610074131fc0613b5c44b969110141526b12",
    ),
    "adaptive_throttler": (
        "6c1fad587a145aab56d45dba8d326c559c5d1c0a3f7b834a0affd08cbd55ed7d",
        "c496b35b785de9550960d5c4bd8f356dc371d983b9f4aa976d8f389999331b67",
        "26cab65eae965b2a8e62e61df9bc5a602b8f1b056369080007419fc2ff4cf0a5",
        "24573aadfc09dc9fec7f84d5ef4ee3fa2d2aacafb9a97d774a03d3b3090a13d6",
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
        "544253de7f09150aa1b33477a41f18a4f902c5d54ad57f073df7317d9f4bb89e",
        "a5659c6ffa9941deaed9c4606edf25c6ecac981fccea37ef900989567acb91cc",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observed_telemetry():
    """Tracing and events on, detectors attached."""
    telemetry = Telemetry(trace=True, events=True)
    attach_detectors(telemetry.events)
    return telemetry


def observed_digests(result, telemetry):
    """(result, NDJSON, span tree, metrics) sha256 of one observed run.

    The span tree is hashed as ``(id, parent, name, sorted attrs)`` — nesting
    and attributes, never durations.
    """
    return (
        hashlib.sha256(canonical_result_bytes(result)).hexdigest(),
        _sha(telemetry.events.to_ndjson()),
        _sha(json.dumps([(span.id, span.parent, span.name,
                          sorted((span.attrs or {}).items()))
                         for span in telemetry.tracer.spans])),
        _sha(json.dumps(telemetry.metrics.as_dict(), sort_keys=True)),
    )


def timeline_digests(name):
    """One traced, observed run of a catalogue timeline, then a second run().

    The re-run digest proves the per-run state really is per run.
    """
    telemetry = observed_telemetry()
    timeline = build_scenario(name, clients=CLIENTS, seed=7,
                              telemetry=telemetry)
    first = observed_digests(timeline.run(), telemetry)
    rerun = hashlib.sha256(canonical_result_bytes(timeline.run())).hexdigest()
    return first + (rerun,)


def test_timeline_rows_cover_the_whole_catalogue():
    assert sorted(TIMELINE_GOLDEN) == sorted(scenario_names())


@pytest.mark.parametrize("name", sorted(TIMELINE_GOLDEN))
def test_catalogue_timeline_matches_the_committed_digests(name):
    assert timeline_digests(name) == TIMELINE_GOLDEN[name]


#: catalogue scenario -> sha256 of ``canonical_result_bytes`` at 2,000
#: clients, seed 2006.  Captured at df20a12 from the frozen python builders
#: the catalogue documents replaced, after checking there that every one
#: equals its document build byte for byte; the builders are gone since.
LEGACY_BUILDER_GOLDEN = {
    "flash_crowd":
        "7b88d4a89ad672284158d0b33e2f5413a448e5f56fe3faa82e89968d96704d8b",
    "regional_outage":
        "17c4da69d7aa9556a2dcc198e22344c5f2de122cf0ab952b0e1b58df3c9c0b96",
    "diurnal_week":
        "022ac9d6ddad62d72ac6b094fe574f56f5ca3261a5550b7148891bd4e2a6a039",
    "heterogeneous_fleet":
        "1e2d20c2c59c06e906f091ac4024e0f4a4144ff3bdb2aaed4570d6066fbccdf3",
    "cascading_overload":
        "6968cb8337da23c158eb6ad4d58ed38104759eec19960749539d8e777ad90a7f",
    "discrimination_rollout":
        "128c686e2722ff18d841e3d2fff4aed49e5c5689016567536881e7366136b200",
    "autoscaled_diurnal":
        "c22aa1eab26b66159cf49f357c3e8a193f95c393517a97706f836df72347f581",
    "stochastic_unreliable":
        "7c5d38e0361e13fc939c353cd4e14258ced189e4694c9954de580e407d6ae907",
    "elastic_web_mix":
        "ad1e88269055fd7deb95c2c430edbc5ef951e3c41dac2ec5703fa79fa3fbfa31",
    "latency_slo_autoscaled":
        "d0a7a2bad9675ba6f2e43b7825991b2aa23b807669f593dc820bf83058b23c04",
    "adaptive_throttler":
        "3e3dd21180e2c35a6989fc755b01dfe1c92b2bbf52c2ad23e1e83cc0b12c2bce",
    "neutralizer_arms_race":
        "064f77960a58be426891d3ec0344bb6d394364ac0d011bc1651804aa1530d0df",
    "targeted_class_slo":
        "18cc586d9035f2a309731a3983ce82277b17390e4a74c3607ce6dcd9dfe2f59f",
}


def test_legacy_builder_rows_cover_the_whole_catalogue():
    assert sorted(LEGACY_BUILDER_GOLDEN) == sorted(scenario_names())


def legacy_builder_digest(name):
    result = CATALOGUE[name].build(clients=CLIENTS, seed=2006).run()
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


@pytest.mark.parametrize("name", sorted(LEGACY_BUILDER_GOLDEN))
def test_document_build_matches_the_legacy_builder_digest(name):
    assert legacy_builder_digest(name) == LEGACY_BUILDER_GOLDEN[name]


#: The epochs at which the rest-breaker timeline disturbs its resting game.
RETUNE_EPOCH = 68
BREAKER_EPOCHS = {
    "throttle": 12,
    "degradation": 26,
    "failure": 40,
    "load step": 55,
    "retune": RETUNE_EPOCH,
}


def rest_breaker_timeline(telemetry):
    """A 2,000-client adversary game that rests, disturbed once per breaker.

    Adoption relaxes at full rate, so the game settles into an exact fixed
    point within a few epochs of each disturbance; every disturbance then
    lands inside a resting stretch of reused epochs: a windowed throttle, a
    windowed degradation, a site failure and its recovery (a ring change),
    a two-epoch load step and an adoption retune.
    """
    population = ClientPopulation(CLIENTS, seed=32)
    fleet = provisioned_fleet(population, 6, headroom=1.4)
    sites = [site.name for site in fleet.sites]
    adoption = AdoptionModel(sensitivity=4.0, adopt_rate=1.0, churn_rate=1.0)
    events = [
        DiscriminationToggle(at_epoch=BREAKER_EPOCHS["throttle"], region=1,
                             factor=0.5, class_names=("video",),
                             until_epoch=BREAKER_EPOCHS["throttle"] + 2),
        CapacityDegradation(at_epoch=BREAKER_EPOCHS["degradation"],
                            site=sites[0], factor=0.5,
                            until_epoch=BREAKER_EPOCHS["degradation"] + 2),
        SiteFailure(at_epoch=BREAKER_EPOCHS["failure"], site=sites[1]),
        SiteRecovery(at_epoch=BREAKER_EPOCHS["failure"] + 2, site=sites[1]),
        ReconfigEvent(at_epoch=RETUNE_EPOCH,
                      adoption=AdoptionModel(sensitivity=12.0, adopt_rate=1.0,
                                             churn_rate=1.0)),
    ]
    return FluidTimeline(
        population, fleet, epochs=76, epoch_seconds=900.0,
        load=FlashCrowdLoad(base=1.0, spike=1.3, ramp_seconds=0.0,
                            start_seconds=BREAKER_EPOCHS["load step"] * 900.0,
                            hold_seconds=1350.0),
        events=events, latency=LatencyModel(), latency_slo_seconds=0.08,
        adversary=AdversaryGame(
            isp=IspStrategy(aggressiveness=0.6, allow_blanket=False,
                            escalate_evasion=0.6),
            adoption=adoption),
        telemetry=telemetry,
    )


def run_rest_breakers():
    """(result, telemetry) of one traced, observed rest-breaker run."""
    telemetry = observed_telemetry()
    return rest_breaker_timeline(telemetry).run(), telemetry


def rest_breaker_digests(result, telemetry):
    """(result, NDJSON, metrics) sha256 of one rest-breaker run."""
    return (
        hashlib.sha256(canonical_result_bytes(result)).hexdigest(),
        _sha(telemetry.events.to_ndjson()),
        _sha(json.dumps(telemetry.metrics.as_dict(), sort_keys=True)),
    )


#: (result, NDJSON, metrics) of the rest-breaker timeline, captured at
#: a650bf2 — before a resting game's stages learned to skip their work.
REST_BREAKER_GOLDEN = (
    "bfca026bbb76c5545362f77378045481bc4615e282e7e258a24c07d86c875e0d",
    "1c52b3b519cff8808b9408afb794ae31bd0a2a67d11389539534c088f8219fa0",
    "ad93a787a60b44b4b6898dc743b3b4938380c6dcc2b27040ab96dfd755f2e69d",
)


def reused_epochs(telemetry):
    """The epochs whose solve reused the previous epoch's answer."""
    spans = telemetry.tracer.spans
    epoch_of = {span.id: span.attrs["epoch"] for span in spans
                if span.name == "epoch"}
    return {epoch_of[span.parent] for span in spans
            if span.name == "solve" and (span.attrs or {}).get("reused")}


def test_rest_breaker_timeline_matches_the_committed_digests():
    result, telemetry = run_rest_breakers()
    reused = reused_epochs(telemetry)
    for breaker, epoch in BREAKER_EPOCHS.items():
        assert {epoch - 3, epoch - 2, epoch - 1} <= reused, breaker
    adoption = result.adoption_fraction
    assert any(adoption[epoch] != adoption[RETUNE_EPOCH - 1]
               for epoch in range(RETUNE_EPOCH, RETUNE_EPOCH + 6))
    assert rest_breaker_digests(result, telemetry) == REST_BREAKER_GOLDEN


#: Runs whose every digest must not depend on whether epochs may rest:
#: name -> factory of the timeline or campaign runner, given its telemetry.
REST_PATH_RUNS = {
    **{name: partial(build_scenario, name, clients=CLIENTS, seed=7)
       for name in scenario_names()},
    "rest_breakers": rest_breaker_timeline,
    "E16": make_e16,
}


def rest_path_digests(name):
    telemetry = observed_telemetry()
    return observed_digests(REST_PATH_RUNS[name](telemetry=telemetry).run(),
                            telemetry)


@pytest.mark.parametrize("name", sorted(REST_PATH_RUNS))
def test_the_rest_path_changes_nothing(name, monkeypatch):
    step = _TimelineRun.step
    rested = []

    def watched(run, epoch):
        before = run.derived
        step(run, epoch)
        rested.append(run.derived is before)

    def never_resting(run, epoch):
        # A rest key no epoch matches: the epoch derives everything afresh,
        # and the run's solve memo still recalls the problems it solved.
        if run.derived is not None:
            run.derived = dataclasses.replace(run.derived, template=None)
        step(run, epoch)

    monkeypatch.setattr(_TimelineRun, "step", watched)
    resting = rest_path_digests(name)
    monkeypatch.setattr(_TimelineRun, "step", never_resting)
    assert rest_path_digests(name) == resting
    if name in ("rest_breakers", "E16"):
        assert any(rested), "the run never rested"


#: Runs whose result and NDJSON digests must not depend on how many
#: distinct problems a run's solve memo remembers.
MEMO_RUNS = {**REST_PATH_RUNS, "E14": make_e14, "E15": make_e15}
#: The runs among them that pose again a problem older than the last one.
RECALLING = ("elastic_web_mix", "flash_crowd", "regional_outage",
             "stochastic_unreliable")


def complete_problem_key(run, served_scale, capacity_scale, extra_setups):
    """Every input an epoch's problem depends on within one run, written
    out here rather than taken from the timeline."""
    return (run.fleet.in_service_mask().tobytes(), served_scale.tobytes(),
            None if capacity_scale is None else capacity_scale.tobytes(),
            None if extra_setups is None else extra_setups.tobytes())


@pytest.mark.parametrize("name", sorted(MEMO_RUNS))
def test_the_solve_memo_changes_no_answer(name, monkeypatch):
    def observed():
        telemetry = observed_telemetry()
        result = MEMO_RUNS[name](telemetry=telemetry).run()
        return (observed_digests(result, telemetry)[:2],
                telemetry.metrics.counter_value("timeline.epochs_reused"))

    remembered, recalled = observed()
    # One slot under a complete key: only the previous epoch's problem is
    # ever recalled, as when the last solve was the only one kept.
    monkeypatch.setattr(timeline_module, "SOLVE_MEMO_SIZE", 1)
    monkeypatch.setattr(_TimelineRun, "problem_key", complete_problem_key)
    one_slot, reused = observed()
    assert remembered == one_slot
    if name in RECALLING:
        assert recalled > reused, "the memo recalled no older problem"


if __name__ == "__main__":
    print("rest_breakers", *rest_breaker_digests(*run_rest_breakers()))
    for name in sorted(GOLDEN):
        print(name, *digests(GOLDEN[name][0]))
    for name in sorted(SWEEP_GOLDEN):
        print(name, sweep_digest(SWEEP_GOLDEN[name][0]))
    for name in scenario_names():
        print(f'    "{name}":\n        "{legacy_builder_digest(name)}",')
    for name in scenario_names():
        print(f'    "{name}": (')
        for digest in timeline_digests(name):
            print(f'        "{digest}",')
        print("    ),")
