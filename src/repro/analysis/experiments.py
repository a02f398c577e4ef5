"""Experiment runners: one function per packet-level result (E1–E11).

Each runner builds the workload, runs it, and returns a small result object
plus an :class:`repro.analysis.report.ExperimentReport`.  The benchmark
targets under ``benchmarks/`` and the example scripts call these functions, so
the numbers quoted for E1–E11 always come from exactly this code.  The
fleet-scale campaigns E12–E16 are the runners of :mod:`repro.scale.runner`,
whose results carry their own reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..apps.voip import VoipCall, VoipQualityReport, VoipReceiver
from ..apps.workloads import ConstantRateSource, KeySetupFlood
from ..baselines.onion import OnionClient, OnionRelay, compare_resources
from ..baselines.vanilla import VanillaForwarder
from ..core.anycast import deploy_neutralizer_service
from ..core.api import neutralize_isp
from ..core.keysetup import KeySetupContext, attacker_window_seconds
from ..core.multihoming import (
    AdaptiveSelector,
    RoundRobinSelector,
    WeightedSelector,
)
from ..core.neutralizer import NeutralizerConfig, NeutralizerDomain, encrypt_address
from ..core.shim import NONCE_LEN, TAG_LEN, KeySetupRequestBody, NeutralizedDataBody
from ..crypto.backend import fast_backend_available, get_cipher
from ..crypto.kdf import derive_symmetric_key, derive_symmetric_key_aes, integrity_tag
from ..crypto.randomness import DeterministicRandom
from ..crypto.rsa import (
    decryption_cost_multiplications,
    encryption_cost_multiplications,
    estimate_factoring_cost,
    generate_keypair,
    symmetric_equivalent_bits,
)
from ..defense.pushback import deploy_pushback
from ..discrimination.isp import install_policy
from ..discrimination.policy import (
    DiscriminationPolicy,
    degrade_competitor_policy,
    drop_key_setup_policy,
    throttle_encrypted_policy,
    throttle_neutral_isp_policy,
)
from ..dns.records import BootstrapInfo
from ..packet.addresses import IPv4Address, Prefix, ip
from ..packet.builder import udp_packet
from ..packet.dscp import Dscp
from ..packet.headers import IPv4Header, PROTO_NEUTRALIZER_SHIM
from ..packet.packet import Packet
from ..qos.schedulers import FifoScheduler, PriorityScheduler
from ..units import mbps, msec
from .metrics import ThroughputResult, measure_throughput
from .report import ExperimentReport
from .scenarios import COGENT_ANYCAST, build_dumbbell, build_figure1

# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


def _standalone_domain(seed: int = 1, backend: Optional[str] = None,
                       verify_tags: bool = True) -> NeutralizerDomain:
    """A neutralizer domain detached from any topology (fast-path benchmarks)."""
    rng = DeterministicRandom(seed)
    config = NeutralizerConfig(
        anycast_address=ip("10.200.0.1"),
        served_prefix=Prefix.parse("10.3.0.0/16"),
        backend=backend,
        verify_tags=verify_tags,
    )
    return NeutralizerDomain(config, rng=rng)


def make_key_setup_packet(source: IPv4Address, anycast: IPv4Address,
                          rng: DeterministicRandom, key_bits: int = 512) -> Packet:
    """A syntactically valid key-setup request packet."""
    keypair = generate_keypair(key_bits, rng)
    body = KeySetupRequestBody(public_key=keypair.public)
    return Packet(
        ip=IPv4Header(source=source, destination=anycast, protocol=PROTO_NEUTRALIZER_SHIM),
        shim=body.to_shim(),
    )


def make_neutralized_data_packet(
    domain: NeutralizerDomain,
    source: IPv4Address,
    destination: IPv4Address,
    payload_bytes: int = 64,
    backend: Optional[str] = None,
) -> Packet:
    """A forward data packet exactly as an established source would emit it."""
    epoch = domain.master_keys.current_epoch
    nonce = domain.rng.nonce(NONCE_LEN)
    key = domain.master_keys.derive_key(nonce, source, epoch)
    encrypted_destination = encrypt_address(key, nonce, destination, backend=backend)
    provisional = NeutralizedDataBody(
        epoch=epoch,
        nonce=nonce,
        encrypted_destination=encrypted_destination,
        tag=b"\x00" * TAG_LEN,
    )
    body = NeutralizedDataBody(
        epoch=epoch,
        nonce=nonce,
        encrypted_destination=encrypted_destination,
        tag=integrity_tag(key, provisional.tag_input(), TAG_LEN),
    )
    return Packet(
        ip=IPv4Header(source=source, destination=domain.anycast_address,
                      protocol=PROTO_NEUTRALIZER_SHIM),
        shim=body.to_shim(),
        payload=b"u" * payload_bytes,
    )


# ---------------------------------------------------------------------------
# E1: key-setup throughput
# ---------------------------------------------------------------------------


@dataclass
class KeySetupThroughputResult:
    """E1 outputs."""

    throughput: ThroughputResult
    master_key_lifetime_seconds: float
    report: ExperimentReport

    @property
    def sources_served_per_lifetime(self) -> float:
        """How many distinct sources one box can bootstrap per master-key lifetime."""
        return self.throughput.per_second * self.master_key_lifetime_seconds


def run_key_setup_throughput(iterations: int = 200, *, seed: int = 11,
                             master_key_lifetime_seconds: float = 3600.0,
                             backend: Optional[str] = None) -> KeySetupThroughputResult:
    """E1: rate at which a neutralizer answers key-setup requests."""
    domain = _standalone_domain(seed, backend=backend)
    neutralizer = domain.create_neutralizer("bench")
    rng = DeterministicRandom(seed + 1)
    packet = make_key_setup_packet(ip("10.1.0.7"), domain.anycast_address, rng)

    result = measure_throughput(
        "key-setup responses", lambda: neutralizer.process(packet), iterations=iterations
    )
    report = ExperimentReport("E1", "Key-setup throughput (paper: 24.4 kpps, 88 M sources/hour)")
    derived = result.per_second * master_key_lifetime_seconds
    report.add_table(
        ["metric", "value"],
        [
            ["key-setup responses / s", result.per_second],
            ["master key lifetime (s)", master_key_lifetime_seconds],
            ["sources served per lifetime", derived],
        ],
    )
    report.add_note(
        "absolute rates reflect the Python substrate; the paper's point — one cheap "
        "RSA encryption per source per master-key lifetime — is preserved"
    )
    return KeySetupThroughputResult(
        throughput=result,
        master_key_lifetime_seconds=master_key_lifetime_seconds,
        report=report,
    )


# ---------------------------------------------------------------------------
# E2: data-path throughput vs vanilla forwarding
# ---------------------------------------------------------------------------


@dataclass
class DataPathThroughputResult:
    """E2 outputs."""

    neutralized: ThroughputResult
    vanilla: ThroughputResult
    neutralized_packet_bytes: int
    vanilla_packet_bytes: int
    report: ExperimentReport

    @property
    def relative_throughput(self) -> float:
        """Neutralized throughput as a fraction of vanilla (paper: 422/600 ≈ 0.70)."""
        return self.neutralized.per_second / self.vanilla.per_second


def run_datapath_throughput(iterations: int = 2000, *, payload_bytes: int = 64,
                            seed: int = 12, backend: Optional[str] = None,
                            verify_tags: bool = True) -> DataPathThroughputResult:
    """E2: forwarding rate of neutralized packets vs same-size vanilla packets."""
    if backend is None and fast_backend_available():
        backend = "fast"
    domain = _standalone_domain(seed, backend=backend, verify_tags=verify_tags)
    neutralizer = domain.create_neutralizer("bench")
    source = ip("10.1.0.9")
    destination = ip("10.3.0.5")
    data_packet = make_neutralized_data_packet(domain, source, destination,
                                               payload_bytes, backend)
    vanilla_packet = udp_packet(source, destination, b"u" * payload_bytes)
    forwarder = VanillaForwarder()

    neutralized = measure_throughput(
        "neutralized forwarding", lambda: neutralizer.process(data_packet),
        iterations=iterations,
    )
    vanilla = measure_throughput(
        "vanilla forwarding", lambda: forwarder.process(vanilla_packet), iterations=iterations
    )
    report = ExperimentReport(
        "E2", "Data-path throughput (paper: 422 kpps neutralized vs 600 kpps vanilla)"
    )
    report.add_table(
        ["path", "packets/s", "packet bytes"],
        [
            ["vanilla IP forwarding", vanilla.per_second, vanilla_packet.size_bytes],
            ["neutralized forwarding", neutralized.per_second, data_packet.size_bytes],
            ["neutralized / vanilla", neutralized.per_second / vanilla.per_second, ""],
        ],
    )
    report.add_note("paper ratio: 422/600 = 0.70; shape check is that the ratio stays "
                    "well above the key-setup path and below 1.0")
    return DataPathThroughputResult(
        neutralized=neutralized,
        vanilla=vanilla,
        neutralized_packet_bytes=data_packet.size_bytes,
        vanilla_packet_bytes=vanilla_packet.size_bytes,
        report=report,
    )


# ---------------------------------------------------------------------------
# E3: raw crypto operation rates
# ---------------------------------------------------------------------------


@dataclass
class CryptoRatesResult:
    """E3 outputs."""

    rates: Dict[str, ThroughputResult]
    report: ExperimentReport


def run_crypto_rates(iterations: int = 2000, *, seed: int = 13,
                     rsa_iterations: int = 100) -> CryptoRatesResult:
    """E3: per-primitive operation rates (the paper's openssl-speed analogue)."""
    rng = DeterministicRandom(seed)
    key = rng.random_bytes(16)
    block = rng.random_bytes(16)
    master = rng.random_bytes(16)
    nonce = rng.nonce()
    source = ip("10.1.0.3").packed
    keypair512 = generate_keypair(512, rng)
    keypair1024 = generate_keypair(1024, rng)
    payload = rng.random_bytes(24)
    ciphertext512 = keypair512.public.encrypt(payload, rng)

    rates: Dict[str, ThroughputResult] = {}
    pure_cipher = get_cipher(key, backend="pure")
    rates["aes-block (pure python)"] = measure_throughput(
        "aes pure", lambda: pure_cipher.encrypt_block(block), iterations=iterations
    )
    if fast_backend_available():
        fast_cipher = get_cipher(key, backend="fast")
        rates["aes-block (fast backend)"] = measure_throughput(
            "aes fast", lambda: fast_cipher.encrypt_block(block), iterations=iterations * 5
        )
    rates["Ks derivation (HMAC)"] = measure_throughput(
        "kdf hmac", lambda: derive_symmetric_key(master, nonce, source), iterations=iterations
    )
    rates["Ks derivation (AES CBC-MAC)"] = measure_throughput(
        "kdf aes", lambda: derive_symmetric_key_aes(master, nonce, source,
                                                    backend="fast" if fast_backend_available() else None),
        iterations=iterations,
    )
    rates["rsa-512 encrypt (e=3)"] = measure_throughput(
        "rsa enc", lambda: keypair512.public.encrypt(payload, rng), iterations=rsa_iterations
    )
    rates["rsa-512 decrypt (CRT)"] = measure_throughput(
        "rsa dec", lambda: keypair512.private.decrypt(ciphertext512), iterations=rsa_iterations
    )
    rates["rsa-1024 encrypt (e=3)"] = measure_throughput(
        "rsa1024 enc", lambda: keypair1024.public.encrypt(payload, rng), iterations=rsa_iterations
    )

    report = ExperimentReport("E3", "Raw crypto rates (paper: 2.35 M AES ops/s on the Opteron)")
    report.add_table(
        ["operation", "ops/s"],
        [[name, result.per_second] for name, result in rates.items()],
    )
    report.add_note("the data-path conclusion requires AES+hash rates to exceed the "
                    "forwarding rate and RSA encryption to exceed RSA decryption")
    return CryptoRatesResult(rates=rates, report=report)


# ---------------------------------------------------------------------------
# E4: discrimination prevention (the Figure-1 / §1 scenario)
# ---------------------------------------------------------------------------


@dataclass
class DiscriminationArm:
    """One arm of the E4 experiment."""

    name: str
    competitor_report: VoipQualityReport
    own_service_report: VoipQualityReport
    att_saw_competitor_address: bool


@dataclass
class DiscriminationResult:
    """E4 outputs."""

    arms: List[DiscriminationArm]
    report: ExperimentReport

    def arm(self, name: str) -> DiscriminationArm:
        """Look up one arm by name."""
        for candidate in self.arms:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


def _run_voip_arm(*, neutralized: bool, discriminate: bool, seed: int,
                  call_seconds: float, use_e2e: bool = True) -> DiscriminationArm:
    scenario = build_figure1(neutralized=neutralized, use_e2e=use_e2e, seed=seed)
    topology = scenario.topology
    vonage = topology.host("vonage")
    att_voip = topology.host("att-voip")
    ann = topology.host("ann")
    ben = topology.host("ben")

    if discriminate:
        policy = degrade_competitor_policy(vonage.address)
        install_policy(topology, "att", policy, rng=scenario.rng)

    competitor_receiver = VoipReceiver(vonage)
    competitor_call = VoipCall(ann, vonage.address, competitor_receiver,
                               name="ann->vonage", duration_seconds=call_seconds)
    own_receiver = VoipReceiver(att_voip)
    own_call = VoipCall(ben, att_voip.address, own_receiver,
                        name="ben->att-voip", duration_seconds=call_seconds)
    competitor_call.start()
    own_call.start()
    topology.run(call_seconds + 2.0)

    label = f"{'neutralized' if neutralized else 'plain'}+{'discrimination' if discriminate else 'no-discrimination'}"
    return DiscriminationArm(
        name=label,
        competitor_report=competitor_call.report(),
        own_service_report=own_call.report(),
        att_saw_competitor_address=scenario.att_trace.ever_saw_address(vonage.address),
    )


def run_discrimination_experiment(*, call_seconds: float = 4.0,
                                  seed: int = 2006) -> DiscriminationResult:
    """E4: competitor VoIP quality across discrimination × neutralizer arms."""
    arms = [
        _run_voip_arm(neutralized=False, discriminate=False, seed=seed, call_seconds=call_seconds),
        _run_voip_arm(neutralized=False, discriminate=True, seed=seed, call_seconds=call_seconds),
        _run_voip_arm(neutralized=True, discriminate=True, seed=seed, call_seconds=call_seconds),
        _run_voip_arm(neutralized=True, discriminate=False, seed=seed, call_seconds=call_seconds),
    ]
    report = ExperimentReport(
        "E4", "Discrimination prevention: competitor VoIP MOS (Figure-1 scenario)"
    )
    report.add_table(
        ["arm", "competitor MOS", "competitor loss", "own-service MOS",
         "AT&T saw competitor addr"],
        [
            [arm.name, arm.competitor_report.mos, arm.competitor_report.loss_rate,
             arm.own_service_report.mos, arm.att_saw_competitor_address]
            for arm in arms
        ],
    )
    report.add_note("the paper's claim: with the neutralizer the discriminatory ISP cannot "
                    "deterministically harm the competitor, so its MOS matches the clean arm")
    return DiscriminationResult(arms=arms, report=report)


# ---------------------------------------------------------------------------
# E5: residual discrimination (§3.6)
# ---------------------------------------------------------------------------


@dataclass
class ResidualArm:
    """One residual-discrimination policy arm."""

    name: str
    competitor_report: VoipQualityReport
    collateral_delivery_ratio: float
    own_customer_report: VoipQualityReport


@dataclass
class ResidualResult:
    """E5 outputs."""

    arms: List[ResidualArm]
    report: ExperimentReport


def _residual_policy(name: str) -> Optional[DiscriminationPolicy]:
    if name == "none":
        return None
    if name == "target-competitor":
        # Filled in by the caller with the competitor's address.
        raise ValueError("handled separately")
    if name == "throttle-neutral-isp":
        return throttle_neutral_isp_policy(Prefix.parse("10.3.0.0/16"), rate_bps=mbps(0.2))
    if name == "throttle-encrypted":
        return throttle_encrypted_policy(rate_bps=mbps(0.2))
    if name == "drop-key-setup":
        return drop_key_setup_policy()
    raise ValueError(f"unknown policy arm {name}")


def run_residual_discrimination(*, call_seconds: float = 4.0,
                                seed: int = 77) -> ResidualResult:
    """E5: what a discriminatory ISP can still do once traffic is neutralized."""
    arm_names = ["none", "target-competitor", "throttle-neutral-isp",
                 "throttle-encrypted", "drop-key-setup"]
    arms: List[ResidualArm] = []
    for name in arm_names:
        scenario = build_figure1(neutralized=True, seed=seed)
        topology = scenario.topology
        vonage = topology.host("vonage")
        google = topology.host("google")
        ann = topology.host("ann")
        ben = topology.host("ben")
        att_voip = topology.host("att-voip")

        if name == "target-competitor":
            policy = degrade_competitor_policy(vonage.address)
        else:
            policy = _residual_policy(name)
        if policy is not None:
            install_policy(topology, "att", policy, rng=scenario.rng)

        competitor_receiver = VoipReceiver(vonage)
        competitor_call = VoipCall(ann, vonage.address, competitor_receiver,
                                   name="ann->vonage", duration_seconds=call_seconds)
        own_receiver = VoipReceiver(att_voip)
        own_call = VoipCall(ben, att_voip.address, own_receiver,
                            name="ben->att-voip", duration_seconds=call_seconds)
        # Collateral traffic: a neutralized bulk flow from Ann to Google.
        collateral_port = 42000
        received = []
        google.register_port_handler(collateral_port, lambda p, h: received.append(p))
        collateral = ConstantRateSource(ann, google.address, packets_per_second=50,
                                        payload_bytes=400, destination_port=collateral_port,
                                        flow_id="collateral")
        competitor_call.start()
        own_call.start()
        scheduled = collateral.start(call_seconds)
        topology.run(call_seconds + 2.0)

        arms.append(ResidualArm(
            name=name,
            competitor_report=competitor_call.report(),
            collateral_delivery_ratio=(len(received) / scheduled) if scheduled else 0.0,
            own_customer_report=own_call.report(),
        ))

    report = ExperimentReport("E5", "Residual discrimination against neutralized traffic (§3.6)")
    report.add_table(
        ["policy", "competitor MOS", "collateral delivery", "own-customer MOS"],
        [[arm.name, arm.competitor_report.mos, arm.collateral_delivery_ratio,
          arm.own_customer_report.mos] for arm in arms],
    )
    report.add_note("targeted policies stop working; the remaining levers are blunt "
                    "(whole neutral ISP / all encrypted traffic / key setups) and hit the "
                    "ISP's own customers' experience across the board")
    return ResidualResult(arms=arms, report=report)


# ---------------------------------------------------------------------------
# E6: comparison against onion routing
# ---------------------------------------------------------------------------


@dataclass
class OnionComparisonResult:
    """E6 outputs."""

    flows: int
    packets_per_flow: int
    measured_rows: List[Tuple[str, float, float]]
    report: ExperimentReport


def run_onion_comparison(flows: int = 50, packets_per_flow: int = 20, *,
                         seed: int = 21, backend: Optional[str] = None) -> OnionComparisonResult:
    """E6: state entries and public-key operations, neutralizer vs onion routing."""
    rng = DeterministicRandom(seed)
    domain = _standalone_domain(seed, backend=backend)
    neutralizer = domain.create_neutralizer("bench")

    relays = [OnionRelay(f"relay{i}", rng=rng, backend=backend, key_bits=512) for i in range(3)]
    onion_client = OnionClient(rng=rng, backend=backend)

    payload = b"d" * 64
    destination = ip("10.3.0.10")
    for flow in range(flows):
        source = IPv4Address(ip("10.1.0.0").value + 10 + flow)
        setup = make_key_setup_packet(source, domain.anycast_address, rng)
        neutralizer.process(setup)
        data = make_neutralized_data_packet(domain, source, destination, 64, backend)
        for _ in range(packets_per_flow):
            neutralizer.process(data)

        circuit = onion_client.build_circuit(relays)
        for _ in range(packets_per_flow):
            onion_client.send_through(circuit, payload)

    neutralizer_pk = neutralizer.counters["rsa_encryptions"]
    onion_pk = onion_client.counters["public_key_encryptions"] + sum(
        relay.counters["public_key_decryptions"] for relay in relays
    )
    onion_state = sum(relay.state_entries() for relay in relays)
    neutralizer_aes_per_packet = neutralizer.counters["aes_operations"] / (flows * packets_per_flow)
    onion_aes_per_packet = (
        onion_client.counters["aes_operations"]
        + sum(relay.counters["aes_operations"] for relay in relays)
    ) / (flows * packets_per_flow)

    measured_rows = [
        ("state entries (all boxes/relays)", float(neutralizer.state_entries()), float(onion_state)),
        ("public-key operations", float(neutralizer_pk), float(onion_pk)),
        ("AES ops per data packet", neutralizer_aes_per_packet, onion_aes_per_packet),
    ]
    analytic = compare_resources(flows, packets_per_flow)
    report = ExperimentReport("E6", "Neutralizer vs onion routing resource consumption (§5)")
    report.add_table(
        ["metric", "neutralizer (measured)", "onion (measured)"],
        [[name, a, b] for name, a, b in measured_rows],
    )
    report.add_table(
        ["metric", "neutralizer (analytic)", "onion (analytic)"],
        [[name, a, b] for name, a, b in analytic.as_rows()],
        title="analytic model",
    )
    return OnionComparisonResult(
        flows=flows, packets_per_flow=packets_per_flow,
        measured_rows=measured_rows, report=report,
    )


# ---------------------------------------------------------------------------
# E7: one-time key size tradeoff
# ---------------------------------------------------------------------------


@dataclass
class KeySizeRow:
    """One key size's costs and security margin."""

    bits: int
    keygen_seconds: float
    source_decrypt_seconds: float
    neutralizer_encrypt_seconds: float
    symmetric_equivalent: float
    factoring_window_seconds: float
    attacker_window_seconds: float

    @property
    def safety_margin(self) -> float:
        """Factoring time over the exposure window (large = safe)."""
        if self.attacker_window_seconds <= 0:
            return float("inf")
        return self.factoring_window_seconds / self.attacker_window_seconds


@dataclass
class KeySizeTradeoffResult:
    """E7 outputs."""

    rows: List[KeySizeRow]
    report: ExperimentReport


def run_keysize_tradeoff(key_sizes: Tuple[int, ...] = (384, 512, 768, 1024), *,
                         rtt_seconds: float = 0.1, iterations: int = 10,
                         seed: int = 31) -> KeySizeTradeoffResult:
    """E7: cost and security of the short one-time RSA key across sizes."""
    rng = DeterministicRandom(seed)
    rows: List[KeySizeRow] = []
    window = attacker_window_seconds(rtt_seconds)
    for bits in key_sizes:
        keygen = measure_throughput(
            f"keygen-{bits}", lambda b=bits: generate_keypair(b, rng), iterations=iterations,
            warmup=1,
        )
        keypair = generate_keypair(bits, rng)
        payload = rng.random_bytes(24)
        ciphertext = keypair.public.encrypt(payload, rng)
        encrypt = measure_throughput(
            f"encrypt-{bits}", lambda: keypair.public.encrypt(payload, rng),
            iterations=iterations * 5, warmup=2,
        )
        decrypt = measure_throughput(
            f"decrypt-{bits}", lambda: keypair.private.decrypt(ciphertext),
            iterations=iterations * 5, warmup=2,
        )
        rows.append(KeySizeRow(
            bits=bits,
            keygen_seconds=1.0 / keygen.per_second,
            source_decrypt_seconds=1.0 / decrypt.per_second,
            neutralizer_encrypt_seconds=1.0 / encrypt.per_second,
            symmetric_equivalent=symmetric_equivalent_bits(bits),
            factoring_window_seconds=estimate_factoring_cost(bits),
            attacker_window_seconds=window,
        ))
    report = ExperimentReport("E7", "One-time RSA key size tradeoff (§3.2)")
    report.add_table(
        ["bits", "keygen s", "source decrypt s", "neutralizer encrypt s",
         "sym-equivalent bits", "factoring s", "exposure window s", "margin"],
        [[r.bits, r.keygen_seconds, r.source_decrypt_seconds, r.neutralizer_encrypt_seconds,
          r.symmetric_equivalent, r.factoring_window_seconds, r.attacker_window_seconds,
          r.safety_margin] for r in rows],
    )
    report.add_note("cost multiplications per op: "
                    + ", ".join(
                        f"{bits}-bit enc={encryption_cost_multiplications(3, bits)} "
                        f"dec~{decryption_cost_multiplications(bits)}" for bits in key_sizes))
    return KeySizeTradeoffResult(rows=rows, report=report)


# ---------------------------------------------------------------------------
# E8: chosen vs alternative key-setup design under load
# ---------------------------------------------------------------------------


@dataclass
class DosDesignResult:
    """E8 outputs."""

    chosen_ops_per_second: float
    alternative_ops_per_second: float
    report: ExperimentReport

    @property
    def advantage(self) -> float:
        """How many times more key setups per second the chosen design sustains."""
        if self.alternative_ops_per_second == 0:
            return float("inf")
        return self.chosen_ops_per_second / self.alternative_ops_per_second


def run_dos_design_comparison(iterations: int = 60, *, seed: int = 41) -> DosDesignResult:
    """E8: neutralizer-encrypts (chosen) vs neutralizer-decrypts (alternative).

    The chosen design performs an RSA *encryption* with e=3 per key setup; the
    rejected alternative would perform an RSA *decryption* of a blob sealed to
    the neutralizer's certified 1024-bit key.  The sustainable key-setup rate
    under flood is proportional to the per-operation rate measured here.
    """
    rng = DeterministicRandom(seed)
    source_keypair = generate_keypair(512, rng)
    neutralizer_keypair = generate_keypair(1024, rng)
    payload = rng.random_bytes(24)
    sealed_to_neutralizer = neutralizer_keypair.public.encrypt(payload, rng)

    chosen = measure_throughput(
        "chosen: RSA-512 encrypt e=3",
        lambda: source_keypair.public.encrypt(payload, rng),
        iterations=iterations,
    )
    alternative = measure_throughput(
        "alternative: RSA-1024 decrypt",
        lambda: neutralizer_keypair.private.decrypt(sealed_to_neutralizer),
        iterations=iterations,
    )
    report = ExperimentReport(
        "E8", "Key-setup direction: per-request cost at the neutralizer (§3.2)"
    )
    report.add_table(
        ["design", "neutralizer ops/s", "relative"],
        [
            ["chosen (neutralizer encrypts, e=3)", chosen.per_second, 1.0],
            ["alternative (neutralizer decrypts, 1024-bit)", alternative.per_second,
             alternative.per_second / chosen.per_second],
        ],
    )
    report.add_note("the higher the neutralizer's per-request cost, the easier a key-setup "
                    "flood overwhelms it; the chosen design also allows offloading")
    return DosDesignResult(
        chosen_ops_per_second=chosen.per_second,
        alternative_ops_per_second=alternative.per_second,
        report=report,
    )


# ---------------------------------------------------------------------------
# E9: tiered service survives neutralization
# ---------------------------------------------------------------------------


@dataclass
class QosArm:
    """One scheduler arm of E9."""

    scheduler: str
    ef_latency: float
    be_latency: float
    ef_loss: float
    be_loss: float


@dataclass
class QosResult:
    """E9 outputs."""

    arms: List[QosArm]
    report: ExperimentReport


def run_qos_experiment(*, call_seconds: float = 3.0, seed: int = 51) -> QosResult:
    """E9: EF vs best-effort latency through a congested link, neutralized traffic."""
    arms: List[QosArm] = []
    for scheduler_kind in ("fifo", "priority"):
        topology = build_dumbbell(clients=2, servers=2,
                                  bottleneck_rate_bps=mbps(2), seed=seed)
        rng = DeterministicRandom(seed)
        deployment = neutralize_isp(topology, "right", ip("10.200.0.9"), rng=rng)
        server0 = topology.host("server0")
        server1 = topology.host("server1")
        client0 = topology.host("client0")
        client1 = topology.host("client1")
        deployment.attach_server(server0)
        deployment.attach_server(server1)
        deployment.attach_client(client0)
        deployment.attach_client(client1)
        deployment.bootstrap_client("client0", "server0")
        deployment.bootstrap_client("client1", "server1")

        bottleneck = topology.link_between("left-gw", "right-gw")
        left_end = next(e for e in bottleneck.ends if e.node.name == "left-gw")
        if scheduler_kind == "priority":
            bottleneck.set_scheduler(left_end, PriorityScheduler(capacity_per_class=64))
        else:
            bottleneck.set_scheduler(left_end, FifoScheduler(capacity=64))

        # Congest the bottleneck with best-effort bulk traffic (neutralized).
        bulk_port = 45000
        server1.register_port_handler(bulk_port, lambda p, h: None)
        bulk = ConstantRateSource(client1, server1.address, packets_per_second=300,
                                  payload_bytes=1000, destination_port=bulk_port,
                                  dscp=int(Dscp.BEST_EFFORT), flow_id="bulk")
        # Two neutralized VoIP calls: one EF, one best effort.
        ef_receiver = VoipReceiver(server0, port=16384)
        ef_call = VoipCall(client0, server0.address, ef_receiver, name="ef",
                           duration_seconds=call_seconds, dscp=int(Dscp.EF), port=16384)
        be_receiver = VoipReceiver(server0, port=16386)
        be_call = VoipCall(client0, server0.address, be_receiver, name="be",
                           duration_seconds=call_seconds, dscp=int(Dscp.BEST_EFFORT), port=16386)
        bulk.start(call_seconds + 1.0)
        ef_call.start(delay=0.5)
        be_call.start(delay=0.5)
        topology.run(call_seconds + 3.0)

        ef_report = ef_call.report()
        be_report = be_call.report()
        arms.append(QosArm(
            scheduler=scheduler_kind,
            ef_latency=ef_report.mean_latency_seconds,
            be_latency=be_report.mean_latency_seconds,
            ef_loss=ef_report.loss_rate,
            be_loss=be_report.loss_rate,
        ))
    report = ExperimentReport("E9", "Tiered service over neutralized traffic (§3.4)")
    report.add_table(
        ["bottleneck scheduler", "EF latency s", "BE latency s", "EF loss", "BE loss"],
        [[arm.scheduler, arm.ef_latency, arm.be_latency, arm.ef_loss, arm.be_loss]
         for arm in arms],
    )
    report.add_note("the DSCP survives neutralization, so a priority scheduler still gives "
                    "the paid-for class lower delay/loss than best effort")
    return QosResult(arms=arms, report=report)


# ---------------------------------------------------------------------------
# E10: multihoming selectors
# ---------------------------------------------------------------------------


@dataclass
class MultihomingResult:
    """E10 outputs."""

    splits: Dict[str, Dict[str, float]]
    adaptive_prefers_survivor: bool
    report: ExperimentReport


def run_multihoming_experiment(flows: int = 1000, *, seed: int = 61) -> MultihomingResult:
    """E10: how source-side selectors split load across two providers' neutralizers."""
    provider_a = COGENT_ANYCAST
    provider_b = ip("10.200.0.2")
    candidates = [provider_a, provider_b]
    rng = DeterministicRandom(seed)

    splits: Dict[str, Dict[str, float]] = {}
    round_robin = RoundRobinSelector()
    weighted = WeightedSelector({provider_a: 4.0, provider_b: 1.0}, rng=rng)
    adaptive = AdaptiveSelector()
    # Feed the adaptive selector observations: provider A is 40 ms, B is 10 ms.
    adaptive.record_outcome(provider_a, rtt=0.040)
    adaptive.record_outcome(provider_b, rtt=0.010)

    for name, selector in (("round-robin", round_robin), ("weighted-4:1", weighted),
                           ("adaptive-latency", adaptive)):
        counts = {str(provider_a): 0, str(provider_b): 0}
        for _ in range(flows):
            choice = selector.select(candidates)
            counts[str(choice)] += 1
        splits[name] = {k: v / flows for k, v in counts.items()}

    # Failover: provider B starts failing; the adaptive selector must move away.
    for _ in range(5):
        adaptive.record_outcome(provider_b, failed=True)
    failover_choice = adaptive.select(candidates)
    adaptive_prefers_survivor = failover_choice == provider_a

    report = ExperimentReport("E10", "Multi-homed site load balancing across neutralizers (§3.5)")
    report.add_table(
        ["selector", f"share via {provider_a}", f"share via {provider_b}"],
        [[name, share[str(provider_a)], share[str(provider_b)]] for name, share in splits.items()],
    )
    report.add_note(f"after provider {provider_b} fails repeatedly, the adaptive selector "
                    f"prefers the surviving provider: {adaptive_prefers_survivor}")
    return MultihomingResult(splits=splits, adaptive_prefers_survivor=adaptive_prefers_survivor,
                             report=report)


# ---------------------------------------------------------------------------
# E11: pushback under a key-setup flood
# ---------------------------------------------------------------------------


@dataclass
class PushbackArm:
    """One arm of E11."""

    name: str
    victim_call: VoipQualityReport
    neutralizer_rsa_ops: int
    flood_packets_sent: int


@dataclass
class PushbackResult:
    """E11 outputs."""

    arms: List[PushbackArm]
    report: ExperimentReport


def run_pushback_experiment(*, call_seconds: float = 3.0, flood_pps: float = 3000.0,
                            seed: int = 71) -> PushbackResult:
    """E11: a key-setup flood with and without pushback (§3.6)."""
    arms: List[PushbackArm] = []
    for with_pushback in (False, True):
        topology = build_dumbbell(clients=2, servers=1, bottleneck_rate_bps=mbps(2), seed=seed)
        rng = DeterministicRandom(seed)
        deployment = neutralize_isp(topology, "right", ip("10.200.0.9"), rng=rng)
        server0 = topology.host("server0")
        legit = topology.host("client0")
        attacker = topology.host("client1")
        deployment.attach_server(server0)
        deployment.attach_client(legit)
        deployment.bootstrap_client("client0", "server0")

        if with_pushback:
            deploy_pushback(
                [topology.router("right-gw"), topology.router("left-gw")],
                threshold_pps=200.0, limit_pps=50.0,
            )

        receiver = VoipReceiver(server0)
        call = VoipCall(legit, server0.address, receiver, name="victim",
                        duration_seconds=call_seconds)
        flood = KeySetupFlood(attacker, deployment.deployment.anycast_address,
                              requests_per_second=flood_pps, rng=rng)
        # The victim's key setup completes first; the flood then saturates the
        # shared bottleneck for the rest of the call, so the measurement isolates
        # how well the defense protects established traffic and the box's CPU.
        call.start(delay=0.2)
        flood.start(call_seconds, delay=1.0)
        topology.run(call_seconds + 3.0)

        arms.append(PushbackArm(
            name="pushback" if with_pushback else "no defense",
            victim_call=call.report(),
            neutralizer_rsa_ops=deployment.counters()["neutralizers"]["rsa_encryptions"],
            flood_packets_sent=flood.requests_sent,
        ))
    report = ExperimentReport("E11", "Pushback against a key-setup flood (§3.6)")
    report.add_table(
        ["arm", "victim MOS", "victim loss", "neutralizer RSA ops", "flood packets"],
        [[arm.name, arm.victim_call.mos, arm.victim_call.loss_rate,
          arm.neutralizer_rsa_ops, arm.flood_packets_sent] for arm in arms],
    )
    report.add_note("pushback rate-limits the key-setup aggregate upstream, protecting both "
                    "the shared links (victim call quality) and the neutralizer's CPU budget")
    return PushbackResult(arms=arms, report=report)
