"""Core contribution of the paper: the neutralizer protocol and host stacks."""

from ..packet.headers import expected_data_overhead_bytes
from .anycast import NeutralizerDeployment, deploy_neutralizer_service
from .api import NetNeutralityDeployment, neutralize_isp
from .client import DestinationInfo, NeutralizedClientStack
from .envelope import (
    ENVELOPE_DATA,
    ENVELOPE_HANDSHAKE_DATA,
    ENVELOPE_PLAINTEXT,
    ENVELOPE_REVERSE_HELLO,
    InnerPayload,
    pack_envelope,
    pack_inner,
    parse_envelope,
    parse_inner,
)
from .keysetup import (
    ONE_TIME_KEY_BITS,
    ActiveKey,
    KeySetupContext,
    KeySetupState,
    attacker_window_seconds,
)
from .master_key import DEFAULT_EPOCH_LIFETIME_SECONDS, MasterKeyManager
from .multihoming import (
    AdaptiveSelector,
    FirstChoiceSelector,
    MultihomedSite,
    NeutralizerSelector,
    RoundRobinSelector,
    WeightedSelector,
)
from .neutralizer import (
    Neutralizer,
    NeutralizerConfig,
    NeutralizerDomain,
    decrypt_address,
    encrypt_address,
)
from .offload import OffloadHelper, register_helper
from .server import NeutralizedServerStack
from .shim import (
    FLAG_KEY_REQUEST,
    FLAG_REFRESH_PRESENT,
    FLAG_REVERSE_HELLO,
    NONCE_LEN,
    SYMMETRIC_KEY_LEN,
    TAG_LEN,
    KeySetupRequestBody,
    KeySetupResponseBody,
    NeutralizedDataBody,
    ReturnDataBody,
    ReverseKeyRequestBody,
    parse_shim_body,
)

__all__ = [
    "NeutralizerDeployment",
    "deploy_neutralizer_service",
    "NetNeutralityDeployment",
    "neutralize_isp",
    "DestinationInfo",
    "NeutralizedClientStack",
    "ENVELOPE_DATA",
    "ENVELOPE_HANDSHAKE_DATA",
    "ENVELOPE_PLAINTEXT",
    "ENVELOPE_REVERSE_HELLO",
    "InnerPayload",
    "pack_envelope",
    "pack_inner",
    "parse_envelope",
    "parse_inner",
    "ONE_TIME_KEY_BITS",
    "ActiveKey",
    "KeySetupContext",
    "KeySetupState",
    "attacker_window_seconds",
    "DEFAULT_EPOCH_LIFETIME_SECONDS",
    "MasterKeyManager",
    "AdaptiveSelector",
    "FirstChoiceSelector",
    "MultihomedSite",
    "NeutralizerSelector",
    "RoundRobinSelector",
    "WeightedSelector",
    "Neutralizer",
    "NeutralizerConfig",
    "NeutralizerDomain",
    "decrypt_address",
    "encrypt_address",
    "OffloadHelper",
    "register_helper",
    "NeutralizedServerStack",
    "FLAG_KEY_REQUEST",
    "FLAG_REFRESH_PRESENT",
    "FLAG_REVERSE_HELLO",
    "NONCE_LEN",
    "SYMMETRIC_KEY_LEN",
    "TAG_LEN",
    "KeySetupRequestBody",
    "KeySetupResponseBody",
    "NeutralizedDataBody",
    "ReturnDataBody",
    "ReverseKeyRequestBody",
    "expected_data_overhead_bytes",
    "parse_shim_body",
]
