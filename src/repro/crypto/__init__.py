"""Cryptographic substrate for the net-neutrality reproduction.

Everything the neutralizer protocol needs is implemented from scratch here:
prime generation and RSA (for the short one-time key-setup keys and the strong
end-to-end keys), AES-128 with CTR/CBC/CBC-MAC modes (for the shim header and
payload), and the stateless key-derivation function ``Ks = hash(KM, nonce,
srcIP)``.  An accelerated AES backend based on the optional ``cryptography``
wheel can be selected for benchmarks; outputs are identical.
"""

from .aes import BLOCK_SIZE, KEY_SIZE, AesCipher
from .backend import (
    FAST_BACKEND,
    PURE_BACKEND,
    FastAesCipher,
    fast_backend_available,
    get_cipher,
)
from .kdf import (
    DERIVED_KEY_LEN,
    constant_time_equal,
    derive_symmetric_key,
    derive_symmetric_key_aes,
    hmac_sha256,
    integrity_tag,
    sha256,
)
from .modes import cbc_decrypt, cbc_encrypt, cbc_mac, ctr_decrypt, ctr_encrypt
from .primes import generate_prime, is_probable_prime
from .randomness import DEFAULT_SOURCE, DeterministicRandom, RandomSource, SystemRandom
from .rsa import (
    DEFAULT_PUBLIC_EXPONENT,
    SUPPORTED_KEY_BITS,
    RsaKeyPair,
    RsaPrivateKey,
    RsaPublicKey,
    decryption_cost_multiplications,
    encryption_cost_multiplications,
    estimate_factoring_cost,
    generate_keypair,
    symmetric_equivalent_bits,
)

__all__ = [
    "BLOCK_SIZE",
    "KEY_SIZE",
    "AesCipher",
    "FastAesCipher",
    "PURE_BACKEND",
    "FAST_BACKEND",
    "fast_backend_available",
    "get_cipher",
    "DERIVED_KEY_LEN",
    "constant_time_equal",
    "derive_symmetric_key",
    "derive_symmetric_key_aes",
    "hmac_sha256",
    "integrity_tag",
    "sha256",
    "cbc_decrypt",
    "cbc_encrypt",
    "cbc_mac",
    "ctr_decrypt",
    "ctr_encrypt",
    "generate_prime",
    "is_probable_prime",
    "DEFAULT_SOURCE",
    "DeterministicRandom",
    "RandomSource",
    "SystemRandom",
    "DEFAULT_PUBLIC_EXPONENT",
    "SUPPORTED_KEY_BITS",
    "RsaKeyPair",
    "RsaPrivateKey",
    "RsaPublicKey",
    "decryption_cost_multiplications",
    "encryption_cost_multiplications",
    "estimate_factoring_cost",
    "generate_keypair",
    "symmetric_equivalent_bits",
]
