"""Selectable AES backends: pure-Python reference vs accelerated.

The paper's throughput numbers were measured with OpenSSL's AES on an Opteron.
Our reference AES (:mod:`repro.crypto.aes`) is bit-exact but runs at Python
speed, which would distort the *ratio* between vanilla forwarding and
neutralized forwarding that experiment E2 reproduces.  When the optional
``cryptography`` wheel is importable we therefore expose an accelerated
backend that uses its AES-ECB primitive for single-block operations; protocol
code never notices the difference because both backends expose the same
``encrypt_block`` / ``decrypt_block`` interface.

Backend selection is explicit (``get_cipher(key, backend="fast")``); the
default is the pure-Python reference.  Tests always pin the backend they mean
to exercise.
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import CryptoError
from .aes import BLOCK_SIZE, KEY_SIZE, AesCipher

try:  # pragma: no cover - exercised indirectly depending on environment
    from cryptography.hazmat.primitives.ciphers import Cipher as _CgCipher
    from cryptography.hazmat.primitives.ciphers.algorithms import AES as _CgAES
    from cryptography.hazmat.primitives.ciphers.modes import ECB as _CgECB

    _HAVE_CRYPTOGRAPHY = True
except Exception:  # pragma: no cover
    _HAVE_CRYPTOGRAPHY = False


PURE_BACKEND = "pure"
FAST_BACKEND = "fast"


class FastAesCipher:
    """AES-128 single-block cipher backed by the ``cryptography`` wheel.

    Only ECB single-block operations are used; all modes are still composed
    by :mod:`repro.crypto.modes` so the protocol logic is identical across
    backends.
    """

    def __init__(self, key: bytes) -> None:
        if not _HAVE_CRYPTOGRAPHY:
            raise CryptoError("the 'cryptography' package is not available")
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AES-128 requires a {KEY_SIZE}-byte key")
        self._key = bytes(key)
        cipher = _CgCipher(_CgAES(self._key), _CgECB())
        self._encryptor = cipher.encryptor()
        self._decryptor = cipher.decryptor()

    @property
    def key(self) -> bytes:
        """The raw key this cipher was constructed with."""
        return self._key

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes")
        return self._encryptor.update(block)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes")
        return self._decryptor.update(block)


def fast_backend_available() -> bool:
    """Return ``True`` when the accelerated backend can be used."""
    return _HAVE_CRYPTOGRAPHY


def get_cipher(key: bytes, backend: Optional[str] = None):
    """Return an AES cipher for ``key`` on the requested (or the pure) backend."""
    chosen = backend or PURE_BACKEND
    if chosen == PURE_BACKEND:
        return AesCipher(key)
    if chosen == FAST_BACKEND:
        return FastAesCipher(key)
    raise ValueError(f"unknown backend {chosen!r}")
