"""Cryptographic primitives: derivation, sealed boxes, signing, AEAD.

Instantiation choices (all frozen into tests):

* 32-byte secrets throughout; derivation is SHA-256 under a package domain
  prefix with a per-use label, so tree chaining, message keys and pseudonym
  handles live in disjoint domains.
* Public-key encryption is a sealed box: ephemeral X25519 + HKDF-style key
  derivation + AESGCM with a zero nonce (safe because the AEAD key is unique
  per seal). A sealed 32-byte payload is always SEALED_LEN = 80 bytes.
* Key pairs derive deterministically from a 32-byte seed. The X25519 scalar
  is a hash of the seed rather than the seed itself, so a derived key pair
  never carries the seed's byte pattern into serialized state.
* An X25519 KeyPair carries the key object it was built with, so a party
  that keeps its KeyPair opens boxes without rebuilding the key from bytes.
* Signatures are Ed25519 (64 bytes, deterministic).
* Symmetric encryption is AESGCM with a random 12-byte nonce prepended;
  overhead is a constant SYM_OVERHEAD = 28 bytes.

All randomness flows through a swappable module-level source so a harness
run under a fixed seed is byte-for-byte reproducible. Every public operation
reports itself to chatgate.counters.
"""

from __future__ import annotations

import hashlib
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import counters
from .errors import DecryptFailed

SECRET_LEN = 32
PUBLIC_KEY_LEN = 32
SEALED_LEN = 80          # eph pk (32) + ct of 32-byte payload (32) + tag (16)
SEAL_OVERHEAD = SEALED_LEN - SECRET_LEN
SYM_OVERHEAD = 28        # nonce (12) + tag (16)
SIG_LEN = 64
HANDLE_LEN = 32

_DOMAIN = b"chatgate.v1:"
_ZERO_NONCE = bytes(12)

# Derivation labels. Distinct labels put each use of the hash in its own
# domain; mixing them up is a key-reuse bug, not a tunable.
CHAIN = b"chain"        # parent secret from child secret in the tree
MSG_KEY = b"msgkey"     # per-message symmetric key from a fresh group/channel key
HANDLE = b"handle"      # pseudonym handle from an identity public key


@dataclass(frozen=True)
class KeyPair:
    """A raw-bytes key pair; which algorithm it belongs to is contextual.

    X25519 pairs built here also carry their key object, so `pke_open`
    skips rebuilding it. The object belongs to the party holding the pair;
    it is left out of equality and repr, and dropping the pair drops it.
    """

    secret_key: bytes
    public_key: bytes
    key_object: X25519PrivateKey | None = field(
        default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

RandomSource = Callable[[int], bytes]

_random_source: RandomSource = secrets.token_bytes


def random_bytes(n: int) -> bytes:
    return _random_source(n)


def random_secret() -> bytes:
    return random_bytes(SECRET_LEN)


def set_random_source(source: RandomSource) -> RandomSource:
    """Install a randomness source; returns the previous one."""
    global _random_source
    previous = _random_source
    _random_source = source
    return previous


def reset_random_source() -> None:
    global _random_source
    _random_source = secrets.token_bytes


class DeterministicRandom:
    """SHA-256 counter generator for reproducible harness runs.

    Not a production randomness source; it exists so a fixed seed yields a
    byte-identical transcript.
    """

    def __init__(self, seed: int | bytes):
        if isinstance(seed, int):
            seed = str(seed).encode("ascii")
        self._key = hashlib.sha256(_DOMAIN + b"drbg:" + seed).digest()
        self._counter = 0

    def __call__(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            block = hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            out += block
        return bytes(out[:n])


@contextmanager
def seeded(seed: int | bytes) -> Iterator[None]:
    """Run a block under a deterministic randomness source."""
    previous = set_random_source(DeterministicRandom(seed))
    try:
        yield
    finally:
        set_random_source(previous)


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------

def _kdf(label: bytes, *parts: bytes) -> bytes:
    """Internal hash with unambiguous input framing. Not a counted op."""
    h = hashlib.sha256()
    h.update(_DOMAIN)
    h.update(label)
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


def _check_secret(value: bytes, what: str = "secret") -> bytes:
    if not isinstance(value, (bytes, bytearray)) or len(value) != SECRET_LEN:
        raise ValueError(f"{what} must be {SECRET_LEN} bytes")
    return bytes(value)


def derive(seed: bytes, label: bytes = CHAIN) -> bytes:
    """One-way derivation step; with CHAIN this is the tree's parent step."""
    counters.record("derive")
    return _kdf(b"derive:" + label, _check_secret(seed))


# ---------------------------------------------------------------------------
# public-key encryption (sealed boxes)
# ---------------------------------------------------------------------------

def x25519_key_pair(scalar: bytes) -> KeyPair:
    """The X25519 key pair, with its key object, of a raw 32-byte scalar.

    Not a counted op: it is the shared step of `pke_keygen` and of opening
    with raw bytes, and the adversary uses it to name a candidate's public
    key. Raises ValueError if the scalar is not 32 bytes.
    """
    private = X25519PrivateKey.from_private_bytes(scalar)
    return KeyPair(secret_key=scalar,
                   public_key=private.public_key().public_bytes_raw(),
                   key_object=private)


def pke_keygen(seed: bytes) -> KeyPair:
    """Deterministic X25519 key pair from a 32-byte seed.

    The scalar is a hash of the seed, never the seed itself: state that
    legitimately retains a derived secret key must not thereby retain the
    seed's byte pattern (the seed is typically a group key).
    """
    counters.record("pke_keygen")
    return x25519_key_pair(_kdf(b"pke-keygen", _check_secret(seed)))


def pke_seal(public_key: bytes, payload: bytes) -> bytes:
    """Seal payload to a recipient public key; fresh ephemeral per call."""
    counters.record("pke_seal")
    recipient = X25519PublicKey.from_public_bytes(public_key)
    eph = x25519_key_pair(_kdf(b"pke-eph", random_bytes(SECRET_LEN)))
    shared = eph.key_object.exchange(recipient)
    key = _kdf(b"seal-key", shared, eph.public_key, public_key)
    ct = AESGCM(key).encrypt(_ZERO_NONCE, payload, None)
    return eph.public_key + ct


def pke_open(key: KeyPair | bytes, box: bytes) -> bytes:
    """Open a sealed box with a KeyPair from `pke_keygen`, or with raw
    secret-key bytes (any candidate scalar). Any failure is the single
    error DecryptFailed."""
    counters.record("pke_open")
    if len(box) < PUBLIC_KEY_LEN + 16:
        raise DecryptFailed("sealed box too short")
    eph_public = box[:PUBLIC_KEY_LEN]
    ct = box[PUBLIC_KEY_LEN:]
    try:
        pair = key if isinstance(key, KeyPair) else x25519_key_pair(key)
        shared = pair.key_object.exchange(X25519PublicKey.from_public_bytes(eph_public))
        box_key = _kdf(b"seal-key", shared, eph_public, pair.public_key)
        return AESGCM(box_key).decrypt(_ZERO_NONCE, ct, None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptFailed("sealed box did not open") from exc


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def sign_keygen(seed: bytes) -> KeyPair:
    """Deterministic Ed25519 key pair from a 32-byte seed."""
    raw = _kdf(b"sign-keygen", _check_secret(seed))
    private = Ed25519PrivateKey.from_private_bytes(raw)
    public = private.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return KeyPair(secret_key=raw, public_key=public)


def sign(secret_key: bytes, message: bytes) -> bytes:
    counters.record("sign")
    return Ed25519PrivateKey.from_private_bytes(secret_key).sign(message)


def verify(public_key: bytes, signature: bytes, message: bytes) -> bool:
    """True iff the signature verifies. Malformed inputs verify as False."""
    counters.record("verify")
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---------------------------------------------------------------------------
# symmetric encryption
# ---------------------------------------------------------------------------

def sym_encrypt(key: bytes, message: bytes) -> bytes:
    counters.record("sym_encrypt")
    nonce = random_bytes(12)
    return nonce + AESGCM(_check_secret(key, "key")).encrypt(nonce, message, None)


def sym_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    counters.record("sym_decrypt")
    if len(ciphertext) < SYM_OVERHEAD:
        raise DecryptFailed("ciphertext too short")
    try:
        return AESGCM(_check_secret(key, "key")).decrypt(
            ciphertext[:12], ciphertext[12:], None
        )
    except InvalidTag as exc:
        raise DecryptFailed("ciphertext did not authenticate") from exc
