"""Cryptographic primitives: derivation, sealed boxes, signing, AEAD.

Instantiation choices (all frozen into tests):

* 32-byte secrets throughout; derivation is SHA-256 under a package domain
  prefix with a per-use label, so tree chaining, message keys, root
  confirmations and pseudonym handles live in disjoint domains.
* Public-key encryption is a sealed box: ephemeral X25519 + HKDF-style key
  derivation + AESGCM with a zero nonce. Boxes come in batches: every box of
  a batch is sealed under one ephemeral key pair, drawn by `pke_keygen` and
  dropped once the batch is sealed, and its AEAD key binds the shared
  secret, both public keys and the box's position in the batch, so it is
  unique per box even when a batch names one recipient twice (randomness
  reuse across recipients is safe for DH-based encryption: Kurosawa,
  PKC 2002; Bellare, Boldyreva and Staddon, PKC 2003). The batch carries
  its ephemeral public key once; a box of a 32-byte payload is BOX_LEN = 48
  bytes, and a concealment dummy is BOX_LEN random bytes, which no one can
  tell from a box. A single seal is a batch of one that carries its own
  ephemeral: SEALED_LEN = 80 bytes.
* Key pairs derive deterministically from a 32-byte seed. The X25519 scalar
  is a hash of the seed rather than the seed itself, so a derived key pair
  never carries the seed's byte pattern into serialized state.
* A KeyPair carries the key object it was built with, so a party that
  keeps its KeyPair opens boxes, or signs, without rebuilding the key from
  bytes.
* Signatures are Ed25519 (64 bytes, deterministic).
* Symmetric encryption is AESGCM with a random 12-byte nonce prepended;
  overhead is a constant SYM_OVERHEAD = 28 bytes. `sym_key` builds the
  AEAD object of a key once, for a caller that tries one key many times.

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
BOX_LEN = 48             # ct of a 32-byte payload (32) + tag (16)
SEALED_LEN = 80          # a single seal: eph pk (32) + its box (48)
NO_EPHEMERAL = bytes(PUBLIC_KEY_LEN)  # the ephemeral of an empty batch
SYM_OVERHEAD = 28        # nonce (12) + tag (16)
SIG_LEN = 64

_DOMAIN = b"chatgate.v1:"
_ZERO_NONCE = bytes(12)

# Derivation labels. Distinct labels put each use of the hash in its own
# domain; mixing them up is a key-reuse bug, not a tunable.
CHAIN = b"chain"        # parent secret from child secret in the tree
MSG_KEY = b"msgkey"     # per-message symmetric key from a fresh group/channel key
CONFIRM = b"confirm"    # public confirmation of a tree root secret
HANDLE = b"handle"      # pseudonym handle from an identity public key


@dataclass(frozen=True)
class KeyPair:
    """A raw-bytes key pair; which algorithm it belongs to is contextual.

    Pairs built here also carry their key object, which `pke_open` opens
    with and `sign` signs with. The object belongs to the party holding
    the pair; it is left out of equality, repr and snapshots, and dropping
    the pair drops it.
    """

    secret_key: bytes
    public_key: bytes
    key_object: X25519PrivateKey | Ed25519PrivateKey | None = field(
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

# label -> the hash state after `_DOMAIN + label`, which every `_kdf` of
# that label starts from; there are a handful of labels
_LABEL_STATES: dict[bytes, "hashlib._Hash"] = {}


def _kdf(label: bytes, *parts: bytes) -> bytes:
    """Internal hash with unambiguous input framing: SHA-256 over
    `_DOMAIN + label`, then each part after its 4-byte length. Not a
    counted op."""
    state = _LABEL_STATES.get(label)
    if state is None:
        state = _LABEL_STATES[label] = hashlib.sha256(_DOMAIN + label)
    h = state.copy()
    for part in parts:
        h.update(len(part).to_bytes(4, "big") + part)
    return h.digest()


def _check_secret(value: bytes, what: str = "secret") -> bytes:
    if type(value) is bytes and len(value) == SECRET_LEN:
        return value
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

    Not a counted op: `pke_key_pair` builds its pair with it, and so does the
    adversary for each candidate scalar, to name its public key and open
    boxes. Raises ValueError if the scalar is not 32 bytes.
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
    return pke_key_pair(pke_secret_key(seed))


def pke_secret_key(seed: bytes) -> bytes:
    """The scalar of `pke_keygen(seed)`. Not a counted op: a hash, for a
    party that keeps the secret key to open with later and builds its pair
    (`pke_key_pair`) only when it does."""
    return _kdf(b"pke-keygen", _check_secret(seed))


def pke_key_pair(secret_key: bytes) -> KeyPair:
    """The X25519 key pair of a `pke_secret_key` scalar: one counted
    `pke_keygen`, the base multiplication."""
    counters.record("pke_keygen")
    return x25519_key_pair(secret_key)


def _box_key(shared: bytes, eph_public: bytes, recipient_public: bytes,
             position: int) -> bytes:
    return _kdf(b"seal-key", shared, eph_public, recipient_public,
                position.to_bytes(4, "big"))


def pke_seal(public_key: bytes, payload: bytes, eph: KeyPair | None = None,
             position: int = 0) -> bytes:
    """Seal payload to a recipient public key as the box at `position` of
    the batch under ephemeral `eph` (see `pke_seal_batch`). Without `eph`,
    a single seal: a batch of one under a fresh ephemeral, whose public key
    heads the box."""
    counters.record("pke_seal")
    head = b""
    if eph is None:
        eph = pke_keygen(random_secret())
        head = eph.public_key
    shared = eph.key_object.exchange(X25519PublicKey.from_public_bytes(public_key))
    key = _box_key(shared, eph.public_key, public_key, position)
    return head + AESGCM(key).encrypt(_ZERO_NONCE, payload, None)


def pke_seal_batch(sealings: list[tuple[bytes, bytes] | None]) -> tuple[
        bytes, list[bytes]]:
    """Seal each (recipient public key, payload) under one fresh ephemeral,
    each box bound to its position; None stands for a concealment dummy,
    BOX_LEN random bytes. Returns the ephemeral public key, NO_EPHEMERAL for
    an empty batch, which draws no key pair, and the boxes in order. The
    ephemeral scalar is dropped on return."""
    if not sealings:
        return NO_EPHEMERAL, []
    eph = pke_keygen(random_secret())
    return eph.public_key, [
        random_bytes(BOX_LEN) if sealing is None else pke_seal(*sealing, eph, i)
        for i, sealing in enumerate(sealings)]


def pke_open(pair: KeyPair, box: bytes, eph_public: bytes | None = None,
             position: int = 0) -> bytes:
    """Open a box with an X25519 KeyPair, from `pke_keygen` or
    `x25519_key_pair`: the box at `position` of the batch whose ephemeral
    public key is `eph_public`, or without it a single seal. Any failure is
    the single error DecryptFailed."""
    counters.record("pke_open")
    if eph_public is None:
        eph_public, box = box[:PUBLIC_KEY_LEN], box[PUBLIC_KEY_LEN:]
    try:
        shared = pair.key_object.exchange(X25519PublicKey.from_public_bytes(eph_public))
        box_key = _box_key(shared, eph_public, pair.public_key, position)
        return AESGCM(box_key).decrypt(_ZERO_NONCE, box, None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptFailed("sealed box did not open") from exc


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def sign_keygen(seed: bytes) -> KeyPair:
    """Deterministic Ed25519 key pair, with its key object, from a 32-byte
    seed."""
    raw = _kdf(b"sign-keygen", _check_secret(seed))
    private = Ed25519PrivateKey.from_private_bytes(raw)
    public = private.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return KeyPair(secret_key=raw, public_key=public, key_object=private)


def sign(pair: KeyPair, message: bytes) -> bytes:
    """Sign with a `sign_keygen` pair's key object."""
    counters.record("sign")
    return pair.key_object.sign(message)


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


def sym_key(key: bytes) -> AESGCM:
    """The AEAD key object of a 32-byte key, for a caller that decrypts
    many ciphertexts under one key. Not a counted op. Raises ValueError if
    the key is not 32 bytes."""
    return AESGCM(_check_secret(key, "key"))


def sym_decrypt(key: bytes | AESGCM, ciphertext: bytes) -> bytes:
    """Decrypt under raw key bytes or a `sym_key` object; one counted op
    either way."""
    counters.record("sym_decrypt")
    if len(ciphertext) < SYM_OVERHEAD:
        raise DecryptFailed("ciphertext too short")
    aead = key if isinstance(key, AESGCM) else sym_key(key)
    try:
        return aead.decrypt(ciphertext[:12], ciphertext[12:], None)
    except InvalidTag as exc:
        raise DecryptFailed("ciphertext did not authenticate") from exc
