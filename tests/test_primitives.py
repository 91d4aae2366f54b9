"""Primitive-layer tests.

The derived values here (avalanche quality, constant sealed length, distinct
key scan) are measured by independent oracles in the tests themselves and
the thresholds frozen; the roundtrip and tamper properties run both as fixed
1000-trial scans and as hypothesis properties.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatgate import counters, primitives
from chatgate.errors import DecryptFailed

secrets32 = st.binary(min_size=32, max_size=32)
messages = st.binary(min_size=0, max_size=512)


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------

def test_derive_is_deterministic_and_32_bytes():
    s = primitives.random_secret()
    assert primitives.derive(s) == primitives.derive(s)
    assert len(primitives.derive(s)) == 32


def test_derive_never_fixes_input():
    # 1000-seed scan: a derivation step must never return its input.
    for _ in range(1000):
        s = primitives.random_secret()
        assert primitives.derive(s) != s


def test_derive_avalanche():
    # Oracle: flip one random input bit, measure output Hamming distance.
    # SHA-256 should average ~128 of 256 bits; freeze the floor at 100.
    rng = random.Random(20260816)
    total_bits = 0
    trials = 1000
    for _ in range(trials):
        s = bytearray(rng.randbytes(32))
        a = primitives.derive(bytes(s))
        bit = rng.randrange(256)
        s[bit // 8] ^= 1 << (bit % 8)
        b = primitives.derive(bytes(s))
        total_bits += sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    assert total_bits / trials >= 100


def test_derive_labels_are_disjoint_domains():
    s = primitives.random_secret()
    outs = {
        primitives.derive(s, primitives.CHAIN),
        primitives.derive(s, primitives.MSG_KEY),
        primitives.derive(s, primitives.HANDLE),
    }
    assert len(outs) == 3


def test_derive_rejects_bad_length():
    with pytest.raises(ValueError):
        primitives.derive(b"short")


# ---------------------------------------------------------------------------
# sealed boxes
# ---------------------------------------------------------------------------

def test_keygen_deterministic_same_seed():
    seed = primitives.random_secret()
    assert primitives.pke_keygen(seed) == primitives.pke_keygen(seed)


def test_keygen_distinct_seeds_distinct_keys():
    # 1000-seed collision scan over public keys.
    pks = {primitives.pke_keygen(primitives.random_secret()).public_key
           for _ in range(1000)}
    assert len(pks) == 1000


def test_keygen_secret_key_is_not_the_seed():
    seed = primitives.random_secret()
    kp = primitives.pke_keygen(seed)
    assert kp.secret_key != seed
    assert seed not in kp.secret_key and seed not in kp.public_key


def test_seal_open_roundtrip():
    kp = primitives.pke_keygen(primitives.random_secret())
    payload = primitives.random_secret()
    box = primitives.pke_seal(kp.public_key, payload)
    assert primitives.pke_open(kp.secret_key, box) == payload


def test_open_with_wrong_key_fails():
    kp = primitives.pke_keygen(primitives.random_secret())
    other = primitives.pke_keygen(primitives.random_secret())
    box = primitives.pke_seal(kp.public_key, primitives.random_secret())
    with pytest.raises(DecryptFailed):
        primitives.pke_open(other.secret_key, box)


def test_sealed_length_constant_for_32_byte_payloads():
    # 1000-seal scan; the frozen constant is 80 bytes.
    kp = primitives.pke_keygen(primitives.random_secret())
    lengths = {len(primitives.pke_seal(kp.public_key, primitives.random_secret()))
               for _ in range(1000)}
    assert lengths == {primitives.SEALED_LEN} == {80}


def test_seal_tamper_any_byte_fails():
    # 1000 random single-byte flips across fresh boxes.
    rng = random.Random(7)
    kp = primitives.pke_keygen(primitives.random_secret())
    for _ in range(1000):
        payload = primitives.random_secret()
        box = bytearray(primitives.pke_seal(kp.public_key, payload))
        pos = rng.randrange(len(box))
        box[pos] ^= rng.randrange(1, 256)
        with pytest.raises(DecryptFailed):
            primitives.pke_open(kp.secret_key, bytes(box))


def test_open_garbage_box_fails_uniformly():
    kp = primitives.pke_keygen(primitives.random_secret())
    with pytest.raises(DecryptFailed):
        primitives.pke_open(kp.secret_key, primitives.random_bytes(primitives.SEALED_LEN))
    with pytest.raises(DecryptFailed):
        primitives.pke_open(kp.secret_key, b"")


def test_open_with_key_pair_matches_raw_secret_key():
    kp = primitives.pke_keygen(primitives.random_secret())
    payload = primitives.random_secret()
    box = primitives.pke_seal(kp.public_key, payload)
    assert kp.key_object is not None
    assert primitives.pke_open(kp, box) == payload
    assert primitives.pke_open(kp.secret_key, box) == payload


def test_open_with_key_pair_or_raw_bytes_rejects_wrong_key_and_tamper():
    kp = primitives.pke_keygen(primitives.random_secret())
    other = primitives.pke_keygen(primitives.random_secret())
    box = primitives.pke_seal(kp.public_key, primitives.random_secret())
    tampered = bytearray(box)
    tampered[-1] ^= 1
    for wrong, good in ((other, kp), (other.secret_key, kp.secret_key)):
        with pytest.raises(DecryptFailed):
            primitives.pke_open(wrong, box)
        with pytest.raises(DecryptFailed):
            primitives.pke_open(good, bytes(tampered))


def test_keygen_key_object_is_outside_equality_and_repr():
    kp = primitives.pke_keygen(primitives.random_secret())
    bare = primitives.KeyPair(secret_key=kp.secret_key, public_key=kp.public_key)
    assert kp == bare
    assert repr(kp) == repr(bare)
    assert "key_object" not in repr(kp) and "X25519" not in repr(kp)


def test_x25519_key_pair_is_not_a_counted_op():
    scalar = primitives.pke_keygen(primitives.random_secret()).secret_key
    tally = counters.OpCounters()
    with counters.collect(tally):
        with counters.attribute("adversary"):
            kp = primitives.x25519_key_pair(scalar)
    assert kp.secret_key == scalar
    assert tally.by_party == {}


@settings(max_examples=50)
@given(seed=secrets32, payload=secrets32)
def test_seal_roundtrip_property(seed, payload):
    kp = primitives.pke_keygen(seed)
    assert primitives.pke_open(kp.secret_key, primitives.pke_seal(kp.public_key, payload)) == payload


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def test_sign_verify_roundtrip():
    kp = primitives.sign_keygen(primitives.random_secret())
    sig = primitives.sign(kp.secret_key, b"the message")
    assert len(sig) == primitives.SIG_LEN
    assert primitives.verify(kp.public_key, sig, b"the message")
    assert not primitives.verify(kp.public_key, sig, b"the messagf")


def test_verify_flip_scan():
    rng = random.Random(11)
    kp = primitives.sign_keygen(primitives.random_secret())
    msg = b"payload under test"
    sig = primitives.sign(kp.secret_key, msg)
    for _ in range(200):
        bad = bytearray(sig)
        bad[rng.randrange(len(bad))] ^= rng.randrange(1, 256)
        assert not primitives.verify(kp.public_key, bytes(bad), msg)


def test_verify_garbage_inputs_return_false():
    assert not primitives.verify(b"\x00" * 32, b"\x00" * 64, b"m")
    assert not primitives.verify(b"short", b"\x00" * 64, b"m")


# ---------------------------------------------------------------------------
# symmetric encryption
# ---------------------------------------------------------------------------

@settings(max_examples=50)
@given(key=secrets32, message=messages)
def test_sym_roundtrip_property(key, message):
    ct = primitives.sym_encrypt(key, message)
    assert len(ct) == len(message) + primitives.SYM_OVERHEAD
    assert primitives.sym_decrypt(key, ct) == message


def test_sym_wrong_key_and_tamper_fail():
    key = primitives.random_secret()
    ct = primitives.sym_encrypt(key, b"hello group")
    with pytest.raises(DecryptFailed):
        primitives.sym_decrypt(primitives.random_secret(), ct)
    bad = bytearray(ct)
    bad[-1] ^= 1
    with pytest.raises(DecryptFailed):
        primitives.sym_decrypt(key, bytes(bad))
    with pytest.raises(DecryptFailed):
        primitives.sym_decrypt(key, b"")


# ---------------------------------------------------------------------------
# randomness control
# ---------------------------------------------------------------------------

def test_deterministic_random_reproduces_streams():
    a = primitives.DeterministicRandom(42)
    b = primitives.DeterministicRandom(42)
    c = primitives.DeterministicRandom(43)
    sa = [a(n) for n in (1, 32, 7, 64)]
    sb = [b(n) for n in (1, 32, 7, 64)]
    assert sa == sb
    assert c(32) != sb[1]


def test_seeded_context_makes_seal_reproducible():
    kp = primitives.pke_keygen(b"\x01" * 32)
    payload = b"\x02" * 32
    with primitives.seeded(99):
        box1 = primitives.pke_seal(kp.public_key, payload)
    with primitives.seeded(99):
        box2 = primitives.pke_seal(kp.public_key, payload)
    assert box1 == box2
    assert primitives.pke_open(kp.secret_key, box1) == payload


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def test_counters_attribute_exact_counts():
    tally = counters.OpCounters()
    with counters.collect(tally):
        with counters.attribute("alice"):
            kp = primitives.pke_keygen(primitives.random_secret())
            box = primitives.pke_seal(kp.public_key, primitives.random_secret())
        with counters.attribute("bob"):
            primitives.pke_open(kp.secret_key, box)
            primitives.derive(primitives.random_secret())
    assert tally.party("alice")["pke_keygen"] == 1
    assert tally.party("alice")["pke_seal"] == 1
    assert tally.party("alice")["pke_open"] == 0
    assert tally.party("bob")["pke_open"] == 1
    assert tally.party("bob")["derive"] == 1
    assert tally.total("pke_seal") == 1


def test_counters_inactive_outside_collect():
    tally = counters.OpCounters()
    primitives.derive(primitives.random_secret())
    assert tally.total("derive") == 0


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
