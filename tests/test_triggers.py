"""Trigger rules: matching semantics, canonical encoding, signed registration."""

import pytest

from chatgate.errors import MalformedControl
from chatgate.primitives import random_secret, pke_keygen, sign_keygen
from chatgate.triggers import (
    BotRegistration,
    TriggerRule,
    TriggerSpec,
    make_registration,
    registration_context,
    rule_from_text,
    rules_from_text,
)


# -- rule semantics ----------------------------------------------------------

def test_prefix_rule():
    rule = TriggerRule("prefix", b"@helper")
    assert rule.matches(b"@helper summarize this")
    assert not rule.matches(b"ask @helper later")
    assert not rule.matches(b"")


def test_contains_rule():
    rule = TriggerRule("contains", b"weather")
    assert rule.matches(b"what is the weather like")
    assert rule.matches(b"weather")
    assert not rule.matches(b"whether or not")


def test_mention_rule_matches_whole_words_only():
    rule = TriggerRule("mention", b"@scribe")
    assert rule.matches(b"hey @scribe take notes")
    assert rule.matches(b"@scribe")
    assert not rule.matches(b"hey @scribes take notes")
    assert not rule.matches(b"email me at x@scribe.example")


def test_always_and_never():
    assert TriggerRule("always").matches(b"")
    assert TriggerRule("always").matches(b"anything")
    assert not TriggerRule("never").matches(b"anything")


def test_rule_validation():
    with pytest.raises(ValueError):
        TriggerRule("regex", b"x")
    with pytest.raises(ValueError):
        TriggerRule("always", b"arg")
    with pytest.raises(ValueError):
        TriggerRule("prefix", b"")


def test_spec_fires_if_any_rule_fires():
    spec = TriggerSpec("bot-a", (TriggerRule("prefix", b"!go"),
                                 TriggerRule("contains", b"urgent")))
    assert spec.matches(b"!go now")
    assert spec.matches(b"this is urgent please")
    assert not spec.matches(b"nothing to see")


def test_empty_spec_never_fires():
    spec = TriggerSpec("bot-a", ())
    assert not spec.matches(b"anything")


# -- canonical encoding ------------------------------------------------------

def test_spec_roundtrip_and_stability():
    spec = TriggerSpec("bot-b", (TriggerRule("mention", b"@b"),
                                 TriggerRule("always"),))
    blob = spec.canonical_bytes()
    assert blob == spec.canonical_bytes()
    back = TriggerSpec.from_bytes(blob)
    assert back == spec
    assert back.canonical_bytes() == blob


def test_spec_encoding_distinguishes_rule_order():
    a = TriggerSpec("bot", (TriggerRule("contains", b"x"),
                            TriggerRule("contains", b"y")))
    b = TriggerSpec("bot", (TriggerRule("contains", b"y"),
                            TriggerRule("contains", b"x")))
    assert a.canonical_bytes() != b.canonical_bytes()


def test_spec_from_garbage_rejected():
    with pytest.raises(MalformedControl):
        TriggerSpec.from_bytes(b"\xff\x00\x01junk")


# -- text form (scenario files) ----------------------------------------------

def test_rule_from_text():
    assert rule_from_text("prefix:@bot") == TriggerRule("prefix", b"@bot")
    assert rule_from_text("always") == TriggerRule("always")
    assert rule_from_text("contains:hello world") == TriggerRule("contains", b"hello world")


def test_rules_from_text_comma_separated():
    rules = rules_from_text("mention:@a,contains:deploy")
    assert rules == (TriggerRule("mention", b"@a"), TriggerRule("contains", b"deploy"))


def test_rule_from_text_errors():
    with pytest.raises(ValueError):
        rule_from_text("regex:.*")
    with pytest.raises(ValueError):
        rule_from_text("prefix")
    with pytest.raises(ValueError):
        rule_from_text("")


# -- signed registration -----------------------------------------------------

def _fresh_registration(cid="echo-bot-01"):
    enc = pke_keygen(random_secret())
    sig = sign_keygen(random_secret())
    return make_registration(cid, enc.public_key, sig.secret_key,
                             sig.public_key, (TriggerRule("mention", b"@echo"),))


def test_registration_verifies():
    reg = _fresh_registration()
    assert reg.verify_signature()


def test_registration_roundtrip():
    reg = _fresh_registration()
    back = BotRegistration.from_bytes(reg.to_bytes())
    assert back == reg
    assert back.verify_signature()


def test_tampered_registration_fails():
    reg = _fresh_registration()
    other = pke_keygen(random_secret())
    swapped_key = BotRegistration(
        chatbot_id=reg.chatbot_id, enc_public_key=other.public_key,
        sig_public_key=reg.sig_public_key, trigger=reg.trigger,
        signature=reg.signature)
    assert not swapped_key.verify_signature()

    swapped_trigger = BotRegistration(
        chatbot_id=reg.chatbot_id, enc_public_key=reg.enc_public_key,
        sig_public_key=reg.sig_public_key,
        trigger=TriggerSpec(reg.chatbot_id, (TriggerRule("always"),)),
        signature=reg.signature)
    assert not swapped_trigger.verify_signature()

    swapped_id = BotRegistration(
        chatbot_id="other-bot-02", enc_public_key=reg.enc_public_key,
        sig_public_key=reg.sig_public_key, trigger=reg.trigger,
        signature=reg.signature)
    assert not swapped_id.verify_signature()


def test_context_binds_all_parts():
    reg = _fresh_registration()
    ctx = registration_context(reg.enc_public_key, reg.sig_public_key, reg.trigger)
    assert reg.enc_public_key in ctx
    assert reg.sig_public_key in ctx
    other = registration_context(reg.enc_public_key, reg.sig_public_key,
                                 TriggerSpec(reg.chatbot_id, (TriggerRule("always"),)))
    assert ctx != other


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
