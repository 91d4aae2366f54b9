"""Trigger rules: matching semantics, canonical encoding, signed registration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatgate.errors import MalformedControl
from chatgate.primitives import random_secret, pke_keygen, sign_keygen
from chatgate.triggers import (
    BotRegistration,
    TriggerIndex,
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


# -- the roster index ----------------------------------------------------------

# One small alphabet for arguments and messages, with every ASCII whitespace
# byte `bytes.split` splits on, so tokens overlap and prefixes collide.
_ALPHABET = b"ab@ \t\n\r\x0b\x0c"


def _text(min_size, max_size):
    return st.lists(st.sampled_from(_ALPHABET), min_size=min_size,
                    max_size=max_size).map(bytes)


_RULES = st.one_of(
    st.builds(TriggerRule, st.sampled_from(("prefix", "contains", "mention")),
              _text(1, 3)),
    st.builds(TriggerRule, st.sampled_from(("always", "never"))))


@settings(max_examples=400, deadline=None)
@given(rules=st.dictionaries(st.sampled_from([f"bot-{i}" for i in range(6)]),
                             st.lists(_RULES, max_size=3).map(tuple), max_size=6),
       messages=st.lists(_text(0, 12), min_size=1, max_size=4))
def test_index_fires_exactly_the_matching_specs(rules, messages):
    specs = {cid: TriggerSpec(cid, spec_rules) for cid, spec_rules in rules.items()}
    index = TriggerIndex(specs)
    for message in messages:
        assert index.fired(message) == {cid for cid, spec in specs.items()
                                        if spec.matches(message)}


def test_index_cases():
    index = TriggerIndex({
        "all": TriggerSpec("all", (TriggerRule("always"),)),
        "none": TriggerSpec("none", (TriggerRule("never"),)),
        "men": TriggerSpec("men", (TriggerRule("mention", b"@a"),
                                   TriggerRule("mention", b"a b"))),
        "men2": TriggerSpec("men2", (TriggerRule("mention", b"@a"),)),
        "pre": TriggerSpec("pre", (TriggerRule("prefix", b"!go"),)),
        "con": TriggerSpec("con", (TriggerRule("contains", b"b"),)),
    })
    assert index.fired(b"") == {"all"}
    assert index.fired(b"x\t@a\n") == {"all", "men", "men2"}
    assert index.fired(b"@ab") == {"all", "con"}
    assert index.fired(b"!go") == {"all", "pre"}
    assert index.fired(b" !go") == {"all"}
    assert TriggerIndex({}).fired(b"@a !go") == set()


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
    return make_registration(cid, enc.public_key, sig,
                             (TriggerRule("mention", b"@echo"),))


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
        enc_public_key=other.public_key,
        sig_public_key=reg.sig_public_key, trigger=reg.trigger,
        signature=reg.signature)
    assert not swapped_key.verify_signature()

    swapped_trigger = BotRegistration(
        enc_public_key=reg.enc_public_key,
        sig_public_key=reg.sig_public_key,
        trigger=TriggerSpec(reg.chatbot_id, (TriggerRule("always"),)),
        signature=reg.signature)
    assert not swapped_trigger.verify_signature()

    swapped_id = BotRegistration(
        enc_public_key=reg.enc_public_key,
        sig_public_key=reg.sig_public_key,
        trigger=TriggerSpec("other-bot-02", reg.trigger.rules),
        signature=reg.signature)
    assert swapped_id.chatbot_id == "other-bot-02"
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
