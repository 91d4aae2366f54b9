"""Chatbot trigger rules and signed registrations.

A trigger is an ordered list of rules evaluated against the message bytes;
the trigger fires if any rule matches. Rules are deliberately simple and
group-public: every user can re-evaluate them locally, which is what keeps
receivers' chatbot records in sync without trusting the sender's addressing
list.

`TriggerIndex` answers the same question for a whole chatbot roster at
once: it files each rule under its kind when built, with one scan per
kind for any of its arguments (a regular expression over the mention and
the contains arguments, a `startswith` over a tuple of the prefixes), so a
message that fires no rule of a kind costs that one C-level scan and
allocates nothing for it. Only a kind whose scan hits splits the message
(mentions) or tests its rules one by one. `TriggerSpec.matches` stays the
reference semantics; the index returns exactly the ids whose spec
matches.

A registration binds its two long-term public keys (encryption and
signing) and its trigger, which names the chatbot id, under one signature.
The trigger is the one place the id is stated, so neither the id, the
trigger nor the keys can be swapped after publication.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass

from .encoding import BYTES, KEY, SIGNATURE, TEXT, U8, Record, items, nested, wire
from .errors import MalformedControl
from .primitives import KeyPair, sign, verify

RULE_KINDS = ("prefix", "contains", "mention", "always", "never")

_RULE_TYPE = {kind: i + 1 for i, kind in enumerate(RULE_KINDS)}
_RULE_KIND = {v: k for k, v in _RULE_TYPE.items()}

_TRIGGER_TYPE = 0x20
_REGISTRATION_TYPE = 0x21


@dataclass(frozen=True)
class TriggerRule:
    kind: str
    argument: bytes = b""

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind in ("always", "never") and self.argument:
            raise ValueError(f"{self.kind} takes no argument")
        if self.kind in ("prefix", "contains", "mention") and not self.argument:
            raise ValueError(f"{self.kind} needs an argument")

    @property
    def type_byte(self) -> int:
        return _RULE_TYPE[self.kind]

    @classmethod
    def from_wire(cls, type_byte: int, argument: bytes) -> "TriggerRule":
        """A decoded rule: an unknown kind byte or a bad rule is malformed."""
        try:
            return cls(kind=_RULE_KIND.get(type_byte, type_byte), argument=argument)
        except ValueError as exc:
            raise MalformedControl(str(exc)) from exc

    def matches(self, message: bytes) -> bool:
        if self.kind == "prefix":
            return message.startswith(self.argument)
        if self.kind == "contains":
            return self.argument in message
        if self.kind == "mention":
            return self.argument in message.split()
        return self.kind == "always"


@wire(_TRIGGER_TYPE, ("chatbot_id", TEXT),
      ("rules", items(Record(("type_byte", U8), ("argument", BYTES),
                             build=TriggerRule.from_wire), into=tuple)),
      encoder="canonical_bytes")
@dataclass(frozen=True)
class TriggerSpec:
    chatbot_id: str
    rules: tuple[TriggerRule, ...]

    def matches(self, message: bytes) -> bool:
        return any(rule.matches(message) for rule in self.rules)


def _finds_any(arguments) -> "re.Pattern[bytes] | None":
    """A pattern that finds any of `arguments` in a message; None for
    none."""
    arguments = sorted(set(arguments))
    return re.compile(b"|".join(map(re.escape, arguments))) if arguments else None


class TriggerIndex:
    """The rules of `{chatbot id: TriggerSpec}`, filed by kind: the ids of
    `always` rules, a dict from mention argument to ids, and (argument, id)
    pairs for `contains` and `prefix`, each kind with its scan for any of
    its arguments. `never` rules fire nothing."""

    __slots__ = ("_always", "_mentions", "_contains", "_prefixes",
                 "_any_mention", "_any_contained", "_any_prefix")

    def __init__(self, specs: Mapping[str, TriggerSpec]) -> None:
        always: set[str] = set()
        self._mentions: dict[bytes, set[str]] = {}
        self._contains: list[tuple[bytes, str]] = []
        self._prefixes: list[tuple[bytes, str]] = []
        for cid, spec in specs.items():
            for rule in spec.rules:
                if rule.kind == "always":
                    always.add(cid)
                elif rule.kind == "mention":
                    self._mentions.setdefault(rule.argument, set()).add(cid)
                elif rule.kind == "contains":
                    self._contains.append((rule.argument, cid))
                elif rule.kind == "prefix":
                    self._prefixes.append((rule.argument, cid))
        self._always = frozenset(always)
        # a mention is a whitespace-delimited token, so it is also a substring
        self._any_mention = _finds_any(self._mentions)
        self._any_contained = _finds_any(argument for argument, _ in self._contains)
        self._any_prefix = tuple(argument for argument, _ in self._prefixes)

    def fired(self, message: bytes) -> frozenset[str]:
        """The ids whose spec matches `message`. A set is built only when a
        scan hits: a message that fires no rule gets the `always` ids back
        as they are."""
        fired = self._always
        if self._any_mention is not None and self._any_mention.search(message):
            for token in self._mentions.keys() & message.split():
                fired = fired.union(self._mentions[token])
        if self._any_contained is not None and self._any_contained.search(message):
            fired = fired.union([cid for argument, cid in self._contains
                                 if argument in message])
        if message.startswith(self._any_prefix):
            fired = fired.union([cid for argument, cid in self._prefixes
                                 if message.startswith(argument)])
        return fired


def rule_from_text(text: str) -> TriggerRule:
    """Parse one rule of the scenario form `kind` or `kind:argument`."""
    kind, sep, argument = text.partition(":")
    try:
        return TriggerRule(kind=kind, argument=argument.encode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"bad trigger rule {text!r}: {exc}") from exc


def rules_from_text(text: str) -> tuple[TriggerRule, ...]:
    """Parse a comma-separated rule list, e.g. `prefix:?go,mention:@tour`."""
    return tuple(rule_from_text(part) for part in text.split(",") if part)


# ---------------------------------------------------------------------------
# registrations
# ---------------------------------------------------------------------------

_TRIGGER = nested(TriggerSpec, "canonical_bytes")


@wire(_REGISTRATION_TYPE, ("enc_public_key", KEY), ("sig_public_key", KEY),
      ("trigger", _TRIGGER), ("signature", SIGNATURE))
@dataclass(frozen=True)
class BotRegistration:
    """Immutable published identity of a chatbot."""

    enc_public_key: bytes
    sig_public_key: bytes
    trigger: TriggerSpec
    signature: bytes

    @property
    def chatbot_id(self) -> str:
        return self.trigger.chatbot_id

    def signing_context(self) -> bytes:
        return registration_context(self.enc_public_key, self.sig_public_key,
                                    self.trigger)

    def verify_signature(self) -> bool:
        return verify(self.sig_public_key, self.signature, self.signing_context())


# what a registration's signature covers: its declaration minus the signature
_REGISTRATION_CONTEXT = Record(("enc_public_key", KEY), ("sig_public_key", KEY),
                               ("trigger", _TRIGGER), type_byte=0x22)


def registration_context(enc_public_key: bytes, sig_public_key: bytes,
                         trigger: TriggerSpec) -> bytes:
    return _REGISTRATION_CONTEXT.encode((enc_public_key, sig_public_key, trigger))


def make_registration(chatbot_id: str, enc_public_key: bytes, sig_identity: KeyPair,
                      rules: tuple[TriggerRule, ...]) -> BotRegistration:
    trigger = TriggerSpec(chatbot_id=chatbot_id, rules=rules)
    signature = sign(sig_identity, registration_context(
        enc_public_key, sig_identity.public_key, trigger))
    return BotRegistration(enc_public_key=enc_public_key,
                           sig_public_key=sig_identity.public_key, trigger=trigger,
                           signature=signature)
