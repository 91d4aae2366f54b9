"""Exception types shared across the package.

Every error raised by the protocol layers derives from ChatGateError so
callers can catch the family in one clause. The names mirror the failure
they signal; none of them carry secret material in their messages.
"""

from __future__ import annotations


class ChatGateError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# crypto
# ---------------------------------------------------------------------------

class DecryptFailed(ChatGateError):
    """Authenticated decryption or unsealing failed."""


# ---------------------------------------------------------------------------
# group key agreement
# ---------------------------------------------------------------------------

class UnknownMember(ChatGateError):
    """A referenced member has no published init key."""


class AlreadyMember(ChatGateError):
    """Attempt to add an id that already occupies a leaf."""


class NotMember(ChatGateError):
    """The id does not occupy a leaf in this group (or may not publish)."""


class CannotRemoveSelf(ChatGateError):
    """A member tried to remove their own leaf."""


class NoGroup(ChatGateError):
    """The operation needs an established group and there is none."""


class StaleEpoch(ChatGateError):
    """Control message from an epoch older than the local one."""


class FutureEpoch(ChatGateError):
    """Control message from an epoch ahead of the local one."""


class MalformedControl(ChatGateError):
    """A control or bundle did not decode to the expected shape."""


# ---------------------------------------------------------------------------
# chatbot protocol
# ---------------------------------------------------------------------------

class UnknownChatbot(ChatGateError):
    """No registration exists for the chatbot id."""


class DuplicateChatbot(ChatGateError):
    """The chatbot id is already attached to the group."""


class NotPresent(ChatGateError):
    """The chatbot id is not attached to the group, or this party holds no
    record of it."""


class PseudonymNotRegistered(ChatGateError):
    """Pseudonymous send attempted before broadcasting a pseudonym key."""


class BadPseudonymSignature(ChatGateError):
    """A pseudonymous payload failed verification against the registry."""


class NoChatbots(ChatGateError):
    """The operation requires at least one attached chatbot."""


# ---------------------------------------------------------------------------
# provider
# ---------------------------------------------------------------------------

class DuplicateId(ChatGateError):
    """The id is already registered with the provider."""


class BadSignature(ChatGateError):
    """A registration signature did not verify."""


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

class ScenarioParseError(ChatGateError):
    """A scenario file failed to parse; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ProbeFailed(ChatGateError):
    """A security probe found a counterexample."""


class GroupDiverged(ChatGateError):
    """After an op, the current members disagree on epoch or group secret."""
