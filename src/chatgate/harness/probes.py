"""Security probes over a finished run.

Each probe turns one of the protocol's guarantees into a checkable statement
about runner artifacts (snapshots, transcript, supersession records) and
returns a Verdict. Probes never re-derive ground truth from the parties
being tested: the adversary gets exactly a captured state plus the wire
transcript and the public PKI, and the expectations come from the runner's
send log.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

from ..encoding import peek_type
from ..errors import ProbeFailed
from ..group import VIEW_CHATBOT_MESSAGE, ChatbotMessageView, chatbot_view_shape
from ..primitives import NO_EPHEMERAL, PUBLIC_KEY_LEN
from ..provider import Adversary, adversary_decrypt
from .runner import RunResult


@dataclass(frozen=True)
class Verdict:
    probe: str
    passed: bool
    detail: dict

    def check(self) -> "Verdict":
        if not self.passed:
            raise ProbeFailed(f"{self.probe}: {self.detail}")
        return self


def _verdict(probe: str, violations: list, **detail) -> Verdict:
    detail = {**detail, "violations": violations[:10]}
    return Verdict(probe=probe, passed=not violations, detail=detail)


# -- key agreement ---------------------------------------------------------------

def probe_agreement(result: RunResult) -> Verdict:
    """All current members ended on one epoch and one group secret. The
    runner asserts this after every op; re-check the final state here."""
    members = result.current_members()
    epochs = {result.users[m].epoch for m in members}
    secrets = {result.users[m].cgka.group_secret for m in members}
    violations = []
    if len(epochs) != 1 or len(secrets) != 1 or None in secrets:
        violations.append({"epochs": sorted(epochs)})
    return _verdict("agreement", violations,
                    members=len(members), epoch=max(epochs))


# -- selective access ---------------------------------------------------------------

def probe_selective_access(result: RunResult) -> Verdict:
    """Compromising a chatbot's final state plus the full transcript yields
    no plaintext beyond the messages that actually addressed it."""
    violations = []
    recovered_total = 0
    allowed_total = 0
    adversary = Adversary(result.provider.transcript, result.provider)
    for cid in sorted(result.bots):
        history = result.snapshots.get(cid)
        if not history:
            continue
        report = adversary_decrypt(history[-1][1], adversary)
        allowed = {ev.message for ev in result.sends
                   if ev.kind in ("user", "registration") and cid in ev.addressed}
        extra = report.plaintexts - allowed
        recovered_total += len(report.plaintexts)
        allowed_total += len(allowed)
        for message in sorted(extra):
            violations.append({"chatbot": cid, "plaintext": message.hex()[:64]})
    return _verdict("selective_access", violations,
                    chatbots=len(result.bots), recovered=recovered_total,
                    allowed=allowed_total)


# -- forward secrecy ---------------------------------------------------------------

# every byte that is not a lowercase hex digit, mapped to a space
_NOT_HEX = bytes(c if chr(c) in "0123456789abcdef" else 0x20 for c in range(256))


def _hex_windows(snapshot: bytes) -> set[str]:
    """Every 64-character window of each maximal lowercase-hex run in the
    snapshot's text. The hex of a 32-byte secret occurs in the text exactly
    when it is in this set, also when it sits inside a longer hex string."""
    runs = snapshot.translate(_NOT_HEX).decode("ascii").split()
    return {run[i:i + 64] for run in runs if len(run) >= 64
            for i in range(len(run) - 63)}


def probe_forward_secrecy(result: RunResult) -> Verdict:
    """Byte-scan: once an op supersedes a chain secret or message key, the
    value never appears in any in-scope party state again. Chatbot states
    must never contain any group chain secret, current or old. Every value
    is the hex of a 32-byte secret, so each snapshot is scanned once, into
    its set of hex windows, and only the values among them are checked."""
    violations = []
    chain = []  # reported after the dead values, in the same party order
    scanned = 0
    dead = result.supersessions
    dead_at: dict[str, list[int]] = {}  # value -> its places in `dead`
    for i, item in enumerate(dead):
        dead_at.setdefault(item.value_hex, []).append(i)
    all_group_secrets = set(result.group_secrets.values())
    for pid, history in sorted(result.snapshots.items()):
        for snap_seq, snapshot in history:
            scanned += 1
            windows = _hex_windows(snapshot)
            hits = sorted(i for value in windows for i in dead_at.get(value, ())
                          if dead[i].dead_from <= snap_seq)
            violations.extend({"party": pid, "seq": snap_seq,
                               "value": dead[i].value_hex[:16]} for i in hits)
            if pid in result.bots:
                chain.extend({"party": pid, "seq": snap_seq,
                              "value": value[:16], "kind": "chain"}
                             for value in sorted(windows & all_group_secrets))
    violations += chain
    return _verdict("forward_secrecy", violations,
                    snapshots_scanned=scanned, dead_values=len(dead))


# -- post-compromise security ---------------------------------------------------------

def _heal_seq(result: RunResult, party: str, after_seq: int) -> int | None:
    """First op after the compromise that rotates the party's own keys:
    a user's address-all send, or a chatbot's reply."""
    for ev in result.sends:
        if ev.seq <= after_seq or ev.sender != party:
            continue
        if party in result.bots and ev.kind == "bot":
            return ev.seq
        if ev.kind in ("user", "registration") and party not in result.bots:
            # any self-send embeds a tree update; healing the chatbot
            # channel too requires addressing every bot attached right then
            attached = _attached_at(result, ev.seq)
            if attached <= set(ev.addressed):
                return ev.seq
    return None


def _attached_at(result: RunResult, seq: int) -> set[str]:
    for scope_seq, scope in result.scopes:
        if scope_seq == seq:
            return set(scope) & set(result.bots)
    return set(result.current_bots())


def probe_post_compromise(result: RunResult) -> Verdict:
    """After every compromised party heals, nothing sent later is
    recoverable from its captured state, and no later group secret leaks."""
    if not result.compromises:
        raise ProbeFailed("post_compromise: scenario has no compromise op")
    violations = []
    checked = 0
    adversary = Adversary(result.provider.transcript, result.provider)
    for lab in sorted(result.compromises):
        event = result.compromises[lab]
        heal = _heal_seq(result, event.party, event.seq)
        if heal is None:
            raise ProbeFailed(
                f"post_compromise: no healing op for {event.party!r} "
                f"after label {lab!r}")
        report = adversary_decrypt(event.snapshot, adversary)
        for ev in result.sends:
            if ev.seq > heal and ev.message in report.plaintexts:
                violations.append({"label": lab, "seq": ev.seq,
                                   "plaintext": ev.message.hex()[:64]})
        healed_epochs = {epoch for seq, epoch in result.seq_epoch.items()
                         if seq > heal}
        for epoch in sorted(healed_epochs):
            secret = bytes.fromhex(result.group_secrets[epoch])
            if secret in report.secrets:
                violations.append({"label": lab, "epoch": epoch,
                                   "kind": "group_secret"})
        checked += 1
    return _verdict("post_compromise", violations, compromises=checked)


# -- sender anonymity -------------------------------------------------------------

def _chatbot_views(result: RunResult) -> list[tuple[int, str, bytes]]:
    """(seq, chatbot, view) per chatbot message view delivered, in order."""
    out = []
    for row in result.provider.transcript:
        if row["recipient_class"] == "chatbot":
            view = base64.b64decode(row["view_b64"])
            if peek_type(view) == VIEW_CHATBOT_MESSAGE:
                out.append((row["seq"], row["recipient"], view))
    return out


def probe_anonymity(result: RunResult) -> Verdict:
    """Chatbot views carry no sender identity: no member id appears in any
    view, and each chatbot's views of user sends that differ in nothing but
    their sender (the same message, pseudonymity, addressed and concealed
    chatbots) have identical field-length vectors."""
    violations = []
    member_ids = sorted(uid.encode() for uid in result.users)
    sends = {ev.seq: ev for ev in result.sends if ev.kind == "user"}
    groups: dict[tuple, set] = {}  # (chatbot, send class) -> shapes
    seen_views = set()
    views = _chatbot_views(result)
    for seq, cid, view in views:
        if view not in seen_views:
            seen_views.add(view)
            violations.extend({"seq": seq, "leaked": uid.decode()}
                              for uid in member_ids if uid in view)
        ev = sends.get(seq)
        if ev is not None:
            key = (cid, ev.message, ev.pseudonymous, ev.addressed, ev.concealed)
            groups.setdefault(key, set()).add(chatbot_view_shape(view))
    for (cid, message, *_), distinct in groups.items():
        if len(distinct) > 1:
            violations.append({"kind": "shape", "chatbot": cid,
                               "message": message.hex()[:64],
                               "distinct": len(distinct)})
    return _verdict("anonymity", violations, views=len(views))


# -- concealment --------------------------------------------------------------------

def probe_concealment(result: RunResult) -> Verdict:
    """No chatbot view names another chatbot: each carries only its own
    entries, and it carries a body exactly when it carries an entry, so a
    chatbot that no entry names gets no ciphertext. A concealed send gives
    every attached chatbot exactly one fixed-size entry under a genuine
    ephemeral key, and every chatbot not addressed reported the uniform
    not-addressed outcome. Decoding a view refuses any entry box that is
    not `BOX_LEN` wide."""
    violations = []
    entries_by_seq: dict[int, dict[str, tuple]] = {}
    for seq, cid, data in _chatbot_views(result):
        body = ChatbotMessageView.from_bytes(data).body
        ephemeral, entries = (body.ephemeral, body.entries) if body else (None, ())
        if body is not None and not entries:
            violations.append({"seq": seq, "chatbot": cid, "kind": "body"})
        named = {entry[0] for entry in entries}
        if named - {cid}:
            violations.append({"seq": seq, "chatbot": cid, "kind": "other_bot",
                               "named": sorted(named - {cid})})
        entries_by_seq.setdefault(seq, {})[cid] = (ephemeral, entries)
    checked = 0
    for ev in result.sends:
        if ev.kind != "user" or not ev.concealed:
            continue
        checked += 1
        views = entries_by_seq.get(ev.seq, {})
        if ({cid for cid, (_, entries) in views.items() if entries}
                != set(ev.addressed) | set(ev.concealed)):
            violations.append({"seq": ev.seq, "kind": "roster"})
        for cid, (ephemeral, entries) in sorted(views.items()):
            if len(entries) > 1:
                violations.append({"seq": ev.seq, "chatbot": cid,
                                   "kind": "entries", "count": len(entries)})
            if entries and not _is_public_key(ephemeral):
                violations.append({"seq": ev.seq, "chatbot": cid,
                                   "kind": "ephemeral"})
        for cid in ev.concealed:
            outcome = result.bot_outcomes.get((ev.seq, cid))
            if outcome != "not_addressed":
                violations.append({"seq": ev.seq, "chatbot": cid,
                                   "outcome": outcome})
    return _verdict("concealment", violations, concealed_sends=checked)


def _is_public_key(key: bytes) -> bool:
    """Whether `key` is an X25519 public key as key generation writes it:
    32 bytes, a field element below 2^255 - 19, and not NO_EPHEMERAL."""
    return (len(key) == PUBLIC_KEY_LEN and key != NO_EPHEMERAL
            and int.from_bytes(key, "little") < 2**255 - 19)


PROBES = {
    "agreement": probe_agreement,
    "selective": probe_selective_access,
    "fs": probe_forward_secrecy,
    "pcs": probe_post_compromise,
    "anonymity": probe_anonymity,
    "concealment": probe_concealment,
}
