"""Executes a scenario against a fresh provider, one op at a time.

The runner is the measurement boundary. Every op that publishes is one
call of a `driver.Group` op method, which builds, routes and publishes its
bundle; the runner records what the call returns and drains the bundle to
all its recipients before the next op starts. After each op the runner
captures party snapshots plus the set of secrets that op superseded.
Probes consume those records; the runner itself asserts only basic sanity
(all current members agree on the epoch and group secret after every op),
and its errors name the scenario line, op and party.

Reports are pure function-of-the-scenario: no wall-clock times, no host
details. Two runs with the same seed produce byte-identical transcripts.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

from .. import cgka, counters
from ..encoding import peek_type
from ..errors import BadPseudonymSignature, ChatGateError, DecryptFailed, GroupDiverged
from ..group import (
    BOT_MESSAGE,
    NOT_ADDRESSED,
    ChatbotState,
    PseudonymRegistration,
    UserState,
)
from ..primitives import MSG_KEY, derive, seeded
from ..provider import Provider
from ..triggers import rules_from_text
from . import scenario as sc
from .driver import Group
from .scenario import Op, Scenario, parse_scenario


@dataclass(frozen=True)
class SendEvent:
    seq: int
    line_no: int
    kind: str                      # "user" | "bot" | "registration"
    sender: str
    epoch: int | None              # group epoch of the send (user sends)
    message: bytes
    addressed: tuple[str, ...]
    concealed: tuple[str, ...] = ()
    pseudonymous: bool = False


@dataclass(frozen=True)
class CompromiseEvent:
    label: str
    party: str
    seq: int                       # last completed publish when captured
    snapshot: bytes


@dataclass(frozen=True)
class Supersession:
    """`value_hex`, the hex of a 32-byte secret, must not appear in any
    in-scope snapshot at seq >= dead_from."""
    value_hex: str
    dead_from: int


@dataclass
class RunResult:
    scenario: Scenario
    seed: int | None
    provider: Provider
    users: dict[str, UserState]
    bots: dict[str, ChatbotState]
    counters: counters.OpCounters
    sends: list[SendEvent] = field(default_factory=list)
    compromises: dict[str, CompromiseEvent] = field(default_factory=dict)
    supersessions: list[Supersession] = field(default_factory=list)
    snapshots: dict[str, list[tuple[int, bytes]]] = field(default_factory=dict)
    scopes: list[tuple[int, frozenset[str]]] = field(default_factory=list)
    bot_outcomes: dict[tuple[int, str], str] = field(default_factory=dict)
    user_outcomes: dict[tuple[int, str], str] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    group_secrets: dict[int, str] = field(default_factory=dict)  # epoch -> hex
    seq_epoch: dict[int, int] = field(default_factory=dict)

    @property
    def group_id(self) -> str:
        return self.scenario.group_id

    def current_members(self) -> list[str]:
        return sorted(self.provider.members(self.group_id))

    def current_bots(self) -> list[str]:
        return sorted(self.provider.chatbots(self.group_id))

    def report(self) -> dict:
        members = self.current_members()
        epoch = self.users[members[0]].epoch if members else 0
        return {
            "group_id": self.group_id,
            "seed": self.seed,
            "ops": self.events,
            "final": {
                "epoch": epoch,
                "members": members,
                "chatbots": self.current_bots(),
            },
            "sends": [
                {
                    "seq": ev.seq,
                    "kind": ev.kind,
                    "sender": ev.sender,
                    "epoch": ev.epoch,
                    "addressed": list(ev.addressed),
                    "concealed": list(ev.concealed),
                    "pseudonymous": ev.pseudonymous,
                    "message_len": len(ev.message),
                }
                for ev in self.sends
            ],
            "counters": self.counters.as_dict(),
            "transcript_rows": len(self.provider.transcript),
        }


class Runner:
    def __init__(self, scenario: Scenario, seed: int | None = None) -> None:
        self.scenario = scenario
        self.seed = seed
        self.group = Group(scenario.group_id)
        self.result = RunResult(scenario=scenario, seed=seed,
                                provider=self.group.provider,
                                users=self.group.users, bots=self.group.bots,
                                counters=counters.OpCounters())
        self._last_seq = 0
        self._prev_secrets: dict[str, dict] = {}  # uid -> {node_idx: hex}

    # -- driving --------------------------------------------------------------

    def run(self) -> RunResult:
        with ExitStack() as stack:
            if self.seed is not None:
                stack.enter_context(seeded(self.seed))
            stack.enter_context(counters.collect(self.result.counters))
            for op in self.scenario.ops:
                try:
                    self._apply(op)
                except Exception as exc:
                    exc.add_note(f"scenario line {op.line_no}: "
                                 f"{op.keyword} by {op.party}")
                    raise
        return self.result

    def _apply(self, op: Op) -> None:
        """Run `op` through the driver as its party. Record its event, and
        of a send its `SendEvent` and the message key it supersedes, from
        what the driver returns; drain what it published."""
        res, group, who = self.result, self.group, op.party
        seq = secret = None
        match op:
            case sc.GroupOp():
                detail = {"actor": who, "members": list(op.members)}
                seq = group.create(who, detail["members"])
            case sc.BotDecl():
                group.declare_bot(who, rules_from_text(op.rules))
                detail = {"chatbot": who, "rules": op.rules}
            case sc.AddBot():
                seq = group.attach(who, op.chatbot)
                detail = {"actor": who, "chatbot": op.chatbot}
            case sc.RemBot():
                # detached once its removal is drained, before the snapshots
                seq = group.detach(who, op.chatbot)
                detail = {"actor": who, "chatbot": op.chatbot}
            case sc.AddUser():
                seq = group.add_user(who, op.member)
                detail = {"actor": who, "member": op.member}
            case sc.RemUser():
                seq = group.remove_user(who, op.member)
                detail = {"actor": who, "member": op.member}
            case sc.Update():
                seq = group.update(who)
                detail = {"actor": who}
            case sc.Send():
                seq, out = group.send(who, op.message, conceal=op.conceal,
                                      address_all=op.address_all,
                                      pseudonymous=op.pseudonymous)
                res.sends.append(SendEvent(
                    seq=seq, line_no=op.line_no, kind="user", sender=who,
                    epoch=out.epoch, message=op.message,
                    addressed=out.addressed, concealed=out.concealed,
                    pseudonymous=op.pseudonymous))
                secret = res.users[who].cgka.group_secret
                detail = {"sender": who, "addressed": list(out.addressed),
                          "concealed": list(out.concealed),
                          "pseudonymous": op.pseudonymous, "epoch": out.epoch}
            case sc.BotSend():
                seq = group.bot_send(who, op.message)
                res.sends.append(SendEvent(
                    seq=seq, line_no=op.line_no, kind="bot", sender=who, epoch=None,
                    message=op.message, addressed=tuple(res.current_members())))
                detail = {"sender": who}
            case sc.RegisterPseudonym():
                seq, out = group.register_pseudonym(who)
                user = res.users[who]
                # the payload the group sees is the fresh pseudonym public key
                res.sends.append(SendEvent(
                    seq=seq, line_no=op.line_no, kind="registration",
                    sender=who, epoch=out.epoch,
                    message=user.pseudonym.key.public_key, addressed=out.addressed))
                secret = user.cgka.group_secret
                detail = {"actor": who, "handle": user.pseudonym.handle.hex(),
                          "epoch": out.epoch}
            case sc.Compromise():
                res.compromises[op.label] = CompromiseEvent(
                    label=op.label, party=who, seq=self._last_seq,
                    snapshot=res.provider.snapshot_state(who))
                detail = {"party": who, "label": op.label}
            case _:  # the parser only emits the types above
                raise TypeError(f"unhandled op {op!r}")  # pragma: no cover
        if secret is not None:
            with counters.paused():
                key = derive(secret, MSG_KEY)
            res.supersessions.append(Supersession(key.hex(), seq))
        self._event(op, seq, **detail)
        if seq is not None:
            self._finish(seq)

    # -- delivery ---------------------------------------------------------------

    def _finish(self, seq: int) -> None:
        self._last_seq = seq
        self._drain(seq)
        self._post_op(seq)

    def _drain(self, seq: int) -> None:
        """Deliver every pending view; an error a recipient raises is noted
        with that recipient and the view's sequence number, ahead of the
        note `run` adds for the op."""
        for pid, party, view in self.group.pending():
            deliver = (self._deliver_to_user if isinstance(party, UserState)
                       else self._deliver_to_bot)
            try:
                with counters.attribute(pid):
                    deliver(seq, pid, party, view)
            except ChatGateError as exc:
                exc.add_note(f"delivering seq {seq} to {pid}")
                raise

    def _deliver_to_user(self, seq: int, uid: str, user: UserState,
                         view: bytes) -> None:
        try:
            label = _outcome(user.process(view))
        except DecryptFailed:
            if peek_type(view) != BOT_MESSAGE:
                raise
            # a newcomer that has never been in an addressed epoch for
            # this chatbot cannot read its replies yet; that is the point
            label = "unreadable"
        if label is not None:
            self.result.user_outcomes[(seq, uid)] = label

    def _deliver_to_bot(self, seq: int, cid: str, bot: ChatbotState,
                        view: bytes) -> None:
        try:
            label = _outcome(bot.process(view))
        except BadPseudonymSignature:
            # a bot attached after the handle's registration never saw
            # it and refuses to act on the payload
            label = "rejected"
        if label is not None:
            self.result.bot_outcomes[(seq, cid)] = label

    # -- bookkeeping ---------------------------------------------------------------

    def _post_op(self, seq: int) -> None:
        res = self.result
        members = res.current_members()
        bots = res.current_bots()
        res.scopes.append((seq, frozenset(members + bots)))

        epochs = {res.users[m].epoch for m in members}
        secrets = {res.users[m].cgka.group_secret for m in members}
        if len(epochs) != 1 or len(secrets) != 1 or None in secrets:
            raise GroupDiverged(f"group diverged after seq {seq}: epochs={epochs}")
        epoch = epochs.pop()
        res.group_secrets[epoch] = secrets.pop().hex()
        res.seq_epoch[seq] = epoch

        for pid in members + bots:
            snap = res.provider.snapshot_state(pid)
            res.snapshots.setdefault(pid, []).append((seq, snap))
            if pid in res.bots:
                continue
            current = _node_secrets(res.users[pid].cgka)
            previous = self._prev_secrets.get(pid, {})
            for idx, old in previous.items():
                if current.get(idx) != old:
                    res.supersessions.append(Supersession(old, seq))
            self._prev_secrets[pid] = current
        for uid in list(self._prev_secrets):
            if uid not in members:
                del self._prev_secrets[uid]

    def _event(self, source: Op, seq: int | None, **detail) -> None:
        self.result.events.append({"seq": seq, "line": source.line_no,
                                   "op": source.keyword, **detail})


def _outcome(result) -> str | None:
    """The outcome label of a delivered view's result; controls have none."""
    if result is None:
        return None
    if result is NOT_ADDRESSED:
        return "not_addressed"
    if isinstance(result, PseudonymRegistration):
        return "registration"
    return "message"  # a ReceivedMessage or a chatbot reply's plaintext


def _node_secrets(state: cgka.CgkaState) -> dict[int, str]:
    """node index -> chained secret hex, over a member's own direct path; a
    leaf joined by init key has none, so its init key's scalar instead."""
    return {x: (s or kp.secret_key).hex() for x, (s, kp) in sorted(state.path.items())}


def run_scenario(scenario: Scenario, seed: int | None = None) -> RunResult:
    return Runner(scenario, seed=seed).run()


def run_text(text: str, seed: int | None = None) -> RunResult:
    return run_scenario(parse_scenario(text), seed=seed)
