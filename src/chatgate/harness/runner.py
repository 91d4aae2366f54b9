"""Executes a scenario against a fresh provider, one op at a time.

The runner is the measurement boundary: every party action runs inside a
counter-attribution span, every published bundle is drained to all its
recipients before the next op starts, and after each op the runner captures
party snapshots plus the set of secrets that op superseded. Probes consume
those records; the runner itself asserts only basic sanity (all current
members agree on the epoch and group secret after every op).

Reports are pure function-of-the-scenario: no wall-clock times, no host
details. Two runs with the same seed produce byte-identical transcripts.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

from .. import cgka, counters
from ..encoding import peek_type
from ..errors import BadPseudonymSignature, ChatGateError, DecryptFailed
from ..group import (
    BOT_MESSAGE,
    NOT_ADDRESSED,
    ChatbotState,
    PseudonymRegistration,
    UserState,
    chatbot_init,
    user_init,
)
from ..primitives import MSG_KEY, derive, seeded
from ..provider import Provider
from ..triggers import rules_from_text
from .scenario import (
    AddBot,
    AddUser,
    BotDecl,
    BotSend,
    Compromise,
    GroupOp,
    Op,
    RegisterPseudonym,
    RemBot,
    RemUser,
    Scenario,
    Send,
    Update,
    parse_scenario,
)


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
    def __init__(self, scenario: Scenario, seed: int | None = None,
                 keep_snapshots: bool = True) -> None:
        self.scenario = scenario
        self.seed = seed
        self.keep_snapshots = keep_snapshots
        self.result = RunResult(scenario=scenario, seed=seed,
                                provider=Provider(), users={}, bots={},
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
                except ChatGateError as exc:
                    exc.add_note(_where(op))
                    raise
        return self.result

    def _apply(self, op: Op) -> None:
        res = self.result
        gid = self.scenario.group_id

        if isinstance(op, GroupOp):
            for uid in op.members:
                with counters.attribute(uid):
                    res.users[uid] = user_init(
                        cgka.init(uid, res.provider.directory), res.provider)
                res.provider.register_party(uid, res.users[uid])
            res.provider.create_group(gid, list(op.members))
            creator = op.members[0]
            with counters.attribute(creator):
                blob = res.users[creator].create_group(gid, list(op.members))
            seq = res.provider.publish(gid, creator, user_view=blob)
            self._event(op, seq, op="group", actor=creator,
                        members=list(op.members))
            self._finish(seq)

        elif isinstance(op, BotDecl):
            with counters.attribute(op.chatbot_id):
                bot = chatbot_init(op.chatbot_id, rules_from_text(op.rules_text))
            res.bots[op.chatbot_id] = bot
            res.provider.register_bot(bot.registration)
            res.provider.register_party(op.chatbot_id, bot)
            self._event(op, None, op="bot", chatbot=op.chatbot_id,
                        rules=op.rules_text)

        elif isinstance(op, AddBot):
            with counters.attribute(op.actor):
                blob = res.users[op.actor].add_chatbot(op.chatbot_id)
            res.provider.attach_chatbot(gid, op.chatbot_id)
            seq = res.provider.publish(gid, op.actor, user_view=blob,
                                       bot_view=blob,
                                       bot_targets=(op.chatbot_id,))
            self._event(op, seq, op="add_bot", actor=op.actor,
                        chatbot=op.chatbot_id)
            self._finish(seq)

        elif isinstance(op, RemBot):
            with counters.attribute(op.actor):
                blob = res.users[op.actor].remove_chatbot(op.chatbot_id)
            seq = res.provider.publish(gid, op.actor, user_view=blob,
                                       bot_view=blob,
                                       bot_targets=(op.chatbot_id,))
            self._event(op, seq, op="rem_bot", actor=op.actor,
                        chatbot=op.chatbot_id)
            # deliver while the bot is still routed so it wipes its state,
            # then drop it from the roster before the snapshot pass
            self._last_seq = seq
            self._drain(seq)
            res.provider.detach_chatbot(gid, op.chatbot_id)
            self._post_op(seq)

        elif isinstance(op, AddUser):
            with counters.attribute(op.member_id):
                newcomer = user_init(
                    cgka.init(op.member_id, res.provider.directory), res.provider)
            res.users[op.member_id] = newcomer
            res.provider.register_party(op.member_id, newcomer)
            with counters.attribute(op.actor):
                blob = res.users[op.actor].add_user(op.member_id)
            res.provider.add_member(gid, op.member_id)
            seq = res.provider.publish(gid, op.actor, user_view=blob)
            self._event(op, seq, op="add_user", actor=op.actor,
                        member=op.member_id)
            self._finish(seq)

        elif isinstance(op, RemUser):
            with counters.attribute(op.actor):
                blob = res.users[op.actor].remove_user(op.member_id)
            res.provider.remove_member(gid, op.member_id)
            seq = res.provider.publish(gid, op.actor, user_view=blob)
            self._event(op, seq, op="rem_user", actor=op.actor,
                        member=op.member_id)
            self._finish(seq)

        elif isinstance(op, Update):
            with counters.attribute(op.actor):
                blob = res.users[op.actor].update_keys()
            seq = res.provider.publish(gid, op.actor, user_view=blob)
            self._event(op, seq, op="update", actor=op.actor)
            self._finish(seq)

        elif isinstance(op, Send):
            sender = res.users[op.sender]
            with counters.attribute(op.sender):
                out = sender.send(op.message, conceal=op.conceal,
                                  address_all=op.address_all,
                                  pseudonymous=op.pseudonymous)
            seq = res.provider.publish(gid, op.sender, user_view=out.user_view,
                                       bot_view=out.chatbot_view)
            res.sends.append(SendEvent(
                seq=seq, line_no=op.line_no, kind="user", sender=op.sender,
                epoch=out.epoch, message=op.message, addressed=out.addressed,
                concealed=out.concealed, pseudonymous=op.pseudonymous))
            with counters.paused():
                key = derive(sender.cgka.group_secret, MSG_KEY)
            res.supersessions.append(Supersession(key.hex(), seq))
            self._event(op, seq, op="send", sender=op.sender,
                        addressed=list(out.addressed),
                        concealed=list(out.concealed),
                        pseudonymous=op.pseudonymous, epoch=out.epoch)
            self._finish(seq)

        elif isinstance(op, BotSend):
            with counters.attribute(op.chatbot_id):
                blob = res.bots[op.chatbot_id].send(op.message)
            seq = res.provider.publish(gid, op.chatbot_id, user_view=blob)
            res.sends.append(SendEvent(
                seq=seq, line_no=op.line_no, kind="bot",
                sender=op.chatbot_id, epoch=None, message=op.message,
                addressed=tuple(self.result.current_members())))
            self._event(op, seq, op="bot_send", sender=op.chatbot_id)
            self._finish(seq)

        elif isinstance(op, RegisterPseudonym):
            user = res.users[op.actor]
            with counters.attribute(op.actor):
                out = user.register_pseudonym()
            seq = res.provider.publish(gid, op.actor, user_view=out.user_view,
                                       bot_view=out.chatbot_view)
            # the payload the group sees is the fresh pseudonym public key
            res.sends.append(SendEvent(
                seq=seq, line_no=op.line_no, kind="registration",
                sender=op.actor, epoch=out.epoch,
                message=user.pseudonym.key.public_key,
                addressed=out.addressed))
            with counters.paused():
                key = derive(user.cgka.group_secret, MSG_KEY)
            res.supersessions.append(Supersession(key.hex(), seq))
            self._event(op, seq, op="register_pseudonym", actor=op.actor,
                        handle=user.pseudonym.handle.hex(), epoch=out.epoch)
            self._finish(seq)

        elif isinstance(op, Compromise):
            snap = res.provider.snapshot_state(op.party)
            res.compromises[op.label] = CompromiseEvent(
                label=op.label, party=op.party, seq=self._last_seq,
                snapshot=snap)
            self._event(op, None, op="compromise", party=op.party,
                        label=op.label)

        else:  # pragma: no cover - the parser only emits the types above
            raise TypeError(f"unhandled op {op!r}")

    # -- delivery ---------------------------------------------------------------

    def _finish(self, seq: int) -> None:
        self._last_seq = seq
        self._drain(seq)
        self._post_op(seq)

    def _drain(self, seq: int) -> None:
        res = self.result
        for uid in res.current_members():
            user = res.users[uid]
            for view in res.provider.inbox(uid):
                with counters.attribute(uid):
                    self._deliver_to_user(seq, uid, user, view)
        for cid in res.current_bots():
            bot = res.bots[cid]
            for view in res.provider.inbox(cid):
                with counters.attribute(cid):
                    self._deliver_to_bot(seq, cid, bot, view)

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
            raise RuntimeError(f"group diverged after seq {seq}: epochs={epochs}")
        epoch = epochs.pop()
        res.group_secrets[epoch] = secrets.pop().hex()
        res.seq_epoch[seq] = epoch

        if not self.keep_snapshots:
            return
        for pid in members + bots:
            snap = res.provider.snapshot_state(pid)
            res.snapshots.setdefault(pid, []).append((seq, snap))
            if pid in res.bots:
                continue
            current = _node_secrets(res.users[pid].cgka)
            previous = self._prev_secrets.get(pid, {})
            for idx, old in previous.items():
                if old is not None and current.get(idx) != old:
                    res.supersessions.append(Supersession(old, seq))
            self._prev_secrets[pid] = current
        for uid in list(self._prev_secrets):
            if uid not in members:
                del self._prev_secrets[uid]

    def _event(self, source: Op, seq: int | None, **detail) -> None:
        self.result.events.append({"seq": seq, "line": source.line_no, **detail})


# op type -> its scenario keyword, for error notes
_OP_NAMES = {GroupOp: "group", BotDecl: "bot", AddBot: "add_bot",
             RemBot: "rem_bot", AddUser: "add_user", RemUser: "rem_user",
             Send: "send", BotSend: "bot_send", Update: "update",
             RegisterPseudonym: "register_pseudonym", Compromise: "compromise"}


def _where(op: Op) -> str:
    """The scenario line, op and acting party of `op`, for an error note."""
    if isinstance(op, GroupOp):
        party = op.members[0]
    else:
        party = next(getattr(op, a) for a in ("actor", "sender", "party",
                                                 "chatbot_id") if hasattr(op, a))
    return f"scenario line {op.line_no}: {_OP_NAMES[type(op)]} by {party}"


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
    """node index -> chained secret hex, over a member's own direct path."""
    return {x: s.hex() for x, (s, _) in sorted(state.path.items()) if s is not None}


def run_scenario(scenario: Scenario, seed: int | None = None,
                 keep_snapshots: bool = True) -> RunResult:
    return Runner(scenario, seed=seed, keep_snapshots=keep_snapshots).run()


def run_text(text: str, seed: int | None = None,
             keep_snapshots: bool = True) -> RunResult:
    return run_scenario(parse_scenario(text), seed=seed,
                        keep_snapshots=keep_snapshots)
