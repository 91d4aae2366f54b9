"""Line-based scenario files for the runner.

One operation per line; `#` starts a comment; messages are shell-quoted.
Every reference is checked at parse time against the membership state the
ops imply, so a bad scenario fails before anything runs:

    group grp-demo user-00 user-01 user-02
    bot echo-bot-01 mention:@echo
    add_bot user-00 echo-bot-01
    send user-01 "hey @echo, summarize" conceal
    bot_send echo-bot-01 "summary: ..."
    register_pseudonym user-02
    send user-02 "anonymous question" pseudonymous
    compromise user-01 before-heal
    send user-01 "healing message" address_all
    update user-00
    add_user user-00 user-03
    rem_user user-00 user-01
    rem_bot user-00 echo-bot-01
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field

from ..errors import ScenarioParseError
from ..triggers import rules_from_text


@dataclass(frozen=True)
class GroupOp:
    line_no: int
    group_id: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class BotDecl:
    line_no: int
    chatbot_id: str
    rules_text: str


@dataclass(frozen=True)
class AddBot:
    line_no: int
    actor: str
    chatbot_id: str


@dataclass(frozen=True)
class RemBot:
    line_no: int
    actor: str
    chatbot_id: str


@dataclass(frozen=True)
class AddUser:
    line_no: int
    actor: str
    member_id: str


@dataclass(frozen=True)
class RemUser:
    line_no: int
    actor: str
    member_id: str


@dataclass(frozen=True)
class Send:
    line_no: int
    sender: str
    message: bytes
    conceal: bool = False
    pseudonymous: bool = False
    address_all: bool = False


@dataclass(frozen=True)
class BotSend:
    line_no: int
    chatbot_id: str
    message: bytes


@dataclass(frozen=True)
class Update:
    line_no: int
    actor: str


@dataclass(frozen=True)
class RegisterPseudonym:
    line_no: int
    actor: str


@dataclass(frozen=True)
class Compromise:
    line_no: int
    party: str
    label: str


Op = (GroupOp | BotDecl | AddBot | RemBot | AddUser | RemUser
      | Send | BotSend | Update | RegisterPseudonym | Compromise)


@dataclass
class Scenario:
    group_id: str
    ops: list[Op] = field(default_factory=list)

    @property
    def initial_members(self) -> tuple[str, ...]:
        return self.ops[0].members


_SEND_FLAGS = ("conceal", "pseudonymous", "address_all")


class _Checker:
    """Mirrors the membership state the ops imply, line by line."""

    def __init__(self) -> None:
        self.members: set[str] = set()
        self.bots_declared: set[str] = set()
        self.bots_attached: set[str] = set()
        self.pseudonym_holders: set[str] = set()
        self.labels: set[str] = set()

    def member(self, line_no: int, who: str) -> None:
        if who not in self.members:
            raise ScenarioParseError(line_no, f"{who!r} is not a group member here")

    def attached(self, line_no: int, cid: str) -> None:
        if cid not in self.bots_attached:
            raise ScenarioParseError(line_no, f"{cid!r} is not attached here")


def parse_scenario(text: str) -> Scenario:
    scenario: Scenario | None = None
    check = _Checker()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            raise ScenarioParseError(line_no, f"bad quoting: {exc}") from None
        op_name, args = tokens[0], tokens[1:]

        if scenario is None:
            if op_name != "group":
                raise ScenarioParseError(line_no, "first operation must be 'group'")
            if len(args) < 2:
                raise ScenarioParseError(line_no, "group needs an id and members")
            group_id, members = args[0], tuple(args[1:])
            if len(set(members)) != len(members):
                raise ScenarioParseError(line_no, "duplicate member in group")
            scenario = Scenario(group_id=group_id)
            scenario.ops.append(GroupOp(line_no, group_id, members))
            check.members = set(members)
            continue

        op = _parse_op(line_no, op_name, args, scenario, check)
        scenario.ops.append(op)

    if scenario is None:
        raise ScenarioParseError(0, "empty scenario")
    return scenario


def _parse_op(line_no: int, op_name: str, args: list[str],
              scenario: Scenario, check: _Checker) -> Op:
    def need(n: int, usage: str) -> None:
        if len(args) != n:
            raise ScenarioParseError(line_no, f"usage: {usage}")

    if op_name == "group":
        raise ScenarioParseError(line_no, "only one group per scenario")

    if op_name == "bot":
        need(2, "bot <id> <rules>")
        cid, rules_text = args
        if cid in check.bots_declared:
            raise ScenarioParseError(line_no, f"bot {cid!r} declared twice")
        try:
            rules_from_text(rules_text)
        except ValueError as exc:
            raise ScenarioParseError(line_no, str(exc)) from None
        check.bots_declared.add(cid)
        return BotDecl(line_no, cid, rules_text)

    if op_name == "add_bot":
        need(2, "add_bot <actor> <bot-id>")
        actor, cid = args
        check.member(line_no, actor)
        if cid not in check.bots_declared:
            raise ScenarioParseError(line_no, f"bot {cid!r} was never declared")
        if cid in check.bots_attached:
            raise ScenarioParseError(line_no, f"bot {cid!r} already attached")
        check.bots_attached.add(cid)
        return AddBot(line_no, actor, cid)

    if op_name == "rem_bot":
        need(2, "rem_bot <actor> <bot-id>")
        actor, cid = args
        check.member(line_no, actor)
        check.attached(line_no, cid)
        check.bots_attached.discard(cid)
        return RemBot(line_no, actor, cid)

    if op_name == "add_user":
        need(2, "add_user <actor> <member-id>")
        actor, uid = args
        check.member(line_no, actor)
        if uid in check.members:
            raise ScenarioParseError(line_no, f"{uid!r} is already a member")
        check.members.add(uid)
        return AddUser(line_no, actor, uid)

    if op_name == "rem_user":
        need(2, "rem_user <actor> <member-id>")
        actor, uid = args
        check.member(line_no, actor)
        check.member(line_no, uid)
        if actor == uid:
            raise ScenarioParseError(line_no, "members cannot remove themselves")
        check.members.discard(uid)
        check.pseudonym_holders.discard(uid)
        return RemUser(line_no, actor, uid)

    if op_name == "send":
        if len(args) < 2:
            raise ScenarioParseError(line_no, "usage: send <sender> <message> [flags]")
        sender, message, flags = args[0], args[1], args[2:]
        check.member(line_no, sender)
        for flag in flags:
            if flag not in _SEND_FLAGS:
                raise ScenarioParseError(line_no, f"unknown send flag {flag!r}")
        if len(set(flags)) != len(flags):
            raise ScenarioParseError(line_no, "repeated send flag")
        if "pseudonymous" in flags and sender not in check.pseudonym_holders:
            raise ScenarioParseError(
                line_no, f"{sender!r} has no pseudonym registered here")
        return Send(line_no, sender, message.encode(),
                    conceal="conceal" in flags,
                    pseudonymous="pseudonymous" in flags,
                    address_all="address_all" in flags)

    if op_name == "bot_send":
        need(2, "bot_send <bot-id> <message>")
        cid, message = args
        check.attached(line_no, cid)
        return BotSend(line_no, cid, message.encode())

    if op_name == "update":
        need(1, "update <actor>")
        check.member(line_no, args[0])
        return Update(line_no, args[0])

    if op_name == "register_pseudonym":
        need(1, "register_pseudonym <actor>")
        check.member(line_no, args[0])
        if not check.bots_attached:
            raise ScenarioParseError(line_no, "no chatbot attached to register with")
        check.pseudonym_holders.add(args[0])
        return RegisterPseudonym(line_no, args[0])

    if op_name == "compromise":
        need(2, "compromise <party> <label>")
        party, label = args
        if party not in check.members and party not in check.bots_attached:
            raise ScenarioParseError(line_no, f"{party!r} is not live here")
        if label in check.labels:
            raise ScenarioParseError(line_no, f"label {label!r} reused")
        check.labels.add(label)
        return Compromise(line_no, party, label)

    raise ScenarioParseError(line_no, f"unknown operation {op_name!r}")


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
