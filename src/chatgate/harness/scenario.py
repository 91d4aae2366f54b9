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

Each op is one class below. Its `keyword` starts the line, and its fields
after `line_no` are the line's arguments in order: the acting `party`
first, then the required fields, then any boolean fields as optional flags.
`group` alone has its own form, `group <id> <member>...`.
"""

from __future__ import annotations

import shlex
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from typing import ClassVar

from ..errors import ScenarioParseError
from ..triggers import rules_from_text


@dataclass(frozen=True)
class Op:
    keyword: ClassVar[str]
    line_no: int
    party: str                     # who acts


@dataclass(frozen=True)
class GroupOp(Op):
    keyword = "group"              # party: the creator, the first member
    group_id: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class BotDecl(Op):
    keyword = "bot"                # party: the declared chatbot
    rules: str


@dataclass(frozen=True)
class AddBot(Op):
    keyword = "add_bot"
    chatbot: str


@dataclass(frozen=True)
class RemBot(Op):
    keyword = "rem_bot"
    chatbot: str


@dataclass(frozen=True)
class AddUser(Op):
    keyword = "add_user"
    member: str


@dataclass(frozen=True)
class RemUser(Op):
    keyword = "rem_user"
    member: str


@dataclass(frozen=True)
class Send(Op):
    keyword = "send"
    message: bytes
    conceal: bool = False
    pseudonymous: bool = False
    address_all: bool = False


@dataclass(frozen=True)
class BotSend(Op):
    keyword = "bot_send"           # party: the replying chatbot
    message: bytes


@dataclass(frozen=True)
class Update(Op):
    keyword = "update"


@dataclass(frozen=True)
class RegisterPseudonym(Op):
    keyword = "register_pseudonym"


@dataclass(frozen=True)
class Compromise(Op):
    keyword = "compromise"         # party: whose state leaks
    label: str


OPS: dict[str, type[Op]] = {cls.keyword: cls for cls in Op.__subclasses__()}


@dataclass
class Scenario:
    group_id: str
    ops: list[Op] = field(default_factory=list)


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

    def apply(self, op: Op) -> None:
        """Raise if `op` cannot happen in the state so far, else take it in."""
        line_no, who = op.line_no, op.party
        match op:
            case GroupOp(members=members):
                if len(set(members)) != len(members):
                    raise ScenarioParseError(line_no, "duplicate member in group")
                self.members = set(members)
            case BotDecl(rules=rules):
                if who in self.bots_declared:
                    raise ScenarioParseError(line_no, f"bot {who!r} declared twice")
                try:
                    rules_from_text(rules)
                except ValueError as exc:
                    raise ScenarioParseError(line_no, str(exc)) from None
                self.bots_declared.add(who)
            case AddBot(chatbot=cid):
                self.member(line_no, who)
                if cid not in self.bots_declared:
                    raise ScenarioParseError(line_no, f"bot {cid!r} was never declared")
                if cid in self.bots_attached:
                    raise ScenarioParseError(line_no, f"bot {cid!r} already attached")
                self.bots_attached.add(cid)
            case RemBot(chatbot=cid):
                self.member(line_no, who)
                self.attached(line_no, cid)
                self.bots_attached.discard(cid)
            case AddUser(member=uid):
                self.member(line_no, who)
                if uid in self.members:
                    raise ScenarioParseError(line_no, f"{uid!r} is already a member")
                self.members.add(uid)
            case RemUser(member=uid):
                self.member(line_no, who)
                self.member(line_no, uid)
                if who == uid:
                    raise ScenarioParseError(line_no, "members cannot remove themselves")
                self.members.discard(uid)
                self.pseudonym_holders.discard(uid)
            case Send():
                self.member(line_no, who)
                if op.pseudonymous and who not in self.pseudonym_holders:
                    raise ScenarioParseError(
                        line_no, f"{who!r} has no pseudonym registered here")
            case BotSend():
                self.attached(line_no, who)
            case Update():
                self.member(line_no, who)
            case RegisterPseudonym():
                self.member(line_no, who)
                if not self.bots_attached:
                    raise ScenarioParseError(line_no, "no chatbot attached to register with")
                self.pseudonym_holders.add(who)
            case Compromise(label=label):
                if who not in self.members and who not in self.bots_attached:
                    raise ScenarioParseError(line_no, f"{who!r} is not live here")
                if label in self.labels:
                    raise ScenarioParseError(line_no, f"label {label!r} reused")
                self.labels.add(label)


@cache
def _form(cls: type[Op]) -> tuple[tuple[str, ...], tuple[str, ...], str]:
    """`cls`'s positional argument names, its flag names and its usage text."""
    own = fields(cls)[1:]  # after line_no
    names = tuple(f.name for f in own if f.default is MISSING)
    flags = tuple(f.name for f in own if f.default is False)
    usage = " ".join([cls.keyword, *(f"<{n}>" for n in names),
                      *(f"[{f}]" for f in flags)])
    return names, flags, usage


def _build(line_no: int, cls: type[Op], args: list[str]) -> Op:
    names, flags, usage = _form(cls)
    given, extra = args[:len(names)], args[len(names):]
    if len(given) < len(names) or (extra and not flags):
        raise ScenarioParseError(line_no, f"usage: {usage}")
    for flag in extra:
        if flag not in flags:
            raise ScenarioParseError(line_no, f"unknown {cls.keyword} flag {flag!r}")
    if len(set(extra)) != len(extra):
        raise ScenarioParseError(line_no, f"repeated {cls.keyword} flag")
    values: dict = dict(zip(names, given), **dict.fromkeys(extra, True))
    if "message" in values:
        values["message"] = values["message"].encode()
    return cls(line_no, **values)


def parse_scenario(text: str) -> Scenario:
    scenario: Scenario | None = None
    check = _Checker()

    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(line, comments=True)
        except ValueError as exc:
            raise ScenarioParseError(line_no, f"bad quoting: {exc}") from None
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]

        if keyword == GroupOp.keyword:
            if scenario is not None:
                raise ScenarioParseError(line_no, "only one group per scenario")
            if len(args) < 2:
                raise ScenarioParseError(line_no, "group needs an id and members")
            op: Op = GroupOp(line_no, args[1], args[0], tuple(args[1:]))
            scenario = Scenario(group_id=args[0])
        elif scenario is None:
            raise ScenarioParseError(line_no, "first operation must be 'group'")
        elif keyword not in OPS:
            raise ScenarioParseError(line_no, f"unknown operation {keyword!r}")
        else:
            op = _build(line_no, OPS[keyword], args)
        check.apply(op)
        scenario.ops.append(op)

    if scenario is None:
        raise ScenarioParseError(0, "empty scenario")
    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
