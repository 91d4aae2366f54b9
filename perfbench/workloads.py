"""Seeded op streams and their ground truth.

Each generator mirrors the group's membership in a small model of its own
and plants the trigger tokens itself, so it knows, without calling
`triggers.matches`, which chatbots every message addresses and which of
them must refuse a pseudonymous payload. Streams come in blocks whose op
mix is fixed exactly; the seed only draws who acts, which bots fire, which
flags are set and the words of each message. Every seed therefore gives the
same amount of work per block, which keeps runs comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Words hold only lowercase letters, so a message can never carry a trigger
# token, a member id or a bot id by accident.
_WORDS = ("alpha", "budget", "coffee", "draft", "estimate", "figures",
          "garden", "harbor", "invoice", "jumper", "kettle", "lantern",
          "meeting", "notion", "orbit", "plan", "quarter", "review",
          "schedule", "ticket", "update", "venue", "window", "yield", "zone")


@dataclass(frozen=True)
class BotSpec:
    chatbot_id: str
    rules: str           # scenario rule text, e.g. "mention:@ask"
    token: str | None    # text that fires it; None for always/never
    kind: str            # the rule kind


def _bot(chatbot_id: str, kind: str, token: str | None = None) -> BotSpec:
    rules = kind if token is None else f"{kind}:{token}"
    return BotSpec(chatbot_id, rules, token, kind)


@dataclass(frozen=True)
class Op:
    """One live op plus what it must produce.

    `addressed` is the sorted set of chatbots the message must reach;
    `rejected` the subset that must refuse it because it never saw the
    sender's pseudonym registration.
    """

    kind: str      # send, bot_send, update, register, compromise,
                   # rem_user, add_user, rem_bot, add_bot
    actor: str
    target: str = ""
    message: bytes = b""
    conceal: bool = False
    address_all: bool = False
    pseudonymous: bool = False
    addressed: tuple[str, ...] = ()
    rejected: tuple[str, ...] = ()


@dataclass(frozen=True)
class LiveSpec:
    """A warm group and the fixed per-block op mix run against it."""

    name: str
    n: int
    bots: tuple[BotSpec, ...]
    holders: int           # members 0..holders-1 register a pseudonym in setup
    block_ops: int
    min_blocks: int        # measured blocks at least; their counts repeat


def _words(rng: random.Random, lo: int, hi: int) -> list[str]:
    return [rng.choice(_WORDS) for _ in range(rng.randint(lo, hi))]


def _message(rng: random.Random, fired: list[BotSpec]) -> bytes:
    """A message carrying exactly the tokens of `fired` (at most one prefix)."""
    words = _words(rng, 4, 12)
    prefix = ""
    for bot in fired:
        if bot.kind == "prefix":
            prefix = bot.token
        else:
            words.insert(rng.randrange(len(words) + 1), bot.token)
    text = " ".join(words)
    return (prefix + " " + text if prefix else text).encode()


def member_ids(n: int) -> list[str]:
    return [f"user-{i:03d}" for i in range(n)]


@dataclass
class _Model:
    members: list[str]
    attached: list[str]
    known: dict[str, set[str]] = field(default_factory=dict)  # bot -> handles seen
    synced: set[str] = field(default_factory=set)  # bot key == members' channel key

    def addressing(self, sender: str, fired: set[str], address_all: bool,
                   pseudonymous: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
        addressed = sorted(self.attached if address_all
                           else fired & set(self.attached))
        rejected = sorted(b for b in addressed
                          if pseudonymous and sender not in self.known[b])
        # a refusing bot keeps its old group key while members move on
        self.synced |= set(addressed) - set(rejected)
        self.synced -= set(rejected)
        return tuple(addressed), tuple(rejected)


# ---------------------------------------------------------------------------
# group_chat: a large group, few bots, the receive path dominates
# ---------------------------------------------------------------------------

GROUP_CHAT = LiveSpec(
    name="group_chat", n=128, holders=0, block_ops=40, min_blocks=3,
    bots=(_bot("gc-bot-0", "mention", "@ask"),
          _bot("gc-bot-1", "contains", "#todo"),
          _bot("gc-bot-2", "prefix", "!cmd"),
          _bot("gc-bot-3", "never")))


def group_chat_blocks(seed: int):
    """Blocks of 40 ops: 35 sends (5 fire one bot, 4 concealed), two
    rem_user+add_user pairs that keep n fixed, and one update."""
    rng = random.Random(f"group_chat:{seed}")
    spec = GROUP_CHAT
    model = _Model(members=member_ids(spec.n),
                   attached=[b.chatbot_id for b in spec.bots])
    model.known = {b: set() for b in model.attached}
    firing = [b for b in spec.bots if b.token is not None]
    joined = 0
    while True:
        units: list[str] = (["send"] * 35 + ["churn"] * 2 + ["update"])
        rng.shuffle(units)
        send_slots = [i for i, u in enumerate(units) if u == "send"]
        fire_at = set(rng.sample(send_slots, 5))
        conceal_at = set(rng.sample(send_slots, 4))
        block: list[Op] = []
        for i, unit in enumerate(units):
            if unit == "send":
                sender = rng.choice(model.members)
                fired = [rng.choice(firing)] if i in fire_at else []
                addressed, _ = model.addressing(
                    sender, {b.chatbot_id for b in fired}, False, False)
                block.append(Op("send", sender, message=_message(rng, fired),
                                conceal=i in conceal_at, addressed=addressed))
            elif unit == "update":
                block.append(Op("update", rng.choice(model.members)))
            else:
                actor, gone = rng.sample(model.members, 2)
                model.members.remove(gone)
                block.append(Op("rem_user", actor, target=gone))
                joined += 1
                newcomer = f"user-j{joined:05d}"
                block.append(Op("add_user", rng.choice(model.members),
                                target=newcomer))
                model.members.append(newcomer)
        yield block


# ---------------------------------------------------------------------------
# bot_fanout: a small group, many bots, per-bot work dominates
# ---------------------------------------------------------------------------

def _fanout_bots() -> tuple[BotSpec, ...]:
    bots = [_bot("fan-bot-00", "always"), _bot("fan-bot-01", "always"),
            _bot("fan-bot-02", "never"), _bot("fan-bot-03", "never")]
    kinds = ("mention", "contains", "prefix")
    for i in range(4, 32):
        kind = kinds[i % 3]
        token = {"mention": f"@m{i:02d}", "contains": f"#c{i:02d}#",
                 "prefix": f"!p{i:02d}"}[kind]
        bots.append(_bot(f"fan-bot-{i:02d}", kind, token))
    return tuple(bots)


BOT_FANOUT = LiveSpec(name="bot_fanout", n=16, holders=16, block_ops=40, min_blocks=4,
                      bots=_fanout_bots())


def bot_fanout_blocks(seed: int):
    """Blocks of 40 ops: 28 sends (9 pseudonymous, 7 concealed, 1
    address_all, each planting 1-5 tokens on top of the two always-bots), 6
    bot replies, two rem_bot+add_bot pairs and two updates.

    The pairs re-attach two churn bots drawn once per seed, so after the
    first block the set of bots that refuse pseudonymous payloads (they
    missed every registration) stays fixed instead of growing with run
    length."""
    rng = random.Random(f"bot_fanout:{seed}")
    spec = BOT_FANOUT
    model = _Model(members=member_ids(spec.n),
                   attached=[b.chatbot_id for b in spec.bots])
    model.known = {b: set(model.members) for b in model.attached}
    model.synced = set(model.attached)
    token_bots = [b for b in spec.bots if b.token is not None]
    churn = rng.sample([b.chatbot_id for b in token_bots if b.kind != "prefix"], 2)
    always = {b.chatbot_id for b in spec.bots if b.kind == "always"}
    while True:
        units = ["send"] * 28 + ["bot_send"] * 6 + ["churn"] * 2 + ["update"] * 2
        rng.shuffle(units)
        send_slots = [i for i, u in enumerate(units) if u == "send"]
        all_at = rng.choice(send_slots)
        rest = [i for i in send_slots if i != all_at]
        pseudo_at = set(rng.sample(send_slots, 9))
        conceal_at = set(rng.sample(rest, 7))
        fan = [1, 2, 3, 4, 5] * 6
        rng.shuffle(fan)
        churn_order = list(churn)
        block: list[Op] = []
        for i, unit in enumerate(units):
            if unit == "send":
                sender = rng.choice(model.members)
                fired = _draw_fired(rng, token_bots, fan.pop())
                address_all = i == all_at
                pseudonymous = i in pseudo_at
                addressed, rejected = model.addressing(
                    sender, {b.chatbot_id for b in fired} | always,
                    address_all, pseudonymous)
                block.append(Op("send", sender, message=_message(rng, fired),
                                conceal=i in conceal_at,
                                address_all=address_all,
                                pseudonymous=pseudonymous,
                                addressed=addressed, rejected=rejected))
            elif unit == "bot_send":
                replier = rng.choice(sorted(model.synced))
                block.append(Op("bot_send", replier,
                                message=" ".join(_words(rng, 3, 10)).encode()))
            elif unit == "update":
                block.append(Op("update", rng.choice(model.members)))
            else:
                bot = churn_order.pop()
                block.append(Op("rem_bot", rng.choice(model.members), target=bot))
                block.append(Op("add_bot", rng.choice(model.members), target=bot))
                model.known[bot] = set()
                model.synced.add(bot)
        yield block


def _draw_fired(rng: random.Random, token_bots: list[BotSpec],
                k: int) -> list[BotSpec]:
    """k distinct token bots, at most one of them prefix-triggered."""
    fired: list[BotSpec] = []
    pool = list(token_bots)
    rng.shuffle(pool)
    for bot in pool:
        if len(fired) == k:
            break
        if bot.kind == "prefix" and any(b.kind == "prefix" for b in fired):
            continue
        fired.append(bot)
    return fired


# ---------------------------------------------------------------------------
# audit: small scenarios for harness.runner plus every probe
# ---------------------------------------------------------------------------

AUDIT = LiveSpec(
    name="audit", n=8, holders=2, block_ops=13, min_blocks=0,
    bots=(_bot("aud-bot-0", "mention", "@echo"),
          _bot("aud-bot-1", "contains", "+note"),   # '#' starts a scenario comment
          _bot("aud-bot-2", "prefix", "?ask"),
          _bot("aud-bot-3", "never")))


def audit_blocks(rng: random.Random, blocks: int) -> list[Op]:
    """`blocks` blocks of 13 ops: 8 sends (one concealed, one
    pseudonymous, three each firing a different bot), two bot replies in a
    fixed rotation over the bots, one update, one pseudonym registration,
    and one compromise of a member followed by that member's healing
    address_all send. Which bots fire and reply is fixed per block because
    the adversary's work grows with what each bot can open."""
    spec = AUDIT
    members = member_ids(spec.n)
    model = _Model(members=members, attached=[b.chatbot_id for b in spec.bots])
    holders = set(members[:spec.holders])
    model.known = {b: set(holders) for b in model.attached}
    firing = [b for b in spec.bots if b.token is not None]
    ops: list[Op] = []
    for block in range(blocks):
        units = ["send"] * 7 + ["bot_send"] * 2 + ["update", "register", "compromise"]
        rng.shuffle(units)
        send_slots = [i for i, u in enumerate(units) if u == "send"]
        fire_at = dict(zip(rng.sample(send_slots, len(firing)),
                           rng.sample(firing, len(firing))))
        conceal_at = rng.choice(send_slots)
        pseudo_at = rng.choice(send_slots)
        repliers = [model.attached[(2 * block + j) % len(model.attached)]
                    for j in range(2)]
        for i, unit in enumerate(units):
            if unit == "send":
                pseudonymous = i == pseudo_at
                sender = rng.choice(sorted(holders) if pseudonymous else members)
                fired = [fire_at[i]] if i in fire_at else []
                addressed, rejected = model.addressing(
                    sender, {b.chatbot_id for b in fired}, False, pseudonymous)
                ops.append(Op("send", sender, message=_message(rng, fired),
                              conceal=i == conceal_at, pseudonymous=pseudonymous,
                              addressed=addressed, rejected=rejected))
            elif unit == "bot_send":
                ops.append(Op("bot_send", repliers.pop(),
                              message=" ".join(_words(rng, 3, 8)).encode()))
            elif unit == "update":
                ops.append(Op("update", rng.choice(members)))
            elif unit == "register":
                who = rng.choice(members)
                holders.add(who)
                for known in model.known.values():
                    known.add(who)
                addressed, _ = model.addressing(who, set(), True, False)
                ops.append(Op("register", who, addressed=addressed))
            else:
                who = rng.choice(members)
                ops.append(Op("compromise", who, target=f"breach-{block}"))
                addressed, _ = model.addressing(who, set(), True, False)
                ops.append(Op("send", who,
                              message=" ".join(_words(rng, 3, 8)).encode(),
                              address_all=True, addressed=addressed))
    return ops


def scenario_text(spec: LiveSpec, ops: list[Op],
                  group_id: str = "grp-audit") -> str:
    """The runner's scenario for a spec's warm world followed by `ops`."""
    members = member_ids(spec.n)
    lines = [f"group {group_id} " + " ".join(members)]
    lines += [f"bot {b.chatbot_id} {b.rules}" for b in spec.bots]
    lines += [f"add_bot {members[0]} {b.chatbot_id}" for b in spec.bots]
    lines += [f"update {m}" for m in members]
    lines += [f"register_pseudonym {m}" for m in members[:spec.holders]]
    for op in ops:
        if op.kind == "send":
            flags = "".join(f" {flag}" for flag, on in (
                ("conceal", op.conceal), ("pseudonymous", op.pseudonymous),
                ("address_all", op.address_all)) if on)
            lines.append(f'send {op.actor} "{op.message.decode()}"{flags}')
        elif op.kind == "bot_send":
            lines.append(f'bot_send {op.actor} "{op.message.decode()}"')
        elif op.kind == "update":
            lines.append(f"update {op.actor}")
        elif op.kind == "register":
            lines.append(f"register_pseudonym {op.actor}")
        elif op.kind == "compromise":
            lines.append(f"compromise {op.actor} {op.target}")
        else:
            raise ValueError(f"no scenario form for {op.kind!r}")
    return "\n".join(lines) + "\n"
