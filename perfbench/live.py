"""Closed-loop driver for the group_chat and bot_fanout workloads.

One client, one process, no threads: each op is built, published and
processed by every routed member and chatbot before the next starts. The
driver talks to the library only through `cgka`, `group` and `provider`,
times each party's calls with `perf_counter_ns`, and checks every output
against the generator's ground truth after the op's clock has stopped.
It has its own delivery dispatch because `harness.runner` and
`harness.bench` deliver views without timing any single call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from chatgate import cgka, counters, group, primitives, provider
from chatgate.errors import BadPseudonymSignature
from chatgate.triggers import rules_from_text

import workloads
from speed import Speed
from workloads import LiveSpec, Op

GROUP_ID = "grp-bench"
REJECTED = "rejected"


class CheckFailed(Exception):
    """An op's output differs from the generator's ground truth."""


@dataclass
class Samples:
    """Everything one phase of a live run measured."""

    # op times scaled to the nominal machine speed (see speed.py)
    op_ns: list[float] = field(default_factory=list)
    deliver_ns: list[float] = field(default_factory=list)
    send_ns: list[float] = field(default_factory=list)
    recv_ns: list[float] = field(default_factory=list)
    bot_recv_ns: list[float] = field(default_factory=list)
    attach_ns: list[float] = field(default_factory=list)
    # unscaled wall-clock, printed next to the scaled figures
    raw_op_ns: list[int] = field(default_factory=list)
    raw_deliver_ns: list[int] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    bot_receives: int = 0
    bot_addressed: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


class World:
    """A warm group built from a spec under a seeded randomness source.

    `setup_raw_s` is the build's wall time without the reference samples
    taken during it; `setup_s` is that time scaled by their factor."""

    def __init__(self, spec: LiveSpec, seed: int, speed: Speed) -> None:
        self.spec = spec
        self.speed = speed
        self.factor = 1.0
        self.provider = provider.Provider()
        self.users: dict[str, group.UserState] = {}
        self.members: list[str] = []
        self.bots: dict[str, group.ChatbotState] = {}
        self.attached: list[str] = []
        self.epoch = 0
        self.wire_bytes = 0
        mark, spent = len(speed.samples), speed.spent_ns
        t0 = time.perf_counter_ns()
        with primitives.seeded(f"setup:{spec.name}:{seed}".encode()):
            self._build()
        wall = time.perf_counter_ns() - t0 - (speed.spent_ns - spent)
        self.setup_raw_s = wall / 1e9
        self.setup_s = self.setup_raw_s * speed.factor(mark)

    def _build(self) -> None:
        ids = workloads.member_ids(self.spec.n)
        for uid in ids:
            self._join(uid)
        creator = ids[0]
        self.provider.create_group(GROUP_ID, ids)
        self.members = list(ids)
        self._publish(creator, self.users[creator].create_group(GROUP_ID, ids))
        for bot in self.spec.bots:
            state = group.chatbot_init(bot.chatbot_id, rules_from_text(bot.rules))
            self.bots[bot.chatbot_id] = state
            self.provider.register_bot(state.registration)
            self.add_bot(creator, bot.chatbot_id)
        # every member's first update fills its direct path, so a later
        # sender seals one box per copath node instead of one per leaf
        for uid in ids:
            self._publish(uid, self.users[uid].update_keys())
            self.speed.sample()
        for uid in ids[:self.spec.holders]:
            out = self.users[uid].register_pseudonym()
            self.provider.publish(GROUP_ID, uid, user_view=out.user_view,
                                  bot_view=out.chatbot_view)
            self.epoch += 1
            self._check_register(uid, self.drain(), Samples())
        self.check_agreement()

    def _join(self, uid: str) -> None:
        self.users[uid] = group.user_init(
            cgka.init(uid, self.provider.directory), self.provider)

    def _publish(self, sender: str, blob: bytes) -> None:
        self.provider.publish(GROUP_ID, sender, user_view=blob)
        self.epoch += 1
        self.drain()

    def add_bot(self, actor: str, cid: str) -> None:
        blob = self.users[actor].add_chatbot(cid)
        self.provider.attach_chatbot(GROUP_ID, cid)
        self.attached = sorted(self.attached + [cid])
        self.provider.publish(GROUP_ID, actor, user_view=blob, bot_view=blob,
                              bot_targets=(cid,))
        self.drain()

    # -- delivery ------------------------------------------------------------

    def drain(self) -> list[tuple[str, int, object, int]]:
        """Deliver every pending view; (party, type byte, result, ns) each."""
        out = []
        with counters.attribute("members"):
            self._drain_members(out)
        with counters.attribute("bots"):
            self._drain_bots(out)
        return out

    def _drain_members(self, out: list) -> None:
        clock = time.perf_counter_ns
        for uid in self.members:
            user = self.users[uid]
            for view in self.provider.inbox(uid):
                self.wire_bytes += len(view)
                kind = view[0]
                t0 = clock()
                if kind == group.VIEW_USER_MESSAGE:
                    result = user.process_user_message(view)
                elif kind == group.GROUP_CONTROL:
                    result = user.process_group_control(view)
                elif kind == group.BOT_MESSAGE:
                    result = user.receive_from_chatbot(view)
                elif kind == group.ADD_BOT:
                    result = user.process_add_chatbot(view)
                elif kind == group.REMOVE_BOT:
                    result = user.process_remove_chatbot(view)
                else:
                    raise CheckFailed(f"unroutable view 0x{kind:02x} for {uid}")
                out.append((uid, kind, result, clock() - t0))

    def _drain_bots(self, out: list) -> None:
        clock = time.perf_counter_ns
        for cid in self.attached:
            bot = self.bots[cid]
            for view in self.provider.inbox(cid):
                self.wire_bytes += len(view)
                kind = view[0]
                t0 = clock()
                if kind == group.VIEW_CHATBOT_MESSAGE:
                    try:
                        result = bot.receive(view)
                    except BadPseudonymSignature:
                        result = REJECTED
                elif kind == group.ADD_BOT:
                    result = bot.process_add(view)
                elif kind == group.REMOVE_BOT:
                    result = bot.process_remove(view)
                else:
                    raise CheckFailed(f"unroutable view 0x{kind:02x} for {cid}")
                out.append((cid, kind, result, clock() - t0))

    # -- one op ----------------------------------------------------------------

    def run_op(self, op: Op, samples: Samples, ops: counters.OpCounters,
               tracer=None) -> None:
        """Execute, time and check one op; failures count, never raise.
        With a tracer, the op's timed part is one traced op."""
        samples.attempted += 1
        self.speed.sample()
        self.factor = self.speed.local_factor()
        samples.factors.append(self.factor)
        try:
            with counters.collect(ops):
                if tracer is None:
                    out, delivered = self._timed(op, samples)
                else:
                    with tracer.op():
                        out, delivered = self._timed(op, samples)
            if op.kind == "send":
                self._check_send(op, out, delivered, samples)
            elif op.kind == "register":
                self._check_register(op.actor, delivered, samples)
            else:
                self._check_other(op, delivered)
            self.check_agreement()
        except Exception as exc:  # one failed op must not hide the others
            samples.failed += 1
            if len(samples.errors) < 5:
                samples.errors.append(f"{op.kind} {op.actor} {op.target}: "
                                      f"{type(exc).__name__}: {exc}")

    def _timed(self, op: Op, s: Samples) -> tuple[object, list]:
        clock = time.perf_counter_ns
        user = self.users.get(op.actor)
        if op.kind in ("send", "register"):
            t0 = clock()
            with counters.attribute("sender"):
                if op.kind == "send":
                    out = user.send(op.message, conceal=op.conceal,
                                    address_all=op.address_all,
                                    pseudonymous=op.pseudonymous)
                else:
                    out = user.register_pseudonym()
            t1 = clock()
            self.provider.publish(GROUP_ID, op.actor, user_view=out.user_view,
                                  bot_view=out.chatbot_view)
            delivered = self.drain()
            t2 = clock()
            self.epoch += 1
            self._record_op(s, t2 - t0)
            if op.kind == "send":
                s.send_ns.append((t1 - t0) * self.factor)
                s.deliver_ns.append((t2 - t0) * self.factor)
                s.raw_deliver_ns.append(t2 - t0)
            return out, delivered

        t0 = clock()
        with counters.attribute("sender"):
            if op.kind == "bot_send":
                blob = self.bots[op.actor].send(op.message)
            elif op.kind == "update":
                blob = user.update_keys()
            elif op.kind == "rem_user":
                blob = user.remove_user(op.target)
                self.provider.remove_member(GROUP_ID, op.target)
                self.members.remove(op.target)
            elif op.kind == "add_user":
                with counters.attribute("members"):
                    self._join(op.target)
                blob = user.add_user(op.target)
                self.provider.add_member(GROUP_ID, op.target)
                self.members.append(op.target)
            elif op.kind == "add_bot":
                blob = user.add_chatbot(op.target)
                self.provider.attach_chatbot(GROUP_ID, op.target)
                self.attached = sorted(self.attached + [op.target])
            elif op.kind == "rem_bot":
                blob = user.remove_chatbot(op.target)
            else:
                raise CheckFailed(f"unknown op kind {op.kind!r}")
        if op.kind in ("add_bot", "rem_bot"):
            self.provider.publish(GROUP_ID, op.actor, user_view=blob,
                                  bot_view=blob, bot_targets=(op.target,))
        else:
            self.provider.publish(GROUP_ID, op.actor, user_view=blob)
        delivered = self.drain()
        if op.kind == "rem_bot":
            # the bot is routed until it has wiped its state, then dropped
            self.provider.detach_chatbot(GROUP_ID, op.target)
            self.attached.remove(op.target)
        t1 = clock()
        self._record_op(s, t1 - t0)
        if op.kind == "add_bot":
            s.attach_ns.append((t1 - t0) * self.factor)
        if op.kind in ("update", "rem_user", "add_user"):
            self.epoch += 1
        return blob, delivered

    def _record_op(self, s: Samples, ns: int) -> None:
        s.op_ns.append(ns * self.factor)
        s.raw_op_ns.append(ns)

    # -- checks ----------------------------------------------------------------

    def _check_send(self, op: Op, out: group.SendOutcome,
                    delivered: list, s: Samples) -> None:
        if out.addressed != op.addressed:
            raise CheckFailed(f"addressed {out.addressed} != {op.addressed}")
        concealed = tuple(b for b in self.attached if b not in op.addressed) \
            if op.conceal and not op.address_all else ()
        if out.concealed != concealed:
            raise CheckFailed(f"concealed {out.concealed} != {concealed}")
        handle = self.users[op.actor].pseudonym.handle if op.pseudonymous else None
        expect = group.ReceivedMessage(message=op.message, pseudonym=handle)
        readers = 0
        for party, _kind, result, ns in delivered:
            if party in self.bots:
                s.bot_receives += 1
                if party in op.rejected:
                    want = REJECTED
                elif party in op.addressed:
                    want = expect
                else:
                    want = group.NOT_ADDRESSED
                if result != want:
                    raise CheckFailed(f"{party} got {result!r}, expected {want!r}")
                if want is not group.NOT_ADDRESSED:
                    s.bot_addressed += 1
                    if want is not REJECTED:
                        s.bot_recv_ns.append(ns * self.factor)
            else:
                if result != expect:
                    raise CheckFailed(f"{party} read {result!r}")
                readers += 1
                s.recv_ns.append(ns * self.factor)
        bots_routed = sum(1 for p, *_ in delivered if p in self.bots)
        if readers != len(self.members) - 1 or bots_routed != len(self.attached):
            raise CheckFailed(f"routed to {readers} members, {bots_routed} bots")

    def _check_register(self, uid: str, delivered: list, s: Samples) -> None:
        """Every other member and every attached bot got the new key."""
        pseudonym = self.users[uid].pseudonym
        for party, _kind, result, ns in delivered:
            if not isinstance(result, group.PseudonymRegistration) \
                    or result.public_key != pseudonym.key.public_key:
                raise CheckFailed(f"{party} read registration as {result!r}")
            if party in self.bots:
                if result.handle != pseudonym.handle:
                    raise CheckFailed(f"{party} derived another handle")
                s.bot_receives += 1
                s.bot_addressed += 1
                s.bot_recv_ns.append(ns * self.factor)
        parties = {p for p, *_ in delivered}
        if parties != (set(self.members) - {uid}) | set(self.attached):
            raise CheckFailed(f"registration reached {len(parties)} parties")

    def _check_other(self, op: Op, delivered: list) -> None:
        parties = {p for p, *_ in delivered}
        others = set(self.members) - {op.actor}
        if op.kind == "bot_send":
            others = set(self.members)
            for party, _kind, result, _ns in delivered:
                if result != op.message:
                    raise CheckFailed(f"{party} read bot reply {result!r}")
        if op.kind in ("add_bot", "rem_bot"):
            others = others | {op.target}
        if parties != others:
            raise CheckFailed(f"{op.kind} reached {len(parties)} parties, "
                              f"expected {len(others)}")

    def check_agreement(self) -> None:
        """Every member holds the expected epoch and one group secret."""
        epochs = {self.users[m].epoch for m in self.members}
        secrets = {self.users[m].cgka.group_secret for m in self.members}
        if epochs != {self.epoch} or len(secrets) != 1 or None in secrets:
            raise CheckFailed(f"group diverged: epochs {sorted(epochs)}, "
                              f"expected {self.epoch}")

    def transcript_sha256(self) -> str:
        h = hashlib.sha256()
        for row in self.provider.transcript:
            h.update(json.dumps(row, sort_keys=True).encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

BLOCKS = {"group_chat": (workloads.GROUP_CHAT, workloads.group_chat_blocks),
          "bot_fanout": (workloads.BOT_FANOUT, workloads.bot_fanout_blocks)}

SETUPS = 3         # set-up repeats; set-up time is their median


@dataclass
class Tally:
    """Deterministic counts over the first `min_blocks` measured blocks."""

    ops: Counter = field(default_factory=Counter)     # op kind -> ops
    prims: dict[str, Counter] = field(default_factory=dict)
    wire_bytes: int = 0
    transcript_sha256: str = ""
    peak_rss_mb: float = 0.0
    floor: dict[str, int] = field(default_factory=dict)  # samples in the window

    def close(self, wire_bytes: int, sha256: str, samples: Samples) -> None:
        self.wire_bytes = wire_bytes
        self.transcript_sha256 = sha256
        self.peak_rss_mb = peak_rss_mb()
        self.floor = {name: len(getattr(samples, f"{name}_ns"))
                      for name in ("deliver", "send", "recv")}

    def add(self, kind: str, ops: counters.OpCounters) -> None:
        self.ops[kind] += 1
        acc = self.prims.setdefault(kind, Counter())
        for role, counts in ops.by_party.items():
            for prim in counters.COUNTED_OPS:
                acc[f"{role}.{prim}"] += counts[prim]

    def vectors(self) -> dict[str, dict[str, float]]:
        """Per op kind, mean primitive calls per op by role."""
        return {kind: {k: v / self.ops[kind] for k, v in sorted(acc.items()) if v}
                for kind, acc in sorted(self.prims.items())}


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build(name: str, seed: int, setups: int,
          speed: Speed) -> tuple[World, list[tuple[float, float]]]:
    """Build the warm world `setups` times; keep the last one. Returns it
    and every build's (setup_s, setup_raw_s)."""
    spec, _ = BLOCKS[name]
    times = []
    world = None
    for _ in range(setups):
        world = None
        gc.collect()
        world = World(spec, seed, speed)
        times.append((world.setup_s, world.setup_raw_s))
    return world, times


def op_stream(name: str, seed: int):
    _, blocks = BLOCKS[name]
    for block in blocks(seed):
        yield from block


def run_blocks(world: World, stream, samples: Samples, min_blocks: int,
               seconds: float, tally: Tally | None = None,
               tracer=None) -> None:
    """Whole blocks until `seconds` have passed and `min_blocks` are done.
    With a tally, the spec's first `min_blocks` blocks are also counted."""
    wire0 = world.wire_bytes
    done = 0
    start = time.perf_counter()
    while done < min_blocks or time.perf_counter() - start < seconds:
        for _ in range(world.spec.block_ops):
            op = next(stream)
            ops = counters.OpCounters()
            world.run_op(op, samples, ops, tracer)
            if tally is not None and done < world.spec.min_blocks:
                tally.add(op.kind, ops)
        done += 1
        if tally is not None and done == world.spec.min_blocks:
            tally.close(world.wire_bytes - wire0, world.transcript_sha256(),
                        samples)
        if samples.failed:
            break


@contextmanager
def warm_world(name: str, seed: int, setups: int, speed: Speed):
    """Build the world, then run one untimed block so every code path and
    the churn state (bot_fanout re-attaches both churn bots) are warm.
    Yields (world, set-up times, op stream, warm-up samples) with the op
    randomness source still installed."""
    world, setup_s = build(name, seed, setups, speed)
    stream = op_stream(name, seed)
    warmup = Samples()
    with primitives.seeded(f"ops:{name}:{seed}".encode()):
        run_blocks(world, stream, warmup, 1, 0.0)
        yield world, setup_s, stream, warmup
