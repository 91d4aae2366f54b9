"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a single pass/fail line. The
fuzz corpora are deterministic (generator seeds are fixed), so failures
reproduce exactly. Functional criteria use independent oracles: trigger
matching is re-evaluated from rule text, adversaries get only captured
state plus the wire transcript, and op counts are asserted as exact
equalities, not bounds.
"""

import base64
import copy
import json
import math
import random
import statistics
import time

import pytest

from chatgate import counters
from chatgate.group import ChatbotMessageView, UserMessageView, chatbot_view_shape
from chatgate.harness import bench, canned, probes
from chatgate.harness.runner import run_text
from chatgate.primitives import SEALED_LEN
from chatgate.triggers import rules_from_text

from test_group import build_group


def _announce(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# -- fuzz generators ----------------------------------------------------------

_TRIGGERS = ("always", "never", "mention:@echo", "mention:@audit",
             "contains:note", "contains:digest", "prefix:cmd")
_WORDS = ("note", "plan", "@echo", "@audit", "cmd", "digest", "filler",
          "roster", "coffee", "deadline")


class _Mirror:
    """Tracks just enough state to emit only valid scenario lines."""

    def __init__(self, rng, gid, n_start, n_max, bot_count):
        self.rng = rng
        self.n_max = n_max
        self.msg_n = 0
        self.members = [f"user-{i:02d}" for i in range(n_start)]
        self.pool = [f"user-{i:02d}" for i in range(n_start, n_max)]
        self.bots = {f"bot-{i:02d}": rng.choice(_TRIGGERS)
                     for i in range(bot_count)}
        self.unattached = sorted(self.bots)
        self.attached = []
        self.holders = set()
        self.address_all_lines = set()
        self.lines = [f"group {gid} {' '.join(self.members)}"]
        for cid, trig in sorted(self.bots.items()):
            self.lines.append(f"bot {cid} {trig}")

    def line_no(self) -> int:
        return len(self.lines) + 1

    def message(self) -> str:
        # a unique tail token keeps plaintext bytes distinct per send, so
        # byte-level recovery checks are exact per message
        words = " ".join(self.rng.choice(_WORDS)
                         for _ in range(self.rng.randint(1, 5)))
        self.msg_n += 1
        return f"{words} t{self.msg_n:03d}"

    def emit_send(self, sender=None, address_all=False, force_plain=False):
        rng = self.rng
        sender = sender or rng.choice(self.members)
        flags = []
        if not force_plain:
            if address_all or (self.attached and rng.random() < 0.15):
                flags.append("address_all")
            if rng.random() < 0.25:
                flags.append("conceal")
            if sender in self.holders and rng.random() < 0.4:
                flags.append("pseudonymous")
        if "address_all" in flags:
            self.address_all_lines.add(self.line_no())
        self.lines.append(
            f'send {sender} "{self.message()}" {" ".join(flags)}'.rstrip())

    def emit_random_op(self, allow_membership=True):
        rng = self.rng
        choices = ["send"] * 8 + ["update"] * 2
        if self.unattached:
            choices += ["add_bot"] * 2
        if self.attached:
            choices += ["bot_send"] * 2 + ["register"] + ["rem_bot"]
        if allow_membership and self.pool and len(self.members) < self.n_max:
            choices += ["add_user"] * 2
        if allow_membership and len(self.members) > 2:
            choices += ["rem_user"]
        op = rng.choice(choices)

        if op == "send":
            self.emit_send()
        elif op == "update":
            self.lines.append(f"update {rng.choice(self.members)}")
        elif op == "add_bot":
            cid = self.unattached.pop(rng.randrange(len(self.unattached)))
            self.attached.append(cid)
            self.lines.append(f"add_bot {rng.choice(self.members)} {cid}")
        elif op == "rem_bot":
            cid = self.attached.pop(rng.randrange(len(self.attached)))
            self.lines.append(f"rem_bot {rng.choice(self.members)} {cid}")
        elif op == "bot_send":
            cid = rng.choice(self.attached)
            self.lines.append(f'bot_send {cid} "{self.message()}"')
        elif op == "register":
            actor = rng.choice(self.members)
            self.holders.add(actor)
            self.address_all_lines.add(self.line_no())
            self.lines.append(f"register_pseudonym {actor}")
        elif op == "add_user":
            uid = self.pool.pop(0)
            self.lines.append(f"add_user {rng.choice(self.members)} {uid}")
            self.members.append(uid)
        elif op == "rem_user":
            actor = rng.choice(self.members)
            target = rng.choice([m for m in self.members if m != actor])
            self.members.remove(target)
            self.holders.discard(target)
            self.lines.append(f"rem_user {actor} {target}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _fuzz_scenario(seed: int, *, n_start=(2, 8), n_max=16, bots=(0, 4),
                   n_ops=12, allow_membership=True) -> _Mirror:
    rng = random.Random(seed)
    mirror = _Mirror(rng, f"grp-fuzz-{seed:04d}",
                     rng.randint(*n_start), n_max, rng.randint(*bots))
    for _ in range(n_ops):
        mirror.emit_random_op(allow_membership=allow_membership)
    return mirror


def _fuzz_message_world(seed: int, sends: int = 10) -> _Mirror:
    """A world tuned for selective-access checks: several bots with mixed
    triggers attached up front, then a fixed number of user sends."""
    rng = random.Random(seed)
    mirror = _Mirror(rng, f"grp-msg-{seed:04d}", rng.randint(3, 6), 8,
                     rng.randint(2, 4))
    for cid in list(mirror.unattached):
        mirror.unattached.remove(cid)
        mirror.attached.append(cid)
        mirror.lines.append(f"add_bot {rng.choice(mirror.members)} {cid}")
    for i in range(sends):
        if i == 2 and rng.random() < 0.5:
            actor = rng.choice(mirror.members)
            mirror.holders.add(actor)
            mirror.address_all_lines.add(mirror.line_no())
            mirror.lines.append(f"register_pseudonym {actor}")
        mirror.emit_send()
    return mirror


def _fuzz_compromise_world(seed: int) -> tuple[_Mirror, str]:
    rng = random.Random(seed)
    mirror = _Mirror(rng, f"grp-pcs-{seed:04d}", rng.randint(2, 6), 8,
                     rng.randint(0, 3))
    for cid in list(mirror.unattached):
        mirror.unattached.remove(cid)
        mirror.attached.append(cid)
        mirror.lines.append(f"add_bot {rng.choice(mirror.members)} {cid}")
    for _ in range(rng.randint(1, 4)):
        mirror.emit_random_op(allow_membership=False)
    victim = rng.choice(mirror.members)
    mirror.lines.append(f"compromise {victim} breach")
    for _ in range(rng.randint(0, 2)):
        mirror.emit_random_op(allow_membership=False)
    mirror.emit_send(sender=victim, address_all=True)        # the heal
    for _ in range(rng.randint(1, 3)):
        mirror.emit_random_op(allow_membership=False)
    mirror.emit_send(force_plain=True)                       # post-heal traffic
    return mirror, victim


def _bots_in_scope(result, seq: int) -> set[str]:
    for scope_seq, scope in result.scopes:
        if scope_seq == seq:
            return set(scope) & set(result.bots)
    return set()


# -- shared corpus (criteria 3 and 5 walk the same runs) ------------------------

@pytest.fixture(scope="module")
def corpus():
    runs = []
    for seed in range(60):
        mirror = _fuzz_scenario(seed, n_start=(2, 6), bots=(0, 4), n_ops=12)
        runs.append(run_text(mirror.text(), seed=seed))
    for name in sorted(canned.ALL):
        runs.append(run_text(canned.ALL[name], seed=7))
    return runs


# -- criteria -------------------------------------------------------------------

def test_criterion_01_key_agreement():
    started = time.monotonic()
    sequences = 0
    for seed in range(1000):
        mirror = _fuzz_scenario(seed, n_start=(2, 8), n_max=16, bots=(0, 8),
                                n_ops=10)
        # the runner asserts equal epoch and group secret after every op
        result = run_text(mirror.text(), seed=seed)
        probes.probe_agreement(result).check()
        sequences += 1
    elapsed = time.monotonic() - started
    _announce(1, "key agreement", elapsed < 120.0,
              f"{sequences} op sequences, {elapsed:.1f}s")


def test_criterion_02_selective_access():
    mismatches = []
    violations = []
    total_sends = 0
    for seed in range(50):
        mirror = _fuzz_message_world(seed, sends=10)
        result = run_text(mirror.text(), seed=seed)
        rules = {cid: rules_from_text(text)
                 for cid, text in mirror.bots.items()}
        for ev in result.sends:
            if ev.kind == "bot":
                continue
            total_sends += 1
            forced = ev.line_no in mirror.address_all_lines
            for cid in _bots_in_scope(result, ev.seq):
                if ev.kind == "registration":
                    expect = "registration"
                elif forced or any(r.matches(ev.message) for r in rules[cid]):
                    expect = "message"
                else:
                    expect = "not_addressed"
                got = result.bot_outcomes.get((ev.seq, cid))
                if got != expect:
                    mismatches.append((seed, ev.seq, cid, expect, got))
        verdict = probes.probe_selective_access(result)
        if not verdict.passed:
            violations.append((seed, verdict.detail))
    ok = not mismatches and not violations and total_sends >= 500
    _announce(2, "selective access", ok,
              f"{total_sends} fuzzed messages, {len(mismatches)} trigger "
              f"mismatches, {len(violations)} adversary recoveries")


def test_criterion_03_forward_secrecy(corpus):
    hits = []
    scanned = 0
    dead = 0
    for result in corpus:
        verdict = probes.probe_forward_secrecy(result)
        scanned += verdict.detail["snapshots_scanned"]
        dead += verdict.detail["dead_values"]
        if not verdict.passed:
            hits.append((result.group_id, verdict.detail["violations"]))
    _announce(3, "forward secrecy", not hits,
              f"{scanned} snapshots scanned against {dead} superseded "
              f"values, {len(hits)} hits")


def test_criterion_04_post_compromise():
    failures = []
    for seed in range(100):
        mirror, victim = _fuzz_compromise_world(seed)
        result = run_text(mirror.text(), seed=seed)
        verdict = probes.probe_post_compromise(result)
        if not verdict.passed:
            failures.append((seed, victim, verdict.detail))
    _announce(4, "post-compromise security", not failures,
              f"100 compromise scenarios, {len(failures)} with post-heal "
              f"recoveries")


def test_criterion_05_sender_anonymity(corpus):
    violations = []
    walked = 0

    for result in corpus:
        verdict = probes.probe_anonymity(result)
        if not verdict.passed:
            violations.append((result.group_id, verdict.detail))
        user_views = {}
        bot_views = {}
        for row in result.provider.transcript:
            view = base64.b64decode(row["view_b64"])
            if row["recipient_class"] == "user":
                user_views.setdefault(row["seq"], view)
            else:
                bot_views.setdefault(row["seq"], view)
        for ev in result.sends:
            if ev.kind == "bot" or ev.seq not in bot_views:
                continue
            walked += 1
            bot_view = ChatbotMessageView.from_bytes(bot_views[ev.seq])
            cids = [cid for cid, _ in bot_view.entries]
            if cids != sorted(cids):
                violations.append((result.group_id, ev.seq, "entry order"))
            # none of the tree-update boxes from the user view may leak
            # into what chatbots see
            user_view = UserMessageView.from_bytes(user_views[ev.seq])
            if user_view.control in bot_views[ev.seq]:
                violations.append((result.group_id, ev.seq, "tree control"))

    # same plaintext, same group state, different senders: identical shapes
    users, bots, _ = build_group(4, bots=[("echo-bot-01", "always")])
    for uid in list(users):
        blob = users[uid].update_keys()
        for other, state in users.items():
            if other != uid:
                state.process_group_control(blob)
    shapes = set()
    for uid in users:
        fork = copy.deepcopy(users[uid])
        out = fork.send(b"same words from every sender")
        shapes.add(chatbot_view_shape(out.chatbot_view))
    if len(shapes) != 1:
        violations.append(("fork", sorted(shapes)))

    uniform = probes.probe_anonymity(run_text(canned.ANONYMITY, seed=3),
                                     expect_uniform=True)
    if not uniform.passed:
        violations.append(("canned", uniform.detail))

    _announce(5, "sender anonymity", not violations,
              f"{walked} chatbot views walked, fork shapes {len(shapes)}, "
              f"{len(violations)} violations")


def test_criterion_06_concealment():
    users, bots, _ = build_group(
        3, bots=[("echo-bot-01", "mention:@echo"), ("audit-bot-02", "never"),
                 ("memo-bot-03", "contains:note")])

    out = users["user-00"].send(b"@echo only you", conceal=True)
    view = ChatbotMessageView.from_bytes(out.chatbot_view)
    exact_m = len(view.entries) == 3
    all_sealed_len = all(len(box) == SEALED_LEN for _, box in view.entries)

    dummy_result = bots["audit-bot-02"].receive(out.chatbot_view)
    plain = users["user-01"].send(b"@echo again, no padding this time")
    absent_result = bots["audit-bot-02"].receive(plain.chatbot_view)
    same_singleton = dummy_result is absent_result

    verdict = probes.probe_concealment(run_text(canned.CONCEALMENT, seed=3))

    ok = exact_m and all_sealed_len and same_singleton and verdict.passed
    _announce(6, "trigger concealment", ok,
              f"entries {len(view.entries)}/3, sealed-length "
              f"{all_sealed_len}, identical not-addressed {same_singleton}, "
              f"canned probe {verdict.passed}")


def _sender_seals(world: bench.World, message: bytes) -> int:
    """Seal count attributed to the sender alone; delivery happens outside
    the measured span so the group stays in agreement between probes."""
    ops = counters.OpCounters()
    with counters.collect(ops), counters.attribute("sender"):
        out = world.users["user-000"].send(message)
    world.publish("user-000", out.user_view, out.chatbot_view)
    return ops.party("sender")["pke_seal"]


def test_criterion_07_complexity_counts():
    bad = []
    for n in (4, 8, 16, 32, 64):
        world = bench.World(n=n, m=0)
        attached = 0
        for m in (0, 1, 4, 8, 16):
            while attached < m:
                world.attach_bot(f"bench-bot-{attached:03d}")
                attached += 1
            sent = _sender_seals(world, b"count my work")
            want = int(math.log2(n)) + m
            if sent != want:
                bad.append((n, m, sent, want))
        # untriggered chatbots cost the sender nothing without concealment
        world.attach_bot("quiet-bot-000", rules_text="never")
        sent = _sender_seals(world, b"count my work")
        if sent != int(math.log2(n)) + 16:
            bad.append((n, "16+never", sent, int(math.log2(n)) + 16))

    result = run_text(canned.SELECTIVE_ACCESS, seed=3)
    snap = json.loads(result.provider.snapshot_state("echo-bot-01"))
    group_fields = sorted(k for k in snap if k.startswith("group"))
    one_pk = (group_fields == ["group_id", "group_public_key"]
              and isinstance(snap["group_public_key"], str)
              and len(snap["group_public_key"]) == 64)
    ok = not bad and one_pk
    _announce(7, "complexity counts", ok,
              f"sender seals = log2(n)+triggered over 25 combos "
              f"({len(bad)} off), single stored group key {one_pk}")


@pytest.mark.timing
def test_criterion_08_send_performance():
    world = bench.World(n=50, m=10)
    times = []
    for i in range(30):
        t0 = time.perf_counter_ns()
        world.send_end_to_end("user-000", f"m{i}".encode())
        times.append((time.perf_counter_ns() - t0) / 1e6)
    p50 = statistics.median(times)

    m_rows = bench.bench_send_m_sweep(n=50, m_values=(0, 4, 8, 16, 32),
                                      iterations=15, warmups=3)
    _, _, r2, _ = bench.fit_linear([float(r.m) for r in m_rows],
                                   [r.p50_ms for r in m_rows])

    n_rows = bench.bench_send_n_sweep(n_values=(8, 16, 32, 64, 128), m=4,
                                      iterations=30, warmups=5)
    growth = bench.compare_growth([r.n for r in n_rows],
                                  [r.p50_ms for r in n_rows])

    def p50s(rows, key):
        return ", ".join(f"{getattr(r, key)}: {r.p50_ms:.2f}" for r in rows)

    ok = p50 < 100.0 and r2 >= 0.9 and growth["prefers_log"]
    _announce(8, "send performance", ok,
              f"n=50 m=10 p50 {p50:.1f}ms < 100ms, m-sweep r2 {r2:.3f} "
              f">= 0.9, n-sweep AIC log {growth['aic_log']:.1f} vs linear "
              f"{growth['aic_linear']:.1f}; p50 ms by m {{{p50s(m_rows, 'm')}}}, "
              f"by n {{{p50s(n_rows, 'n')}}}")


@pytest.mark.timing
def test_criterion_09_chatbot_add():
    world = bench.World(n=50, m=4)
    times = []
    for i in range(15):
        t0 = time.perf_counter_ns()
        world.attach_bot(f"timed-bot-{i:03d}")
        times.append((time.perf_counter_ns() - t0) / 1e6)
    p50 = statistics.median(times)

    vectors = {}
    for n in (8, 64):
        w = bench.World(n=n, m=0)
        from chatgate.group import chatbot_init
        bot = chatbot_init("probe-bot-000", rules_from_text("always"))
        w.provider.register_bot(bot.registration)
        ops = counters.OpCounters()
        with counters.collect(ops), counters.attribute("actor"):
            w.users["user-000"].add_chatbot("probe-bot-000")
        vectors[n] = dict(ops.party("actor"))
    independent = vectors[8] == vectors[64] and vectors[8]

    ok = p50 < 50.0 and independent
    _announce(9, "chatbot attach", ok,
              f"end-to-end p50 {p50:.1f}ms < 50ms at n=50, sender ops "
              f"{vectors[8]} identical at n=8 and n=64")


def test_criterion_10_pseudonymity():
    # roundtrip: the bot reads the message and resolves the handle
    users, bots, _ = build_group(3, bots=[("echo-bot-01", "always")])
    sender = users["user-00"]
    reg_out = sender.register_pseudonym()
    for uid in ("user-01", "user-02"):
        users[uid].process_user_message(reg_out.user_view)
    bots["echo-bot-01"].receive(reg_out.chatbot_view)
    handle = sender.pseudonym.handle
    out = sender.send(b"cloaked hello", pseudonymous=True)
    for uid in ("user-01", "user-02"):
        users[uid].process_user_message(out.user_view)
    got = bots["echo-bot-01"].receive(out.chatbot_view)
    roundtrip = got.message == b"cloaked hello" and got.pseudonym == handle

    # replay: the same signed payload is invalid at any other epoch
    from chatgate.errors import BadPseudonymSignature
    from chatgate.group import _encode_pseudonymous, pseudonym_context
    from chatgate.primitives import sign

    ctx = pseudonym_context(sender.group_id, out.epoch, b"cloaked hello")
    stale = _encode_pseudonymous(b"cloaked hello", handle,
                                 sign(sender.pseudonym.key.secret_key, ctx))
    replayed = users["user-01"]._send_raw(stale,
                                          trigger_message=b"cloaked hello",
                                          conceal=False, address_all=True)
    try:
        bots["echo-bot-01"].receive(replayed.chatbot_view)
        replay_rejected = False
    except BadPseudonymSignature:
        replay_rejected = True

    # rotation: consecutive pseudonyms share no identifying bytes
    first = (sender.pseudonym.key.public_key, sender.pseudonym.handle)
    rot_out = sender.register_pseudonym()
    second = (sender.pseudonym.key.public_key, sender.pseudonym.handle)
    unlinked = (first[0] != second[0] and first[1] != second[1]
                and first[0] not in rot_out.user_view
                and first[1] not in rot_out.user_view
                and first[0] not in rot_out.chatbot_view)

    # cost: registering is a message send plus a signature, nothing more
    fresh_users, _, _ = build_group(3, bots=[("echo-bot-01", "always")])
    plain_ops = counters.OpCounters()
    with counters.collect(plain_ops), counters.attribute("s"):
        fresh_users["user-00"].send(b"baseline")
    reg_ops = counters.OpCounters()
    with counters.collect(reg_ops), counters.attribute("s"):
        fresh_users["user-00"].register_pseudonym()
    plain_total = sum(plain_ops.party("s").values())
    reg_total = sum(reg_ops.party("s").values())
    ratio = reg_total / plain_total
    cost_ok = ratio <= 3.0

    ok = roundtrip and replay_rejected and unlinked and cost_ok
    _announce(10, "pseudonymity", ok,
              f"roundtrip {roundtrip}, cross-epoch replay rejected "
              f"{replay_rejected}, rotation unlinked {unlinked}, "
              f"registration/send op ratio {ratio:.2f} <= 3")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
