"""Driver for the audit workload: seeded scenarios through harness.runner
with snapshots on, then all six probes.

Protocol work is tiny here; the exhaustive `adversary_decrypt` fixpoint
behind the selective-access and post-compromise probes and the runner's
per-op JSON snapshots dominate. The scenarios' ops are also replayed
through the live driver from the same warm world, all before any auditing
so that the adversary's heap does not sit under them; that gives the
per-message latencies at n=8 and checks the replay's outputs. The runner's
outputs are checked against the generator's ground truth, never against
the parties under test.
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from chatgate import counters, primitives
from chatgate.harness import canned, probes, runner

import live
import workloads
from speed import NOMINAL_NS, Speed
from workloads import AUDIT, Op

# probe name -> function in chatgate.harness.probes, looked up at call time
# so that a traced run calls the wrapped function
PROBES = {"agreement": "probe_agreement",
          "selective": "probe_selective_access",
          "fs": "probe_forward_secrecy",
          "pcs": "probe_post_compromise",
          "anonymity": "probe_anonymity",
          "concealment": "probe_concealment"}

BLOCKS = 2         # blocks per scenario: 26 body ops, 2 compromises
SETUPS = 5         # warm-world builds; set-up time is their median
REPLAYS = 16       # scenarios replayed for latencies, before any auditing
MIN_SCENARIOS = 4  # scenarios audited per run, at least
BURST = 5          # reference samples before each timed step and after the last


@dataclass
class ScenarioRun:
    """One audited scenario; times are scaled (see speed.py)."""

    ops: int                   # scenario lines the runner executed
    factor: float              # mean speed factor applied to the times below
    runner_s: float
    probe_s: dict[str, float]
    wire_bytes: int
    snapshots: int
    counts: Counter
    transcript_sha256: str
    errors: list[str] = field(default_factory=list)

    @property
    def audit_s(self) -> float:
        return sum(self.probe_s.values())


def _expected(ops: list[Op]) -> list[tuple]:
    """(kind, sender, message, addressed, rejected) per runner send event."""
    members = workloads.member_ids(AUDIT.n)
    bots = tuple(sorted(b.chatbot_id for b in AUDIT.bots))
    out = [("registration", m, None, bots, ()) for m in members[:AUDIT.holders]]
    for op in ops:
        if op.kind == "send":
            out.append(("user", op.actor, op.message, op.addressed, op.rejected))
        elif op.kind == "bot_send":
            out.append(("bot", op.actor, op.message, None, ()))
        elif op.kind == "register":
            out.append(("registration", op.actor, None, op.addressed, ()))
    return out


def _check(ops: list[Op], text: str, res: runner.RunResult) -> list[str]:
    """Compare the runner's send log and outcomes with the ground truth."""
    expected = _expected(ops)
    if len(res.sends) != len(expected):
        return [f"{len(res.sends)} sends logged, {len(expected)} expected"]
    errors = []
    members = res.current_members()
    bots = res.current_bots()
    for ev, (kind, sender, message, addressed, rejected) in zip(res.sends, expected):
        where = f"seq {ev.seq} ({kind} from {sender})"
        if (ev.kind, ev.sender) != (kind, sender):
            errors.append(f"{where}: logged {ev.kind} from {ev.sender}")
            continue
        if message is not None and ev.message != message:
            errors.append(f"{where}: message differs")
        if addressed is not None and ev.addressed != addressed:
            errors.append(f"{where}: addressed {ev.addressed}")
        user_want = "registration" if kind == "registration" else "message"
        for uid in members:
            got = res.user_outcomes.get((ev.seq, uid))
            if uid != sender and got != user_want:
                errors.append(f"{where}: {uid} got {got}")
        if kind == "bot":
            continue
        for cid in bots:
            want = ("registration" if kind == "registration"
                    else "rejected" if cid in rejected
                    else "message" if cid in addressed else "not_addressed")
            got = res.bot_outcomes.get((ev.seq, cid))
            if got != want:
                errors.append(f"{where}: {cid} got {got}, expected {want}")
    epochs = 1 + sum(line.split(" ", 1)[0] in ("send", "register_pseudonym", "update")
                     for line in text.splitlines())
    final = res.users[members[0]].epoch
    if final != epochs:
        errors.append(f"final epoch {final}, expected {epochs}")
    return errors


def replay(ops: list[Op], seed: int, samples: live.Samples, speed: Speed,
           tracer=None) -> None:
    """The scenario's protocol ops through the live driver, timed per op."""
    world = live.World(AUDIT, seed, speed)
    with primitives.seeded(f"replay:{seed}".encode()):
        for op in ops:
            if op.kind == "compromise":
                continue
            if tracer is None:
                world.run_op(op, samples, counters.OpCounters())
            else:
                with tracer.op():
                    world.run_op(op, samples, counters.OpCounters())


def audit_run(ops: list[Op], seed: int, speed: Speed, tracer=None) -> ScenarioRun:
    """Runner with snapshots, then every probe; each is one traced op.
    Each of them is timed between two bursts of reference samples, and
    scaled by the median of the two bursts around it."""
    text = workloads.scenario_text(AUDIT, ops)
    bursts: list[int] = []     # index of each burst's first sample
    walls: list[float] = []

    def timed(call):
        bursts.append(len(speed.samples))
        speed.sample(BURST)
        t0 = time.perf_counter()
        if tracer is None:
            out = call()
        else:
            with tracer.op():
                out = call()
        walls.append(time.perf_counter() - t0)
        return out

    res = timed(lambda: runner.run_text(text, seed=seed))
    errors = _check(ops, text, res)
    for fn_name in PROBES.values():
        verdict = timed(lambda: getattr(probes, fn_name)(res))
        if not verdict.passed:
            errors.append(f"probe {verdict.probe} failed: {verdict.detail}")
    bursts.append(len(speed.samples))
    speed.sample(BURST)
    scaled = []
    for i, wall in enumerate(walls):
        around = (speed.samples[bursts[i]:bursts[i] + BURST]
                  + speed.samples[bursts[i + 1]:bursts[i + 1] + BURST])
        scaled.append(wall * NOMINAL_NS / statistics.median(around))
    factor = sum(scaled) / sum(walls)
    h = hashlib.sha256()
    wire = 0
    for row in res.provider.transcript:
        h.update(json.dumps(row, sort_keys=True).encode())
        wire += len(base64.b64decode(row["view_b64"]))
    counts = Counter()
    for per_party in res.counters.as_dict().values():
        counts.update(per_party)
    return ScenarioRun(ops=len(text.splitlines()), factor=factor,
                       runner_s=scaled[0],
                       probe_s=dict(zip(PROBES, scaled[1:])),
                       wire_bytes=wire,
                       snapshots=sum(len(v) for v in res.snapshots.values()),
                       counts=counts, transcript_sha256=h.hexdigest(),
                       errors=errors)


def warm_up() -> None:
    """One canned scenario through the runner and every probe, untimed."""
    res = runner.run_text(canned.POST_COMPROMISE, seed=1)
    for fn_name in PROBES.values():
        getattr(probes, fn_name)(res)


def setup_times(seed: int, setups: int, speed: Speed) -> list[tuple[float, float]]:
    """(scaled, raw) seconds of building the warm world every scenario
    starts from."""
    worlds = [live.World(AUDIT, seed, speed) for _ in range(setups)]
    return [(w.setup_s, w.setup_raw_s) for w in worlds]


def scenarios(seed: int):
    """Endless seeded scenarios as (ops, seed for their randomness)."""
    rng = random.Random(f"audit:{seed}")
    k = 0
    while True:
        yield workloads.audit_blocks(rng, BLOCKS), seed * 1000 + k
        k += 1
