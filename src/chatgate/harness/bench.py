"""Microbenchmarks for the cost claims.

Three experiments:
  * m-sweep: end-to-end group message delivery at fixed group size while the
    number of addressed chatbots grows. Cost should be linear in m.
  * n-sweep: sender-side cost of one message as the group grows. The sender
    pays one sealed box per tree level plus one per addressed chatbot, so
    time should grow with log2(n), not n.
  * add_bot: attaching a chatbot, in a plain group and in a group where
    every member holds a pseudonym (each must re-broadcast a fresh key so
    the new bot can verify them).

`chatgate bench` prints the rows of all of them as one JSON document; run
reports never include wall-clock numbers, so its output is the only
artifact that varies across hosts.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

from .. import counters
from ..triggers import rules_from_text
from .driver import Group


@dataclass(frozen=True)
class BenchRow:
    bench: str
    n: int
    m: int
    variant: str
    iterations: int
    p50_ms: float
    mean_ms: float
    pke_seal: int
    pke_keygen: int
    pke_open: int
    derive: int


# -- world construction -------------------------------------------------------

class World(Group):
    """A warm provider-mediated group sized for measurements; its helpers
    run each op through the driver and deliver it."""

    def __init__(self, n: int, m: int) -> None:
        super().__init__("grp-bench")
        self.ids = [f"user-{i:03d}" for i in range(n)]
        self.create(self.ids[0], self.ids)

        for i in range(m):
            self.attach_bot(f"bench-bot-{i:03d}")

        # Warm the tree: one self-update per member fills every internal
        # node, so a sender's path costs exactly one box per level.
        for uid in self.ids:
            self.update(uid)
            self.deliver()

    def attach_bot(self, cid: str, rules_text: str = "always") -> None:
        self.declare_bot(cid, rules_from_text(rules_text))
        self.attach(self.ids[0], cid)
        self.deliver()

    def detach_bot(self, cid: str) -> None:
        self.detach(self.ids[0], cid)
        self.deliver()

    def register_pseudonyms(self) -> None:
        """Every member, in order, registers a fresh pseudonym."""
        for uid in self.ids:
            self.register_pseudonym(uid)
            self.deliver()

    def send_end_to_end(self, sender: str, message: bytes) -> None:
        self.send(sender, message)
        self.deliver()

    def send_sender_only(self, sender: str, message: bytes) -> None:
        """Builds the send and publishes nothing."""
        self.users[sender].send(message)


def _measure(actions: list, iterations: int, warmups: int,
             undo=None) -> list[tuple[list[float], counters.OpCounters]]:
    """Warm every action, then time them round-robin, one call each per
    round, so drift in the host's speed lands on every action alike.
    `undo`, if given, runs after every call, untimed and uncounted, so
    that each call meets the world the first one met. Returns per action
    its times (ms) and the op counts of its last call."""
    def reset() -> None:
        if undo is not None:
            with counters.paused():
                undo()

    for action in actions:
        for _ in range(warmups):
            action()
            reset()
    out = [([], counters.OpCounters()) for _ in actions]
    for i in range(iterations):
        for action, (times, ops) in zip(actions, out):
            with counters.collect(ops if i == iterations - 1 else counters.OpCounters()):
                start = time.perf_counter_ns()
                action()
                elapsed = time.perf_counter_ns() - start
            times.append(elapsed / 1e6)
            reset()
    return out


def _row(bench: str, n: int, m: int, variant: str, times: list[float],
         ops: counters.OpCounters) -> BenchRow:
    return BenchRow(
        bench=bench, n=n, m=m, variant=variant, iterations=len(times),
        p50_ms=round(statistics.median(times), 4),
        mean_ms=round(statistics.fmean(times), 4),
        pke_seal=ops.total("pke_seal"),
        pke_keygen=ops.total("pke_keygen"),
        pke_open=ops.total("pke_open"),
        derive=ops.total("derive"))


# -- benches -----------------------------------------------------------------

def bench_send_m_sweep(n: int = 50, m_values: tuple[int, ...] = (0, 4, 8, 16, 32),
                       iterations: int = 30, warmups: int = 5) -> list[BenchRow]:
    """End-to-end delivery time as the chatbot roster grows."""
    message = b"benchmark message payload, forty-two bytes"
    worlds = [World(n, m) for m in m_values]
    measured = _measure([lambda w=w: w.send_end_to_end(w.ids[0], message)
                         for w in worlds], iterations, warmups)
    return [_row("send_m", n, m, "end_to_end", times, ops)
            for m, (times, ops) in zip(m_values, measured)]


def bench_send_n_sweep(n_values: tuple[int, ...] = (8, 16, 32, 64, 128),
                       m: int = 4, iterations: int = 30,
                       warmups: int = 5) -> list[BenchRow]:
    """Sender-side cost of one message as the group grows."""
    message = b"benchmark message payload, forty-two bytes"
    worlds = [World(n, m) for n in n_values]
    measured = _measure([lambda w=w: w.send_sender_only(w.ids[0], message)
                         for w in worlds], iterations, warmups)
    return [_row("send_n", n, m, "sender", times, ops)
            for n, (times, ops) in zip(n_values, measured)]


def bench_add_bot(n: int = 50, m: int = 4, iterations: int = 30,
                  warmups: int = 5, pseudonym: bool = False) -> list[BenchRow]:
    """Attaching one more chatbot to a warm group.

    Plain variant: the attach itself (registration lookup, one seal, the
    control fan-out). Pseudonym variant: the attach plus a fresh pseudonym
    broadcast from every member, since the new bot cannot verify handles it
    never saw. Each extra chatbot is detached again, untimed, before the
    next attach, so every attach is timed in a world of m chatbots. A
    reference send row in the same world, named after the variant
    (`reference_send_plain`, `reference_send_with_pseudonyms`), is
    included for ratio baselines.
    """
    world = World(n, m)
    if pseudonym:
        world.register_pseudonyms()

    # the reference send runs before any attach, so it seals to m chatbots
    message = b"benchmark message payload, forty-two bytes"
    sender = world.ids[0]
    [(ref_times, ref_ops)] = _measure(
        [lambda: world.send_end_to_end(sender, message)], iterations, warmups)

    # each attach registers a chatbot under a fresh id
    counter = iter(range(10_000))
    extra = []

    def attach_plain() -> None:
        extra.append(f"extra-bot-{next(counter):04d}")
        world.attach_bot(extra[-1])

    def attach_with_pseudonyms() -> None:
        attach_plain()
        world.register_pseudonyms()

    action = attach_with_pseudonyms if pseudonym else attach_plain
    variant = "with_pseudonyms" if pseudonym else "plain"
    [(times, ops)] = _measure([action], iterations, warmups,
                              undo=lambda: world.detach_bot(extra.pop()))
    return [_row("add_bot", n, m, variant, times, ops),
            _row("add_bot", n, m, f"reference_send_{variant}", ref_times, ref_ops)]


# -- model fits -----------------------------------------------------------------

def fit_linear(xs: list[float], ys: list[float]) -> tuple[float, float, float, float]:
    """Least squares y = a + b*x. Returns (a, b, r2, rss)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    b = sxy / sxx if sxx else 0.0
    a = mean_y - b * mean_x
    rss = sum((y - (a + b * x)) ** 2 for x, y in zip(xs, ys))
    sst = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 - rss / sst if sst else 1.0
    return a, b, r2, rss


def aic(rss: float, nobs: int) -> float:
    return 2 * 2 + nobs * math.log(max(rss / nobs, 1e-12))  # 2 fitted parameters


def compare_growth(ns: list[int], times_ms: list[float]) -> dict:
    """Is sender cost logarithmic or linear in group size? Lower AIC wins."""
    _, _, r2_lin, rss_lin = fit_linear([float(n) for n in ns], times_ms)
    logs = [math.log2(n) for n in ns]
    _, _, r2_log, rss_log = fit_linear(logs, times_ms)
    nobs = len(ns)
    return {
        "aic_linear": round(aic(rss_lin, nobs), 3),
        "aic_log": round(aic(rss_log, nobs), 3),
        "r2_linear": round(r2_lin, 4),
        "r2_log": round(r2_log, 4),
        "prefers_log": aic(rss_log, nobs) < aic(rss_lin, nobs),
    }
