"""Machine-speed reference for timings taken on a shared, noisy host.

On a small shared machine the same code runs up to 1.9x slower for minutes
at a time while neighbours are busy, which moves every wall-clock figure of
a run together. The benchmark therefore times a fixed reference task next
to the ops it measures and reports each time scaled to a machine on which
that task takes `NOMINAL_NS`:

    reported = wall-clock * NOMINAL_NS / median(nearby reference times)

Neighbours do not slow all code alike: some periods slow interpreter work
more, others the native X25519 code. The task holds both, in about the
proportion the workloads spend on them. It is the benchmark's own code and
calls `cryptography` directly, never the library, so a change to the
library moves the reported times exactly as it moves wall-clock time at a
steady machine speed. Raw wall-clock figures are printed next to the
scaled ones.
"""

from __future__ import annotations

import hashlib
import statistics
import time

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

NOMINAL_NS = 350_000   # the reference task's time on a quiet 2-core host
WINDOW = 15            # reference samples a local factor looks back over

_SEEDS = [hashlib.sha256(bytes([i])).digest() for i in range(2)]


def _task() -> None:
    table: dict[int, int] = {}
    words = []
    for i in range(600):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + len(str(i))
        if i % 8 == 0:
            words.append(f"w{key}")
    " ".join(sorted(words)).split()
    for seed in _SEEDS:
        private = X25519PrivateKey.from_private_bytes(seed)
        public = private.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw)
        private.exchange(X25519PublicKey.from_public_bytes(public))
        hashlib.sha256(public).digest()


def _reference() -> int:
    """Time one pass of the task after an untimed one, so what the last op
    left in the caches does not count."""
    _task()
    t0 = time.perf_counter_ns()
    _task()
    return time.perf_counter_ns() - t0


class Speed:
    """Reference samples taken as a run goes; factors scale wall-clock."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.spent_ns = 0   # wall time spent sampling, warm passes included

    def sample(self, times: int = 1) -> None:
        t0 = time.perf_counter_ns()
        for _ in range(times):
            self.samples.append(_reference())
        self.spent_ns += time.perf_counter_ns() - t0

    def factor(self, since: int = 0) -> float:
        """Scale for times taken while samples[since:] were recorded."""
        return NOMINAL_NS / statistics.median(self.samples[since:])

    def local_factor(self) -> float:
        """Scale for an op timed right after the latest sample."""
        return self.factor(max(0, len(self.samples) - WINDOW))
