"""Primitive-operation counters with per-party attribution.

The harness installs a collector around a run and attributes spans of work
to a party id; every primitive in chatgate.primitives reports itself here.
When no collector is installed the hooks are no-ops, so library use outside
the harness pays a single None check per call.

Single-threaded by design: scenarios execute one action at a time.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator

COUNTED_OPS = (
    "pke_seal",
    "pke_open",
    "pke_keygen",
    "derive",
    "sym_encrypt",
    "sym_decrypt",
    "sign",
    "verify",
)

_UNATTRIBUTED = "_unattributed"


class OpCounters:
    """Exact per-party counts of primitive invocations."""

    def __init__(self) -> None:
        self.by_party: dict[str, Counter] = {}

    def add(self, party: str, op: str) -> None:
        counts = self.by_party.get(party)
        if counts is None:
            counts = self.by_party[party] = Counter()
        counts[op] += 1

    def party(self, party: str) -> Counter:
        return self.by_party.get(party, Counter())

    def total(self, op: str) -> int:
        return sum(c[op] for c in self.by_party.values())

    def as_dict(self) -> dict[str, dict[str, int]]:
        """Deterministically ordered plain dict, for reports."""
        return {
            party: {op: counts[op] for op in COUNTED_OPS if counts[op]}
            for party, counts in sorted(self.by_party.items())
        }


_active: OpCounters | None = None
_party: str = _UNATTRIBUTED


def record(op: str) -> None:
    if _active is not None:
        _active.add(_party, op)


@contextmanager
def collect(counters: OpCounters) -> Iterator[OpCounters]:
    """Route primitive counts into `counters` for the duration."""
    global _active
    previous = _active
    _active = counters
    try:
        yield counters
    finally:
        _active = previous


@contextmanager
def attribute(party: str) -> Iterator[None]:
    """Attribute primitive calls in this span to `party`."""
    global _party
    previous = _party
    _party = party
    try:
        yield
    finally:
        _party = previous


@contextmanager
def paused() -> Iterator[None]:
    """Suspend collection; harness bookkeeping must not count as protocol work."""
    global _active
    previous = _active
    _active = None
    try:
        yield
    finally:
        _active = previous
