"""Per-layer spans for the traced run, installed from outside the library.

`Tracer.install()` replaces each public entry point of every layer with a
wrapper that records a span: wall time, call count and the time of its
child spans. A module-level function is replaced in every module namespace
that binds it (`group`, `cgka`, `provider` and `triggers` import the
primitives by name), methods on their class. Wrappers record only inside an
op span, so the benchmark's own checks between ops cost nothing, and
`uninstall()` puts every original back.

Spans are aggregated as they close instead of being stored: a run at n=128
opens millions of them. Every span of one op shares that op's id, and an
op's self times across all layers plus its unwrapped remainder (`other`)
add up to the op's wall time; `op()` checks that per op.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

from chatgate import cgka, group, primitives, provider, tree, triggers
from chatgate.harness import probes, runner

LAYERS = ("primitives", "encoding", "tree", "cgka", "triggers", "group",
          "provider", "runner", "probes", "other")

_WIRE = (cgka.CgkaControl, group.UserMessageView, group.ChatbotMessageView,
         group.BotMessage, group.AddBotControl, group.RemoveBotControl,
         group.GroupControl, triggers.BotRegistration)


def _targets():
    """(owner, attribute, span key, after-hook name or None) per entry point."""
    out = []
    for name, key in (("pke_seal", "pke_seal"), ("pke_open", "pke_open"),
                      ("pke_keygen", "pke_keygen"), ("derive", "derive"),
                      ("sym_encrypt", "sym_encrypt"),
                      ("sym_decrypt", "sym_decrypt"), ("sign", "sign"),
                      ("verify", "verify"), ("sign_keygen", "sign_keygen"),
                      ("random_bytes", "random"), ("random_secret", "random")):
        out.append((primitives, name, f"primitives.{key}", None))
    for cls in _WIRE:
        out.append((cls, "to_bytes", "encoding.encode", None))
        out.append((cls, "from_bytes", "encoding.decode", "decoded"))
    out += [(triggers.TriggerSpec, "canonical_bytes", "encoding.encode", None),
            (triggers.TriggerSpec, "from_bytes", "encoding.decode", "decoded"),
            (tree.RatchetTree, "to_public_bytes", "encoding.encode", None),
            (tree.RatchetTree, "from_public_bytes", "encoding.decode", "decoded"),
            (triggers, "registration_context", "encoding.encode", None),
            (group, "pseudonym_context", "encoding.encode", None),
            (group, "_encode_plain", "encoding.encode", None),
            (group, "_encode_pseudonymous", "encoding.encode", None),
            (group, "_encode_registration", "encoding.encode", None),
            (group, "_parse_payload", "encoding.decode", "decoded")]
    out.append((tree.RatchetTree, "resolution", "tree.resolution", "resolved"))
    for name in ("blank_tree", "node", "leaf_of", "leftmost_blank_leaf",
                 "grow", "blank_path"):
        out.append((tree.RatchetTree, name, "tree.ops", None))
    for name in ("direct_path", "copath", "is_ancestor"):
        out.append((tree, name, "tree.ops", None))
    out.append((cgka.CgkaState, "process", "cgka.process", None))
    for name in ("create", "add", "remove", "update"):
        out.append((cgka.CgkaState, name, "cgka.build", "built"))
    out += [(cgka, "init", "cgka.other", None),
            (cgka.CgkaState, "snapshot", "cgka.other", None),
            (triggers.TriggerSpec, "matches", "triggers.matches", None),
            (triggers.BotRegistration, "verify_signature", "triggers.other", None),
            (triggers, "make_registration", "triggers.other", None),
            (triggers, "rules_from_text", "triggers.other", None),
            (group.UserState, "send", "group.send", "sent"),
            (group.UserState, "process_user_message",
             "group.process_user_message", None),
            (group.ChatbotState, "receive", "group.bot_receive", None)]
    for name in ("create_group", "add_user", "remove_user", "update_keys",
                 "process_group_control", "add_chatbot", "process_add_chatbot",
                 "remove_chatbot", "process_remove_chatbot",
                 "register_pseudonym", "receive_from_chatbot", "snapshot"):
        out.append((group.UserState, name, "group.other", None))
    for name in ("process_add", "process_remove", "send", "snapshot"):
        out.append((group.ChatbotState, name, "group.other", None))
    out += [(group, "chatbot_init", "group.other", None),
            (group, "user_init", "group.other", None),
            (provider.Provider, "publish", "provider.publish", "published")]
    for name in ("inbox", "register_bot", "lookup_bot", "create_group",
                 "add_member", "remove_member", "attach_chatbot",
                 "detach_chatbot", "members", "chatbots", "register_party",
                 "snapshot_state"):
        out.append((provider.Provider, name, "provider.other", None))
    out.append((provider, "adversary_decrypt", "provider.adversary", "attacked"))
    out.append((runner.Runner, "_post_op", "runner.post_op", None))
    for name in ("run", "_apply", "_drain", "_deliver_to_user",
                 "_deliver_to_bot", "_finish", "_event"):
        out.append((runner.Runner, name, "runner.other", None))
    for name in ("current_members", "current_bots"):
        out.append((runner.RunResult, name, "runner.other", None))
    out += [(runner, "run_scenario", "runner.other", None),
            (runner, "run_text", "runner.other", None)]
    for name, fn in (("agreement", "probe_agreement"),
                     ("selective", "probe_selective_access"),
                     ("fs", "probe_forward_secrecy"),
                     ("pcs", "probe_post_compromise"),
                     ("anonymity", "probe_anonymity"),
                     ("concealment", "probe_concealment")):
        out.append((probes, fn, f"probes.{name}", None))
    return out


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []     # open spans: [key, child ns]
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()   # spans whose parent has another key
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()    # work counts taken at the spans
        self.op_ns = 0
        self.ops = 0
        self.op_gap_ns = 0                  # |sum of self times - op time|
        # (op id, op ns, layer -> self ns) for every op, in order
        self.op_log: list[tuple[int, int, dict[str, int]]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    @contextmanager
    def op(self):
        """One op: the root span, whose self time is `other`. Every span
        opened inside it belongs to this op's id; the op's per-layer self
        times are logged under that id and must add up to its wall time."""
        before = Counter(self.self_ns)
        frame = ["other", 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dt = time.perf_counter_ns() - t0
            self._stack.pop()
            self.self_ns["other"] += dt - frame[1]
            layers: Counter = Counter()
            for key, ns in self.self_ns.items():
                if ns != before[key]:
                    layers[key.split(".", 1)[0]] += ns - before[key]
            self.op_log.append((self.ops, dt, dict(layers)))
            self.op_ns += dt
            self.ops += 1
            self.op_gap_ns += abs(sum(layers.values()) - dt)

    def _wrap(self, key: str, fn, after):
        stack = self._stack
        clock = time.perf_counter_ns
        self_ns, incl_ns, calls = self.self_ns, self.incl_ns, self.calls

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            outer = stack[-1][0] != key
            frame = [key, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                self_ns[key] += dt - frame[1]
                calls[key] += 1
                if outer:
                    incl_ns[key] += dt
            if after is not None and outer:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        return traced

    # -- hooks that count work where it happens ------------------------------------

    def _decoded(self, args, _result) -> None:
        data = args[-1]
        self.counts["encoding.decode.bytes"] += len(data)

    def _resolved(self, _args, result) -> None:
        self.counts["tree.resolution.nodes"] += len(result)

    def _built(self, _args, control) -> None:
        self.counts["cgka.controls"] += 1
        self.counts["cgka.path_entries"] += len(control.path_entries)

    def _sent(self, _args, outcome) -> None:
        self.counts["group.sends"] += 1
        self.counts["group.entries"] += len(outcome.addressed) + len(outcome.concealed)

    def _published(self, args, seq) -> None:
        rows = args[0].transcript
        k = len(rows)
        while k and rows[k - 1]["seq"] == seq:
            k -= 1
        self.counts["provider.deliveries"] += len(rows) - k

    def _attacked(self, _args, report) -> None:
        self.counts["provider.adversary.box_hits"] += report.boxes_opened
        self.counts["provider.adversary.ct_hits"] += report.ciphertexts_opened

    # -- install ---------------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name.startswith("chatgate")
                                         or name in ("live", "audit"))]
        for owner, attr, key, hook in _targets():
            after = getattr(self, f"_{hook}") if hook else None
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(key, raw.__func__, after))
                else:
                    wrapped = self._wrap(key, raw, after)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(key, original, after)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, value))
                        setattr(module, name, wrapped)
        self._adversary_trials()

    def _adversary_trials(self) -> None:
        """Trial counts: the primitive calls made inside adversary spans."""
        wrapped = provider.adversary_decrypt
        calls = self.calls

        def counted(*args, **kwargs):
            opens, decrypts = calls["primitives.pke_open"], calls["primitives.sym_decrypt"]
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.counts["provider.adversary.box_trials"] += (
                    calls["primitives.pke_open"] - opens)
                self.counts["provider.adversary.ct_trials"] += (
                    calls["primitives.sym_decrypt"] - decrypts)

        for module in (provider, probes):
            self._undo.append((module, "adversary_decrypt", wrapped))
            setattr(module, "adversary_decrypt", counted)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------------------

    def layer_self_ms(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, ns in self.self_ns.items():
            out[key.split(".", 1)[0]] += ns / 1e6
        return out

    def ms(self, *keys: str, inclusive: bool = True) -> float:
        source = self.incl_ns if inclusive else self.self_ns
        return sum(source[k] for k in keys) / 1e6
