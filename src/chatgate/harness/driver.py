"""One group on its own provider: how every harness sets up parties and
runs each op.

Each op method does the whole op: its party builds the bundle inside a
counter-attribution span, the op makes its routing edit, and the bundle is
published to the recipients its views go to. It returns the sequence
number, a send also its `SendOutcome`. Delivery waits for `deliver`, and
follows the provider's routing: the current members, then the attached
chatbots, each in id order. A chatbot stays attached until its removal
has left its inbox, so it gets that removal and no later view.
"""

from __future__ import annotations

from .. import cgka, counters
from ..group import ChatbotState, SendOutcome, UserState, chatbot_init, user_init
from ..provider import Provider
from ..triggers import TriggerRule


class Group:
    def __init__(self, group_id: str) -> None:
        self.group_id = group_id
        self.provider = Provider()
        self.users: dict[str, UserState] = {}
        self.bots: dict[str, ChatbotState] = {}
        self._detaching: list[str] = []

    def join(self, uid: str) -> None:
        with counters.attribute(uid):
            user = user_init(cgka.init(uid, self.provider.directory), self.provider)
        self.users[uid] = user
        self.provider.register_party(uid, user)

    def declare_bot(self, cid: str, rules: tuple[TriggerRule, ...]) -> None:
        with counters.attribute(cid):
            bot = chatbot_init(cid, rules)
        self.bots[cid] = bot
        self.provider.register_bot(bot.registration)
        self.provider.register_party(cid, bot)

    def create(self, creator: str, members: list[str]) -> int:
        for uid in members:
            self.join(uid)
        self.provider.create_group(self.group_id, members)
        with counters.attribute(creator):
            blob = self.users[creator].create_group(self.group_id, members)
        return self.publish(creator, blob)

    def add_user(self, adder: str, uid: str) -> int:
        self.join(uid)
        with counters.attribute(adder):
            blob = self.users[adder].add_user(uid)
        self.provider.add_member(self.group_id, uid)
        return self.publish(adder, blob)

    def remove_user(self, remover: str, uid: str) -> int:
        with counters.attribute(remover):
            blob = self.users[remover].remove_user(uid)
        self.provider.remove_member(self.group_id, uid)
        return self.publish(remover, blob)

    def update(self, uid: str) -> int:
        with counters.attribute(uid):
            blob = self.users[uid].update_keys()
        return self.publish(uid, blob)

    def attach(self, adder: str, cid: str) -> int:
        with counters.attribute(adder):
            blob = self.users[adder].add_chatbot(cid)
        self.provider.attach_chatbot(self.group_id, cid)
        return self.publish(adder, blob, blob, (cid,))

    def detach(self, remover: str, cid: str) -> int:
        with counters.attribute(remover):
            blob = self.users[remover].remove_chatbot(cid)
        seq = self.publish(remover, blob, blob, (cid,))
        self._detaching.append(cid)  # only once the removal is sequenced
        return seq

    def send(self, sender: str, message: bytes, **flags) -> tuple[int, SendOutcome]:
        """`flags` are `UserState.send`'s keyword flags."""
        with counters.attribute(sender):
            out = self.users[sender].send(message, **flags)
        return self.publish(sender, out.user_view, out.chatbot_view), out

    def register_pseudonym(self, uid: str) -> tuple[int, SendOutcome]:
        with counters.attribute(uid):
            out = self.users[uid].register_pseudonym()
        return self.publish(uid, out.user_view, out.chatbot_view), out

    def bot_send(self, cid: str, message: bytes) -> int:
        with counters.attribute(cid):
            blob = self.bots[cid].send(message)
        return self.publish(cid, blob)

    def publish(self, sender: str, user_view: bytes, bot_view: bytes | None = None,
                bot_targets: tuple[str, ...] | None = None) -> int:
        """Publish bytes as they are, such as forged or hand-built ones."""
        return self.provider.publish(self.group_id, sender, user_view=user_view,
                                     bot_view=bot_view, bot_targets=bot_targets)

    def pending(self) -> list[tuple[str, UserState | ChatbotState, bytes]]:
        routed = [(self.provider.members(self.group_id), self.users),
                  (self.provider.chatbots(self.group_id), self.bots)]
        views = [(pid, parties[pid], view) for ids, parties in routed
                 for pid in sorted(ids) for view in self.provider.inbox(pid)]
        while self._detaching:
            self.provider.detach_chatbot(self.group_id, self._detaching.pop())
        return views

    def deliver(self) -> None:
        for pid, party, view in self.pending():
            with counters.attribute(pid):
                party.process(view)
