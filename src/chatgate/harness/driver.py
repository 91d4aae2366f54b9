"""One group on its own provider: how every harness sets up parties, builds
with routing edits, publishes and delivers.

Delivery follows the provider's routing: the current members, then the
attached chatbots, each in id order. A chatbot stays attached until its
removal has left its inbox, so it gets that removal and no later view.
"""

from __future__ import annotations

from .. import cgka, counters
from ..group import ChatbotState, UserState, chatbot_init, user_init
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

    def create(self, creator: str, members: list[str]) -> bytes:
        for uid in members:
            self.join(uid)
        self.provider.create_group(self.group_id, members)
        with counters.attribute(creator):
            return self.users[creator].create_group(self.group_id, members)

    def add_user(self, adder: str, uid: str) -> bytes:
        self.join(uid)
        with counters.attribute(adder):
            blob = self.users[adder].add_user(uid)
        self.provider.add_member(self.group_id, uid)
        return blob

    def remove_user(self, remover: str, uid: str) -> bytes:
        with counters.attribute(remover):
            blob = self.users[remover].remove_user(uid)
        self.provider.remove_member(self.group_id, uid)
        return blob

    def attach(self, adder: str, cid: str) -> bytes:
        with counters.attribute(adder):
            blob = self.users[adder].add_chatbot(cid)
        self.provider.attach_chatbot(self.group_id, cid)
        return blob

    def detach(self, remover: str, cid: str) -> bytes:
        with counters.attribute(remover):
            blob = self.users[remover].remove_chatbot(cid)
        self._detaching.append(cid)
        return blob

    def publish(self, sender: str, user_view: bytes, bot_view: bytes | None = None,
                bot_targets: tuple[str, ...] | None = None) -> int:
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
