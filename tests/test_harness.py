"""Scenario parsing, the runner, probes (including their failure detection),
benches at toy sizes, and the CLI."""

import base64
import hashlib
import inspect
import json
import random
import re
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatgate import counters
from chatgate.cgka import CgkaControl
from chatgate.encoding import peek_type
from chatgate.errors import (
    ChatGateError,
    GroupDiverged,
    MalformedControl,
    NotMember,
    ProbeFailed,
    ScenarioParseError,
)
from chatgate.group import (
    GROUP_CONTROL,
    VIEW_CHATBOT_MESSAGE,
    VIEW_USER_MESSAGE,
    ChatbotMessageView,
    GroupControl,
    ReceivedMessage,
    UserMessageView,
    UserState,
)
from chatgate.harness import bench, canned, probes
from chatgate.harness.driver import Group
from chatgate.harness.runner import Runner, Supersession, run_scenario, run_text
from chatgate.harness.scenario import (
    OPS,
    AddUser,
    BotDecl,
    Compromise,
    GroupOp,
    RemUser,
    Send,
    parse_scenario,
)
from chatgate.primitives import BOX_LEN, random_bytes
from chatgate.provider import _collect_material
from chatgate.triggers import rules_from_text


# -- scenario parsing -----------------------------------------------------------

def test_parse_demo_scenario():
    scenario = parse_scenario(canned.DEMO)
    assert scenario.group_id == "grp-demo"
    assert scenario.ops[0].members == ("user-00", "user-01", "user-02")
    assert scenario.ops[0].party == "user-00"
    kinds = [type(op) for op in scenario.ops]
    assert kinds[0] is GroupOp
    assert BotDecl in kinds and AddUser in kinds and RemUser in kinds


def test_parse_send_flags():
    scenario = parse_scenario(
        'group g user-00 user-01\n'
        'bot echo-bot-01 always\n'
        'add_bot user-00 echo-bot-01\n'
        'send user-00 "hi there" conceal address_all\n')
    send = scenario.ops[-1]
    assert isinstance(send, Send)
    assert send.conceal and send.address_all and not send.pseudonymous
    assert send.message == b"hi there"


def test_parse_hash_inside_quotes_is_message_text():
    scenario = parse_scenario(
        'group g user-00 user-01  # the group\n'
        'send user-00 "fixed #5 today"\n'
        'send user-01 done # not a flag\n')
    assert [op.message for op in scenario.ops[1:]] == [b"fixed #5 today", b"done"]
    assert not any(op.conceal or op.pseudonymous or op.address_all
                   for op in scenario.ops[1:])


def test_parse_usage_comes_from_the_op_fields():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("group g user-00\nsend user-00\n")
    assert "usage: send <party> <message> [conceal] [pseudonymous] " \
           "[address_all]" in str(exc.value)
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("group g user-00\nupdate user-00 now\n")
    assert "usage: update <party>" in str(exc.value)


@pytest.mark.parametrize("text,fragment", [
    ("send user-00 hi\n", "must be 'group'"),
    ("group g user-00\ngroup h user-00\n", "one group"),
    ("group g user-00 user-00\n", "duplicate member"),
    ("group g user-00\nsend user-99 hi\n", "not a group member"),
    ("group g user-00\nbot b-01 always\nbot b-01 always\n", "declared twice"),
    ("group g user-00\nadd_bot user-00 b-01\n", "never declared"),
    ("group g user-00\nbot b-01 always\nrem_bot user-00 b-01\n", "not attached here"),
    ("group g user-00\nbot b-01 always\nadd_bot user-00 b-01\nadd_bot user-00 b-01\n",
     "already attached"),
    ("group g user-00 user-01\nadd_user user-00 user-01\n", "already a member"),
    ("group g user-00\nsend user-00 hi conceal conceal\n", "repeated send flag"),
    ("group g\n", "group needs an id and members"),
    ("group g user-00\nbot b-01 regex:x\n", "unknown rule kind"),
    ("group g user-00 user-01\nrem_user user-00 user-00\n", "themselves"),
    ("group g user-00\nsend user-00 hi loudly\n", "unknown send flag"),
    ("group g user-00\nsend user-00 hi pseudonymous\n", "no pseudonym"),
    ("group g user-00\nregister_pseudonym user-00\n", "no chatbot"),
    ("group g user-00\ncompromise ghost-99 lab\n", "not live"),
    ('group g user-00\nsend user-00 "unterminated\n', "bad quoting"),
    ("group g user-00\nfrobnicate user-00\n", "unknown operation"),
    ("", "empty scenario"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(text)
    assert fragment in str(exc.value)


def test_parse_error_reports_line_number():
    text = "group g user-00 user-01\nupdate user-00\nsend user-99 hi\n"
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(text)
    assert exc.value.line_no == 3


def test_compromise_label_reuse_rejected():
    text = ("group g user-00 user-01\n"
            "compromise user-00 lab\ncompromise user-01 lab\n")
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(text)
    assert "reused" in str(exc.value)


# -- runner ---------------------------------------------------------------------

def test_runner_demo_end_state():
    result = run_text(canned.DEMO, seed=5)
    report = result.report()
    assert report["final"]["members"] == ["user-00", "user-02", "user-03"]
    assert report["final"]["chatbots"] == ["memo-bot-02"]
    assert report["transcript_rows"] == len(result.provider.transcript)
    assert all(ev["seq"] is None or ev["seq"] >= 1 for ev in report["ops"])


def test_runner_records_sends_with_ground_truth():
    result = run_text(canned.SELECTIVE_ACCESS, seed=5)
    user_sends = [ev for ev in result.sends if ev.kind == "user"]
    by_message = {ev.message: set(ev.addressed) for ev in user_sends}
    assert by_message[b"@echo repeat after me"] == {"echo-bot-01"}
    assert by_message[b"note the quarterly figures"] == {"memo-bot-02"}
    assert by_message[b"no bot should read this line"] == set()
    assert by_message[b"@echo note this for both of you"] == {
        "echo-bot-01", "memo-bot-02"}


def test_runner_bot_outcomes():
    result = run_text(canned.SELECTIVE_ACCESS, seed=5)
    outcomes = {}
    for (seq, cid), label in result.bot_outcomes.items():
        outcomes.setdefault(cid, []).append((seq, label))
    echo = [label for _, label in sorted(outcomes["echo-bot-01"])]
    assert echo == ["message", "not_addressed", "not_addressed",
                    "message", "not_addressed"]


def test_runner_readd_after_removal():
    text = ("group g user-00 user-01 user-02\n"
            "rem_user user-00 user-02\n"
            "send user-00 \"between the ops\"\n"
            "add_user user-01 user-02\n"
            "send user-02 \"back again\"\n")
    result = run_text(text, seed=5)
    assert result.report()["final"]["members"] == ["user-00", "user-01", "user-02"]


def test_runner_error_notes_line_op_and_party():
    # The parser rejects a send from a removed member, so append it by
    # hand: the provider refuses it, and the error names where it happened.
    scenario = parse_scenario("group g user-00 user-01 user-02\n"
                              "rem_user user-00 user-02\n")
    scenario.ops.append(Send(3, "user-02", b"still here?"))
    with pytest.raises(NotMember) as info:
        run_scenario(scenario, seed=5)
    assert str(info.value) == "'user-02' may not publish to 'g'"
    assert info.value.__notes__ == ["scenario line 3: send by user-02"]


def test_runner_notes_a_divergence_with_line_op_and_party(monkeypatch):
    # user-02 drops user-00's update, so the members disagree after it:
    # the runner's own agreement check raises, and names the op
    process = UserState.process_group_control

    def dropping(self, data):
        ctl = CgkaControl.from_bytes(GroupControl.from_bytes(data).control)
        if self.member_id == "user-02" and ctl.kind == "update":
            return None
        return process(self, data)

    monkeypatch.setattr(UserState, "process_group_control", dropping)
    with pytest.raises(GroupDiverged) as info:
        run_text("group g user-00 user-01 user-02\nupdate user-00\n", seed=5)
    assert isinstance(info.value, ChatGateError)
    assert str(info.value).startswith("group diverged after seq 2: ")
    assert info.value.__notes__ == ["scenario line 2: update by user-00"]


def test_runner_notes_a_delivery_error_with_its_recipient_and_seq(monkeypatch):
    # user-01 refuses user-00's message: the error keeps its type and text,
    # and names the recipient and sequence number before the sender's op
    process = UserState.process_user_message

    def refusing(self, data):
        if self.member_id == "user-01":
            raise MalformedControl("refused by this member")
        return process(self, data)

    monkeypatch.setattr(UserState, "process_user_message", refusing)
    with pytest.raises(MalformedControl) as info:
        run_text('group g user-00 user-01 user-02\nsend user-00 "hi"\n', seed=5)
    assert type(info.value) is MalformedControl
    assert str(info.value) == "refused by this member"
    assert info.value.__notes__ == ["delivering seq 2 to user-01",
                                    "scenario line 2: send by user-00"]


# one line of every op kind, and the party each line names as acting
EVERY_OP = [
    ("group g user-00 user-01 user-02", "user-00"),
    ("bot echo-bot-01 always", "echo-bot-01"),
    ("add_bot user-01 echo-bot-01", "user-01"),
    ("register_pseudonym user-02", "user-02"),
    ('send user-02 "hi" pseudonymous', "user-02"),
    ('bot_send echo-bot-01 "reply"', "echo-bot-01"),
    ("update user-01", "user-01"),
    ("add_user user-00 user-03", "user-00"),
    ("rem_user user-03 user-01", "user-03"),
    ("compromise echo-bot-01 leak", "echo-bot-01"),
    ("rem_bot user-02 echo-bot-01", "user-02"),
]


def test_every_op_kind_is_exercised_once():
    assert sorted(line.split()[0] for line, _ in EVERY_OP) == sorted(OPS)


@pytest.mark.parametrize("line_no", range(1, len(EVERY_OP) + 1))
def test_runner_error_notes_name_each_op_kind(monkeypatch, line_no):
    apply = Runner._apply

    def failing(self, op):
        if op.line_no == line_no:
            raise RuntimeError("boom")
        return apply(self, op)

    monkeypatch.setattr(Runner, "_apply", failing)
    line, party = EVERY_OP[line_no - 1]
    with pytest.raises(RuntimeError) as info:
        run_text("\n".join(line for line, _ in EVERY_OP) + "\n", seed=5)
    assert info.value.__notes__ == [
        f"scenario line {line_no}: {line.split()[0]} by {party}"]


def test_runner_detaches_a_removed_bot_after_delivering_its_removal():
    text = ("group g user-00 user-01\n"
            "bot memo-bot-01 contains:note\n"
            "add_bot user-00 memo-bot-01\n"
            "register_pseudonym user-01\n"
            "send user-00 \"note this\"\n"
            "rem_bot user-00 memo-bot-01\n")
    result = run_text(text, seed=5)
    snap = result.bots["memo-bot-01"].snapshot()
    assert snap["group_id"] is None
    assert snap["group_public_key"] is None
    assert snap["node"] is None
    assert snap["pseudonyms"] == {}
    assert result.provider.inbox("memo-bot-01") == []
    assert "memo-bot-01" not in result.scopes[-1][1]


def test_readme_op_table_lists_every_op():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `(\w+)` \| `", readme, flags=re.MULTILINE)
    assert sorted(table) == sorted(OPS)


def test_report_ops_name_their_scenario_keyword():
    for name, text in sorted(canned.ALL.items()):
        lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
        keywords = [tokens[0] for tokens in lines if tokens]
        ops = run_text(text, seed=7).report()["ops"]
        assert [ev["op"] for ev in ops] == keywords, name


def test_runner_newcomer_cannot_read_stale_bot_channel():
    text = ("group g user-00 user-01\n"
            "bot memo-bot-01 contains:note\n"
            "add_bot user-00 memo-bot-01\n"
            "send user-00 \"note something\"\n"
            "add_user user-00 user-02\n"
            "bot_send memo-bot-01 \"reply to the old epoch\"\n")
    result = run_text(text, seed=5)
    reply_seq = max(seq for seq, _ in result.seq_epoch.items())
    outcomes = {uid: label for (seq, uid), label in result.user_outcomes.items()
                if seq == reply_seq}
    assert outcomes["user-02"] == "unreadable"
    assert outcomes["user-01"] == "message"


def test_runner_attributes_counters_per_party():
    result = run_text(canned.ANONYMITY, seed=5)
    counts = result.counters.as_dict()
    assert "user-00" in counts and "echo-bot-01" in counts
    # every sender sealed: tree path plus the addressed chatbot
    assert counts["user-01"]["pke_seal"] >= 2
    # the chatbot never seals in this scenario, it only opens: one box for
    # its attach seed, then one entry per addressed send
    assert counts["echo-bot-01"].get("pke_seal", 0) == 0
    assert counts["echo-bot-01"]["pke_open"] == 5


def test_wire_boxes_match_seal_counts():
    # Every sealed box on the wire is either a counted pke_seal or a
    # concealment dummy; nothing else may produce box-shaped bytes.
    result = run_text(canned.CONCEALMENT, seed=5)
    boxes, _cts, _depth = _collect_material(result.provider.transcript,
                                            result.provider)
    dummies = sum(len(ev.concealed) for ev in result.sends)
    assert len(boxes) == result.counters.total("pke_seal") + dummies


def test_reports_have_no_timing_fields():
    result = run_text(canned.DEMO, seed=5)
    text = json.dumps(result.report())
    for banned in ("_ms", "elapsed", "wall", "time"):
        assert banned not in text


def test_same_seed_same_transcript():
    a = run_text(canned.DEMO, seed=42)
    b = run_text(canned.DEMO, seed=42)
    assert a.provider.transcript == b.provider.transcript
    assert a.report() == b.report()


# SHA-256 of the report JSON, the transcript JSONL and the supersession list
# for every canned scenario at seed 7. A refactor that keeps the protocol's
# behaviour keeps all three; change them only with a change the transcripts
# show, and say which one moved.
PINNED_SEED_7 = {
    "anonymity": {
        "report": "a67d197fa2339956929bede4cbf7e2da308617804763bda92dd0efd0b7d77cfd",
        "transcript": "1037f3f9b81ae1626851927ae2af177f2b1cbfdeca94473b8de9b1e4eaefad0d",
        "supersessions": "c9f1950b7456de3077d5747315a0d599d555a1a5a494ba7c29947912279cf1b4",
    },
    "concealment": {
        "report": "25a8179278a1370342a6b78c77dd90c6659aeaa0236a6725551c2220657f7c00",
        "transcript": "e5f1ae3c16443b492a384afb8209c7ae53e5cdc7abf1799f928f180658ca9dd3",
        "supersessions": "8013cf0343010e2b82a8597c514cdd46d3a30b2c128e390864fb4073bb7de908",
    },
    "demo": {
        "report": "ca71aa346f4154f0ba6a9c66357abaf8b49172aecd4fb1b06b03ea5236bf16a2",
        "transcript": "5f890c758838c015367890c190a9f61b2fbb90e560f731da0af5548cf7121f8e",
        "supersessions": "205b0e088372c2fb43267d0bd9e3de8ba5ad0fd3e3f2e35efa6c2de49a3eae85",
    },
    "fs": {
        "report": "17eb0d155de2053f3e3f36183cc8869216991adf2e2b05cbb5fca3134d669b1b",
        "transcript": "7974cfbda3ebeae3fceda3dea8047add906f52a713230bc5b4a35c56ba357f18",
        "supersessions": "74ac06911edae041e25207b9c2eecb343284be288079da65870fca61af6ecbbe",
    },
    "pcs": {
        "report": "2e00b8161fa9ed574151bfcca2869798771265ddeccdd5459097789d50947ad3",
        "transcript": "534f4eaa70dc5476b9a8e88673262a56daa6a050532b00c1fd92f7c7456c857b",
        "supersessions": "861efb5eecf3880a89a078a82919c1804447f71f33be1b035f602f1d2ec3e024",
    },
    "selective": {
        "report": "3093954872dd47250466052bf71ccdbeefb442a368e5e74c954bc9db55425496",
        "transcript": "872a8892719c1575f8d04d05093bd5ed3dad6e78f8929dd87af12861ddf94ecf",
        "supersessions": "9438ea1a302fc63b036366778129242e50f03e7291a923d9bfc5b5b7c7bb7e01",
    },
}


@pytest.mark.parametrize("name", sorted(canned.ALL))
def test_seeded_artifacts_are_pinned(name):
    assert sorted(PINNED_SEED_7) == sorted(canned.ALL)
    result = run_text(canned.ALL[name], seed=7)

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    digests = {
        "report": sha(json.dumps(result.report(), sort_keys=True)),
        "transcript": sha("".join(json.dumps(row, sort_keys=True) + "\n"
                                  for row in result.provider.transcript)),
        "supersessions": sha(json.dumps([[s.value_hex, s.dead_from]
                                         for s in result.supersessions])),
    }
    assert digests == PINNED_SEED_7[name]


# -- probes: positive ------------------------------------------------------------

@pytest.mark.parametrize("name,fn", [
    ("fs", probes.probe_forward_secrecy),
    ("pcs", probes.probe_post_compromise),
    ("selective", probes.probe_selective_access),
    ("anonymity", probes.probe_anonymity),
    ("concealment", probes.probe_concealment),
])
def test_canned_probe_passes(name, fn):
    result = run_text(canned.ALL[name], seed=9)
    assert probes.probe_agreement(result).passed
    verdict = fn(result)
    assert verdict.passed, verdict.detail


def test_probes_pass_on_demo():
    result = run_text(canned.DEMO, seed=9)
    assert probes.probe_forward_secrecy(result).passed
    assert probes.probe_selective_access(result).passed
    assert probes.probe_concealment(result).passed
    assert probes.probe_anonymity(result).passed


# -- probes: the detection machinery actually detects -----------------------------

def test_fs_probe_flags_a_retained_secret():
    result = run_text(canned.FORWARD_SECRECY, seed=9)
    live = result.users["user-00"].cgka.group_secret.hex()
    result.supersessions.append(Supersession(value_hex=live, dead_from=0))
    verdict = probes.probe_forward_secrecy(result)
    assert not verdict.passed
    with pytest.raises(ProbeFailed):
        verdict.check()


def _fs_substring_scan(result):
    """The forward-secrecy probe as a plain substring scan of every
    snapshot for every value: the reference the indexed probe must match."""
    violations = []
    scanned = 0
    dead = result.supersessions
    for pid, history in sorted(result.snapshots.items()):
        for snap_seq, snapshot in history:
            scanned += 1
            text = snapshot.decode("ascii")
            for item in dead:
                if item.dead_from <= snap_seq and item.value_hex in text:
                    violations.append({"party": pid, "seq": snap_seq,
                                       "value": item.value_hex[:16]})
    for cid in sorted(result.bots):
        for snap_seq, snapshot in result.snapshots.get(cid, []):
            text = snapshot.decode("ascii")
            for value in sorted(set(result.group_secrets.values())):
                if value in text:
                    violations.append({"party": cid, "seq": snap_seq,
                                       "value": value[:16], "kind": "chain"})
    return probes.Verdict("forward_secrecy", not violations,
                          {"snapshots_scanned": scanned, "dead_values": len(dead),
                           "violations": violations[:10]})


def test_fs_probe_matches_the_substring_scan(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    results = [run_text(text, seed=seed) for seed in (7, 23)
               for _, text in sorted(canned.ALL.items())]
    rng = random.Random("fs-reference")
    results += [run_text(workloads.scenario_text(
                    workloads.AUDIT, workloads.audit_blocks(rng, 1)), seed=seed)
                for seed in (301, 302)]
    for result in results:
        assert probes.probe_forward_secrecy(result) == _fs_substring_scan(result)
        # every group secret declared dead from the start: members still
        # hold the live one, so both scans must report the same violations
        result.supersessions += [Supersession(value, 0)
                                 for value in sorted(result.group_secrets.values())]
        verdict = probes.probe_forward_secrecy(result)
        assert not verdict.passed
        assert verdict == _fs_substring_scan(result)


def test_fs_probe_finds_a_value_inside_a_longer_hex_string():
    result = run_text(canned.FORWARD_SECRECY, seed=9)
    dead = "5a" * 32
    secret = result.group_secrets[min(result.group_secrets)]
    seq = result.snapshots["user-01"][-1][0]
    # odd offsets, so only a window that does not start a run matches
    result.snapshots["user-01"].append(
        (seq + 1, json.dumps({"blob": "f" + dead + "0e"}).encode()))
    result.snapshots["memo-bot-01"].append(
        (seq + 1, json.dumps({"blob": "abc" + secret + "d"}).encode()))
    result.supersessions.append(Supersession(dead, seq + 1))
    verdict = probes.probe_forward_secrecy(result)
    assert verdict == _fs_substring_scan(result)
    found = verdict.detail["violations"]
    assert {"party": "user-01", "seq": seq + 1, "value": dead[:16]} in found
    assert {"party": "memo-bot-01", "seq": seq + 1, "value": secret[:16],
            "kind": "chain"} in found


def _fs_window_scan(result):
    """The forward-secrecy probe as it was before its index: a regex scan
    of each snapshot into hex windows, then every dead value and, for a
    bot, every group secret tested against them. Returns every violation
    in order, and the counts."""
    violations = []
    chain = []
    scanned = 0
    dead = result.supersessions
    all_group_secrets = sorted(set(result.group_secrets.values()))
    for pid, history in sorted(result.snapshots.items()):
        for snap_seq, snapshot in history:
            scanned += 1
            windows = _regex_hex_windows(snapshot)
            for item in dead:
                if item.dead_from <= snap_seq and item.value_hex in windows:
                    violations.append({"party": pid, "seq": snap_seq,
                                       "value": item.value_hex[:16]})
            if pid in result.bots:
                chain.extend({"party": pid, "seq": snap_seq,
                              "value": value[:16], "kind": "chain"}
                             for value in all_group_secrets if value in windows)
    return violations + chain, {"snapshots_scanned": scanned,
                                "dead_values": len(dead)}


def _regex_hex_windows(snapshot: bytes) -> set[str]:
    """`probes._hex_windows` as a regex over the snapshot's bytes."""
    out = set()
    for run in re.findall(rb"[0-9a-f]{64,}", snapshot):
        run = run.decode("ascii")
        out.update(run[i:i + 64] for i in range(len(run) - 63))
    return out


def _plant(result):
    """Dead values and group secrets planted where the scan must find
    them: values every party holds die at several points, some twice, and
    each bot gains a snapshot holding every group secret, newest first,
    then an identical one."""
    held = sorted(_regex_hex_windows(result.snapshots["user-00"][-1][1]))
    last = max(seq for history in result.snapshots.values() for seq, _ in history)
    for k, value in enumerate(held[::3]):
        result.supersessions.insert(k % 5, Supersession(value, k % (last + 1)))
        if k % 2:
            result.supersessions.append(Supersession(value, last))
    secrets = sorted(result.group_secrets.values(), reverse=True)
    blob = json.dumps({"stolen": secrets, "dead": held[:3]}).encode()
    for cid in sorted(result.bots):
        history = result.snapshots.setdefault(cid, [])
        history += [(last + 1, blob), (last + 2, blob)]


def test_fs_probe_matches_the_window_scan(monkeypatch):
    # every violation and its order, not only the ten a verdict keeps
    monkeypatch.setattr(probes, "_verdict",
                        lambda _probe, violations, **detail: (violations, detail))
    for seed in (7, 23):
        for _, text in sorted(canned.ALL.items()):
            result = run_text(text, seed=seed)
            assert probes.probe_forward_secrecy(result) == _fs_window_scan(result)
            _plant(result)
            violations, detail = probes.probe_forward_secrecy(result)
            assert len({v.get("kind") for v in violations}) == 2
            assert (violations, detail) == _fs_window_scan(result)


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(st.one_of(st.text("0123456789abcdef", max_size=150),
                                 st.binary(max_size=3))))
def test_hex_windows_match_the_regex_scan(chunks):
    snapshot = b"".join(c.encode("ascii") if isinstance(c, str) else c
                        for c in chunks)
    assert probes._hex_windows(snapshot) == _regex_hex_windows(snapshot)


def test_selective_probe_flags_a_leaked_group_key():
    result = run_text(canned.SELECTIVE_ACCESS, seed=9)
    cid = "echo-bot-01"
    leaked = json.dumps(
        {"stolen": result.users["user-00"].cgka.group_secret.hex()}).encode()
    seq = result.snapshots[cid][-1][0]
    result.snapshots[cid].append((seq + 1, leaked))
    verdict = probes.probe_selective_access(result)
    assert not verdict.passed
    # the leaked chain key decrypted something the bot was never sent
    assert verdict.detail["violations"]


def test_pcs_probe_requires_a_heal():
    text = ("group g user-00 user-01\n"
            "bot memo-bot-01 contains:note\n"
            "add_bot user-00 memo-bot-01\n"
            "compromise user-01 stolen\n"
            "send user-00 \"note afterwards\"\n")
    result = run_text(text, seed=9)
    with pytest.raises(ProbeFailed):
        probes.probe_post_compromise(result)


def test_pcs_probe_requires_a_compromise():
    result = run_text(canned.FORWARD_SECRECY, seed=9)
    with pytest.raises(ProbeFailed):
        probes.probe_post_compromise(result)


def test_unhealed_compromise_is_actually_readable():
    # Sanity check that the adversary is not a paper tiger: without a heal,
    # the captured state reads everything that follows.
    from chatgate.provider import Adversary, adversary_decrypt

    text = ("group g user-00 user-01\n"
            "compromise user-01 stolen\n"
            "send user-00 \"leaks to the stale state\"\n")
    result = run_text(text, seed=9)
    event = result.compromises["stolen"]
    report = adversary_decrypt(event.snapshot, Adversary(
        result.provider.transcript, result.provider))
    assert b"leaks to the stale state" in report.plaintexts


def _chatbot_rows(result):
    return [r for r in result.provider.transcript
            if r["recipient_class"] == "chatbot"
            and base64.b64decode(r["view_b64"])[0] == VIEW_CHATBOT_MESSAGE]


def _reencode(row, view, **body):
    """Write `view` into `row`, with the fields `body` names of its body
    changed."""
    if body:
        view = replace(view, body=replace(view.body, **body))
    row["view_b64"] = base64.b64encode(view.to_bytes()).decode("ascii")


def _view(row):
    return ChatbotMessageView.from_bytes(base64.b64decode(row["view_b64"]))


def test_anonymity_probe_raises_on_a_malformed_message_view():
    result = run_text(canned.ANONYMITY, seed=9)
    row = _chatbot_rows(result)[0]
    view = base64.b64decode(row["view_b64"])
    row["view_b64"] = base64.b64encode(view[:-1]).decode("ascii")
    with pytest.raises(MalformedControl):
        probes.probe_anonymity(result)


def test_anonymity_probe_flags_shape_differences():
    # Two views of the same message from different senders: the probe
    # passes until one of them carries one more (dummy) entry.
    text = ("group g user-00 user-01\n"
            "bot echo-bot-01 always\n"
            "add_bot user-00 echo-bot-01\n"
            "send user-00 \"same words\"\n"
            "send user-01 \"same words\"\n")
    result = run_text(text, seed=9)
    assert probes.probe_anonymity(result).passed
    row = _chatbot_rows(result)[-1]
    view = _view(row)
    dummy = ("echo-bot-01", 1, random_bytes(BOX_LEN))
    _reencode(row, view, entries=(*view.body.entries, dummy))
    verdict = probes.probe_anonymity(result)
    assert verdict.detail["violations"] == [
        {"kind": "shape", "chatbot": "echo-bot-01", "message": b"same words".hex(),
         "distinct": 2}]


def test_agreement_probe_flags_a_member_on_another_epoch():
    result = run_text(canned.FORWARD_SECRECY, seed=9)
    result.users["user-01"].cgka.epoch += 1
    verdict = probes.probe_agreement(result)
    assert not verdict.passed
    epoch = result.users["user-00"].epoch
    assert verdict.detail["violations"] == [{"epochs": [epoch, epoch + 1]}]


def test_pcs_probe_flags_a_capture_taken_after_the_heal():
    # The party's last snapshot holds the keys of everything after the
    # heal: both the later messages and the later group secrets.
    result = run_text(canned.POST_COMPROMISE, seed=9)
    event = result.compromises["stolen-device"]
    last = result.snapshots[event.party][-1][1]
    result.compromises["stolen-device"] = replace(event, snapshot=last)
    violations = probes.probe_post_compromise(result).detail["violations"]
    assert any("plaintext" in v for v in violations)
    assert any(v.get("kind") == "group_secret" for v in violations)


def test_anonymity_probe_flags_a_member_id_in_a_view():
    result = run_text(canned.ANONYMITY, seed=9)
    row = _chatbot_rows(result)[0]
    view = ChatbotMessageView.from_bytes(base64.b64decode(row["view_b64"]))
    _reencode(row, replace(view, group_id="user-02"))
    violations = probes.probe_anonymity(result).detail["violations"]
    assert {"seq": row["seq"], "leaked": "user-02"} in violations


def test_concealment_probe_flags_a_missing_entry():
    # one attached bot's view of a concealed send loses its one entry, and
    # with it the body: the notice a bot that no entry names gets
    result = run_text(canned.CONCEALMENT, seed=9)
    seq = next(ev.seq for ev in result.sends if ev.concealed)
    row = next(row for row in _chatbot_rows(result) if row["seq"] == seq)
    view = _view(row)
    assert len(view.body.entries) == 1
    _reencode(row, replace(view, body=None))
    verdict = probes.probe_concealment(result)
    assert verdict.detail["violations"] == [{"seq": seq, "kind": "roster"}]


def test_concealment_probe_flags_a_body_without_an_entry():
    # a bot that no entry names handed the message's body anyway: a
    # ciphertext and keys it cannot use, which its notice leaves out
    result = run_text(canned.SELECTIVE_ACCESS, seed=9)
    assert probes.probe_concealment(result).passed
    rows = _chatbot_rows(result)
    notice = next(row for row in rows if _view(row).body is None)
    full = next(_view(row) for row in rows
                if row["seq"] == notice["seq"] and _view(row).body is not None)
    _reencode(notice, replace(_view(notice), body=replace(full.body, entries=())))
    verdict = probes.probe_concealment(result)
    assert verdict.detail["violations"] == [
        {"seq": notice["seq"], "chatbot": notice["recipient"], "kind": "body"}]


def test_concealment_probe_flags_a_second_entry_of_a_concealed_send():
    result = run_text(canned.CONCEALMENT, seed=9)
    seq = next(ev.seq for ev in result.sends if ev.concealed)
    row = next(row for row in _chatbot_rows(result) if row["seq"] == seq)
    view = _view(row)
    (cid, position, _), = view.body.entries
    extra = (cid, position + 1, random_bytes(BOX_LEN))
    _reencode(row, view, entries=(*view.body.entries, extra))
    verdict = probes.probe_concealment(result)
    assert verdict.detail["violations"] == [
        {"seq": seq, "chatbot": row["recipient"], "kind": "entries", "count": 2}]


@pytest.mark.parametrize("name", ["concealment", "demo"])
def test_concealment_probe_flags_a_view_naming_another_bot(name):
    # a bot handed another bot's entry learns that the other was reached
    result = run_text(canned.ALL[name], seed=9)
    rows = _chatbot_rows(result)
    row = next(row for row in reversed(rows) if _view(row).body is not None)
    other = next(r["recipient"] for r in rows if r["recipient"] != row["recipient"])
    view = _view(row)
    entry = (other, len(view.body.entries), random_bytes(BOX_LEN))
    _reencode(row, view, entries=(*view.body.entries, entry))
    verdict = probes.probe_concealment(result)
    assert {"seq": row["seq"], "chatbot": row["recipient"], "kind": "other_bot",
            "named": [other]} in verdict.detail["violations"]


@pytest.mark.parametrize("name", sorted(canned.ALL))
def test_no_delivered_chatbot_view_names_another_bot(name):
    result = run_text(canned.ALL[name], seed=7)
    rows = _chatbot_rows(result)
    assert rows
    naming_others = [row["seq"] for row in rows if (body := _view(row).body)
                     and {entry[0] for entry in body.entries} - {row["recipient"]}]
    assert naming_others == []
    assert probes.probe_concealment(result).passed


@pytest.mark.parametrize("ephemeral", [bytes(32), b"\xff" * 32],
                         ids=["no_ephemeral", "not_a_field_element"])
def test_concealment_probe_flags_a_concealed_view_without_a_genuine_ephemeral(
        ephemeral):
    # dummies under no key pair, or under bytes no key generation writes,
    # would tell a concealed view apart from one with an addressed bot
    result = run_text(canned.CONCEALMENT, seed=9)
    seq = next(ev.seq for ev in result.sends if ev.concealed)
    rewritten = []
    for row in _chatbot_rows(result):
        if row["seq"] == seq:
            view = _view(row)
            assert probes._is_public_key(view.body.ephemeral)
            _reencode(row, view, ephemeral=ephemeral)
            rewritten.append(row["recipient"])
    assert len(rewritten) > 1
    verdict = probes.probe_concealment(result)
    assert verdict.detail["violations"] == [
        {"seq": seq, "chatbot": cid, "kind": "ephemeral"} for cid in sorted(rewritten)]


def test_concealment_probe_flags_a_concealed_bot_that_acted():
    result = run_text(canned.CONCEALMENT, seed=9)
    ev = next(ev for ev in result.sends if ev.concealed)
    cid = ev.concealed[0]
    result.bot_outcomes[(ev.seq, cid)] = "message"
    verdict = probes.probe_concealment(result)
    assert verdict.detail["violations"] == [
        {"seq": ev.seq, "chatbot": cid, "outcome": "message"}]


# -- bench ---------------------------------------------------------------------

def test_bench_m_sweep_counts():
    rows = bench.bench_send_m_sweep(n=8, m_values=(0, 2), iterations=3,
                                    warmups=1)
    assert [row.m for row in rows] == [0, 2]
    base, with_bots = rows
    assert with_bots.pke_seal == base.pke_seal + 2
    assert all(row.p50_ms > 0 for row in rows)


def test_bench_n_sweep_is_sender_side():
    rows = bench.bench_send_n_sweep(n_values=(4, 8), m=1, iterations=3,
                                    warmups=1)
    # sender never opens anything while sending
    assert all(row.pke_open == 0 for row in rows)
    assert rows[0].pke_seal == 2 + 1  # depth of a 4-leaf tree, plus one bot
    assert rows[1].pke_seal == 3 + 1
    # one key pair per path node, and one ephemeral per batch: the path
    # entries' and the bot box's
    assert rows[0].pke_keygen == 3 + 2
    assert rows[1].pke_keygen == 4 + 2


def test_bench_add_bot_rows():
    rows = bench.bench_add_bot(n=6, m=1, iterations=3, warmups=1)
    variants = {row.variant for row in rows}
    assert variants == {"plain", "reference_send_plain"}
    plain = next(r for r in rows if r.variant == "plain")
    assert plain.pke_seal >= 1


def test_bench_add_bot_reference_send_seals_to_m_chatbots():
    # the reference send runs before the measured attaches, so it seals to
    # the same m chatbots as the m-sweep's send
    [*_, reference] = bench.bench_add_bot(n=8, m=2, iterations=2, warmups=0)
    [send_m] = bench.bench_send_m_sweep(n=8, m_values=(2,), iterations=2, warmups=0)
    assert reference.variant == "reference_send_plain"
    assert reference.pke_seal == send_m.pke_seal


def test_bench_add_bot_times_every_attach_in_a_world_of_m_chatbots():
    # each extra chatbot is detached after its timed attach, so the last
    # iteration's pseudonym broadcasts seal to m + 1 chatbots however many
    # iterations ran: one attach seed, then per member 3 path entries and
    # 3 chatbot boxes
    seals = [bench.bench_add_bot(n=8, m=2, iterations=k, warmups=0,
                                 pseudonym=True)[0].pke_seal for k in (2, 6)]
    assert seals == [1 + 8 * (3 + 3)] * 2


def test_world_refuses_an_unroutable_view_at_publish():
    world = bench.World(2, 0)
    rows = len(world.provider.transcript)
    with pytest.raises(MalformedControl, match="view type 0x7f"):
        world.publish(world.ids[0], b"\x7fjunk")
    assert len(world.provider.transcript) == rows
    assert world.pending() == []


def test_the_driver_routes_by_the_providers_tables():
    world = bench.World(4, 1)
    for pid in [*world.users, *world.bots]:
        json.loads(world.provider.snapshot_state(pid))
    # a newcomer is delivered to from its add on, with no list to extend
    world.add_user("user-000", "user-002a")
    world.attach_bot("a-bot")
    assert world.users["user-002a"].epoch == world.users["user-000"].epoch
    # members, then chatbots, each in id order, not in join or attach order
    world.send("user-001", b"to all")
    with counters.collect(counters.OpCounters()) as ops:
        world.deliver()
    assert list(ops.by_party) == ["user-000", "user-002", "user-002a",
                                  "user-003", "a-bot", "bench-bot-000"]
    # a detached chatbot gets its removal, then nothing
    world.detach_bot("a-bot")
    assert world.bots["a-bot"].snapshot()["group_id"] is None
    removal = world.provider.transcript[-1]["seq"]
    world.send_end_to_end("user-000", b"after the removal")
    assert max(row["seq"] for row in world.provider.transcript
               if row["recipient"] == "a-bot") == removal
    assert world.provider.chatbots(world.group_id) == {"bench-bot-000"}


def _declared_and_attached(world, adder, cid):
    world.declare_bot(cid, rules_from_text("always"))
    return world.attach(adder, cid)


MEMBERS = {"user-000", "user-001", "user-002", "user-003"}
BENCH_BOTS = {"bench-bot-000", "bench-bot-001"}

# op method -> how to run it on bench.World(4, 2), and the recipients of the
# bundle: every member but the sender, plus an add's newcomer, the target
# bot alone of an attach or detach, or every attached bot of a send or
# registration; a chatbot's reply goes to every member
ROUTED = {
    "create": (lambda w: 1, MEMBERS - {"user-000"}),  # the World's first bundle
    "add_user": (lambda w: w.add_user("user-001", "user-new"),
                 MEMBERS - {"user-001"} | {"user-new"}),
    "remove_user": (lambda w: w.remove_user("user-001", "user-003"),
                    MEMBERS - {"user-001", "user-003"}),
    "update": (lambda w: w.update("user-001"), MEMBERS - {"user-001"}),
    "attach": (lambda w: _declared_and_attached(w, "user-001", "extra-bot"),
               MEMBERS - {"user-001"} | {"extra-bot"}),
    "detach": (lambda w: w.detach("user-001", "bench-bot-001"),
               MEMBERS - {"user-001"} | {"bench-bot-001"}),
    "send": (lambda w: w.send("user-001", b"hello")[0],
             MEMBERS - {"user-001"} | BENCH_BOTS),
    "register_pseudonym": (lambda w: w.register_pseudonym("user-001")[0],
                           MEMBERS - {"user-001"} | BENCH_BOTS),
    "bot_send": (lambda w: w.bot_send("bench-bot-000", b"a reply"), MEMBERS),
}


def test_every_op_method_of_the_driver_is_routed():
    ops = {name for name, _ in inspect.getmembers(Group, inspect.isfunction)
           if not name.startswith("_")}
    assert ops - {"join", "declare_bot", "publish", "pending", "deliver"} == set(ROUTED)


@pytest.mark.parametrize("name", sorted(ROUTED))
def test_each_op_method_publishes_to_its_views_recipients(name):
    run, recipients = ROUTED[name]
    world = bench.World(4, 2)
    seq = run(world)
    got = [(r["recipient_class"], r["recipient"]) for r in world.provider.transcript
           if r["seq"] == seq]
    assert sorted(got) == sorted(
        ("user" if pid.startswith("user") else "chatbot", pid) for pid in recipients)
    world.deliver()


def test_a_refused_detach_leaves_the_bot_attached():
    # the removed user-003 still holds its old tree and builds a detach,
    # which is refused at publish; it was queued when built, so the next
    # delivery detached the bot at the provider, and no send reached it
    world = bench.World(4, 1)
    world.remove_user("user-000", "user-003")
    world.deliver()
    with pytest.raises(NotMember):
        world.detach("user-003", "bench-bot-000")
    world.deliver()
    assert world.provider.chatbots(world.group_id) == {"bench-bot-000"}
    world.send("user-001", b"still for the bot")
    [view] = world.provider.inbox("bench-bot-000")
    assert world.bots["bench-bot-000"].process(view) == ReceivedMessage(
        b"still for the bot")


def test_fit_helpers():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2.0, 4.0, 6.0, 8.0]
    a, b, r2, rss = bench.fit_linear(xs, ys)
    assert abs(a) < 1e-9 and abs(b - 2.0) < 1e-9 and r2 > 0.999

    growth = bench.compare_growth([8, 16, 32, 64], [3.0, 4.0, 5.0, 6.0])
    assert growth["prefers_log"]
    growth = bench.compare_growth([8, 16, 32, 64], [8.0, 16.0, 32.0, 64.0])
    assert not growth["prefers_log"]


# -- cli ------------------------------------------------------------------------

def test_cli_run_with_report_and_transcript(tmp_path):
    from chatgate.harness.cli import main

    scen = tmp_path / "demo.scenario"
    scen.write_text(canned.CONCEALMENT)
    report_path = tmp_path / "report.json"
    transcript_path = tmp_path / "transcript.jsonl"
    code = main(["run", str(scen), "--seed", "4",
                 "--report", str(report_path),
                 "--transcript", str(transcript_path),
                 "--probe", "concealment", "--probe", "agreement"])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["final"]["members"] == ["user-00", "user-01"]
    rows = [json.loads(l) for l in transcript_path.read_text().splitlines()]
    assert all("view_b64" in row for row in rows)


def test_cli_bench_prints_every_sweep_as_one_json_document(monkeypatch, capsys):
    from chatgate.harness.cli import main

    monkeypatch.setattr(bench, "bench_send_m_sweep", partial(
        bench.bench_send_m_sweep, n=4, m_values=(0, 1), warmups=0))
    monkeypatch.setattr(bench, "bench_send_n_sweep", partial(
        bench.bench_send_n_sweep, n_values=(4, 8, 16), m=1, warmups=0))
    monkeypatch.setattr(bench, "bench_add_bot", partial(
        bench.bench_add_bot, n=4, m=1, warmups=0))
    assert main(["bench", "--iterations", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"rows", "n_growth"}
    columns = {f.name for f in fields(bench.BenchRow)}
    assert all(set(row) == columns and row["iterations"] == 2
               for row in doc["rows"])
    assert [(row["bench"], row["n"], row["m"], row["variant"])
            for row in doc["rows"]] == [
        ("send_m", 4, 0, "end_to_end"), ("send_m", 4, 1, "end_to_end"),
        ("send_n", 4, 1, "sender"), ("send_n", 8, 1, "sender"),
        ("send_n", 16, 1, "sender"),
        ("add_bot", 4, 1, "plain"), ("add_bot", 4, 1, "reference_send_plain"),
        ("add_bot", 4, 1, "with_pseudonyms"),
        ("add_bot", 4, 1, "reference_send_with_pseudonyms")]
    assert set(doc["n_growth"]) == {"aic_linear", "aic_log", "r2_linear",
                                    "r2_log", "prefers_log"}


def test_cli_rejects_bad_scenario(tmp_path):
    from chatgate.harness.cli import main

    scen = tmp_path / "bad.scenario"
    scen.write_text("send user-00 hi\n")
    assert main(["run", str(scen)]) == 2


def test_cli_rejects_an_unknown_probe_before_running(tmp_path):
    from chatgate.harness.cli import main

    scen = tmp_path / "demo.scenario"
    scen.write_text(canned.CONCEALMENT)
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as info:
        main(["run", str(scen), "--probe", "nope", "--report", str(report_path)])
    assert info.value.code == 2
    assert not report_path.exists()


def test_cli_probe_all(capsys):
    from chatgate.harness.cli import main

    assert main(["probe", "all", "--seed", "6"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 10



# -- traced benchmark hook points ----------------------------------------------

@pytest.fixture
def tracing(monkeypatch):
    """`perfbench/tracing.py`, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    return tracing


def test_traced_benchmark_hook_points_resolve(tracing):
    # `perfbench/tracing.py` wraps these names when a run is traced, and
    # looks a class's up in its `__dict__`: a rename or deletion in the
    # library must fail here, not only as a KeyError in a traced run
    missing = []
    for owner, attr, _key, after in tracing._targets():
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if not (isinstance(raw, classmethod) or inspect.isfunction(raw)):
                missing.append(name)
        elif not callable(getattr(owner, attr, None)):
            missing.append(name)
        if after is not None and not hasattr(tracing.Tracer, f"_{after}"):
            missing.append(f"{name} -> Tracer._{after}")
    assert not missing


def test_traced_demo_run_counts_every_built_control(tracing):
    # a traced smoke run: the `built` hook reads the control each sender
    # returns, so a changed return type must fail here too
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op():
            result = run_text(canned.ALL["demo"], seed=7)
    finally:
        tracer.uninstall()

    # each member is sent a slice of a control's entries: a control is one
    # sequence number, and its entries are the batch positions its slices
    # cover
    controls: dict[int, dict[int, tuple]] = {}
    for row in result.provider.transcript:
        view = base64.b64decode(row["view_b64"])
        if peek_type(view) == VIEW_USER_MESSAGE:
            data = UserMessageView.from_bytes(view).control
        elif peek_type(view) == GROUP_CONTROL:
            data = GroupControl.from_bytes(view).control
        else:
            continue
        control = CgkaControl.from_bytes(data)
        controls.setdefault(row["seq"], {}).update(
            enumerate(control.path_entries, control.first))
    entries = sum(len(placed) for placed in controls.values())
    # group, add_user, rem_user, register_pseudonym and six sends
    assert len(controls) == 10
    assert tracer.counts["cgka.controls"] == len(controls)
    assert tracer.counts["cgka.path_entries"] == entries


def test_traced_probes_book_every_attack_under_the_adversary(tracing):
    # probes call `adversary_decrypt` by its module name, which a traced
    # run rebinds: each attacked snapshot is one `provider.adversary` span
    result = run_text(canned.POST_COMPROMISE, seed=7)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op():
            assert probes.probe_selective_access(result).passed
            assert probes.probe_post_compromise(result).passed
    finally:
        tracer.uninstall()
    attacked = (sum(1 for cid in result.bots if result.snapshots.get(cid))
                + len(result.compromises))
    assert attacked == 2
    assert tracer.calls["provider.adversary"] == attacked
    assert tracer.counts["provider.adversary.box_trials"] > 0
    assert tracer.counts["provider.adversary.ct_trials"] > 0


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
