"""Scenario parsing, the runner, probes (including their failure detection),
benches at toy sizes, and the CLI."""

import base64
import hashlib
import inspect
import json
import random
import re
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    GroupControl,
    UserMessageView,
    UserState,
)
from chatgate.harness import bench, canned, probes
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
from chatgate.provider import _collect_material


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
    act = Runner._act

    def failing(self, op):
        if op.line_no == line_no:
            raise RuntimeError("boom")
        return act(self, op)

    monkeypatch.setattr(Runner, "_act", failing)
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
        "report": "5f42c32fa2e03b4d1426550f356b44055537a570af8bdf27bbca1b1c8b3a63a7",
        "transcript": "e3b5ce39246c3175edbbbac9a1377cd8dbea24bdb4149db59b665b2d75acf56b",
        "supersessions": "e257861a55862a74b2e4f5f90621a322fa28828f11ac487e0d3a7d5763ef4aa3",
    },
    "concealment": {
        "report": "8ac5a1c3339295553a23d75da5f8c3776fa3b6699fe8cbba45eecfbc2451f40b",
        "transcript": "754fec7bb7bee5d5a795ba9d5c54d380e8fe5fd67908d58147a295925569ffc3",
        "supersessions": "b36f9213e0c23068a79546637abc03d0955a4c8f49227649cd3648cf146b2554",
    },
    "demo": {
        "report": "61d28f56d3b6e95e0897eecb6576630cd53ab319cc3eff0d228204b6489e02b4",
        "transcript": "dc5be19868b1e0dc9b436c02ddb24d5feb006949f3abca899d483211918f50b3",
        "supersessions": "4bc0e5a34dc49cbd70ce7d10039a531ecdeb27ee16dc11490fc61ad440458ab9",
    },
    "fs": {
        "report": "963b57d141b33d654fbe13e86ef38340d1085fa54213c23b2d03cf11ac5f6f79",
        "transcript": "6c6631a39b727cb147bbf62f1873094fa1982ccdfc6acb001fb9c48458b20509",
        "supersessions": "10ccd803596c1f0b506e7728ab58f531d8735d6e99b5856535de1f1e2c59e0e0",
    },
    "pcs": {
        "report": "6ac3fd38d7e68878a9e7b1014ea2ab5a10e5c6c365390bd936c2c6ef5a86bfb5",
        "transcript": "77c0fb783ebbf1cfedc6472c79a551acd898f39326322d136a8f4a56d0ceaab7",
        "supersessions": "d020f0ce11eb98925d0609cee325b437e61ce3f277a17bdc66871d6ce4a15a9a",
    },
    "selective": {
        "report": "eeb9470cf3ad523b6fb1e8ebd620e1c380cae5942c9ca5598efd6bd5ceca9161",
        "transcript": "81031908af13337d9a637abb84c981a184c5b0a95ebdfd677d00cca22cd80f33",
        "supersessions": "51d8d645a522e7e4f97e4beb7556d047d481b2805329d79968a53c303372dbbf",
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
    ("anonymity", lambda r: probes.probe_anonymity(r, expect_uniform=True)),
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


def test_anonymity_probe_raises_on_a_malformed_message_view():
    result = run_text(canned.ANONYMITY, seed=9)
    row = next(r for r in result.provider.transcript
               if r["recipient_class"] == "chatbot"
               and base64.b64decode(r["view_b64"])[0] == VIEW_CHATBOT_MESSAGE)
    view = base64.b64decode(row["view_b64"])
    row["view_b64"] = base64.b64encode(view[:-1]).decode("ascii")
    with pytest.raises(MalformedControl):
        probes.probe_anonymity(result)


def test_anonymity_probe_flags_shape_differences():
    text = ("group g user-00 user-01\n"
            "bot echo-bot-01 always\n"
            "add_bot user-00 echo-bot-01\n"
            "send user-00 \"short\"\n"
            "send user-01 \"a very much longer message body\"\n")
    result = run_text(text, seed=9)
    verdict = probes.probe_anonymity(result, expect_uniform=True)
    assert not verdict.passed


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


def test_bench_add_bot_rows():
    rows = bench.bench_add_bot(n=6, m=1, iterations=3, warmups=1)
    variants = {row.variant for row in rows}
    assert variants == {"plain", "reference_send"}
    plain = next(r for r in rows if r.variant == "plain")
    assert plain.pke_seal >= 1


def test_world_drain_raises_on_an_unroutable_view():
    world = bench.World(2, 0)
    world.provider.publish(world.group_id, world.ids[0], user_view=b"\x7fjunk")
    with pytest.raises(MalformedControl):
        world.drain()


def test_fit_helpers():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2.0, 4.0, 6.0, 8.0]
    a, b, r2, rss = bench.fit_linear(xs, ys)
    assert abs(a) < 1e-9 and abs(b - 2.0) < 1e-9 and r2 > 0.999

    growth = bench.compare_growth([8, 16, 32, 64], [3.0, 4.0, 5.0, 6.0])
    assert growth["prefers_log"]
    growth = bench.compare_growth([8, 16, 32, 64], [8.0, 16.0, 32.0, 64.0])
    assert not growth["prefers_log"]


def test_bench_csv(tmp_path):
    rows = bench.bench_send_m_sweep(n=4, m_values=(0,), iterations=2, warmups=0)
    path = tmp_path / "out.csv"
    bench.write_csv(rows, str(path))
    header = path.read_text().splitlines()[0]
    assert header == ",".join(bench.CSV_COLUMNS)


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


def test_cli_bench_send_n_sweep(monkeypatch, capsys):
    from chatgate.harness.cli import main

    monkeypatch.setattr(bench, "bench_send_n_sweep", partial(
        bench.bench_send_n_sweep, n_values=(4, 8, 16), m=1, warmups=0))
    assert main(["bench-send", "--sweep", "n", "--iterations", "2"]) == 0
    fit, header, *rows = capsys.readouterr().out.splitlines()
    assert set(json.loads(fit)) == {"aic_linear", "aic_log", "r2_linear",
                                    "r2_log", "prefers_log"}
    assert header == ("bench,n,m,variant,iterations,p50_ms,mean_ms,"
                      "pke_seal,pke_open,derive")
    assert [row.split(",")[:4] for row in rows] == [
        ["send_n", str(n), "1", "sender"] for n in (4, 8, 16)]


def test_cli_bench_add_bot_writes_csv(monkeypatch, capsys, tmp_path):
    from chatgate.harness.cli import main

    monkeypatch.setattr(bench, "bench_add_bot", partial(
        bench.bench_add_bot, n=4, m=1, warmups=0))
    path = tmp_path / "add_bot.csv"
    assert main(["bench-add-bot", "--pseudonym", "--iterations", "2",
                 "--csv", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote 2 rows to {path}\n"
    header, *rows = path.read_text().splitlines()
    assert header == ",".join(bench.CSV_COLUMNS)
    assert [row.split(",")[3] for row in rows] == ["with_pseudonyms",
                                                   "reference_send"]


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

    controls = set()
    for row in result.provider.transcript:
        view = base64.b64decode(row["view_b64"])
        if peek_type(view) == VIEW_USER_MESSAGE:
            controls.add(UserMessageView.from_bytes(view).control)
        elif peek_type(view) == GROUP_CONTROL:
            controls.add(GroupControl.from_bytes(view).control)
    entries = sum(len(CgkaControl.from_bytes(c).path_entries) for c in controls)
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
