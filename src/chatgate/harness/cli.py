"""Command line entry points.

    chatgate run <scenario> [--seed N] [--transcript P] [--report P] [--probe NAME]...
    chatgate probe [all|fs|pcs|selective|anonymity|concealment] [--seed N]
    chatgate bench [--iterations N]

`run` executes a scenario file and prints its report as JSON. `probe` pairs
each canned scenario with its guarantee and prints one PASS/FAIL line per
probe. `bench` runs the send m- and n-sweeps and the plain and pseudonym
chatbot-attach benches, and prints their rows and the n-sweep's growth fit
as one JSON document. Exit status is 0 only if everything requested passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from ..errors import ProbeFailed, ScenarioParseError
from . import bench, canned, probes
from .runner import run_scenario, run_text
from .scenario import load_scenario


def _check(name: str, fn, result) -> bool:
    """Run probe `fn` on `result` and print its one PASS/FAIL line."""
    try:
        verdict = fn(result)
    except ProbeFailed as exc:
        print(f"FAIL {name} {exc}")
        return False
    status = "PASS" if verdict.passed else "FAIL"
    detail = json.dumps(verdict.detail, sort_keys=True)
    print(f"{status} {verdict.probe} {detail}")
    return verdict.passed


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioParseError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    result = run_scenario(scenario, seed=args.seed)
    if args.transcript:
        result.provider.write_transcript(args.transcript)
    report = result.report()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)

    ok = True
    for name in args.probe or []:
        ok = _check(name, probes.PROBES[name], result) and ok
    return 0 if ok else 1


# each canned scenario named after a probe is checked by that probe
_CANNED_PROBES = sorted(canned.ALL.keys() & probes.PROBES.keys())


def _cmd_probe(args: argparse.Namespace) -> int:
    names = _CANNED_PROBES if args.name == "all" else [args.name]
    ok = True
    for name in names:
        text = canned.ALL[name]
        result = run_text(text, seed=args.seed)
        ok = _check("agreement", probes.probe_agreement, result) and ok
        ok = _check(name, probes.PROBES[name], result) and ok
    return 0 if ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    iterations = args.iterations
    m_rows = bench.bench_send_m_sweep(iterations=iterations)
    n_rows = bench.bench_send_n_sweep(iterations=iterations)
    rows = (m_rows + n_rows + bench.bench_add_bot(iterations=iterations)
            + bench.bench_add_bot(iterations=iterations, pseudonym=True))
    growth = bench.compare_growth([row.n for row in n_rows],
                                  [row.p50_ms for row in n_rows])
    print(json.dumps({"rows": [asdict(row) for row in rows],
                      "n_growth": growth}, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chatgate",
        description="group messaging with gated chatbot access: scenario "
                    "runner, security probes, benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--transcript", help="write delivered views as JSONL")
    p_run.add_argument("--report", help="write the run report JSON here")
    p_run.add_argument("--probe", action="append",
                       choices=sorted(probes.PROBES),
                       help="probe to run afterwards (repeatable)")
    p_run.set_defaults(fn=_cmd_run)

    p_probe = sub.add_parser("probe", help="run a canned scenario and check "
                                           "its guarantee")
    p_probe.add_argument("name", choices=_CANNED_PROBES + ["all"])
    p_probe.add_argument("--seed", type=int, default=None)
    p_probe.set_defaults(fn=_cmd_probe)

    p_bench = sub.add_parser("bench", help="run every cost sweep as JSON")
    p_bench.add_argument("--iterations", type=int, default=30)
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
