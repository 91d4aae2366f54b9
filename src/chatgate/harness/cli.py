"""Command line entry points.

    chatgate run <scenario> [--seed N] [--transcript P] [--report P] [--probe NAME]...
    chatgate probe [all|fs|pcs|selective|anonymity|concealment] [--seed N]
    chatgate bench-send [--sweep m|n] [--csv P] [--iterations N]
    chatgate bench-add-bot [--pseudonym] [--csv P] [--iterations N]

`run` executes a scenario file and prints its report as JSON. `probe` pairs
each canned scenario with its guarantee and prints one PASS/FAIL line per
probe. Bench subcommands print CSV (or write it with --csv). Exit status is
0 only if everything requested passed.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _emit_rows(rows: list[bench.BenchRow], path: str | None) -> None:
    if path:
        bench.write_csv(rows, path)
        print(f"wrote {len(rows)} rows to {path}")
        return
    print(",".join(bench.CSV_COLUMNS))
    for row in rows:
        print(",".join(str(getattr(row, col)) for col in bench.CSV_COLUMNS))


def _cmd_bench_send(args: argparse.Namespace) -> int:
    if args.sweep == "m":
        rows = bench.bench_send_m_sweep(iterations=args.iterations)
    else:
        rows = bench.bench_send_n_sweep(iterations=args.iterations)
        ns = [row.n for row in rows]
        times = [row.p50_ms for row in rows]
        print(json.dumps(bench.compare_growth(ns, times), sort_keys=True))
    _emit_rows(rows, args.csv)
    return 0


def _cmd_bench_add_bot(args: argparse.Namespace) -> int:
    rows = bench.bench_add_bot(iterations=args.iterations,
                               pseudonym=args.pseudonym)
    _emit_rows(rows, args.csv)
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

    p_send = sub.add_parser("bench-send", help="message cost sweeps")
    p_send.add_argument("--sweep", choices=["m", "n"], default="m")
    p_send.add_argument("--iterations", type=int, default=30)
    p_send.add_argument("--csv")
    p_send.set_defaults(fn=_cmd_bench_send)

    p_add = sub.add_parser("bench-add-bot", help="chatbot attach cost")
    p_add.add_argument("--pseudonym", action="store_true")
    p_add.add_argument("--iterations", type=int, default=30)
    p_add.add_argument("--csv")
    p_add.set_defaults(fn=_cmd_bench_add_bot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
