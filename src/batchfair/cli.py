"""Command-line harness: run scenarios, sweeps, phase profiles and trace checks."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import load_scenario_file, phase_profile, report_from_trace, run_scenario, sweep
from .params import ConfigError
from .scenarios import scenario_names
from .trace import RunTrace, TraceError


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run one scenario or JSON config")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--scenario", choices=scenario_names(), metavar="NAME",
                        help=f"one of: {', '.join(scenario_names())}")
    target.add_argument("--config", help="path to a scenario JSON document, any suffix")
    p.add_argument("--serial", action="store_true",
                   help="replay serially for verification (the in-loop layer is always serial)")
    p.add_argument("--threads", type=int, metavar="K",
                   help="concurrent fairness task slots (default: the config's task_slots)")
    p.add_argument("--seed", type=int,
                   help="seed of a --scenario (default 0); a --config document sets its own")
    p.add_argument("--out", metavar="DIR", help="write trace/report/CSV artifacts")
    p.add_argument("--trace", choices=("on", "off"), default="on")


def _add_sweep(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sweep", help="grid sweep over n/f/gamma/load")
    p.add_argument("--n", type=int, nargs="+", default=[5, 9, 13])
    p.add_argument("--f", type=int, nargs="+", default=[1])
    p.add_argument("--gamma", nargs="+", default=["1"])
    p.add_argument("--txs", type=int, nargs="+", default=[90])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--out", required=True, metavar="CSV")


def _add_profile(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("profile", help="per-phase CPU time from a trace: mean, p50, p95, max")
    p.add_argument("trace", help="trace.jsonl produced by run")


def _add_check(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("check", help="re-run every oracle verdict from a stored trace")
    p.add_argument("trace", help="trace.jsonl produced by run")


def _print_verdicts(verdicts: dict[str, bool]) -> bool:
    """Print one line per verdict; whether all of them pass."""
    for name, verdict in verdicts.items():
        print(f"  {name:24s} {'pass' if verdict else 'FAIL'}")
    return all(verdicts.values())


def _read_trace(parser: argparse.ArgumentParser, path: str) -> RunTrace:
    """The trace at path; an unreadable or malformed file is a usage error."""
    try:
        return RunTrace.read_jsonl(path)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="batchfair",
        description="Deterministic batch-order-fairness simulator and checkers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_sweep(sub)
    _add_profile(sub)
    _add_check(sub)
    sub.add_parser("scenarios", help="list shipped scenarios")
    args = parser.parse_args(argv)
    command = sub.choices[args.command]  # the subcommand parser, for its usage errors

    if args.command == "scenarios":
        for name in scenario_names():
            print(name)
        return 0

    if args.command == "run":
        if args.config is None and args.scenario is None:
            command.error("run needs --scenario or --config")
        if args.config is not None and args.seed is not None:
            command.error("--seed applies to --scenario; a --config document sets its own seed")
        if args.threads is not None and args.threads < 1:
            command.error(f"--threads must be at least 1, got {args.threads}")
        try:
            reports = run_scenario(
                args.scenario if args.config is None else load_scenario_file(args.config),
                serial=args.serial,
                slots=args.threads,
                seed=args.seed,
                outdir=args.out,
                trace_on=args.trace == "on",
            )
        except (ConfigError, OSError) as exc:
            command.error(str(exc))
        ok = True
        for rep in reports:
            tag = "".join(f" {k}={v}" for k, v in rep.variant.items())
            print(f"[{rep.scenario}{tag}] mode={rep.mode} "
                  f"emitted={rep.counts['txs_emitted']}/{rep.counts['txs_injected']} "
                  f"digest={rep.emitted_digest[:16]}")
            ok &= _print_verdicts(rep.verdicts)
            for mode, m in rep.model_results.items():
                print(f"  model[{mode}]: {json.dumps(m, default=str)[:200]}")
        return 0 if ok else 1

    if args.command == "sweep":
        rows = sweep(
            {"n": args.n, "f": args.f, "gamma": args.gamma, "txs": args.txs},
            args.seeds,
            out_path=args.out,
        )
        for row in rows:
            print(row)
        return 0

    if args.command == "profile":
        stats = phase_profile(_read_trace(command, args.trace))
        if not stats:
            print("trace carries no phase profiles")
            return 0
        columns = ("mean", "p50", "p95", "max")
        print(f"{'phase':12s} " + " ".join(f"{c + ' ms':>10s}" for c in columns))
        for phase, row in stats.items():
            print(f"{phase:12s} " + " ".join(f"{row[c] / 1e6:10.3f}" for c in columns))
        return 0

    if args.command == "check":
        try:
            checked = report_from_trace(_read_trace(command, args.trace))
        except TraceError as exc:
            command.error(f"{args.trace}: {exc}")
        print(f"[{args.trace}] digest={checked['emitted_digest']}")
        return 0 if _print_verdicts(checked["verdicts"]) else 1

    return 0


if __name__ == "__main__":
    sys.exit(main())
