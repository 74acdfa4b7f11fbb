"""Command-line front-end: simulate | bench | reduce | verify."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from typing import List, Optional

from .harness import (
    COMMAND_READS,
    MODELS,
    PROBLEMS,
    REDUCE_MODES,
    ExperimentConfig,
    MetricRow,
    cmd_bench,
    cmd_reduce,
    cmd_simulate,
    cmd_verify,
    write_metrics,
)


def _emit(rows: List[MetricRow], out: Optional[str], elapsed_s: float, timings_out) -> None:
    if out:
        with open(out, "w", newline="") as fp:
            write_metrics(rows, fp)
    else:
        write_metrics(rows, sys.stdout)
    if timings_out:
        with open(timings_out, "w") as fp:
            fp.write("metric,value\n")
            fp.write(f"wall_time_s,{elapsed_s!r}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    """The flags every experiment command honours."""
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--seed", type=int, help="64-bit experiment seed")
    sub.add_argument("--out", help="CSV output path (default: stdout)")
    sub.add_argument("--timings", dest="timings_out", help="separate wall-time CSV")
    sub.add_argument("-n", type=int, dest="n")
    sub.add_argument("-T", type=int, dest="T")
    sub.add_argument("--trials", type=int)


def _p_grid(text: str) -> List[float]:
    return [float(x) for x in text.split(",")]


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config-file fields overridden by flags; each must be valid and read."""
    from_file = ExperimentConfig.read_fields(args.config) if args.config else {}
    known = {f.name for f in fields(ExperimentConfig)}
    overrides = {
        key: value for key, value in vars(args).items() if key in known and value is not None
    }
    config = ExperimentConfig(**{**from_file, **overrides}).validate_for(args.command)
    if args.command == "reduce":
        command, reads = f"reduce --mode {config.mode}", REDUCE_MODES[config.mode].reads | {"mode"}
    else:
        command, reads = args.command, COMMAND_READS[args.command]
    unread = sorted((from_file.keys() | overrides.keys()) - reads - {"out", "timings_out"})
    if unread:
        raise ValueError(f"{command} does not read the field(s) {', '.join(unread)}")
    return config


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smoothdyn",
        description="Smoothed dynamic-graph counters, embeddings, and reductions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="drive a counter/decider against the oracle")
    _add_common(sim)
    sim.add_argument("--problem", choices=PROBLEMS)
    sim.add_argument("--model", choices=MODELS)
    sim.add_argument("-p", type=float, dest="p")
    sim.add_argument("--query-every", type=int, dest="query_every")
    sim.set_defaults(run=lambda config: (cmd_simulate(config), True))

    bench = subs.add_parser("bench", help="amortized update-cost profile over a p grid")
    _add_common(bench)
    bench.add_argument("--p-grid", type=_p_grid, help="comma-separated p values")
    bench.set_defaults(run=lambda config: (cmd_bench(config), True))

    red = subs.add_parser("reduce", help="run a reduction experiment")
    _add_common(red)
    red.add_argument("-p", type=float, dest="p")
    red.add_argument("--mode", choices=list(REDUCE_MODES))
    red.set_defaults(run=cmd_reduce)

    subs.add_parser("verify", help="run the pinned-seed invariant battery").add_argument(
        "--seed", type=int, default=0
    )

    args = parser.parse_args(argv)

    if args.command == "verify":
        failures = 0
        for suite, passed, detail in cmd_verify(args.seed):
            status = "PASS" if passed else "FAIL"
            print(f"[{status}] {suite}: {detail}")
            failures += not passed
        return 1 if failures else 0

    try:
        config = _build_config(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits

    start = time.perf_counter()
    rows, ok = args.run(config)
    elapsed = time.perf_counter() - start
    _emit(rows, config.out, elapsed, config.timings_out)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
