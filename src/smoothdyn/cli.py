"""Command-line front-end: simulate | bench | reduce | verify.

An experiment command's flags are the config fields it reads (``harness.EXPERIMENTS``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from dataclasses import fields
from typing import Callable, List, Optional, Tuple

from .harness import CHOICES, EXPERIMENTS, ExperimentConfig, cmd_verify, write_metrics


def _p_grid(text: str) -> List[float]:
    return [float(x) for x in text.split(",")]


# argparse settings a field's default does not give
_FLAG_EXTRAS = {
    "seed": dict(help="64-bit experiment seed"),
    "p_grid": dict(type=_p_grid, help="comma-separated p values"),
}


def _add_experiment(subs, command: str, summary: str) -> None:
    """``command``'s parser: one flag per field its experiments read."""
    sub = subs.add_parser(command, help=summary, allow_abbrev=False)
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--out", help="CSV output path (default: stdout)")
    sub.add_argument("--timings", dest="timings_out", help="separate wall-time CSV")
    reads = {f for key, e in EXPERIMENTS.items() if key.split()[0] == command for f in e.reads}
    for name, default in ((f.name, f.default) for f in fields(ExperimentConfig)):
        if name in reads:
            flag = f"-{name}" if len(name) == 1 else "--" + name.replace("_", "-")
            settings = {"type": type(default), "choices": CHOICES.get(name)}
            sub.add_argument(flag, dest=name, **{**settings, **_FLAG_EXTRAS.get(name, {})})


def _build_config(args: argparse.Namespace) -> Tuple[ExperimentConfig, Callable]:
    """Config-file fields overridden by flags, each valid and read; the config and its run."""
    from_file = ExperimentConfig.read_fields(args.config) if args.config else {}
    known = {f.name for f in fields(ExperimentConfig)}
    flags = {key: value for key, value in vars(args).items() if key in known and value is not None}
    given = {**from_file, **flags}
    config = ExperimentConfig(**given).validate_for(args.command)
    keys = (f"{args.command} --mode {config.mode}", args.command)
    command = next(key for key in keys if key in EXPERIMENTS)
    reads, run = EXPERIMENTS[command]
    unread = sorted(given.keys() - {*reads, "out", "timings_out"})
    if unread:
        raise ValueError(f"{command} does not read the field(s) {', '.join(unread)}")
    return config, run


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smoothdyn",
        description="Smoothed dynamic-graph counters, embeddings, and reductions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, summary in [
        ("simulate", "drive a counter/decider against the oracle"),
        ("bench", "amortized update-cost profile over a p grid"),
        ("reduce", "run a reduction experiment"),
    ]:
        _add_experiment(subs, command, summary)
    subs.add_parser(
        "verify", help="run the pinned-seed invariant battery", allow_abbrev=False
    ).add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "verify":
        try:
            ExperimentConfig(seed=args.seed).validate()
        except ValueError as exc:
            parser.error(str(exc))
        failures = 0
        for suite, passed, detail in cmd_verify(args.seed):
            status = "PASS" if passed else "FAIL"
            print(f"[{status}] {suite}: {detail}")
            failures += not passed
        return 1 if failures else 0

    with contextlib.ExitStack() as outputs:
        try:
            config, run = _build_config(args)
            # open the output paths now, so that a bad one fails before the run
            out, timings = (
                outputs.enter_context(open(path, "w", newline="")) if path else None
                for path in (config.out, config.timings_out)
            )
        except (ValueError, OSError) as exc:
            parser.error(str(exc))

        start = time.perf_counter()
        rows, ok = run(config)
        elapsed = time.perf_counter() - start
        write_metrics(rows, out or sys.stdout)
        if timings:
            timings.write(f"metric,value\nwall_time_s,{elapsed!r}\n")
        return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
