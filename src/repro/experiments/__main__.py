"""Command-line entry point: ``python -m repro.experiments [ID|all]``."""

from __future__ import annotations

import argparse
import sys

from repro.experiments import ExperimentConfig, REGISTRY, run_all, run_experiment
from repro.obs import SolvePolicy, now
from repro.runtime import DEFAULT_CACHE_DIR
from repro.util.errors import ValidationError


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cache_dir = None if args.no_cache else args.cache
    policy = None
    if args.deadline is not None or args.node_budget is not None:
        policy = SolvePolicy(deadline=args.deadline, node_budget=args.node_budget)
    return ExperimentConfig(
        jobs=args.jobs, cache_dir=cache_dir, seed=args.seed, policy=policy
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables/figures (and extensions).",
    )
    parser.add_argument(
        "target", nargs="?", default="all",
        help=f"experiment id ({', '.join(sorted(REGISTRY))}) or 'all'",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep fan-out (default: 1, serial)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=DEFAULT_CACHE_DIR, default=None, metavar="DIR",
        help=f"persist solved instances under DIR (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the solve cache entirely"
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="seed for stochastic baselines (default: 7)"
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="per-solve wall-clock budget; exhausted solves degrade gracefully",
    )
    parser.add_argument(
        "--node-budget", type=int, default=None, metavar="N",
        help="per-solve B&B node budget; exhausted solves degrade gracefully",
    )
    args = parser.parse_args(argv)

    try:
        config = build_config(args)
    except ValidationError as exc:
        # A bad setting is a usage error, reported like `repro design`'s.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = now()
    if args.target.lower() == "all":
        results = run_all(config=config)
    else:
        results = [run_experiment(args.target, config=config)]
    for result in results:
        print(result.render())
        print()
    elapsed = now() - start
    print(f"[{len(results)} experiment(s), {elapsed:.1f}s total; ids: {', '.join(sorted(REGISTRY))}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
