"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``describe`` — print an SOC's inventory (builtin name or ``.soc`` file);
- ``design`` — solve one constrained instance and print the full report
  (``--json`` emits the result with full solver telemetry);
- ``sweep`` — find the best width distribution for a (W, NB) pin budget;
- ``minwidth`` — smallest TAM width meeting a testing-time budget;
- ``buscount`` — testing time per bus count at a fixed total width;
- ``lint`` — static analysis: ``lint model`` checks one instance's ILP
  formulation without solving, ``lint code`` enforces repo invariants over
  the source tree (both support ``--json``; exit 1 on error findings);
- ``experiments`` — run the evaluation harnesses (same as
  ``python -m repro.experiments``);
- ``serve`` — run the HTTP/JSON design service (async job queue over the
  same solve runtime; see :mod:`repro.service`).

The four solver commands all build one :class:`~repro.api.SolveRequest`
from their flags and execute it — the CLI, the library, and the service
share that single construction path, so a request fingerprints (and
caches) identically no matter which front-end produced it.

The solver commands share the runtime flags ``--jobs N`` (parallel sweep
fan-out), ``--cache [DIR]`` (memoize solved instances, in memory or on
disk), and ``--no-cache`` — plus the anytime-solve flags ``--deadline`` /
``--node-budget`` / ``--retries`` / ``--no-fallback`` that build a
:class:`~repro.api.SolvePolicy`, and the bnb solver knobs
``--cuts`` / ``--no-cuts`` / ``--cut-rounds`` / ``--root-presolve`` /
``--no-root-presolve`` that ride its structured
:class:`~repro.api.SolverOptions` block (root clique cuts and root model
presolve are both on by default; the ``--no-*`` forms disable them).
``design --trace [FILE]`` additionally records a span trace and prints
its flame summary.

The SOC argument accepts the builtin names ``S1``/``S2``/``S3``,
``SYN<n>[:seed]`` for a synthetic system, or a path to a ``.soc`` file.

Everything here goes through :mod:`repro.api` — the CLI is a consumer of
the public facade, not of the internal layering.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from repro.api import (
    DEFAULT_CACHE_DIR,
    CutPolicy,
    DesignProblem,
    PortfolioPolicy,
    ReproError,
    Soc,
    SolutionCache,
    SolvePolicy,
    SolveRequest,
    SolverOptions,
    TamArchitecture,
    design_report,
    format_table,
    grid_place,
    resolve_soc,
    trace_solve,
    use_cache,
)

__all__ = ["main", "build_parser", "resolve_soc"]


def _parse_widths(text: str) -> TamArchitecture:
    return TamArchitecture([int(w) for w in text.split(",") if w.strip()])


def _add_common_constraints(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timing", default="serial", choices=["fixed", "serial", "flexible"],
                        help="core-to-bus test time model (default: serial)")
    parser.add_argument("--power-budget", type=float, default=None, metavar="MW",
                        help="maximum concurrent-pair test power")
    parser.add_argument("--max-distance", type=float, default=None, metavar="MM",
                        help="layout budget: cores farther apart may not share a bus "
                             "(uses the deterministic grid floorplan)")
    parser.add_argument("--backend", default="bnb", choices=["bnb", "scipy"],
                        help="exact solver backend (default: our branch & bound)")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cuts", action=argparse.BooleanOptionalAction, default=None,
                        help="conflict-graph clique cuts at the root node "
                             "(default: on; --no-cuts disables; bnb backend only)")
    parser.add_argument("--cut-rounds", type=int, default=None, metavar="N",
                        help="separation rounds at the root node (implies --cuts; "
                             "bnb backend only)")
    parser.add_argument("--root-presolve", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="root model presolve: bound tightening, dual fixing, "
                             "coefficient tightening, row cleanup "
                             "(default: on; --no-root-presolve searches the "
                             "original model; bnb backend only)")
    parser.add_argument("--portfolio", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="race exact B&B against the lpt/sa heuristic rungs "
                             "under the shared budget, cross-feeding the best "
                             "heuristic incumbent as the B&B starting cutoff "
                             "(bnb backend only)")
    parser.add_argument("--portfolio-entrants", default=None, metavar="A,B,...",
                        help="portfolio entrants, comma-separated out of "
                             "lpt/sa/bnb (implies --portfolio; default lpt,sa,bnb)")
    parser.add_argument("--portfolio-seed", type=int, default=None, metavar="N",
                        help="seed for the stochastic portfolio entrants "
                             "(implies --portfolio)")


def _solver_block_from_args(args) -> SolverOptions | None:
    """The structured SolverOptions block the flags explicitly set.

    Solver knobs ride on ``SolvePolicy.solver`` — not on flat request
    options — so CLI, library, and service requests fingerprint
    identically for identical settings.
    """
    from repro.api import PresolvePolicy, ValidationError

    if getattr(args, "cuts", None) is False and getattr(args, "cut_rounds", None):
        raise ValidationError("--no-cuts and --cut-rounds contradict each other")
    cuts = None
    if getattr(args, "cuts", None) is False:
        cuts = CutPolicy.disabled()
    elif getattr(args, "cut_rounds", None) is not None:
        cuts = CutPolicy(rounds=args.cut_rounds)
    elif getattr(args, "cuts", None) is True:
        cuts = CutPolicy()
    root_presolve = None
    if getattr(args, "root_presolve", None) is False:
        root_presolve = PresolvePolicy.disabled()
    elif getattr(args, "root_presolve", None) is True:
        root_presolve = PresolvePolicy()
    portfolio = None
    entrants = getattr(args, "portfolio_entrants", None)
    seed = getattr(args, "portfolio_seed", None)
    if getattr(args, "portfolio", None) is False:
        if entrants is not None or seed is not None:
            raise ValidationError(
                "--no-portfolio contradicts --portfolio-entrants/--portfolio-seed"
            )
        portfolio = PortfolioPolicy.disabled()
    elif getattr(args, "portfolio", None) or entrants is not None or seed is not None:
        overrides = {"jobs": max(1, getattr(args, "jobs", 1) or 1)}
        if entrants is not None:
            overrides["entrants"] = tuple(
                name.strip() for name in entrants.split(",") if name.strip()
            )
        if seed is not None:
            overrides["seed"] = seed
        portfolio = PortfolioPolicy(**overrides)
    block = {}
    if cuts is not None:
        block["cuts"] = cuts
    if root_presolve is not None:
        block["root_presolve"] = root_presolve
    if portfolio is not None:
        block["portfolio"] = portfolio
    if not block:
        return None
    if args.backend != "bnb":
        flags = {"cuts": "--cuts/--no-cuts/--cut-rounds",
                 "root_presolve": "--root-presolve/--no-root-presolve",
                 "portfolio": "--portfolio/--portfolio-entrants/--portfolio-seed"}
        listed = "/".join(flags[key] for key in block)
        raise ValidationError(
            f"{listed} only apply to the bnb backend, not {args.backend!r}"
        )
    return SolverOptions(**block)


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep fan-out (default: 1, serial)")
    parser.add_argument("--cache", nargs="?", const="", default=None, metavar="DIR",
                        help="memoize solved instances; with DIR, persist them on disk "
                             f"(bare --cache stores under {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the solve cache entirely")


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--deadline", type=float, default=None, metavar="SEC",
                        help="wall-clock budget per solve; on exhaustion the best "
                             "incumbent (or a heuristic fallback) is returned")
    parser.add_argument("--node-budget", type=int, default=None, metavar="N",
                        help="B&B node budget per solve (anytime mode, like --deadline)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry transient backend failures up to N times")
    parser.add_argument("--no-fallback", action="store_true",
                        help="fail instead of degrading to heuristics when a "
                             "budget is exhausted without an incumbent")


def _policy_from_args(args) -> SolvePolicy | None:
    """Build the SolvePolicy the flags describe (None = exact, uncapped)."""
    solver = _solver_block_from_args(args)
    if (args.deadline is None and args.node_budget is None
            and not args.retries and not args.no_fallback and solver is None):
        return None
    return SolvePolicy(
        deadline=args.deadline,
        node_budget=args.node_budget,
        max_retries=args.retries,
        fallback=() if args.no_fallback else SolvePolicy().fallback,
        solver=solver,
    )


def _runtime_scope(args):
    """Context manager installing the solve cache the flags ask for."""
    if getattr(args, "no_cache", False) or getattr(args, "cache", None) is None:
        return contextlib.nullcontext()
    directory = args.cache if args.cache else DEFAULT_CACHE_DIR
    return use_cache(SolutionCache(directory=directory))


def _problem_from_args(soc: Soc, arch: TamArchitecture, args) -> DesignProblem:
    floorplan = grid_place(soc) if args.max_distance is not None else None
    return DesignProblem(
        soc=soc,
        arch=arch,
        timing=args.timing,
        power_budget=args.power_budget,
        floorplan=floorplan,
        max_pair_distance=args.max_distance,
    )


def _request_from_args(kind: str, args) -> SolveRequest:
    """The unified :class:`SolveRequest` the parsed solver flags describe."""
    widths = None
    if getattr(args, "widths", None) is not None:
        widths = tuple(int(w) for w in args.widths.split(",") if w.strip())
    return SolveRequest(
        kind=kind,
        soc=args.soc,
        widths=widths,
        total_width=getattr(args, "total_width", None),
        num_buses=getattr(args, "buses", None),
        time_budget=getattr(args, "time_budget", None),
        max_buses=getattr(args, "max_buses", None),
        timing=args.timing,
        power_budget=args.power_budget,
        max_pair_distance=args.max_distance,
        backend=args.backend,
        policy=_policy_from_args(args),
        jobs=getattr(args, "jobs", 1),
    )


def cmd_describe(args) -> int:
    soc = resolve_soc(args.soc)
    print(soc.describe())
    return 0


def cmd_design(args) -> int:
    request = _request_from_args("design", args)
    tracer = None
    with _runtime_scope(args):
        if args.trace is not None:
            with trace_solve() as tracer:
                # One root span over the whole design: per-phase self times
                # then partition the traced wall time exactly.
                with tracer.span("design", soc=request.soc):
                    result = request.run()
        else:
            result = request.run()
    trace_payload = tracer.to_json() if tracer is not None else None
    if tracer is not None and args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(trace_payload, fh, indent=2)
    if args.json:
        payload = request.result_payload(result)
        if request.policy is not None:
            payload["policy"] = request.policy.as_dict()
        if trace_payload is not None:
            payload["trace"] = trace_payload
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(design_report(result))
        if tracer is not None:
            print()
            print(tracer.flame())
            if args.trace:
                print(f"trace JSON written to {args.trace}")
    return 0


def cmd_sweep(args) -> int:
    request = _request_from_args("sweep", args)
    with _runtime_scope(args):
        sweep = request.run()
    rows = [
        ["+".join(str(w) for w in arch.widths), makespan]
        for arch, makespan in sweep.per_architecture
    ]
    print(format_table(["widths", "T* (cycles)"], rows,
                       title=f"{sweep.soc_name}: W={args.total_width} over {args.buses} buses"))
    if sweep.best is None:
        print("\nno feasible width distribution")
        return 1
    print(f"\nbest: {sweep.best.arch} at {sweep.best.makespan:.0f} cycles "
          f"({sweep.evaluated} distributions, {sweep.infeasible} infeasible, "
          f"{sweep.wall_time:.1f}s; {sweep.telemetry.render()})")
    print(design_report(sweep.best))
    return 0


def cmd_minwidth(args) -> int:
    request = _request_from_args("min_width", args)
    with _runtime_scope(args):
        result = request.run()
    print(result.describe())
    print(format_table(
        ["probed W", "T* (cycles)"],
        [[w, t] for w, t in result.evaluated_widths],
        title="binary search trace",
    ))
    return 0


def cmd_buscount(args) -> int:
    request = _request_from_args("bus_count", args)
    with _runtime_scope(args):
        points = request.run()
    rows = [
        [p.num_buses, p.makespan, "+".join(str(w) for w in p.arch_widths) if p.arch_widths else None]
        for p in points
    ]
    print(format_table(["NB", "T* (cycles)", "best widths"], rows,
                       title=f"{request.soc.upper()}: bus-count exploration at W={args.total_width}"))
    return 0


def cmd_lint_model(args) -> int:
    from repro.api import InfeasibleError, build_assignment_ilp, lint_model

    soc = resolve_soc(args.soc)
    problem = _problem_from_args(soc, _parse_widths(args.widths), args)
    report = problem.lint()
    model_summary = None
    try:
        formulation = build_assignment_ilp(problem)
    except InfeasibleError:
        # Unbuildable instances (e.g. a width-infeasible core) are already
        # reported by the problem-level pass; there is no model to lint.
        pass
    else:
        model_summary = formulation.model.summary()
        report.extend(lint_model(formulation.model))
    if args.json:
        print(report.to_json(target="model", instance=problem.constraint_summary(),
                             model=model_summary))
    else:
        print(report.render(f"lint model: {problem.constraint_summary()}"))
    return 1 if report.has_errors else 0


def cmd_lint_code(args) -> int:
    import pathlib

    from repro.api import lint_paths, load_baseline

    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
    else:
        # Default to the installed package tree so the command works from
        # any working directory.
        paths = [pathlib.Path(__file__).resolve().parent]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"repro lint code: no such path: {p}", file=sys.stderr)
        return 2
    report = lint_paths(paths)
    baseline_path = pathlib.Path(args.baseline) if args.baseline else _find_baseline(paths)
    stale: list[dict] = []
    if baseline_path is not None and baseline_path.exists():
        waivers = load_baseline(baseline_path)
        flow_waivers = [w for w in waivers if str(w.get("rule", "")).startswith("D")]
        if flow_waivers:
            # Flow findings assert runtime soundness (cache keys, pool
            # purity, determinism, facade integrity): they are fixed, not
            # baselined. Inline `# lint: ignore[D00x]` remains possible but
            # sits next to the code where review can see it.
            for waiver in flow_waivers:
                print(
                    f"repro lint code: baseline may not waive flow rule "
                    f"{waiver.get('rule')} ({waiver.get('file', '?')}): fix the "
                    "finding or use an inline waiver",
                    file=sys.stderr,
                )
            return 2
        stale = report.apply_baseline(waivers)
    fmt = getattr(args, "format", None) or ("json" if args.json else "text")
    if fmt == "sarif":
        from repro.analysis.sarif import report_to_sarif_json

        text = report_to_sarif_json(report)
    elif fmt == "json":
        text = report.to_json(
            target="code",
            files=[str(p) for p in paths],
            baseline=str(baseline_path) if baseline_path else None,
            stale_waivers=stale,
        )
    else:
        scanned = ", ".join(str(p) for p in paths)
        text = report.render(f"lint code: {scanned}")
    output = getattr(args, "output", None)
    if output:
        pathlib.Path(output).write_text(text + "\n", encoding="utf-8")
        print(f"repro lint code: wrote {fmt} report to {output}")
    else:
        print(text)
    for waiver in stale:
        print(
            f"repro lint code: stale baseline waiver (matched nothing): "
            f"{waiver.get('rule', '*')} {waiver.get('file', '*')}"
            + (f":{waiver['line']}" if waiver.get("line") is not None else "")
            + " — remove it from the baseline",
            file=sys.stderr,
        )
    return 1 if report.has_errors else 0


def _find_baseline(paths) -> "object | None":
    """Locate ``.lint-baseline.json`` beside/above the scanned paths or cwd."""
    import pathlib

    candidates = [pathlib.Path.cwd()]
    candidates.extend(p if p.is_dir() else p.parent for p in paths)
    for start in candidates:
        for directory in [start, *start.resolve().parents]:
            candidate = directory / ".lint-baseline.json"
            if candidate.exists():
                return candidate
    return None


def cmd_serve(args) -> int:
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=None if args.no_cache else (args.cache if args.cache else None),
        state_dir=args.state_dir,
        port_file=args.port_file,
    )


def cmd_experiments(args) -> int:
    from repro.experiments.__main__ import main as experiments_main

    forwarded = [args.id, "--jobs", str(args.jobs)]
    if args.no_cache:
        forwarded.append("--no-cache")
    elif args.cache is not None:
        forwarded.append("--cache")
        if args.cache:
            forwarded.append(args.cache)
    return experiments_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOC test access architecture design (Chakrabarty, DAC 2000 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print an SOC inventory")
    p.add_argument("soc", help="S1 | S2 | S3 | d695 | SYN<n>[:seed] | path/to/file.soc")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("design", help="solve one instance and print the report")
    p.add_argument("soc")
    p.add_argument("--widths", required=True, metavar="W1,W2,...",
                   help="bus widths, e.g. 16,16,32")
    p.add_argument("--json", action="store_true",
                   help="emit the design + solver telemetry as JSON")
    p.add_argument("--trace", nargs="?", const="", default=None, metavar="FILE",
                   help="trace the solve: print a flame summary (and include "
                        "spans in --json); with FILE, also write the span JSON")
    _add_common_constraints(p)
    _add_solver_flags(p)
    _add_runtime_flags(p)
    _add_policy_flags(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("sweep", help="best width distribution for a pin budget")
    p.add_argument("soc")
    p.add_argument("--total-width", type=int, required=True)
    p.add_argument("--buses", type=int, required=True)
    _add_common_constraints(p)
    _add_solver_flags(p)
    _add_runtime_flags(p)
    _add_policy_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("minwidth", help="smallest TAM width meeting a time budget")
    p.add_argument("soc")
    p.add_argument("--buses", type=int, required=True)
    p.add_argument("--time-budget", type=float, required=True, metavar="CYCLES")
    _add_common_constraints(p)
    _add_solver_flags(p)
    _add_runtime_flags(p)
    _add_policy_flags(p)
    p.set_defaults(func=cmd_minwidth)

    p = sub.add_parser("buscount", help="testing time per bus count at fixed W")
    p.add_argument("soc")
    p.add_argument("--total-width", type=int, required=True)
    p.add_argument("--max-buses", type=int, default=4)
    _add_common_constraints(p)
    _add_solver_flags(p)
    _add_runtime_flags(p)
    _add_policy_flags(p)
    p.set_defaults(func=cmd_buscount)

    p = sub.add_parser("lint", help="static analysis over models or source code")
    lint_sub = p.add_subparsers(dest="target", required=True)

    pm = lint_sub.add_parser("model", help="lint one instance's ILP formulation (no solve)")
    pm.add_argument("soc", help="S1 | S2 | S3 | d695 | SYN<n>[:seed] | path/to/file.soc")
    pm.add_argument("--widths", required=True, metavar="W1,W2,...",
                    help="bus widths, e.g. 16,16,32")
    _add_common_constraints(pm)
    pm.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    pm.set_defaults(func=cmd_lint_model)

    pc = lint_sub.add_parser("code", help="AST lint of the repro source tree")
    pc.add_argument("paths", nargs="*",
                    help="files/directories to scan (default: the installed repro package)")
    pc.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON (alias for --format json)")
    pc.add_argument("--format", choices=("text", "json", "sarif"), default=None,
                    help="output format (sarif targets GitHub code scanning)")
    pc.add_argument("--output", default=None, metavar="FILE",
                    help="write the report to FILE instead of stdout")
    pc.add_argument("--baseline", default=None, metavar="FILE",
                    help="waiver baseline (default: nearest .lint-baseline.json)")
    pc.set_defaults(func=cmd_lint_code)

    p = sub.add_parser("experiments", help="run evaluation harnesses (T1..T5, F1..F4, all)")
    p.add_argument("id", nargs="?", default="all")
    _add_runtime_flags(p)
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser("serve", help="run the HTTP/JSON design service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8383,
                   help="TCP port (0 picks an ephemeral port; default: 8383)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="solver worker threads (default: 2)")
    p.add_argument("--cache", nargs="?", const=DEFAULT_CACHE_DIR, default=None,
                   metavar="DIR", help="persist solved instances on disk "
                                       f"(bare --cache stores under {DEFAULT_CACHE_DIR})")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the shared solve cache")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="job state root for incumbent checkpoints/streams "
                        "(default: a temp directory per server)")
    p.add_argument("--port-file", default=None, metavar="FILE",
                   help="write the bound port to FILE once listening "
                        "(for scripts using --port 0)")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like cat does.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
