"""Full-text design reports.

Bundles everything a test engineer would want from one design run — the
constraint summary, per-bus assignment and times, schedule Gantt, true power
profile, TAM wirelength, and solver provenance — into one plain-text report.
Used by the CLI (``python -m repro design ...``) and handy in notebooks.
"""

from __future__ import annotations

from repro.core.designer import TamDesign
from repro.core.scheduler import build_schedule


def design_report(result: TamDesign, gantt_width: int = 64) -> str:
    """Render a complete report for a finished design."""
    problem = result.problem
    lines = [
        "=" * 72,
        f"TAM design report — {problem.soc.name}",
        "=" * 72,
        f"instance:  {problem.constraint_summary()}",
        f"solver:    {result.backend} ({result.status.value}), "
        f"{result.stats.nodes} nodes, {result.stats.lp_solves} LPs, "
        f"{result.stats.wall_time * 1000:.0f} ms",
        f"makespan:  {result.makespan:.0f} cycles "
        f"(lower bound {problem.makespan_lower_bound():.0f})",
        "",
        "assignment:",
    ]
    for bus in range(result.arch.num_buses):
        members = result.assignment.cores_on_bus(bus)
        names = ", ".join(problem.soc.cores[i].name for i in members) or "(empty)"
        lines.append(
            f"  bus {bus} (w={result.arch.width_of(bus)}): "
            f"{result.bus_times[bus]:8.0f} cycles  [{names}]"
        )

    schedule = build_schedule(problem, result.assignment)
    lines += ["", schedule.gantt(gantt_width)]

    profile = schedule.power_profile()
    lines += [
        "",
        f"power:     true peak {profile.peak:.1f} mW, "
        f"energy {profile.energy():.0f} mW-cycles",
    ]
    if problem.power_budget is not None:
        worst_pair = 0.0
        sessions = schedule.sessions
        for i, a in enumerate(sessions):
            for b in sessions[i + 1 :]:
                if a.bus != b.bus and a.start < b.end and b.start < a.end:
                    worst_pair = max(worst_pair, a.power + b.power)
        verdict = "OK" if worst_pair <= problem.power_budget + 1e-9 else "VIOLATION"
        lines.append(
            f"           worst concurrent pair {worst_pair:.1f} mW "
            f"vs budget {problem.power_budget:g} mW -> {verdict}"
        )
    if result.wirelength is not None:
        lines.append(f"routing:   {result.wirelength:.1f} wire-mm (width-weighted, chain estimator)")
    if problem.forbidden_pairs or problem.forced_pairs:
        lines.append("")
        lines.append(
            f"constraints honored: {len(problem.forced_pairs)} forced pair(s), "
            f"{len(problem.forbidden_pairs)} forbidden pair(s); "
            f"independent re-validation: "
            f"{'clean' if not problem.validate(result.assignment) else 'VIOLATED'}"
        )
    return "\n".join(lines)
