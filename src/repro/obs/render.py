"""Rendering for ``repro stats``: per-benchmark, per-phase tables.

Everything renders from a ``metrics.json`` document alone (no session,
no re-simulation), so ``repro stats`` on a finished run directory is
instant and works on artifacts copied off another machine.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.report import TextTable
from repro.obs.metrics import RUN_SCOPE

#: Canonical phase order for the per-benchmark table.
PHASE_ORDER = ("trace", "annotate", "model", "report")

#: Marker appended to each benchmark's slowest phase cell.
SLOWEST_MARK = " *"

#: Run-scope counters of the model children, rendered as their own row
#: (they run beside the parent, so their CPU seconds are not part of
#: its wall time), with the groups of failed children re-run inline.
CHILDREN_PREFIX = "children/"

#: Run-scope gauges of the parent process (``parent/peak_rss_mb``),
#: rendered beside the children's row.
PARENT_PREFIX = "parent/"

#: Run-scope ``sentinel/<stage>/oracle_s`` counters: the wall seconds of
#: the tier guard's oracle re-runs, rendered beside the children's row.
SENTINEL_PREFIX = "sentinel/"


def _ordered_phases(phases: Mapping[str, Mapping[str, float]]) -> list[str]:
    """Observed phase names: canonical ones first, extras sorted."""
    seen: set[str] = set()
    for scope in phases.values():
        seen.update(scope)
    ordered = [name for name in PHASE_ORDER if name in seen]
    ordered.extend(sorted(seen - set(PHASE_ORDER)))
    return ordered


def render_phase_table(document: Mapping) -> str:
    """Per-benchmark phase seconds, slowest phase highlighted."""
    phases = document.get("phases", {})
    benchmarks = [name for name in phases if name != RUN_SCOPE]
    columns = [name for name in _ordered_phases(phases)
               if name != "report"]
    if not benchmarks or not columns:
        return "no phase spans recorded"
    table = TextTable(
        ["benchmark"] + columns + ["total"],
        title="Phase seconds per benchmark (slowest marked *)",
    )
    totals = {name: 0.0 for name in columns}
    for benchmark in sorted(benchmarks):
        scope = phases[benchmark]
        values = {name: float(scope.get(name, 0.0)) for name in columns}
        slowest = max(values, key=values.get) if any(values.values()) \
            else None
        row = [benchmark]
        for name in columns:
            cell = f"{values[name]:.3f}"
            if name == slowest:
                cell += SLOWEST_MARK
            row.append(cell)
            totals[name] += values[name]
        row.append(f"{sum(values.values()):.3f}")
        table.add_row(row)
    table.add_separator()
    table.add_row(["ALL"] + [f"{totals[name]:.3f}" for name in columns]
                  + [f"{sum(totals.values()):.3f}"])
    return table.render()


def _digest_counters(scope: Mapping[str, int]) -> dict[str, int]:
    """The headline counters ``repro stats`` summarizes per benchmark."""
    def total(predicate) -> int:
        return sum(value for name, value in scope.items()
                   if predicate(name))

    return {
        "instrs (ppc)": scope.get("sim/ppc/instructions", 0),
        "instrs (alpha)": scope.get("sim/alpha/instructions", 0),
        "loads (ppc)": scope.get("sim/ppc/loads", 0),
        "lvp mispredicts": total(
            lambda n: n.startswith("lvp/") and n.endswith("/mispredicts")),
        "model cycles": total(
            lambda n: n.startswith("model/") and n.endswith("/cycles")),
    }


def render_counter_table(document: Mapping) -> str:
    """Headline per-benchmark counters (see ``--full`` for all)."""
    benchmarks = document.get("benchmarks", {})
    if not benchmarks:
        return "no counters recorded"
    names = sorted(benchmarks)
    headers = list(_digest_counters({}).keys())
    table = TextTable(["benchmark"] + headers,
                      title="Headline counters per benchmark")
    for name in names:
        digest = _digest_counters(benchmarks[name])
        table.add_row([name] + [f"{digest[h]:,}" for h in headers])
    return table.render()


def render_full_counters(document: Mapping) -> str:
    """Every recorded counter, one row per (benchmark, counter)."""
    benchmarks = document.get("benchmarks", {})
    table = TextTable(["benchmark", "counter", "value"],
                      title="All counters")
    for name in sorted(benchmarks):
        for counter in sorted(benchmarks[name]):
            table.add_row([name, counter, f"{benchmarks[name][counter]:,}"])
    return table.render()


def render_stats(document: Mapping, full: bool = False) -> str:
    """The complete ``repro stats`` report for one document."""
    context = document.get("context", {})
    suite = context.get("benchmarks") or sorted(
        document.get("benchmarks", {}))
    header = (f"run {document.get('run_id', '?')} -- "
              f"repro {document.get('version', '?')}, "
              f"scale {context.get('scale', '?')}, "
              f"{len(suite)} benchmark(s), "
              f"{len(document.get('spans', []))} span(s)")
    sections = [header, render_phase_table(document),
                render_counter_table(document)]
    report_seconds = document.get("phases", {}).get(
        RUN_SCOPE, {}).get("report")
    if report_seconds is not None:
        sections.append(f"report phase (exhibit rendering): "
                        f"{float(report_seconds):.3f}s")
    run = document.get("run", {})
    parent_peak = run.get(PARENT_PREFIX + "peak_rss_mb")
    if parent_peak is not None:
        sections.append(
            f"parent process: peak RSS {float(parent_peak):.1f} MB")
    children = run.get(CHILDREN_PREFIX + "processes")
    rerun = run.get(CHILDREN_PREFIX + "rerun_inline")
    if children or rerun:
        sections.append(
            f"model children (timing models beside the parent): "
            f"{int(children or 0)} process(es), "
            f"{float(run.get(CHILDREN_PREFIX + 'cpu_s', 0.0)):.3f}s CPU, "
            f"peak RSS "
            f"{float(run.get(CHILDREN_PREFIX + 'peak_rss_mb', 0.0)):.1f} MB"
            + (f", {int(rerun)} group(s) re-run inline" if rerun else ""))
    oracle = {name.split("/")[1]: float(value)
              for name, value in run.items()
              if name.startswith(SENTINEL_PREFIX)}
    if oracle:
        sections.append(
            "sentinel oracle re-runs (wall, children included): "
            + ", ".join(f"{stage} {seconds:.3f}s"
                        for stage, seconds in sorted(oracle.items())))
    run = {name: value for name, value in run.items()
           if not name.startswith((PARENT_PREFIX, CHILDREN_PREFIX,
                                   SENTINEL_PREFIX))}
    if run:
        lines = ["Run-scope counters (per-process, not deterministic):"]
        for name in sorted(run):
            value = run[name]
            rendered = f"{value:,}" if isinstance(value, int) \
                else f"{value:.3f}"
            lines.append(f"  {name:32s} {rendered}")
        sections.append("\n".join(lines))
    if full:
        sections.append(render_full_counters(document))
    return "\n\n".join(sections)
