"""Experiment registry: one entry per paper table/figure.

Each ``run_*`` function reproduces one exhibit of the paper's
evaluation and returns an :class:`ExperimentResult` whose ``data``
holds the raw numbers and whose ``text`` prints the same rows/series
the paper reports.  ``EXPERIMENTS`` maps exhibit ids (``fig1``,
``tab3``, ...) to their runners; ``run_experiment`` dispatches by id.

Runners degrade gracefully: a benchmark that fails at any stage (its
:class:`~repro.errors.BenchmarkFailure` is recorded by the session) is
dropped from that exhibit and footnoted in the rendered text instead
of aborting the run, so ``experiment all`` always produces every
exhibit it can.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import BenchmarkFailure
from repro.isa.opcodes import ValueKind
from repro.lvp.config import CONSTANT, LIMIT, PERFECT, SIMPLE
from repro.analysis.reference import render_table2, render_table5
from repro.analysis.report import (
    TextTable,
    format_percent,
    format_speedup,
    geometric_mean,
)
from repro.harness.session import Session
from repro.uarch.ppc620.config import PPC620, PPC620_PLUS
from repro.uarch.ppc620.model import FU_NAMES, VERIFY_BUCKETS
from repro.workloads.suite import get_benchmark


@dataclass
class ExperimentResult:
    """One reproduced exhibit: id, title, raw data, rendered text.

    ``failures`` lists the benchmarks omitted from this exhibit (the
    rendered text carries matching footnotes).
    """

    exp_id: str
    title: str
    data: dict
    text: str
    failures: tuple = field(default=())


# ---------------------------------------------------------------------------
# Failure isolation helpers.
# ---------------------------------------------------------------------------
def _per_benchmark(session: Session, fn):
    """Run ``fn(name)`` per benchmark, isolating failures.

    Returns ``(rows, failures)``: *rows* maps each succeeding
    benchmark to ``fn``'s result, in suite order; *failures* collects
    the :class:`BenchmarkFailure` of each benchmark that did not.
    """
    rows: dict = {}
    failures: list[BenchmarkFailure] = []
    for name in session.benchmark_names:
        try:
            rows[name] = fn(name)
        except BenchmarkFailure as failure:
            failures.append(failure)
    return rows, failures


def _footnotes(failures) -> str:
    """Footnote block naming each omitted benchmark (empty if none)."""
    if not failures:
        return ""
    lines = ["", "Footnotes:"]
    for failure in failures:
        cause = f"{type(failure.cause).__name__}: {failure.cause}"
        if len(cause) > 72:
            cause = cause[:69] + "..."
        lines.append(f"  + {failure.benchmark} [{failure.target}] "
                     f"omitted -- {failure.stage} stage failed ({cause})")
    return "\n" + "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 1: benchmark descriptions and dynamic instruction counts.
# ---------------------------------------------------------------------------
def run_tab1(session: Session) -> ExperimentResult:
    """Reproduce Table 1 (benchmark suite summary)."""

    def fn(name):
        stats_p = session.trace_summary(name, "ppc").stats
        stats_a = session.trace_summary(name, "alpha").stats
        return {
            "ppc_instructions": stats_p.instructions,
            "alpha_instructions": stats_a.instructions,
            "ppc_loads": stats_p.loads,
            "alpha_loads": stats_a.loads,
        }

    data, failures = _per_benchmark(session, fn)
    table = TextTable(
        ["benchmark", "description", "instrs (PPC)", "instrs (Alpha)",
         "paper PPC", "paper Alpha"],
        title="Table 1: Benchmark Descriptions",
    )
    for name, row in data.items():
        bench = get_benchmark(name)
        table.add_row([
            name, bench.description, row["ppc_instructions"],
            row["alpha_instructions"],
            bench.paper_instructions.get("ppc", "-"),
            bench.paper_instructions.get("alpha", "-"),
        ])
    return ExperimentResult("tab1", "Benchmark Descriptions", data,
                            table.render() + _footnotes(failures),
                            tuple(failures))


# ---------------------------------------------------------------------------
# Tables 2 and 5: configuration tables (no simulation; rendered from the
# live configuration objects so they cannot drift from the code).
# ---------------------------------------------------------------------------
def run_tab2(session: Session) -> ExperimentResult:
    """Reproduce Table 2 (LVP unit configurations)."""
    text = render_table2()
    return ExperimentResult("tab2", "LVP Unit Configurations",
                            {"text": text}, text)


def run_tab5(session: Session) -> ExperimentResult:
    """Reproduce Table 5 (instruction latencies)."""
    text = render_table5()
    return ExperimentResult("tab5", "Instruction Latencies",
                            {"text": text}, text)


# ---------------------------------------------------------------------------
# Figure 1: load value locality per benchmark, depth 1 and 16.
# ---------------------------------------------------------------------------
def run_fig1(session: Session) -> ExperimentResult:
    """Reproduce Figure 1 (value locality, Alpha and PowerPC)."""

    def fn(name):
        per_target = {}
        for target in ("alpha", "ppc"):
            locality = session.trace_summary(name, target).locality
            per_target[target] = (locality[1].percent, locality[16].percent)
        return per_target

    rows, failures = _per_benchmark(session, fn)
    data: dict = {"alpha": {}, "ppc": {}}
    for name, per_target in rows.items():
        for target in ("alpha", "ppc"):
            data[target][name] = per_target[target]
    lines = []
    for target, label in (("alpha", "Alpha AXP"), ("ppc", "PowerPC")):
        table = TextTable(["benchmark", "depth 1", "depth 16"],
                          title=f"Figure 1: Load Value Locality ({label})")
        for name, (d1, d16) in data[target].items():
            table.add_row([name, f"{d1:.1f}%", f"{d16:.1f}%"])
        lines.append(table.render())
    return ExperimentResult("fig1", "Load Value Locality", data,
                            "\n\n".join(lines) + _footnotes(failures),
                            tuple(failures))


# ---------------------------------------------------------------------------
# Figure 2: PowerPC value locality by data type.
# ---------------------------------------------------------------------------
_KIND_LABELS = {
    ValueKind.FP_DATA: "FP Data",
    ValueKind.INT_DATA: "Integer Data",
    ValueKind.INSTR_ADDR: "Instruction Addresses",
    ValueKind.DATA_ADDR: "Data Addresses",
}


def run_fig2(session: Session) -> ExperimentResult:
    """Reproduce Figure 2 (PowerPC value locality by data type)."""

    def fn(name):
        by_kind = session.trace_summary(name, "ppc").by_kind
        by_kind_1, by_kind_16 = by_kind[1], by_kind[16]
        return {
            kind.name: (by_kind_1[kind].percent, by_kind_16[kind].percent,
                        by_kind_1[kind].total_loads)
            for kind in ValueKind
        }

    rows, failures = _per_benchmark(session, fn)
    data: dict = {kind.name: {} for kind in ValueKind}
    for name, per_kind in rows.items():
        for kind in ValueKind:
            data[kind.name][name] = per_kind[kind.name]
    lines = []
    for kind in (ValueKind.FP_DATA, ValueKind.INT_DATA,
                 ValueKind.INSTR_ADDR, ValueKind.DATA_ADDR):
        table = TextTable(
            ["benchmark", "depth 1", "depth 16", "loads"],
            title=f"Figure 2: PowerPC Value Locality - {_KIND_LABELS[kind]}",
        )
        for name, (d1, d16, loads) in data[kind.name].items():
            table.add_row([
                name,
                f"{d1:.1f}%" if loads else "-",
                f"{d16:.1f}%" if loads else "-",
                loads,
            ])
        lines.append(table.render())
    return ExperimentResult("fig2", "Value Locality by Data Type", data,
                            "\n\n".join(lines) + _footnotes(failures),
                            tuple(failures))


# ---------------------------------------------------------------------------
# Table 3: LCT hit rates.
# ---------------------------------------------------------------------------
def run_tab3(session: Session) -> ExperimentResult:
    """Reproduce Table 3 (LCT classification hit rates)."""
    combos = (
        ("ppc", SIMPLE), ("ppc", LIMIT), ("alpha", SIMPLE), ("alpha", LIMIT),
    )

    def fn(name):
        per_combo = {}
        for target, config in combos:
            stats = session.lvp_stats(name, target, config)
            per_combo[f"{target}/{config.name}"] = (
                stats.unpredictable_identified,
                stats.predictable_identified,
            )
        return per_combo

    data, failures = _per_benchmark(session, fn)
    table = TextTable(
        ["benchmark",
         "PPC/S unpred", "PPC/S pred", "PPC/L unpred", "PPC/L pred",
         "AXP/S unpred", "AXP/S pred", "AXP/L unpred", "AXP/L pred"],
        title="Table 3: LCT Hit Rates",
    )
    per_column: dict = {combo: ([], []) for combo in combos}
    for name, per_combo in data.items():
        row = [name]
        for target, config in combos:
            unpred, pred = per_combo[f"{target}/{config.name}"]
            per_column[(target, config)][0].append(unpred)
            per_column[(target, config)][1].append(pred)
            row.extend([format_percent(unpred, 0), format_percent(pred, 0)])
        table.add_row(row)
    if data:
        table.add_separator()
        gm_row = ["GM"]
        for combo in combos:
            unpreds, preds = per_column[combo]
            gm_row.extend([
                format_percent(geometric_mean(unpreds), 0),
                format_percent(geometric_mean(preds), 0),
            ])
        table.add_row(gm_row)
    return ExperimentResult("tab3", "LCT Hit Rates", data,
                            table.render() + _footnotes(failures),
                            tuple(failures))


# ---------------------------------------------------------------------------
# Table 4: constant identification rates.
# ---------------------------------------------------------------------------
def run_tab4(session: Session) -> ExperimentResult:
    """Reproduce Table 4 (constant loads as a share of dynamic loads)."""
    combos = (
        ("ppc", SIMPLE), ("ppc", CONSTANT),
        ("alpha", SIMPLE), ("alpha", CONSTANT),
    )

    def fn(name):
        return {
            f"{target}/{config.name}":
                session.lvp_stats(name, target, config).constant_fraction
            for target, config in combos
        }

    data, failures = _per_benchmark(session, fn)
    table = TextTable(
        ["benchmark", "PPC Simple", "PPC Constant",
         "AXP Simple", "AXP Constant"],
        title="Table 4: Successful Constant Identification Rates",
    )
    for name, per_combo in data.items():
        table.add_row([name] + [
            format_percent(per_combo[f"{target}/{config.name}"], 0)
            for target, config in combos
        ])
    return ExperimentResult("tab4", "Constant Identification Rates", data,
                            table.render() + _footnotes(failures),
                            tuple(failures))


# ---------------------------------------------------------------------------
# Figure 6: base machine model speedups.
# ---------------------------------------------------------------------------
def run_fig6(session: Session) -> ExperimentResult:
    """Reproduce Figure 6 (speedups on the base 620 and 21164)."""
    ppc_configs = (SIMPLE, CONSTANT, LIMIT, PERFECT)
    alpha_configs = (SIMPLE, LIMIT, PERFECT)

    def fn(name):
        return {
            "620": {config.name: session.ppc_speedup(name, PPC620, config)
                    for config in ppc_configs},
            "21164": {config.name: session.alpha_speedup(name, config)
                      for config in alpha_configs},
        }

    rows, failures = _per_benchmark(session, fn)
    data: dict = {
        "620": {c.name: {} for c in ppc_configs},
        "21164": {c.name: {} for c in alpha_configs},
    }
    for name, per_machine in rows.items():
        for machine, per_config in per_machine.items():
            for config_name, speedup in per_config.items():
                data[machine][config_name][name] = speedup
    lines = []
    for machine, configs in (("21164", alpha_configs),
                             ("620", ppc_configs)):
        label = ("Alpha AXP 21164" if machine == "21164"
                 else "PowerPC 620")
        table = TextTable(
            ["benchmark"] + [c.name for c in configs],
            title=f"Figure 6: Base Machine Model Speedups ({label})",
        )
        for name in rows:
            table.add_row([name] + [
                format_speedup(data[machine][c.name][name]) for c in configs
            ])
        if rows:
            table.add_separator()
            table.add_row(["GM"] + [
                format_speedup(geometric_mean(data[machine][c.name].values()))
                for c in configs
            ])
        lines.append(table.render())
    return ExperimentResult("fig6", "Base Machine Model Speedups", data,
                            "\n\n".join(lines) + _footnotes(failures),
                            tuple(failures))


# ---------------------------------------------------------------------------
# Table 6: 620+ speedups.
# ---------------------------------------------------------------------------
def run_tab6(session: Session) -> ExperimentResult:
    """Reproduce Table 6 (620+ and additional LVP speedups)."""
    configs = (SIMPLE, CONSTANT, LIMIT, PERFECT)

    def fn(name):
        base_620 = session.ppc_result(name, PPC620, None)
        base_plus = session.ppc_result(name, PPC620_PLUS, None)
        row = {"620+": base_620.cycles / base_plus.cycles,
               "instructions": base_620.instructions}
        for config in configs:
            row[config.name] = session.ppc_speedup(name, PPC620_PLUS, config)
        return row

    data, failures = _per_benchmark(session, fn)
    table = TextTable(
        ["benchmark", "instructions", "620+",
         "Simple", "Constant", "Limit", "Perfect"],
        title="Table 6: PowerPC 620+ Speedups",
    )
    keys = ("620+",) + tuple(c.name for c in configs)
    columns: dict = {key: [] for key in keys}
    for name, row in data.items():
        for key in keys:
            columns[key].append(row[key])
        table.add_row([name, row["instructions"],
                       format_speedup(row["620+"])] +
                      [format_speedup(row[c.name]) for c in configs])
    if data:
        table.add_separator()
        table.add_row(["GM", ""] + [
            format_speedup(geometric_mean(columns[key])) for key in keys
        ])
        data["GM"] = {key: geometric_mean(columns[key]) for key in columns}
    return ExperimentResult("tab6", "PowerPC 620+ Speedups", data,
                            table.render() + _footnotes(failures),
                            tuple(failures))


# ---------------------------------------------------------------------------
# Figure 7: load verification latency distribution.
# ---------------------------------------------------------------------------
def run_fig7(session: Session) -> ExperimentResult:
    """Reproduce Figure 7 (verification-latency distributions)."""
    configs = (SIMPLE, CONSTANT, LIMIT, PERFECT)
    machines = (PPC620, PPC620_PLUS)

    def fn(name):
        return {
            machine.name: {
                config.name:
                    session.ppc_result(name, machine, config).verify_histogram
                for config in configs
            }
            for machine in machines
        }

    rows, failures = _per_benchmark(session, fn)
    data: dict = {}
    lines = []
    for machine in machines:
        table = TextTable(
            ["latency"] + [c.name for c in configs],
            title=f"Figure 7: Load Verification Latency ({machine.name})",
        )
        histograms = {}
        for config in configs:
            total_hist = {bucket: 0 for bucket in VERIFY_BUCKETS}
            for per_machine in rows.values():
                for bucket, count in \
                        per_machine[machine.name][config.name].items():
                    total_hist[bucket] += count
            total = sum(total_hist.values()) or 1
            histograms[config.name] = {
                bucket: count / total for bucket, count in total_hist.items()
            }
        data[machine.name] = histograms
        for bucket in VERIFY_BUCKETS:
            table.add_row([bucket] + [
                format_percent(histograms[c.name][bucket])
                for c in configs
            ])
        lines.append(table.render())
    return ExperimentResult("fig7", "Load Verification Latency Distribution",
                            data, "\n\n".join(lines) + _footnotes(failures),
                            tuple(failures))


# ---------------------------------------------------------------------------
# Figure 8: data dependency resolution latencies.
# ---------------------------------------------------------------------------
def run_fig8(session: Session) -> ExperimentResult:
    """Reproduce Figure 8 (average RS operand-wait time by FU type,
    normalized to the no-LVP baseline)."""
    configs = (SIMPLE, CONSTANT, LIMIT, PERFECT)
    machines = (PPC620, PPC620_PLUS)

    def fn(name):
        per_machine = {}
        for machine in machines:
            waits = {"base": session.ppc_result(name, machine, None).fu_wait}
            for config in configs:
                waits[config.name] = \
                    session.ppc_result(name, machine, config).fu_wait
            per_machine[machine.name] = waits
        return per_machine

    rows, failures = _per_benchmark(session, fn)
    data: dict = {}
    lines = []
    for machine in machines:
        def _mean_waits(variant):
            per_fu = {fu: [0, 0] for fu in FU_NAMES}
            for per_machine in rows.values():
                for fu in FU_NAMES:
                    total, count = per_machine[machine.name][variant][fu]
                    per_fu[fu][0] += total
                    per_fu[fu][1] += count
            return per_fu

        base_sums = _mean_waits("base")
        baseline = {
            fu: (sums[0] / sums[1] if sums[1] else 0.0)
            for fu, sums in base_sums.items()
        }
        normalized: dict = {}
        for config in configs:
            per_fu = _mean_waits(config.name)
            normalized[config.name] = {
                fu: ((sums[0] / sums[1]) / baseline[fu]
                     if sums[1] and baseline[fu] else 1.0)
                for fu, sums in per_fu.items()
            }
        data[machine.name] = {"baseline": baseline, **normalized}
        table = TextTable(
            ["FU type", "base (cycles)"] + [c.name for c in configs],
            title=("Figure 8: Normalized RS Operand Wait Time "
                   f"({machine.name})"),
        )
        for fu in FU_NAMES:
            table.add_row(
                [fu, f"{baseline[fu]:.2f}"]
                + [format_percent(normalized[c.name][fu], 0)
                   for c in configs]
            )
        lines.append(table.render())
    return ExperimentResult("fig8", "Data Dependency Resolution Latencies",
                            data, "\n\n".join(lines) + _footnotes(failures),
                            tuple(failures))


# ---------------------------------------------------------------------------
# Figure 9: bank conflicts.
# ---------------------------------------------------------------------------
def run_fig9(session: Session) -> ExperimentResult:
    """Reproduce Figure 9 (fraction of cycles with bank conflicts)."""
    variants = (("base", None), ("Simple", SIMPLE), ("Constant", CONSTANT))
    machines = (PPC620, PPC620_PLUS)

    def fn(name):
        per_machine = {}
        for machine in machines:
            per_variant = {}
            for label, config in variants:
                result = session.ppc_result(name, machine, config)
                per_variant[label] = (
                    result.bank_conflict_cycle_fraction,
                    result.bank_conflict_cycles,
                    result.cycles,
                )
            per_machine[machine.name] = per_variant
        return per_machine

    rows, failures = _per_benchmark(session, fn)
    data: dict = {}
    lines = []
    for machine in machines:
        table = TextTable(
            ["benchmark"] + [label for label, _ in variants],
            title=f"Figure 9: Cycles with Bank Conflicts ({machine.name})",
        )
        fractions: dict = {label: {} for label, _ in variants}
        for name, per_machine in rows.items():
            row = [name]
            for label, _ in variants:
                fraction = per_machine[machine.name][label][0]
                fractions[label][name] = fraction
                row.append(format_percent(fraction, 2))
            table.add_row(row)
        data[machine.name] = fractions
        # Aggregate (conflict cycles over all cycles, as the paper's
        # "overall" numbers).
        if rows:
            table.add_separator()
            agg_row = ["ALL"]
            for label, _ in variants:
                conflict = sum(per_machine[machine.name][label][1]
                               for per_machine in rows.values())
                cycles = sum(per_machine[machine.name][label][2]
                             for per_machine in rows.values())
                data[machine.name].setdefault("ALL", {})[label] = \
                    conflict / cycles if cycles else 0.0
                agg_row.append(format_percent(
                    conflict / cycles if cycles else 0.0, 2))
            table.add_row(agg_row)
        lines.append(table.render())
    return ExperimentResult("fig9", "Bank Conflict Cycles", data,
                            "\n\n".join(lines) + _footnotes(failures),
                            tuple(failures))


#: Exhibit id -> runner.
EXPERIMENTS: dict[str, Callable[[Session], ExperimentResult]] = {
    "tab1": run_tab1,
    "tab2": run_tab2,
    "tab5": run_tab5,
    "fig1": run_fig1,
    "fig2": run_fig2,
    "tab3": run_tab3,
    "tab4": run_tab4,
    "fig6": run_fig6,
    "tab6": run_tab6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
}


def run_experiment(exp_id: str, session: Session) -> ExperimentResult:
    """Run one exhibit by id (``fig1``, ``tab3``, ...).

    Any tier demotions the session's :class:`~repro.harness.guard
    .TierGuard` recorded while computing this exhibit are appended to
    the rendered text as a ``Tier notes:`` block -- an additive
    footnote (strippable with :func:`~repro.harness.guard
    .strip_tier_notes`) so degraded runs stay honest without changing
    the numbers above it.
    """
    try:
        runner = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    result = runner(session)
    demotions = getattr(session, "demotions", None)
    if demotions:
        from repro.harness.guard import tier_notes
        result.text += tier_notes(demotions)
    return result


def run_experiments(exp_ids, session: Session, jobs: int = 1,
                    unit_timeout: Optional[float] = None, journal=None,
                    resume: bool = False,
                    profile: bool = False) -> list[ExperimentResult]:
    """Run several exhibits: the engine computes, then each renders.

    The workplan is the union of what the exhibits read (single-exhibit
    runs stay cheap).  :meth:`Session.warm` runs it through the engine
    on at most *jobs* processes (every usable CPU at ``jobs=1``), and
    each exhibit renders from the merged memos under a ``report`` span,
    byte-identical to a lazy session's.  ``unit_timeout`` (seconds;
    default ``REPRO_UNIT_TIMEOUT``) arms the per-unit watchdog.

    With a :class:`~repro.harness.journal.RunJournal` the engine
    journals each benchmark's shard to it; on *resume*, completed
    benchmarks are preloaded from verified checkpoints and only the
    rest re-executes; and the run directory gets ``metrics.json`` and,
    with *profile*, the hottest units' cProfile captures
    (:meth:`~repro.harness.journal.RunJournal.write_outputs`).
    """
    from repro.harness.parallel import units_for_exhibits
    report = session.warm(
        jobs, units_for_exhibits(exp_ids, session.benchmark_names),
        unit_timeout, observer=journal, profile=profile,
        preloaded=journal.checkpoints(cache=session.cache)
        if resume else None)
    metrics = session.metrics
    results = []
    for exp_id in exp_ids:
        span = contextlib.nullcontext() if metrics is None \
            else metrics.span(None, "report", exp_id)
        with span:
            results.append(run_experiment(exp_id, session))
    if journal is not None:
        journal.write_outputs(session, report)
    return results
