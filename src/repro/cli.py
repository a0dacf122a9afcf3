"""Command-line interface: regenerate any paper artefact from a shell.

Run ``python -m repro --help`` for the subcommands, and
``python -m repro <subcommand> --help`` for each one's flags.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

from repro.analysis import compare_headlines, render_table
from repro.analysis.export import write_artefact
from repro.analysis.report_builder import (
    FIGURES,
    TABLES,
    figure_json,
    figure_text,
    headline_table,
)
from repro.analysis.sensitivity import headline_under, sensitivity_sweep
from repro.baselines import MEMCACHED_BAGS
from repro.core import (
    OperatingPoint,
    ServerDesign,
    evaluate_server,
    iridium_stack,
    mercury_stack,
    thermal_report,
)
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.faults.schedule import PRESETS as _FAULT_PRESETS
from repro.core.provisioning import (
    Demand,
    candidate_from_baseline,
    candidate_from_design,
    cheapest_plan,
    plan_fleet,
)
from repro.units import parse_size


def _stack_for(family: str, cores: int):
    build = mercury_stack if family.lower() == "mercury" else iridium_stack
    return build(cores=cores)


def _add_run_flags(
    p: argparse.ArgumentParser,
    *,
    cores: int,
    load: float,
    duration: float,
    memory_mb: int,
) -> None:
    """Declare the run flags every full-system subcommand shares, at that
    subcommand's defaults."""
    p.add_argument("--family", choices=["mercury", "iridium"], default="mercury")
    p.add_argument("--cores", type=int, default=cores)
    p.add_argument("--load", type=float, default=load,
                   help="offered load as a fraction of linear-scaling capacity")
    p.add_argument("--duration", type=float, default=duration,
                   help="simulated seconds to run")
    p.add_argument("--size", default="64", help="value size (64, 4K, ...)")
    p.add_argument("--memory-mb", type=int, default=memory_mb,
                   help="per-core store budget in MB")
    p.add_argument("--seed", type=int, default=42)


def _run_setup(
    args: argparse.Namespace, scenario_name: str, window_s: float | None = None
):
    """``(scenario, workload, options)`` from the shared run flags: the
    named scenario's workload at ``--size``, offered at ``--load`` of the
    stack's linear-scaling GET capacity for ``--duration``."""
    from repro.exp.scenarios import get_scenario

    scenario = get_scenario(scenario_name)
    size = parse_size(args.size)
    model = _stack_for(args.family, args.cores).latency_model()
    capacity = args.cores * model.tps("GET", size)
    options = scenario.run_options(
        offered_rate_hz=args.load * capacity,
        duration_s=args.duration,
        window_s=window_s,
    )
    return scenario, scenario.workload(size), options


def _system(args: argparse.Namespace):
    """A fresh :class:`FullSystemStack` from the shared run flags."""
    from repro.sim.full_system import FullSystemStack
    from repro.units import MB

    return FullSystemStack(
        stack=_stack_for(args.family, args.cores),
        memory_per_core_bytes=args.memory_mb * MB,
        seed=args.seed,
    )


def _write(path: str, text: str) -> str:
    """Write an ``--export``/``--stats-export`` file, creating its
    directory; returns the line the CLI prints."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return f"wrote {target}"


def _cmd_table(args: argparse.Namespace) -> str:
    builder, caption = TABLES[args.artefact]
    headers, rows = builder()
    if args.export:
        return f"wrote {write_artefact(args.export, headers, rows)}"
    return render_table(headers, rows, caption=caption)


def _cmd_figure(args: argparse.Namespace) -> str:
    panels = FIGURES[args.artefact]()
    if args.chart:
        from repro.analysis.ascii_chart import series_chart

        return "\n\n".join(
            series_chart(panel.x_values, panel.series, title=panel.title)
            for panel in panels
        )
    if args.export:
        return _write(args.export, figure_json(panels))
    return figure_text(panels)


def _cmd_headlines(_args: argparse.Namespace) -> str:
    return headline_table(compare_headlines())


def _cmd_sensitivity(args: argparse.Namespace) -> str:
    baseline = headline_under(DEFAULT_CALIBRATION)
    rows = []
    for row in sensitivity_sweep(factor=args.factor):
        rows.append(
            [row.field, row.low["mercury_tps_x"], row.high["mercury_tps_x"],
             f"{row.max_relative_swing(baseline):.0%}",
             "yes" if row.conclusions_hold(baseline) else "NO"]
        )
    return render_table(
        [f"constant (x{args.factor} both ways)", "Mercury TPSx lo", "hi",
         "max swing", "conclusions hold"],
        rows,
        caption="Calibration sensitivity",
    )


def _cmd_thermal(args: argparse.Namespace) -> str:
    report = thermal_report(ServerDesign(stack=_stack_for(args.family, args.cores)))
    return (
        f"{report.name}: {report.stacks} stacks, server TDP "
        f"{report.server_tdp_w:.0f} W, {report.per_stack_tdp_w:.2f} W/stack "
        f"({report.power_density_w_per_cm2:.2f} W/cm^2), passive cooling "
        f"{'OK' if report.passively_coolable else 'INSUFFICIENT'} "
        f"(limit {report.passive_limit_w:.0f} W)"
    )


def _cmd_evaluate(args: argparse.Namespace) -> str:
    design = ServerDesign(stack=_stack_for(args.family, args.cores))
    point = OperatingPoint(verb=args.verb.upper(), value_bytes=parse_size(args.size))
    metrics = evaluate_server(design, point)
    return (
        f"{metrics.name} @ {args.verb.upper()} {args.size}B: "
        f"{metrics.stacks} stacks ({design.binding_constraint}-limited), "
        f"{metrics.cores} cores, {metrics.density_gb:.0f} GB, "
        f"{metrics.power_w:.0f} W, {metrics.tps / 1e6:.2f} MTPS, "
        f"{metrics.ktps_per_watt:.1f} KTPS/W, {metrics.ktps_per_gb:.2f} KTPS/GB"
    )


def _cmd_plan(args: argparse.Namespace) -> str:
    demand = Demand(
        dataset_gb=args.dataset_gb,
        peak_tps=args.tps,
        value_bytes=parse_size(args.value_bytes),
    )
    point = OperatingPoint(value_bytes=demand.value_bytes)
    candidates = [
        candidate_from_design(
            ServerDesign(stack=mercury_stack(32)), capex_usd=args.capex_3d, point=point
        ),
        candidate_from_design(
            ServerDesign(stack=iridium_stack(32)), capex_usd=args.capex_3d, point=point
        ),
        candidate_from_baseline(MEMCACHED_BAGS, capex_usd=args.capex_commodity),
    ]
    rows = []
    for candidate in candidates:
        plan = plan_fleet(candidate, demand)
        rows.append(
            [candidate.name, plan.servers, plan.binding,
             plan.cost.tco_usd / 1e3, plan.tier_rack_units,
             plan.cost.usd_per_gb]
        )
    best = cheapest_plan(candidates, demand)
    table = render_table(
        ["Server", "Count", "Bound by", "TCO (k$)", "Rack units", "$/GB"],
        rows,
        caption=(
            f"Fleet plan: {demand.dataset_gb:.0f} GB dataset, "
            f"{demand.peak_tps / 1e6:.1f} MTPS peak, {demand.value_bytes}B values"
        ),
    )
    return table + f"\n\nCheapest: {best.candidate.name} ({best.servers} servers)"


def _cmd_pareto(args: argparse.Namespace) -> str:
    from repro.analysis.pareto import pareto_frontier
    from repro.units import GB

    objectives = tuple(args.objectives.split(","))
    frontier = pareto_frontier(objectives)
    rows = []
    for point in frontier:
        metrics = point.metrics
        rows.append(
            [metrics.name, metrics.stacks, metrics.density_gb,
             round(metrics.power_w), metrics.tps / 1e6,
             metrics.ktps_per_watt]
        )
    return render_table(
        ["Design", "Stacks", "GB", "W", "MTPS", "KTPS/W"],
        rows,
        caption=f"Pareto frontier on ({args.objectives}) — "
                f"{len(frontier)} of 36 designs survive",
    )


def _cmd_telemetry(args: argparse.Namespace) -> str:
    from repro.telemetry import (
        SimProfiler,
        SloMonitor,
        TelemetrySession,
        TimeSeriesRecorder,
        default_burn_rules,
        paper_sla_objectives,
        summary_table,
        write_prometheus,
        write_timeseries_jsonl,
        write_trace_jsonl,
    )

    _scenario, workload, options = _run_setup(args, args.scenario or "baseline")
    system = _system(args)
    telemetry = TelemetrySession(max_traces=args.trace_limit)

    objectives = paper_sla_objectives(
        deadline_s=args.slo_deadline_us * 1e-6, target=args.slo_target
    )
    slo = SloMonitor(
        objectives,
        default_burn_rules(
            objectives,
            short_window_s=args.duration / 12,
            long_window_s=args.duration / 4,
            threshold=args.burn_threshold,
        ),
        resolution_s=args.duration / 24,
        registry=telemetry.registry,
    )
    interval = args.interval if args.interval else args.duration / 20
    recorder = TimeSeriesRecorder(telemetry.registry, interval_s=interval)
    profiler = SimProfiler() if args.profile else None

    options = options.with_instruments(
        telemetry=telemetry, timeseries=recorder, slo=slo, profiler=profiler
    )
    if args.batch_max > 1:
        import dataclasses

        from repro.kvstore.batching import BatchPolicy

        options = dataclasses.replace(
            options,
            batching=BatchPolicy(
                batch_max=args.batch_max,
                linger_s=args.batch_linger_us * 1e-6,
            ),
        )
    results = system.run(workload, options)
    out = Path(args.out)
    trace_path = write_trace_jsonl(out / "trace.jsonl", telemetry.tracer)
    metrics_path = write_prometheus(out / "metrics.prom", telemetry.registry)
    series_path = write_timeseries_jsonl(out / "timeseries.jsonl", recorder)
    header = (
        f"{system.stack.name} @ {args.load:.0%} load for {args.duration}s simulated: "
        f"{results.completed} requests, {results.throughput_hz / 1e3:.1f} KTPS, "
        f"mean RTT {results.mean_rtt * 1e6:.0f} us, "
        f"p99 {results.rtt_percentile(0.99) * 1e6:.0f} us, "
        f"hit rate {results.hit_rate:.1%}, {results.mac_drops} MAC drops"
    )
    if args.scenario:
        header += f"\nfault scenario: {args.scenario} (no client resilience)"
    if results.batches:
        header += (
            f"\nbatched path: {results.batches} batches, "
            f"mean size {results.mean_batch_size:.1f}, "
            f"flushes {dict(sorted(results.batch_flush_reasons.items()))}"
        )
    sections = [header, summary_table(telemetry.registry, telemetry.tracer)]
    if results.slo_alerts:
        alert_lines = ["slo alerts (fired once, cleared on recovery):"]
        for alert in results.slo_alerts:
            cleared = (
                f"{alert.cleared_at_s:.3f}s"
                if alert.cleared_at_s is not None
                else "still firing"
            )
            alert_lines.append(
                f"  {alert.rule:20s} fired={alert.fired_at_s:.3f}s "
                f"cleared={cleared} peak_burn={alert.peak_burn:.1f}x"
            )
        sections.append("\n".join(alert_lines))
    else:
        sections.append("slo alerts: none fired")
    if profiler is not None:
        sections.append(profiler.report(top_n=10))
    sections.append(
        f"wrote {trace_path} ({len(telemetry.tracer.traces)} traces), "
        f"{metrics_path}, and {series_path} "
        f"({len(recorder.to_jsonl().splitlines())} snapshots)"
    )
    return "\n\n".join(sections)


def _cmd_power(args: argparse.Namespace) -> str:
    from repro.analysis.ascii_chart import bar_chart
    from repro.power import DEFAULT_BUDGET, DEFAULT_COSTS, DynamicPowerModel
    from repro.telemetry import (
        EnergyMeter,
        TelemetrySession,
        TimeSeriesRecorder,
        write_prometheus,
        write_timeseries_jsonl,
    )

    scenario, workload, options = _run_setup(args, args.scenario)
    system = _system(args)
    stack = system.stack
    design = ServerDesign(stack=stack)
    num_stacks = args.stacks if args.stacks else design.num_stacks
    telemetry = TelemetrySession()
    interval = args.interval if args.interval else args.duration / 20
    recorder = TimeSeriesRecorder(telemetry.registry, interval_s=interval)
    meter = EnergyMeter(
        DynamicPowerModel.for_stack(stack),
        window_s=interval,
        registry=telemetry.registry,
        num_stacks=num_stacks,
        budget_w=DEFAULT_BUDGET.stack_budget_w,
        throttle_derate=args.throttle_derate,
    )
    options = options.with_instruments(
        telemetry=telemetry, timeseries=recorder, energy=meter
    )
    results = system.run(workload, options)
    summary = results.energy

    static_stack_w = design.stack_max_power_w()
    static_server_w = DEFAULT_BUDGET.server_power_w(static_stack_w * num_stacks)
    measured_stack_w = summary["stack_mean_power_w"]
    measured_server_w = summary["server_mean_power_w"]
    header = (
        f"{stack.name} x{num_stacks} @ {args.load:.0%} load for "
        f"{args.duration}s simulated ({scenario.name}): "
        f"{results.completed} requests, {results.throughput_hz / 1e3:.1f} KTPS/stack\n"
        f"measured power: {measured_stack_w:.2f} W/stack "
        f"(static model {static_stack_w:.2f} W, "
        f"{measured_stack_w / static_stack_w - 1.0:+.1%}), "
        f"{measured_server_w:.1f} W wall "
        f"(static {static_server_w:.1f} W)\n"
        f"joules/op {summary['joules_per_op'] * 1e3:.3f} mJ, "
        f"measured TPS/W {summary['measured_tps_per_watt']:.0f}, "
        f"window peak {summary['peak_window_power_w']:.1f} W / "
        f"trough {summary['trough_window_power_w']:.1f} W"
    )

    timeline = meter.timeline()
    timeline_chart = bar_chart(
        [f"{start * 1e3:.0f}ms" for start, _, _ in timeline],
        [server_w for _, _, server_w in timeline],
        title="windowed server power (W)",
    )
    components = {
        name: joules
        for name, joules in summary["components_j"].items()
        if joules > 0
    }
    breakdown_chart = bar_chart(
        list(components),
        list(components.values()),
        title="energy by component (J)",
    )

    tco_measured = DEFAULT_COSTS.energy_cost_usd(measured_server_w)
    tco_static = DEFAULT_COSTS.energy_cost_usd(static_server_w)
    tco = (
        f"energy TCO over {DEFAULT_COSTS.depreciation_years:.0f}y "
        f"(PUE {DEFAULT_COSTS.pue}): ${tco_measured:,.0f} at measured wall "
        f"power vs ${tco_static:,.0f} at the static budget"
    )

    if summary["alerts"]:
        alert_lines = ["power alerts (fired once per sustained violation):"]
        for alert in summary["alerts"]:
            alert_lines.append(
                f"  {alert['rule']:20s} fired={alert['fired_at_s']:.3f}s "
                f"cleared={alert['cleared_at_s']:.3f}s "
                f"peak_burn={alert['peak_burn']:.2f}x"
            )
        if summary["throttle_windows"]:
            alert_lines.append(
                f"  throttled windows: {summary['throttle_windows']} "
                f"(derate {summary['throttle_derate']:.2f})"
            )
        alerts = "\n".join(alert_lines)
    else:
        alerts = (
            f"power alerts: none fired (passive limit "
            f"{meter.passive_limit_w:.0f} W/stack, budget "
            f"{DEFAULT_BUDGET.stack_budget_w:.0f} W)"
        )

    out = Path(args.out)
    metrics_path = write_prometheus(out / "metrics.prom", telemetry.registry)
    series_path = write_timeseries_jsonl(out / "timeseries.jsonl", recorder)
    footer = f"wrote {metrics_path} and {series_path}"
    return "\n\n".join(
        [header, timeline_chart, breakdown_chart, tco, alerts, footer]
    )


def _cmd_trace(args: argparse.Namespace) -> str:
    import json

    from dataclasses import replace

    from repro.faults import DEFAULT_RESILIENCE, NO_RESILIENCE
    from repro.replication.config import ReplicationConfig
    from repro.telemetry import (
        TelemetrySession,
        compute_trace_digest,
        tail_attribution,
        validate_trace_events,
        waterfall,
        write_trace_events,
        write_trace_jsonl,
    )

    scenario, workload, options = _run_setup(args, args.scenario or "baseline")
    system = _system(args)
    telemetry = TelemetrySession(
        max_traces=args.trace_limit,
        slo_deadline_s=args.slo_deadline_us * 1e-6,
        sampling_seed=args.seed,
    )
    options = options.with_instruments(telemetry=telemetry)
    if args.replicas > 1:
        options = replace(
            options,
            replication=ReplicationConfig(
                n=args.replicas,
                r=min(args.read_quorum, args.replicas),
                w=min(args.write_quorum, args.replicas),
            ),
        )
    if args.no_resilience:
        options = replace(options, resilience=NO_RESILIENCE)
    elif options.resilience is None and options.faults is not None:
        options = replace(options, resilience=DEFAULT_RESILIENCE)
    results = system.run(workload, options)
    tracer = telemetry.tracer
    out = Path(args.out)
    events_path = write_trace_events(out / "trace_events.json", tracer)
    jsonl_path = write_trace_jsonl(out / "trace.jsonl", tracer)
    # Self-check the artefact we just wrote — the same gate CI runs.
    event_count = validate_trace_events(json.loads(events_path.read_text()))
    digest = compute_trace_digest(tracer)
    (out / "digest.json").write_text(
        json.dumps(digest, indent=2, sort_keys=True) + "\n"
    )
    header = (
        f"{system.stack.name} @ {args.load:.0%} load for {args.duration}s simulated "
        f"(scenario {scenario.name!r}): {results.completed} requests, "
        f"{results.failed} failed, p99 RTT "
        f"{results.rtt_percentile(0.99) * 1e6:.0f} us; "
        f"{tracer.committed} traces committed, {len(tracer.traces)} retained "
        f"({tracer.slo_violations} SLO violators, all kept)"
    )
    sections = [header]
    finished = [t for t in tracer.traces if t.end_s is not None]
    if finished:
        sections.append(tail_attribution(tracer.traces).render())
        slowest = max(finished, key=lambda t: (t.rtt_s, t.request_id))
        sections.append(
            "slowest retained trace (# = on the critical path):\n"
            + waterfall(slowest)
        )
    sections.append(
        f"wrote {events_path} ({event_count} events, schema OK), "
        f"{jsonl_path}, and {out / 'digest.json'}"
    )
    return "\n\n".join(sections)


def _cmd_faults(args: argparse.Namespace) -> str:
    import json

    from dataclasses import replace

    from repro.faults import DEFAULT_RESILIENCE, NO_RESILIENCE, PRESETS, FaultSchedule

    if args.list:
        lines = ["available fault scenarios (--scenario NAME):"]
        for name, schedule in PRESETS.items():
            kinds = ", ".join(sorted({e.kind for e in schedule.events}))
            lines.append(f"  {name:22s} {len(schedule.events)} events ({kinds})")
        return "\n".join(lines)

    scenario, workload, options = _run_setup(
        args, args.scenario, window_s=args.window
    )
    if args.schedule:
        schedule = FaultSchedule.load(args.schedule)
    else:
        schedule = scenario.fault_schedule()
    policy = NO_RESILIENCE if args.no_resilience else DEFAULT_RESILIENCE
    deadline_s = args.deadline_us * 1e-6

    base_system = _system(args)
    base_options = replace(options, faults=None)
    base = base_system.run(workload, base_options)
    faulty = _system(args).run(
        workload, replace(base_options, faults=schedule, resilience=policy)
    )

    restarts = [e.at_s for e in schedule.events if e.kind == "node_restart"]
    recovery = None
    if restarts:
        recovery = faulty.recovery_time_s(
            base.hit_rate_after(restarts[-1]), after_s=restarts[-1]
        )
    stats = {
        "scenario": schedule.name,
        "resilience": "off" if args.no_resilience else "on",
        "baseline": {
            "completed": base.completed,
            "hit_rate": round(base.hit_rate, 4),
            "sla_violation_rate": round(base.sla_violation_rate(deadline_s), 6),
        },
        "faulted": {
            "completed": faulty.completed,
            "failed": faulty.failed,
            "hit_rate": round(faulty.hit_rate, 4),
            "sla_violation_rate": round(faulty.sla_violation_rate(deadline_s), 6),
            "retries": faulty.retries,
            "timeouts": faulty.fault_timeouts,
            "failovers": faulty.failovers,
            "hedges": faulty.hedges,
        },
        "recovery_time_s": recovery,
    }
    if args.export:
        return _write(args.export, json.dumps(stats, indent=2))
    lines = [
        f"fault scenario {schedule.name!r} on {base_system.stack.name} "
        f"({args.cores} cores, {args.load:.0%} load, {args.duration}s simulated, "
        f"resilience {stats['resilience']}):",
        "",
        f"{'':24s}{'no faults':>12s}{'faulted':>12s}",
        f"{'completed':24s}{base.completed:>12d}{faulty.completed:>12d}",
        f"{'failed':24s}{0:>12d}{faulty.failed:>12d}",
        f"{'hit rate':24s}{base.hit_rate:>12.1%}{faulty.hit_rate:>12.1%}",
        (
            f"{'SLA violations':24s}"
            f"{base.sla_violation_rate(deadline_s):>12.2%}"
            f"{faulty.sla_violation_rate(deadline_s):>12.2%}"
            f"   (deadline {args.deadline_us:.0f} us)"
        ),
        "",
        f"client: {faulty.retries} retries, {faulty.fault_timeouts} timeouts, "
        f"{faulty.failovers} failovers, {faulty.hedges} hedged GETs",
    ]
    if recovery is not None:
        lines.append(
            f"recovered to within 5% of baseline hit rate "
            f"{recovery:.2f}s after the restart"
        )
    elif restarts:
        lines.append("hit rate did NOT recover to within 5% of baseline")
    return "\n".join(lines)


def _cmd_replication(args: argparse.Namespace) -> str:
    import json

    from dataclasses import replace

    from repro.faults import DEFAULT_RESILIENCE, FaultSchedule
    from repro.replication.config import ReplicationConfig

    scenario, workload, options = _run_setup(
        args, args.scenario, window_s=args.window
    )
    if args.schedule:
        schedule = FaultSchedule.load(args.schedule)
    else:
        schedule = scenario.fault_schedule()
    base_options = replace(options, faults=None, resilience=DEFAULT_RESILIENCE)
    replica_counts = sorted(set(int(n) for n in args.replicas.split(",")))
    sweep = []
    for n in replica_counts:
        config = ReplicationConfig(
            n=n, r=min(args.read_quorum, n), w=min(args.write_quorum, n)
        )
        base = _system(args).run(workload, replace(base_options, replication=config))
        faulted = _system(args).run(
            workload,
            replace(base_options, replication=config, faults=schedule),
        )
        base_windows = dict(base.hit_rate_timeline())
        availability = min(
            (rate / base_windows[start] if base_windows.get(start) else 1.0)
            for start, rate in faulted.hit_rate_timeline()
        )
        sweep.append(
            {
                "n": n, "r": config.r, "w": config.w,
                "completed": faulted.completed,
                "failed": faulted.failed,
                "puts": faulted.puts,
                "replica_puts": faulted.replica_puts,
                "write_amplification": round(faulted.write_amplification, 3),
                "min_availability": round(availability, 4),
                "hit_rate": round(faulted.hit_rate, 4),
                "redirected_reads": faulted.redirected_reads,
                "read_repairs": faulted.read_repairs,
                "hints_queued": faulted.hints_queued,
                "hints_replayed": faulted.hints_replayed,
                "antientropy_sweeps": faulted.antientropy_sweeps,
                "antientropy_repairs": faulted.antientropy_repairs,
            }
        )
    if args.export:
        return _write(
            args.export,
            json.dumps({"scenario": schedule.name, "sweep": sweep}, indent=2),
        )
    lines = [
        f"replication sweep under {schedule.name!r} "
        f"({args.cores} cores, {args.load:.0%} load, {args.duration}s simulated; "
        f"min availability = worst windowed hit rate vs the fault-free run):",
        "",
        f"{'N/R/W':>6s}{'amp':>7s}{'min avail':>11s}{'hit rate':>10s}"
        f"{'failed':>8s}{'redirect':>10s}{'repairs':>9s}{'hints':>7s}"
        f"{'ae-fixes':>9s}",
    ]
    for row in sweep:
        nrw = f"{row['n']}/{row['r']}/{row['w']}"
        lines.append(
            f"{nrw:>6s}"
            f"{row['write_amplification']:>7.2f}"
            f"{row['min_availability']:>11.1%}{row['hit_rate']:>10.1%}"
            f"{row['failed']:>8d}{row['redirected_reads']:>10d}"
            f"{row['read_repairs']:>9d}{row['hints_replayed']:>7d}"
            f"{row['antientropy_repairs']:>9d}"
        )
    lines.append("")
    lines.append(
        "replication buys availability through the crash at ~N x write cost."
    )
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> str:
    import json
    import sys

    from repro.exp import (
        DEFAULT_CACHE_DIR,
        ExperimentSpec,
        ResultCache,
        StackSpec,
        design_point_grid,
        get_scenario,
        run_experiments,
    )
    from repro.telemetry.metrics import MetricsRegistry
    from repro.units import MB

    if args.kind == "fig7":
        specs = design_point_grid(
            name="fig7", verb=args.verb, value_bytes=parse_size(args.size)
        ).expand()
    elif args.kind == "sensitivity":
        from repro.analysis.sensitivity import PERTURBABLE_FIELDS

        specs = [
            ExperimentSpec(
                kind="headline",
                verb=args.verb,
                value_bytes=parse_size(args.size),
                calibration_scale=((name, scale),),
                label=f"sensitivity[{name} x{scale:g}]",
            )
            for name in PERTURBABLE_FIELDS
            for scale in (1.0 / args.factor, args.factor)
        ]
    else:  # full-system
        scenario = get_scenario(args.scenario)
        specs = [
            scenario.to_spec(
                StackSpec(
                    family=args.family,
                    cores=cores,
                    memory_per_core_bytes=args.memory_mb * MB,
                ),
                offered_rate_hz=rate,
                duration_s=args.duration,
                seed=args.seed,
                value_bytes=parse_size(args.size),
                label=f"{scenario.name}[cores={cores},rate={rate:g}]",
            )
            for cores in (int(c) for c in args.cores_list.split(","))
            for rate in (float(r) for r in args.rates.split(","))
        ]
        if args.trace_digest:
            from dataclasses import replace

            # Opting in changes the spec (and so the cache key): digest
            # cells and plain cells never collide.
            specs = [
                replace(spec, options=replace(spec.options, trace_digest=True))
                for spec in specs
            ]
        if args.fidelity:
            from dataclasses import replace

            from repro.sim.fidelity import FidelityPolicy

            # Same cache-key story as --trace-digest: fidelity rides on
            # the options, so hybrid cells never collide with full-DES
            # cells.
            policy = FidelityPolicy(mode=args.fidelity)
            specs = [
                replace(spec, options=replace(spec.options, fidelity=policy))
                for spec in specs
            ]

    cache = None if args.no_cache else ResultCache(
        args.cache_dir if args.cache_dir else DEFAULT_CACHE_DIR
    )
    registry = MetricsRegistry()
    progress = None
    if args.progress:

        def progress(index, total, spec, status):
            print(
                f"[{index + 1:>{len(str(total))}}/{total}] {status:9s}"
                f"{spec.label}",
                file=sys.stderr,
            )

    report = run_experiments(
        specs,
        parallel=args.parallel,
        cache=cache,
        registry=registry,
        progress=progress,
    )

    stats = report.stats()
    stats["kind"] = args.kind
    stats["parallel"] = args.parallel
    stats["cache_dir"] = str(cache.root) if cache is not None else None
    stats["cache_entries"] = len(cache) if cache is not None else 0

    lines = []
    if args.export:
        lines.append(_write(
            args.export,
            json.dumps(report.labelled_results(), indent=1, sort_keys=True)
            + "\n",
        ))
    if args.stats_export:
        lines.append(_write(
            args.stats_export,
            json.dumps(stats, indent=1, sort_keys=True) + "\n",
        ))
    workers = (
        "serial"
        if not args.parallel or args.parallel <= 1
        else f"{args.parallel} workers"
    )
    lines.insert(
        0,
        f"{report.jobs} {args.kind} jobs in {report.wall_s:.2f}s ({workers}): "
        f"{report.cache_hits} cache hits, {report.executed} executed, "
        f"cache {'off' if cache is None else 'at ' + str(cache.root)}",
    )
    if not args.export:
        for spec in report.specs:
            lines.append(f"  {spec.label}")
    return "\n".join(lines)


def _cmd_flashstore(args: argparse.Namespace) -> str:
    import json
    from dataclasses import replace

    from repro.flashstore.compaction import (
        TieredStoreConfig,
        baseline_ftl_replay,
    )
    from repro.kvstore.items import ITEM_OVERHEAD_BYTES
    from repro.memory.endurance import endurance_report
    from repro.sim.full_system import FullSystemStack
    from repro.sim.run_options import RunOptions
    from repro.units import MB
    from repro.workloads.distributions import fixed_size
    from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

    value_bytes = parse_size(args.size)
    put_fractions = sorted(float(f) for f in args.put_fractions.split(","))
    if any(not 0.0 <= f <= 1.0 for f in put_fractions):
        raise SystemExit("--put-fractions values must be in [0, 1]")
    config = TieredStoreConfig(log_segment_pages=args.segment_pages)

    def build() -> FullSystemStack:
        return FullSystemStack(
            stack=iridium_stack(cores=args.cores),
            memory_per_core_bytes=args.memory_mb * MB,
            seed=args.seed,
        )

    device = build().stack.flash
    item_bytes = ITEM_OVERHEAD_BYTES + 64 + value_bytes
    rows = []
    for fraction in put_fractions:
        workload = WorkloadSpec(
            name=f"flashstore-{fraction:g}put",
            get_fraction=1.0 - fraction,
            key_population=args.keys,
            value_sizes=fixed_size(value_bytes),
        )
        options = RunOptions(
            offered_rate_hz=args.rate,
            duration_s=args.duration,
            warmup_requests=args.warmup,
        )
        base = build().run(workload, options)
        tiered = build().run(
            workload, replace(options, flashstore=config)
        )
        summary = tiered.flashstore
        # Baseline WA: replay a same-distribution PUT stream through the
        # page-per-item FTL the latency model is calibrated against, in
        # the same bytes-programmed-per-host-byte units the tiered store
        # reports.
        generator = WorkloadGenerator(workload, seed=args.seed)
        put_keys = []
        while len(put_keys) < summary["host_puts"]:
            request = generator.next_request()
            if request.verb == "PUT":
                put_keys.append(request.key)
        replay = baseline_ftl_replay(put_keys, item_bytes, device)
        put_rate = summary["host_puts"] / args.duration
        base_life = endurance_report(
            device,
            put_rate,
            value_bytes,
            write_amplification=max(1.0, replay["write_amplification"]),
        )
        tiered_life = endurance_report(
            device,
            put_rate,
            value_bytes,
            write_amplification=max(1.0, summary["write_amplification"]),
        )
        rows.append(
            {
                "put_fraction": fraction,
                "baseline_tps": round(base.throughput_hz, 1),
                "tiered_tps": round(tiered.throughput_hz, 1),
                "speedup": round(
                    tiered.throughput_hz / base.throughput_hz, 2
                )
                if base.throughput_hz
                else float("inf"),
                "baseline_write_amplification": round(
                    replay["write_amplification"], 3
                ),
                "tiered_write_amplification": round(
                    summary["write_amplification"], 3
                ),
                "read_amplification": round(
                    summary["read_amplification"], 3
                ),
                "index_bytes_per_key": round(
                    summary["index_bytes_per_key"], 2
                ),
                "baseline_lifetime_years": round(
                    base_life.lifetime_years, 2
                ),
                "tiered_lifetime_years": round(
                    tiered_life.lifetime_years, 2
                ),
                "conversions": summary["conversions"],
                "compactions": summary["compactions"],
            }
        )
    if args.export:
        return _write(args.export, json.dumps(
            {
                "cores": args.cores,
                "rate_hz": args.rate,
                "duration_s": args.duration,
                "value_bytes": value_bytes,
                "segment_pages": args.segment_pages,
                "sweep": rows,
            },
            indent=2,
        ))
    lines = [
        f"tiered flash store vs page-per-item FTL on iridium "
        f"({args.cores} cores, {args.rate:g} Hz offered, "
        f"{args.duration}s simulated, {value_bytes}B values; WA in "
        f"flash bytes programmed per host byte written):",
        "",
        f"{'PUT%':>6s}{'base TPS':>10s}{'tier TPS':>10s}{'speedup':>9s}"
        f"{'base WA':>9s}{'tier WA':>9s}{'RA':>7s}{'B/key':>8s}"
        f"{'base yrs':>10s}{'tier yrs':>10s}",
    ]
    for row in rows:
        lines.append(
            f"{row['put_fraction']:>6.0%}"
            f"{row['baseline_tps']:>10.0f}{row['tiered_tps']:>10.0f}"
            f"{row['speedup']:>8.1f}x"
            f"{row['baseline_write_amplification']:>9.2f}"
            f"{row['tiered_write_amplification']:>9.2f}"
            f"{row['read_amplification']:>7.2f}"
            f"{row['index_bytes_per_key']:>8.1f}"
            f"{row['baseline_lifetime_years']:>10.1f}"
            f"{row['tiered_lifetime_years']:>10.1f}"
        )
    lines.append("")
    lines.append(
        "log packing amortises page programs the baseline pays per item; "
        "the lifetime columns feed the wear projection."
    )
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.analysis.report_builder import build_report

    written = build_report(args.out)
    return f"wrote {len(written)} artefacts under {args.out}/"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts from the Mercury/Iridium paper reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_builder, caption) in TABLES.items():
        p = sub.add_parser(name, help=caption)
        p.add_argument("--export", help="write .csv or .json instead of text")
        p.set_defaults(func=_cmd_table, artefact=name)
    for name in FIGURES:
        p = sub.add_parser(name, help=f"Figure data series for {name}")
        p.add_argument("--export", help="write a .json series file instead of text")
        p.add_argument("--chart", action="store_true",
                       help="render ASCII bar charts instead of a table")
        p.set_defaults(func=_cmd_figure, artefact=name)

    p = sub.add_parser("headlines", help="abstract headline ratios, paper vs measured")
    p.set_defaults(func=_cmd_headlines)

    p = sub.add_parser("sensitivity", help="calibration sensitivity sweep")
    p.add_argument("--factor", type=float, default=1.5)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("thermal", help="per-stack thermal report")
    p.add_argument("--family", choices=["mercury", "iridium"], default="mercury")
    p.add_argument("--cores", type=int, default=32)
    p.set_defaults(func=_cmd_thermal)

    p = sub.add_parser("evaluate", help="evaluate one server design")
    p.add_argument("--family", choices=["mercury", "iridium"], default="mercury")
    p.add_argument("--cores", type=int, default=32)
    p.add_argument("--verb", choices=["GET", "PUT", "get", "put"], default="GET")
    p.add_argument("--size", default="64", help="value size (64, 4K, 1M, ...)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "telemetry",
        help="full-system run with tracing on: JSONL trace + metrics snapshot",
    )
    _add_run_flags(p, cores=8, load=0.6, duration=0.2, memory_mb=16)
    p.add_argument("--trace-limit", type=int, default=100_000,
                   help="max traces retained for the JSONL dump")
    p.add_argument("--out", default="telemetry-out",
                   help="directory for trace.jsonl, metrics.prom, "
                        "timeseries.jsonl")
    p.add_argument("--profile", action="store_true",
                   help="attach the DES hot-path profiler and print its report")
    p.add_argument("--interval", type=float, default=None,
                   help="time-series snapshot cadence in simulated seconds "
                        "(default duration/20)")
    p.add_argument("--scenario", choices=sorted(_FAULT_PRESETS), default=None,
                   help="inject a fault preset (no client resilience) so the "
                        "SLO burn timeline shows the fault")
    p.add_argument("--slo-deadline-us", type=float, default=1100.0,
                   help="latency SLO deadline in microseconds "
                        "(paper SLA: 1100)")
    p.add_argument("--slo-target", type=float, default=0.999,
                   help="good fraction promised by both SLOs")
    p.add_argument("--burn-threshold", type=float, default=10.0,
                   help="error-budget burn multiple that fires an alert")
    p.add_argument("--batch-max", type=int, default=1,
                   help="coalesce up to this many requests per core into "
                        "one batched frame (1 = serial path)")
    p.add_argument("--batch-linger-us", type=float, default=100.0,
                   help="max microseconds the first rider waits for the "
                        "batch to fill (only with --batch-max > 1)")
    p.set_defaults(func=_cmd_telemetry)

    p = sub.add_parser(
        "power",
        help="energy-metered full-system run: power timeline, per-component "
             "energy, measured-vs-static watts, TCO at measured energy",
    )
    _add_run_flags(p, cores=8, load=0.9, duration=0.2, memory_mb=16)
    p.add_argument("--scenario", default="energy-diurnal",
                   help="named scenario to run (default energy-diurnal; "
                        "'baseline' measures flat load)")
    p.add_argument("--stacks", type=int, default=None,
                   help="stacks to extrapolate the enclosure to "
                        "(default: the 1.5U packing for this design)")
    p.add_argument("--interval", type=float, default=None,
                   help="power window in simulated seconds "
                        "(default duration/20)")
    p.add_argument("--throttle-derate", type=float, default=1.0,
                   help="frequency factor applied while thermally "
                        "throttled (1.0 = measure only, never perturb)")
    p.add_argument("--out", default="power-out",
                   help="directory for metrics.prom and timeseries.jsonl")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser(
        "trace",
        help="full-system run with causal tracing: Perfetto trace-event "
        "JSON, tail-based sampling, critical-path attribution table, "
        "ASCII waterfall of the slowest trace",
    )
    _add_run_flags(p, cores=4, load=0.5, duration=0.5, memory_mb=8)
    p.add_argument("--scenario", choices=sorted(_FAULT_PRESETS), default=None,
                   help="inject a fault preset (client resilience on)")
    p.add_argument("--replicas", type=int, default=1,
                   help="replication factor N (>1 turns on quorum writes)")
    p.add_argument("--read-quorum", type=int, default=2,
                   help="read quorum R (capped at N)")
    p.add_argument("--write-quorum", type=int, default=2,
                   help="write quorum W (capped at N)")
    p.add_argument("--no-resilience", action="store_true",
                   help="disable client retries/failover under faults")
    p.add_argument("--trace-limit", type=int, default=5_000,
                   help="tail-sampling retention cap (SLO violators always kept)")
    p.add_argument("--slo-deadline-us", type=float, default=1100.0,
                   help="RTT deadline marking a trace as an SLO violator "
                        "(paper SLA: 1100)")
    p.add_argument("--out", default="trace-out",
                   help="directory for trace_events.json, trace.jsonl, "
                        "digest.json")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "faults",
        help="replay a fault schedule against the full-system DES, "
        "with and without client resilience",
    )
    p.add_argument("--scenario", choices=sorted(_FAULT_PRESETS), default="crash-restart-lossy",
                   help="named fault schedule to replay")
    p.add_argument("--schedule", help="path to a fault-schedule JSON file "
                   "(overrides --scenario)")
    p.add_argument("--list", action="store_true", help="list named scenarios")
    _add_run_flags(p, cores=4, load=0.5, duration=4.0, memory_mb=8)
    p.add_argument("--window", type=float, default=0.25,
                   help="hit-rate timeline bucket width in seconds")
    p.add_argument("--deadline-us", type=float, default=1000.0,
                   help="SLA deadline in microseconds")
    p.add_argument("--no-resilience", action="store_true",
                   help="disable client retries/failover (faults become failures)")
    p.add_argument("--export", help="write the comparison as JSON instead of text")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "replication",
        help="quorum-replication sweep: availability vs write amplification "
        "across N under a crash schedule",
    )
    p.add_argument("--replicas", default="1,2,3",
                   help="comma-separated replication factors to sweep")
    p.add_argument("--read-quorum", type=int, default=2,
                   help="read quorum R (capped at N per run)")
    p.add_argument("--write-quorum", type=int, default=2,
                   help="write quorum W (capped at N per run)")
    p.add_argument("--scenario", choices=sorted(_FAULT_PRESETS),
                   default="crash-restart",
                   help="named fault schedule to replay")
    p.add_argument("--schedule", help="path to a fault-schedule JSON file "
                   "(overrides --scenario)")
    _add_run_flags(p, cores=4, load=0.3, duration=4.0, memory_mb=8)
    p.add_argument("--window", type=float, default=0.25,
                   help="hit-rate timeline bucket width in seconds")
    p.add_argument("--export", help="write the sweep as JSON instead of text")
    p.set_defaults(func=_cmd_replication)

    p = sub.add_parser(
        "sweep",
        help="run an experiment grid through the parallel engine "
        "(content-addressed result caching; serial and parallel runs "
        "are bit-identical)",
    )
    p.add_argument("--kind", choices=["fig7", "sensitivity", "full-system"],
                   default="fig7",
                   help="grid to run: the Fig. 7/8 design-point sweep, the "
                        "calibration sensitivity ablation, or a full-system "
                        "DES grid over cores x offered rate")
    p.add_argument("--parallel", type=int, default=None,
                   help="worker processes (default: run in-process)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the result cache entirely")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory "
                        "(default benchmarks/out/expcache)")
    p.add_argument("--export", help="write results as deterministic JSON")
    p.add_argument("--stats-export",
                   help="write run stats (hits/misses/wall time) as JSON")
    p.add_argument("--progress", action="store_true",
                   help="print one line per job to stderr as it finishes")
    p.add_argument("--verb", choices=["GET", "PUT"], default="GET")
    p.add_argument("--size", default="64", help="value size (64, 4K, ...)")
    p.add_argument("--factor", type=float, default=1.5,
                   help="sensitivity perturbation factor")
    p.add_argument("--scenario", default="baseline",
                   help="full-system scenario name (see repro faults --list; "
                        "plus 'baseline')")
    p.add_argument("--trace-digest", action="store_true",
                   help="full-system jobs run with causal tracing on and "
                        "store a critical-path digest in each grid cell")
    p.add_argument("--fidelity", choices=["full", "fluid", "hybrid"],
                   default=None,
                   help="full-system simulation fidelity: 'hybrid' "
                        "fast-forwards quiescent stretches through the "
                        "fluid model (DES around faults), 'fluid' skips "
                        "the runtime tripwires, 'full' pins pure DES "
                        "(default: plain runs without a fidelity policy)")
    p.add_argument("--family", choices=["mercury", "iridium"],
                   default="mercury")
    p.add_argument("--cores-list", default="2,4",
                   help="comma-separated cores-per-stack values "
                        "(full-system grids)")
    p.add_argument("--rates", default="20000,40000",
                   help="comma-separated offered rates in Hz "
                        "(full-system grids)")
    p.add_argument("--duration", type=float, default=0.5,
                   help="simulated seconds per full-system job")
    p.add_argument("--memory-mb", type=int, default=8,
                   help="per-core store budget in MB (full-system grids)")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "flashstore",
        help="PUT-fraction sweep of the SILT-style tiered flash store vs "
        "the page-per-item FTL baseline: TPS, write/read amplification, "
        "index memory, and endurance lifetime projections",
    )
    p.add_argument("--put-fractions", default="0.1,0.5,0.9",
                   help="comma-separated PUT fractions to sweep")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--rate", type=float, default=20_000.0,
                   help="offered rate in Hz (pick above baseline PUT "
                        "capacity to expose the throughput gap)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="simulated seconds per run")
    p.add_argument("--size", default="64", help="value size (64, 4K, ...)")
    p.add_argument("--keys", type=int, default=20_000,
                   help="distinct-key population")
    p.add_argument("--memory-mb", type=int, default=8,
                   help="per-core store budget in MB")
    p.add_argument("--warmup", type=int, default=10_000,
                   help="warmup PUTs outside simulated time")
    p.add_argument("--segment-pages", type=int, default=256,
                   help="write-tier log segment size in flash pages")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--export", help="write the sweep as JSON instead of text")
    p.set_defaults(func=_cmd_flashstore)

    p = sub.add_parser("pareto", help="Pareto frontier over the design space")
    p.add_argument(
        "--objectives",
        default="tps,density_gb",
        help="comma-separated: tps, tps_per_watt, tps_per_gb, density_gb, low_power",
    )
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("report", help="regenerate every artefact into a directory")
    p.add_argument("--out", default="report", help="output directory")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("plan", help="capacity-plan a key-value tier")
    p.add_argument("--dataset-gb", type=float, required=True)
    p.add_argument("--tps", type=float, required=True)
    p.add_argument("--value-bytes", default="64")
    p.add_argument("--capex-3d", type=float, default=8_000.0)
    p.add_argument("--capex-commodity", type=float, default=6_000.0)
    p.set_defaults(func=_cmd_plan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    print(args.func(args))
    return 0
