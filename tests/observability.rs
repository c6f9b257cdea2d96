//! Observability-layer guarantees, pinned as integration tests:
//!
//! 1. **Null is free.** Running an engine through its `*_observed` entry
//!    point with a [`NullRecorder`] must be *byte-identical* to the plain
//!    entry point — same outcomes, same `EngineStats`, same RNG stream,
//!    same `ScheduleTrace`. The goldens in `tests/golden.rs` therefore
//!    keep protecting the observed code path too.
//! 2. **Reports are deterministic.** Two observed runs of the same
//!    deterministic engine produce byte-identical counter / gauge /
//!    histogram sections in the `--obs-json` report; only the `phases`
//!    (wall-clock) section may differ.
//! 3. **Counters are u64-exact.** The per-worker steal telemetry must sum
//!    to the engine's aggregate counters with no saturation.

use parflow::core::{
    run_priority, run_priority_observed, run_worksteal, run_worksteal_observed, Fifo, SimConfig,
    StealPolicy,
};
use parflow::obs::{AggregatingRecorder, NullRecorder, Recorder};
use parflow::prelude::*;

fn probe_instance() -> Instance {
    WorkloadSpec::paper_fig2(DistKind::Bing, 600.0, 500, 0xC0FFEE).generate()
}

/// Field-by-field equality for `SimResult` (it carries no `PartialEq`).
fn assert_results_identical(a: &parflow::core::SimResult, b: &parflow::core::SimResult) {
    assert_eq!(a.m, b.m);
    assert_eq!(a.speed, b.speed);
    assert_eq!(a.total_rounds, b.total_rounds);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.fault_events, b.fault_events);
}

#[test]
fn null_recorder_keeps_worksteal_byte_identical() {
    let inst = probe_instance();
    // Trace recording exercises the slow path; free steals the fast path.
    for cfg in [
        SimConfig::new(8).with_free_steals(),
        SimConfig::new(8).with_free_steals().with_trace(),
        SimConfig::new(8).with_trace(),
    ] {
        for policy in [StealPolicy::AdmitFirst, StealPolicy::StealKFirst { k: 16 }] {
            let (plain, plain_trace) = run_worksteal(&inst, &cfg, policy, 12345);
            let (observed, observed_trace) =
                run_worksteal_observed(&inst, &cfg, policy, 12345, &mut NullRecorder);
            assert_results_identical(&plain, &observed);
            assert_eq!(plain_trace, observed_trace, "trace must be byte-identical");
        }
    }
}

#[test]
fn null_recorder_keeps_centralized_byte_identical() {
    let inst = probe_instance();
    for cfg in [SimConfig::new(8), SimConfig::new(8).with_trace()] {
        let (plain, plain_trace) = run_priority(&inst, &cfg, &Fifo);
        let (observed, observed_trace) =
            run_priority_observed(&inst, &cfg, &Fifo, &mut NullRecorder);
        assert_results_identical(&plain, &observed);
        assert_eq!(plain_trace, observed_trace);
    }
}

#[test]
fn golden_max_flows_hold_through_observed_path() {
    // The same frozen values as tests/golden.rs, via the observed entry
    // points with an *enabled* recorder: instrumentation must not perturb
    // scheduling decisions either.
    let inst = probe_instance();
    let cfg = SimConfig::new(8).with_free_steals();
    let mut rec = AggregatingRecorder::new();
    let (ws, _) = run_worksteal_observed(
        &inst,
        &cfg,
        StealPolicy::StealKFirst { k: 16 },
        12345,
        &mut rec,
    );
    assert_eq!(ws.max_flow(), Rational::from_int(467));
    let (fifo, _) = run_priority_observed(&inst, &SimConfig::new(8), &Fifo, &mut rec);
    assert_eq!(fifo.max_flow(), Rational::from_int(345));
}

#[test]
fn obs_report_counters_are_deterministic() {
    let inst = probe_instance();
    let cfg = SimConfig::new(8).with_free_steals();
    let build = || {
        let mut rec = AggregatingRecorder::new();
        rec.span_begin("probe");
        let _ = run_worksteal_observed(
            &inst,
            &cfg,
            StealPolicy::StealKFirst { k: 16 },
            12345,
            &mut rec,
        );
        let _ = run_priority_observed(&inst, &SimConfig::new(8), &Fifo, &mut rec);
        rec.span_end("probe");
        rec.report()
    };
    let (a, b) = (build(), build());
    assert_eq!(a.counters, b.counters, "counter section must be stable");
    assert_eq!(a.gauges, b.gauges, "gauge section must be stable");
    // Histogram summaries are pure functions of the deterministic samples.
    let ha = a.to_json();
    let hb = b.to_json();
    let strip_phases = |s: &str| s.split("\"phases\"").next().unwrap().to_string();
    assert_eq!(
        strip_phases(&ha),
        strip_phases(&hb),
        "everything before the phases section must serialize identically"
    );
    // Phases exist (wall-clock values may of course differ across runs).
    assert_eq!(a.phases.len(), 1);
    assert_eq!(a.phases[0].0, "probe");
}

#[test]
fn per_worker_counters_sum_to_engine_aggregates() {
    let inst = probe_instance();
    let cfg = SimConfig::new(8).with_free_steals();
    let mut rec = AggregatingRecorder::new();
    let (r, _) = run_worksteal_observed(
        &inst,
        &cfg,
        StealPolicy::StealKFirst { k: 16 },
        12345,
        &mut rec,
    );
    let sum = |name: &str| {
        (0..8)
            .map(|p| rec.counter_value(name, Some(p)))
            .sum::<u64>()
    };
    assert_eq!(sum("ws.worker.steal_attempts"), r.stats.steal_attempts);
    assert_eq!(sum("ws.worker.work_steps"), r.stats.work_steps);
    assert_eq!(sum("ws.worker.admissions"), r.stats.admissions);
    assert_eq!(
        rec.counter_value("ws.steal_attempts", None),
        r.stats.steal_attempts
    );
    assert_eq!(rec.samples("ws.flow_ticks").len(), inst.len());
}

/// The metric names one observed run emitted, per section, with per-entity
/// indices stripped (`ws.worker.work_steps[3]` → `ws.worker.work_steps`).
fn emitted_names(rec: &AggregatingRecorder) -> [Vec<String>; 3] {
    let strip = |label: &str| label.split('[').next().unwrap_or(label).to_string();
    let report = rec.report();
    let mut counters: Vec<String> = report.counters.iter().map(|(l, _)| strip(l)).collect();
    let mut gauges: Vec<String> = report.gauges.iter().map(|(l, _)| strip(l)).collect();
    let mut samples: Vec<String> = report.histograms.iter().map(|h| h.name.clone()).collect();
    for names in [&mut counters, &mut gauges, &mut samples] {
        names.dedup();
    }
    [counters, gauges, samples]
}

/// Each `_observed` entry point emits a fixed metric taxonomy. The sets
/// are pinned so that a refactor of the engines behind them cannot add,
/// drop or rename a metric without this test saying so.
#[test]
fn observed_entry_points_emit_pinned_metric_names() {
    use parflow::core::{
        run_priority_stream_observed, run_worksteal_stream_observed, InstanceReplay,
    };
    let inst = probe_instance();
    let cfg = SimConfig::new(8).with_free_steals();
    let policy = StealPolicy::StealKFirst { k: 16 };
    let names = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
    let ws_worker = [
        "ws.worker.admissions",
        "ws.worker.failed_steal_rounds",
        "ws.worker.idle_steps",
        "ws.worker.max_failed_streak",
        "ws.worker.steal_attempts",
        "ws.worker.successful_steals",
        "ws.worker.work_steps",
    ];

    let mut rec = AggregatingRecorder::new();
    let _ = run_worksteal_observed(&inst, &cfg, policy, 12345, &mut rec);
    let mut counters = names(&[
        "ws.admissions",
        "ws.crashed_workers",
        "ws.faulted_steps",
        "ws.idle_steps",
        "ws.injected_panics",
        "ws.reinjected_tasks",
        "ws.steal_attempts",
        "ws.successful_steals",
        "ws.work_steps",
    ]);
    counters.extend(names(&ws_worker));
    assert_eq!(
        emitted_names(&rec),
        [
            counters,
            names(&["ws.total_rounds"]),
            names(&["ws.flow_ticks"])
        ],
        "run_worksteal_observed"
    );

    let mut rec = AggregatingRecorder::new();
    run_worksteal_stream_observed(
        &mut InstanceReplay::new(&inst),
        &cfg,
        policy,
        12345,
        &mut |_| {},
        &mut rec,
    )
    .expect("replay streams cleanly");
    let mut counters = names(&[
        "ws.admissions",
        "ws.idle_steps",
        "ws.steal_attempts",
        "ws.stream.cursor_slots",
        "ws.stream.jobs_retired",
        "ws.stream.live_jobs_high_water",
        "ws.stream.slab_slots",
        "ws.successful_steals",
        "ws.work_steps",
    ]);
    counters.extend(names(&ws_worker));
    assert_eq!(
        emitted_names(&rec),
        [
            counters,
            names(&["ws.stream.slab_reuse_ratio", "ws.total_rounds"]),
            Vec::new()
        ],
        "run_worksteal_stream_observed"
    );

    let central = [
        "central.event_horizons",
        "central.idle_steps",
        "central.quiescent_jumps",
    ];
    let mut rec = AggregatingRecorder::new();
    let _ = run_priority_observed(&inst, &cfg, &Fifo, &mut rec);
    let mut counters = names(&central);
    counters.push("central.work_steps".to_string());
    assert_eq!(
        emitted_names(&rec),
        [
            counters,
            names(&["central.total_rounds"]),
            names(&["central.flow_ticks"])
        ],
        "run_priority_observed"
    );

    let mut rec = AggregatingRecorder::new();
    run_priority_stream_observed(
        &mut InstanceReplay::new(&inst),
        &cfg,
        &Fifo,
        &mut |_| {},
        &mut rec,
    )
    .expect("replay streams cleanly");
    let mut counters = names(&central);
    counters.extend(names(&[
        "central.stream.cursor_slots",
        "central.stream.jobs_retired",
        "central.stream.live_jobs_high_water",
        "central.stream.slab_slots",
        "central.work_steps",
    ]));
    assert_eq!(
        emitted_names(&rec),
        [
            counters,
            names(&["central.stream.slab_reuse_ratio", "central.total_rounds"]),
            Vec::new()
        ],
        "run_priority_stream_observed"
    );
}
