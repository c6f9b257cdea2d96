//! `sim_fig2`: the paper's Figure-2 midpoint through the materialized
//! engines. Each repetition generates a fresh Bing instance (QPS 1000,
//! m = 16, about 68% utilization, parallel-for with a 1 ms grain) and
//! produces one Figure-2 point on it: steal-16-first, admit-first and
//! FIFO, the batch OPT bound, and flow statistics for each policy.

use crate::reference::Host;
use crate::trace::Tracer;
use crate::{derive_seed, Layers, Measured, Run};
use parflow::core::{
    opt_max_flow, run_priority, run_priority_observed, run_worksteal, run_worksteal_observed, Fifo,
    SimConfig, SimResult, StealPolicy,
};
use parflow::metrics::FlowStats;
use parflow::obs::AggregatingRecorder;
use parflow::workloads::{DistKind, WorkloadSpec};
use parflow_certify::certify_run;
use std::time::Instant;

const QPS: f64 = 1000.0;
const M: usize = 16;
const STEAL16: StealPolicy = StealPolicy::StealKFirst { k: 16 };
/// Jobs per instance: small enough for well over a hundred points in a
/// run, so the point latency has a p90 with ten samples beyond it.
const JOBS: usize = 5_000;
/// Points every run makes, however long they take.
const MIN_POINTS: usize = 100;

fn config() -> SimConfig {
    SimConfig::new(M).with_free_steals()
}

/// The three policies' results on one instance, and the OPT bound.
struct Point {
    steal16: SimResult,
    admit: SimResult,
    fifo: SimResult,
    opt: parflow::time::Rational,
}

fn flow_stats(r: &SimResult) -> Option<FlowStats> {
    FlowStats::from_flows(&r.flows().collect::<Vec<_>>())
}

fn point(inst: &parflow::dag::Instance, seed: u64) -> Point {
    let cfg = config();
    let (steal16, _) = run_worksteal(inst, &cfg, STEAL16, seed);
    let (admit, _) = run_worksteal(inst, &cfg, StealPolicy::AdmitFirst, seed);
    let (fifo, _) = run_priority(inst, &cfg, &Fifo);
    let opt = opt_max_flow(inst, M);
    for r in [&steal16, &admit, &fifo] {
        std::hint::black_box(flow_stats(r));
    }
    Point {
        steal16,
        admit,
        fifo,
        opt,
    }
}

/// The same point through the `_observed` entry points, one span per
/// call and the engines' counters folded into `layers`.
fn traced_point(
    inst: &parflow::dag::Instance,
    seed: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Point {
    let cfg = config();
    tr.begin("fig2.point");
    let mut rec = AggregatingRecorder::new();
    let ((steal16, _), s) = tr.span("core.worksteal.steal16", || {
        run_worksteal_observed(inst, &cfg, STEAL16, seed, &mut rec)
    });
    worksteal_layer(layers, "core.worksteal.steal16", &rec, s);
    let mut rec = AggregatingRecorder::new();
    let ((admit, _), s) = tr.span("core.worksteal.admit", || {
        run_worksteal_observed(inst, &cfg, StealPolicy::AdmitFirst, seed, &mut rec)
    });
    worksteal_layer(layers, "core.worksteal.admit", &rec, s);
    let mut rec = AggregatingRecorder::new();
    let ((fifo, _), s) = tr.span("core.centralized.fifo", || {
        run_priority_observed(inst, &cfg, &Fifo, &mut rec)
    });
    layers.push("core.centralized.fifo_s", s);
    layers.push(
        "core.centralized.rounds",
        gauge(&rec, "central.total_rounds"),
    );
    for c in [
        "work_steps",
        "idle_steps",
        "event_horizons",
        "quiescent_jumps",
    ] {
        let v = rec.counter_value(&format!("central.{c}"), None) as f64;
        layers.push(&format!("core.centralized.{c}"), v);
    }
    let (opt, s) = tr.span("core.opt.max_flow", || opt_max_flow(inst, M));
    layers.push("core.opt.max_flow_s", s);
    let (_, s) = tr.span("metrics.flow_stats", || {
        for r in [&steal16, &admit, &fifo] {
            std::hint::black_box(flow_stats(r));
        }
    });
    layers.push("metrics.flow_stats_s", s);
    tr.end();
    layers.push(
        "core.worksteal.steal16.max_flow_opt_ratio",
        steal16.max_flow().to_f64() / opt.to_f64(),
    );
    Point {
        steal16,
        admit,
        fifo,
        opt,
    }
}

pub fn gauge(rec: &AggregatingRecorder, name: &str) -> f64 {
    rec.gauge_value(name, None).unwrap_or(0.0)
}

/// Fold one work-stealing run's `ws.*` counters into `layers`.
fn worksteal_layer(layers: &mut Layers, prefix: &str, rec: &AggregatingRecorder, secs: f64) {
    let c = |name: &str| rec.counter_value(&format!("ws.{name}"), None) as f64;
    let rounds = gauge(rec, "ws.total_rounds");
    let (attempts, successes) = (c("steal_attempts"), c("successful_steals"));
    layers.push(&format!("{prefix}.s"), secs);
    layers.push(&format!("{prefix}.rounds"), rounds);
    layers.push(&format!("{prefix}.rounds_per_s"), rounds / secs);
    layers.push(&format!("{prefix}.steal_attempts"), attempts);
    layers.push(&format!("{prefix}.successful_steals"), successes);
    layers.push(
        &format!("{prefix}.steal_success_ratio"),
        crate::stats::ratio(successes, attempts),
    );
    for name in ["work_steps", "admissions", "idle_steps"] {
        layers.push(&format!("{prefix}.{name}"), c(name));
    }
}

/// Correctness gates of one point: every policy's max flow is at least
/// the OPT bound (exact rationals), executes exactly the instance's work
/// and completes every job.
fn check(inst: &parflow::dag::Instance, p: &Point, m: &mut Measured) {
    let jobs = inst.len() as u64;
    for (name, r) in [
        ("steal16", &p.steal16),
        ("admit", &p.admit),
        ("fifo", &p.fifo),
    ] {
        let unfinished = r.unfinished().len() as u64;
        if r.max_flow() < p.opt {
            m.fail(jobs, format!("{name}: max flow below opt_max_flow"));
        } else if r.stats.work_steps != inst.total_work() {
            let why = format!(
                "{name}: work_steps {} != total work {}",
                r.stats.work_steps,
                inst.total_work()
            );
            m.fail(jobs, why);
        } else if unfinished > 0 || r.outcomes.len() != inst.len() {
            m.fail(
                unfinished.max(1),
                format!("{name}: {unfinished} jobs not completed"),
            );
        }
    }
}

/// Record the steal-16 schedule of `inst` and certify it against the
/// paper's invariants P1-P5.
fn certify(inst: &parflow::dag::Instance, seed: u64, m: &mut Measured) {
    let cfg = config().with_trace();
    let tr = &mut m.tracer;
    let layers = &mut m.layers;
    let ((result, trace), record_s) = tr.span("core.trace.record", || {
        run_worksteal(inst, &cfg, STEAL16, seed)
    });
    let trace = trace.expect("a trace was requested");
    let (report, check_s) = tr.span("certify.check", || {
        certify_run(inst, &cfg, Some(STEAL16), &result, &trace)
    });
    let (w, s, a, i) = trace.action_counts();
    layers.push("core.trace.record_s", record_s);
    layers.push("core.trace.actions", (w + s + a + i) as f64);
    layers.push("certify.check_s", check_s);
    layers.push("certify.rounds_checked", report.rounds as f64);
    layers.push(
        "certify.rounds_per_s",
        report.rounds as f64 / (record_s + check_s),
    );
    m.attempted += inst.len() as u64;
    if !report.is_clean() {
        m.fail(inst.len() as u64, report.render());
    }
}

pub fn run(run: &Run) -> Measured {
    let mut m = Measured::new(run, 0.90);
    let started = Instant::now();
    let mut host = Host::new();
    let mut rep = 0u64;
    while m.more(run, started, m.latency_ms.len(), MIN_POINTS) {
        let seed = derive_seed(run.seed, rep);
        m.tracer.begin("fig2.repetition");
        let spec = WorkloadSpec::paper_fig2(DistKind::Bing, QPS, JOBS, seed);
        let (inst, setup) = m.tracer.span("workloads.generate", || spec.generate());
        let t = Instant::now();
        let p = point(&inst, seed);
        let secs = t.elapsed().as_secs_f64();
        let k = host.factor();
        m.host_factors.push(k);
        m.setup_s.push(setup * k);
        m.timed(JOBS as u64, secs * k);
        m.latency_ms.push(secs * k * 1e3);
        if run.trace {
            let traced = traced_rep(&inst, seed, setup, &mut m);
            compare(&mut m, &p, traced, secs);
        }
        m.attempted += 3 * JOBS as u64;
        check(&inst, &p, &mut m);
        if run.trace || rep == 0 {
            certify(&inst, seed, &mut m);
        }
        m.tracer.end();
        rep += 1;
    }
    m
}

/// One traced point with its layer samples; returns it and its wall time.
fn traced_rep(
    inst: &parflow::dag::Instance,
    seed: u64,
    setup: f64,
    m: &mut Measured,
) -> (Point, f64) {
    m.layers.push("workloads.generate_s", setup);
    let nodes: usize = inst.jobs().iter().map(|j| j.dag.num_nodes()).sum();
    m.layers
        .push("dag.nodes_per_job", nodes as f64 / inst.len() as f64);
    m.attempted += 3 * inst.len() as u64;
    let t = Instant::now();
    let p = traced_point(inst, seed, &mut m.tracer, &mut m.layers);
    (p, t.elapsed().as_secs_f64())
}

/// Overhead of tracing, and the gate that observing a run changes nothing.
fn compare(m: &mut Measured, p: &Point, (traced, traced_s): (Point, f64), secs: f64) {
    m.layers
        .push("obs.trace_overhead_frac", (traced_s - secs) / secs);
    if traced.steal16 != p.steal16 || traced.admit != p.admit || traced.fifo != p.fifo {
        m.fail(
            JOBS as u64,
            "an observed run differs from the unobserved one".to_string(),
        );
    }
}
