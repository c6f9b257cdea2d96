//! `exec_steal16_open_loop`: the Bing Figure-2 spec at QPS 120 on the real
//! `runtime` executor under steal-16-first, bridged by
//! `instance_to_workload` with 10x time compression and a fixed 4000 spin
//! iterations per work unit (fixed, not calibrated, so every commit runs
//! identical work). The executor's submitter releases each job at its
//! scheduled offset whether or not a backlog exists (an open loop). It is
//! the only workload whose flow times are wall-clock, and the one where
//! steal-k-first's per-admission backoff floor in the executor shows.
//!
//! A traced run also runs each schedule under admit-first, as the control
//! a fix of steal-k-first should not move. Admit-first's wall-clock flows
//! follow the host's timer and wake-up latency too closely to gate (see
//! `NOTES.md`), so they are per-layer metrics only.

use crate::reference::Host;
use crate::{derive_seed, stats, Measured, Run};
use parflow::bridge::{instance_to_workload, BridgeConfig};
use parflow::obs::AggregatingRecorder;
use parflow::runtime::{try_run_workload, JobSpec, RtPolicy, RuntimeConfig, RuntimeResult};
use parflow::workloads::{DistKind, WorkloadSpec};
use std::time::{Duration, Instant};

const QPS: f64 = 120.0;
/// Jobs per schedule.
const JOBS: usize = 1000;
const ITERS_PER_UNIT: u64 = 4000;
const COMPRESSION: f64 = 10.0;
/// Watchdog: a run whose counters stop moving this long is aborted, and
/// its unfinished jobs count as failed instead of stalling the benchmark.
const DEADLINE: Duration = Duration::from_secs(20);
/// Schedules every run makes. Each gives a p50 and a p99 of its 1000
/// flows, and the run reports their medians: a pooled p99 follows the few
/// schedules that met a burst of host scheduling delay.
const MIN_SCHEDULES: usize = 3;
const SETUPS_PER_REPETITION: usize = 5;

/// The gated policy, then the control a traced run adds; each with the
/// name of its per-layer metrics.
const POLICIES: [(&str, RtPolicy); 2] = [
    ("steal16", RtPolicy::StealKFirst { k: 16 }),
    ("admit", RtPolicy::AdmitFirst),
];

fn setup(seed: u64) -> Vec<(Duration, JobSpec)> {
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, QPS, JOBS, seed).generate();
    instance_to_workload(
        &inst,
        &BridgeConfig::compressed(ITERS_PER_UNIT, COMPRESSION),
    )
}

/// Per-layer view of one executor run, from the counters `observe_into`
/// emits and the per-job flows.
fn runtime_layer(m: &mut Measured, name: &str, r: &RuntimeResult, last_arrival: Duration) {
    let mut rec = AggregatingRecorder::new();
    r.observe_into(&mut rec);
    let c = |n: &str| rec.counter_value(&format!("rt.{n}"), None) as f64;
    let per_worker: Vec<f64> = (0..r.worker_stats.len())
        .map(|p| rec.counter_value("rt.worker.tasks_executed", Some(p)) as f64)
        .collect();
    let flows = r.flow_ms();
    let elapsed_ms = r.elapsed.as_secs_f64() * 1e3;
    let l = &mut m.layers;
    let p = format!("runtime.{name}");
    l.push(&format!("{p}.run_s"), r.elapsed.as_secs_f64());
    for n in [
        "tasks_executed",
        "steal_attempts",
        "successful_steals",
        "admissions",
    ] {
        l.push(&format!("{p}.{n}"), c(n));
    }
    let ratio = stats::ratio(c("successful_steals"), c("steal_attempts"));
    l.push(&format!("{p}.steal_success_ratio"), ratio);
    let per_admission = stats::ratio(c("steal_attempts"), c("admissions"));
    l.push(&format!("{p}.steal_attempts_per_admission"), per_admission);
    l.push(
        &format!("{p}.worker_task_imbalance"),
        stats::imbalance(&per_worker),
    );
    l.push(
        &format!("{p}.drain_ms"),
        elapsed_ms - last_arrival.as_secs_f64() * 1e3,
    );
    l.push(
        &format!("{p}.flow_mean_ms"),
        r.mean_flow().as_secs_f64() * 1e3,
    );
    l.push(&format!("{p}.flow_p50_ms"), stats::median(&flows));
    l.push(&format!("{p}.flow_p99_ms"), stats::percentile(&flows, 0.99));
    l.push(
        &format!("{p}.flow_max_ms"),
        r.max_flow().as_secs_f64() * 1e3,
    );
}

pub fn run(run: &Run) -> Measured {
    let mut m = Measured::new(run, 0.99);
    let workers = crate::worker_threads();
    let started = Instant::now();
    let mut rep = 0u64;
    while m.more(run, started, m.latency_summaries.len(), MIN_SCHEDULES) {
        let seed = derive_seed(run.seed, rep);
        m.tracer.begin("exec.repetition");
        // Set up several times: one 3 ms sample per repetition is too few
        // for a steady median. Set-up is single-threaded and CPU-bound like
        // the simulator, so its times are scaled to the host reference
        // measured around it, as there.
        let mut host = Host::new();
        let mut workload = Vec::new();
        let mut setups = [0.0; SETUPS_PER_REPETITION];
        for setup_s in &mut setups {
            (workload, *setup_s) = m.tracer.span("exec.setup", || setup(seed));
        }
        let k = host.factor();
        m.host_factors.push(k);
        m.setup_s.extend(setups.map(|s| s * k));
        if run.trace {
            // Generation and conversion once more, each on its own.
            let spec = WorkloadSpec::paper_fig2(DistKind::Bing, QPS, JOBS, seed);
            let (inst, generate_s) = m.tracer.span("workloads.generate", || spec.generate());
            let bridge = BridgeConfig::compressed(ITERS_PER_UNIT, COMPRESSION);
            let (_, to_workload_s) = m.tracer.span("bridge.to_workload", || {
                instance_to_workload(&inst, &bridge)
            });
            m.layers.push("workloads.generate_s", generate_s);
            m.layers.push("bridge.to_workload_s", to_workload_s);
            let nodes: usize = inst.jobs().iter().map(|j| j.dag.num_nodes()).sum();
            m.layers
                .push("dag.nodes_per_job", nodes as f64 / JOBS as f64);
        }
        let last_arrival = workload.last().map_or(Duration::ZERO, |w| w.0);
        let policies = if run.trace { &POLICIES[..] } else { &POLICIES[..1] };
        for &(name, policy) in policies {
            let cfg = RuntimeConfig::new(workers, policy)
                .with_seed(seed)
                .with_deadline(DEADLINE);
            let (result, wall_s) = m.tracer.span(&format!("runtime.{name}"), || {
                try_run_workload(&cfg, &workload)
            });
            m.attempted += JOBS as u64;
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    m.fail(JOBS as u64, format!("{name}: {}", e.error));
                    continue;
                }
            };
            let unfinished = r.jobs.iter().filter(|j| !j.status.is_completed()).count();
            if unfinished > 0 || r.jobs.len() != JOBS {
                let why = format!("{name}: {unfinished} of {JOBS} jobs not completed");
                m.fail(unfinished.max(1) as u64, why);
            }
            if name == POLICIES[0].0 {
                let flows = r.flow_ms();
                let n = flows.len() as u64;
                let summary = (stats::median(&flows), stats::percentile(&flows, 0.99), n);
                m.latency_summaries.push(summary);
                m.timed(JOBS as u64, r.elapsed.as_secs_f64());
            }
            if run.trace {
                let t = Instant::now();
                runtime_layer(&mut m, name, &r, last_arrival);
                // The traced run adds only this read-out to the run itself.
                m.layers.push(
                    "obs.trace_overhead_frac",
                    t.elapsed().as_secs_f64() / wall_s,
                );
            }
        }
        m.tracer.end();
        rep += 1;
    }
    m
}
