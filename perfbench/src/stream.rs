//! `sim_stream`: log-normal jobs at 85% utilization on m = 16, pulled
//! from `SpecJobStream` through `OptTap` into the streaming steal-16-first
//! engine, with a `StreamingFlowStats` sink. The heavier tail and higher
//! load keep a larger live set than Bing at 68%, which exercises slab and
//! cursor retirement, the incremental OPT tracker and the streaming
//! histogram. Nothing here calls `generate()` or a materialized engine.

use crate::fig2::gauge;
use crate::reference::Host;
use crate::trace::TimedStream;
use crate::{derive_seed, Measured, Run};
use parflow::core::{
    run_worksteal_stream, run_worksteal_stream_observed, JobOutcome, JobStream, OptTap, OptTracker,
    SimConfig, StealPolicy, StreamError, StreamSummary, StreamedJob,
};
use parflow::metrics::StreamingFlowStats;
use parflow::obs::AggregatingRecorder;
use parflow::time::Speed;
use parflow::workloads::{qps_for_utilization, DistKind, WorkloadSpec};
use parflow_bench::stream::{SpecJobStream, FLOW_HIST_BINS, FLOW_HIST_HI_TICKS};
use parflow_certify::certify_stream_summary;
use std::time::Instant;

const M: usize = 16;
const UTILIZATION: f64 = 0.85;
const STEAL16: StealPolicy = StealPolicy::StealKFirst { k: 16 };
/// Jobs streamed per repetition: short enough that the host reference
/// around each repetition follows the host's speed.
const JOBS: u64 = 20_000;
/// Jobs drawn from the source during set-up, before the timed stream.
const PREFETCH: usize = 2_000;
/// Completions per latency sample: the wall time to stream this many jobs.
const CHUNK: u64 = 1000;
/// Latency samples every run collects (p99 needs ten beyond it).
const MIN_SAMPLES: usize = 1000;

fn spec(seed: u64) -> WorkloadSpec {
    let qps = qps_for_utilization(DistKind::LogNormal, M, UTILIZATION);
    WorkloadSpec::paper_fig2(DistKind::LogNormal, qps, 0, seed)
}

/// A source whose first jobs were drawn ahead of time.
struct Prefetched {
    head: std::vec::IntoIter<StreamedJob>,
    rest: SpecJobStream,
}

impl JobStream for Prefetched {
    fn next_job(&mut self) -> Option<StreamedJob> {
        self.head.next().or_else(|| self.rest.next_job())
    }
}

/// The set-up of one repetition: source with its first `PREFETCH` jobs
/// drawn (DAG cache filled), OPT tap and flow histogram.
struct Pipeline {
    tap: OptTap<Prefetched>,
    flows: StreamingFlowStats,
}

fn pipeline(seed: u64) -> Pipeline {
    let mut rest = SpecJobStream::new(&spec(seed), JOBS);
    let head: Vec<StreamedJob> = std::iter::from_fn(|| rest.next_job())
        .take(PREFETCH)
        .collect();
    let source = Prefetched {
        head: head.into_iter(),
        rest,
    };
    Pipeline {
        tap: OptTap::new(source, M),
        flows: StreamingFlowStats::new(0.0, FLOW_HIST_HI_TICKS, FLOW_HIST_BINS),
    }
}

type Streamed = Result<(StreamSummary, Option<parflow::core::ScheduleTrace>), StreamError>;

/// What one repetition produced: the engine's answer, the OPT bounds over
/// every arrival, the sink's flow statistics and the wall time.
struct Outcome {
    out: Streamed,
    opt: OptTracker,
    flows: StreamingFlowStats,
    secs: f64,
}

/// Stream one repetition with tracing off; pushes a latency sample per
/// `CHUNK` completions.
fn untraced(p: Pipeline, seed: u64, latency_ms: &mut Vec<f64>) -> Outcome {
    let Pipeline { mut tap, mut flows } = p;
    let cfg = SimConfig::new(M).with_free_steals();
    let t = Instant::now();
    let mut mark = t;
    let mut done = 0u64;
    let out = run_worksteal_stream(&mut tap, &cfg, STEAL16, seed, &mut |o: &JobOutcome| {
        flows.record(o.flow);
        done += 1;
        if done.is_multiple_of(CHUNK) {
            let now = Instant::now();
            latency_ms.push((now - mark).as_secs_f64() * 1e3);
            mark = now;
        }
    });
    let secs = t.elapsed().as_secs_f64();
    let (_, opt) = tap.into_parts();
    Outcome {
        out,
        opt,
        flows,
        secs,
    }
}

/// Stream one repetition with a timing wrapper on each side of `OptTap`,
/// a timing sink and an in-memory recorder; folds the layers into `m`.
fn traced(seed: u64, m: &mut Measured) -> Outcome {
    let cfg = SimConfig::new(M).with_free_steals();
    let mut outer = TimedStream::new(OptTap::new(
        TimedStream::new(SpecJobStream::new(&spec(seed), JOBS)),
        M,
    ));
    let mut flows = StreamingFlowStats::new(0.0, FLOW_HIST_HI_TICKS, FLOW_HIST_BINS);
    let mut rec = AggregatingRecorder::new();
    let (mut sink_s, mut sunk) = (0.0, 0u64);
    let (out, secs) = m.tracer.span("core.stream.run", || {
        run_worksteal_stream_observed(
            &mut outer,
            &cfg,
            STEAL16,
            seed,
            &mut |o: &JobOutcome| {
                let t = Instant::now();
                flows.record(o.flow);
                sink_s += t.elapsed().as_secs_f64();
                sunk += 1;
            },
            &mut rec,
        )
    });
    let (inner, opt) = outer.inner.into_parts();
    let l = &mut m.layers;
    l.push("workloads.source_s", inner.secs);
    l.push("core.opt.tap_s", outer.secs - inner.secs);
    l.push("metrics.stream_record_s", sink_s);
    l.push("core.stream.engine_self_s", secs - outer.secs - sink_s);
    m.tracer
        .aggregate("workloads.source", inner.calls, inner.secs);
    m.tracer
        .aggregate("core.opt.tap", outer.calls, outer.secs - inner.secs);
    m.tracer.aggregate("metrics.stream_record", sunk, sink_s);
    stream_layer(m, &rec);
    if let Ok((s, _)) = &out {
        let bound = opt.combined_lower_bound().to_f64();
        let ratio = crate::stats::ratio(s.max_flow.to_f64(), bound);
        m.layers.push("core.stream.opt_ratio", ratio);
    }
    Outcome {
        out,
        opt,
        flows,
        secs,
    }
}

/// Fold the `ws.*` and `ws.stream.*` counters of one streaming run.
fn stream_layer(m: &mut Measured, rec: &AggregatingRecorder) {
    let c = |name: &str| rec.counter_value(name, None) as f64;
    let l = &mut m.layers;
    l.push("core.stream.rounds", gauge(rec, "ws.total_rounds"));
    for name in [
        "work_steps",
        "steal_attempts",
        "successful_steals",
        "admissions",
        "idle_steps",
    ] {
        l.push(&format!("core.stream.{name}"), c(&format!("ws.{name}")));
    }
    l.push(
        "core.stream.steal_success_ratio",
        crate::stats::ratio(c("ws.successful_steals"), c("ws.steal_attempts")),
    );
    for name in [
        "jobs_retired",
        "live_jobs_high_water",
        "slab_slots",
        "cursor_slots",
    ] {
        l.push(
            &format!("core.stream.{name}"),
            c(&format!("ws.stream.{name}")),
        );
    }
    l.push(
        "core.stream.slab_reuse_ratio",
        gauge(rec, "ws.stream.slab_reuse_ratio"),
    );
}

/// Correctness gates: every job streamed is retired and recorded, and the
/// streamed max flow does not beat the OPT lower bound.
fn check(o: &Outcome, m: &mut Measured) {
    let flows = &o.flows;
    let (summary, _) = match &o.out {
        Ok(s) => s,
        Err(e) => return m.fail(JOBS, format!("stream error: {e}")),
    };
    let retired = summary.retire.jobs_retired;
    if summary.jobs != JOBS || retired != JOBS || flows.count() != JOBS {
        let why = format!(
            "streamed {} jobs, retired {retired}, recorded {}; expected {JOBS}",
            summary.jobs,
            flows.count()
        );
        return m.fail(JOBS - retired.min(JOBS), why);
    }
    let report = certify_stream_summary(
        Speed::ONE,
        summary.jobs,
        summary.max_flow,
        o.opt.combined_lower_bound(),
    );
    if !report.is_clean() {
        m.fail(JOBS, report.render());
    }
}

pub fn run(run: &Run) -> Measured {
    let mut m = Measured::new(run, 0.99);
    let started = Instant::now();
    let mut host = Host::new();
    let mut rep = 0u64;
    while m.more(run, started, m.latency_ms.len(), MIN_SAMPLES) {
        let seed = derive_seed(run.seed, rep);
        m.tracer.begin("stream.repetition");
        let (p, setup) = m.tracer.span("stream.setup", || pipeline(seed));
        let first = m.latency_ms.len();
        let plain = untraced(p, seed, &mut m.latency_ms);
        let k = host.factor();
        m.host_factors.push(k);
        m.setup_s.push(setup * k);
        m.timed(JOBS, plain.secs * k);
        for ms in &mut m.latency_ms[first..] {
            *ms *= k;
        }
        m.attempted += JOBS;
        check(&plain, &mut m);
        if run.trace {
            let observed = traced(seed, &mut m);
            m.attempted += JOBS;
            let overhead = (observed.secs - plain.secs) / plain.secs;
            m.layers.push("obs.trace_overhead_frac", overhead);
            let same = match (&plain.out, &observed.out) {
                (Ok((a, _)), Ok((b, _))) => {
                    (a.jobs, a.total_rounds, a.stats, a.max_flow, a.retire)
                        == (b.jobs, b.total_rounds, b.stats, b.max_flow, b.retire)
                }
                _ => false,
            };
            if !same {
                let why = "the observed stream run differs from the unobserved one";
                m.fail(JOBS, why.to_string());
            }
            check(&observed, &mut m);
        }
        m.tracer.end();
        rep += 1;
    }
    m
}
