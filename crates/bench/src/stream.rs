//! Streaming bench adapter: [`WorkloadSpec`] → core [`JobStream`], peak-RSS
//! probing, and one streaming runner per policy family ([`run_stream_ws`],
//! [`run_stream_fifo`]) for `parflow exec --stream`, the sweep's streaming
//! cells and the `stream_ws` throughput probe.
//!
//! The workloads crate's [`JobSource`] yields `(arrival, work)` scalars;
//! the simulation core wants DAGs. [`SpecJobStream`] bridges them, caching
//! built DAGs by work size (jobs of equal work share one `Arc<JobDag>`, so
//! a 10M-job stream allocates O(distinct work values) DAGs, not O(n)).
//!
//! Note the stream layout caveat from [`JobSource`]: its RNG draw order
//! deliberately differs from [`WorkloadSpec::generate`], so a streaming
//! run over a spec sees a different workload *realization* than the
//! materialized run of the same spec — same distribution, different
//! sample. Bit-identity claims are about [`InstanceReplay`] of a fixed
//! instance, which the differential tests use.

use parflow_core::{
    run_priority_stream_observed, run_worksteal_stream_observed, Fifo, JobStream, OptTap,
    OptTracker, SimConfig, StealPolicy, StreamError, StreamSummary, StreamedJob,
};
use parflow_dag::JobDag;
use parflow_metrics::StreamingFlowStats;
use parflow_obs::Recorder;
use parflow_workloads::{JobSource, ShapeKind, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default percentile-histogram range for streaming flow stats: 1 ms bins
/// up to 10 s (flows above saturate into the top bin; max stays exact).
pub const FLOW_HIST_HI_TICKS: f64 = 100_000.0;
/// Bin count matching [`FLOW_HIST_HI_TICKS`] at 10-tick (1 ms) resolution.
pub const FLOW_HIST_BINS: usize = 10_000;

/// DAG-cache capacity: distinct work values seen before the cache resets.
/// Work distributions quantize to ticks, so real workloads saturate a few
/// thousand distinct values; the reset bounds worst-case memory for
/// adversarial continuous distributions.
const DAG_CACHE_CAP: usize = 4096;

/// An endless [`JobStream`] over a [`WorkloadSpec`]'s [`JobSource`],
/// capped at `limit` jobs, with a by-work DAG cache so structurally
/// identical jobs share one DAG allocation.
pub struct SpecJobStream {
    source: JobSource,
    shape: ShapeKind,
    limit: u64,
    produced: u64,
    dag_cache: BTreeMap<u64, Arc<JobDag>>,
}

impl SpecJobStream {
    /// Stream the first `limit` jobs of `spec`'s endless source.
    pub fn new(spec: &WorkloadSpec, limit: u64) -> Self {
        SpecJobStream {
            source: spec.job_source(),
            shape: spec.shape,
            limit,
            produced: 0,
            dag_cache: BTreeMap::new(),
        }
    }
}

impl JobStream for SpecJobStream {
    fn next_job(&mut self) -> Option<StreamedJob> {
        if self.produced >= self.limit {
            return None;
        }
        self.produced += 1;
        let job = self.source.next_job();
        let shape = self.shape;
        if self.dag_cache.len() >= DAG_CACHE_CAP && !self.dag_cache.contains_key(&job.work) {
            // Live jobs keep their Arcs; only the cache's references drop.
            self.dag_cache.clear();
        }
        let dag = self
            .dag_cache
            .entry(job.work)
            .or_insert_with(|| Arc::new(shape.build(job.work)))
            .clone();
        Some(StreamedJob {
            arrival: job.arrival,
            weight: 1,
            dag,
        })
    }
}

/// Peak resident set size of this process in kB, from `/proc/self/status`
/// (`VmHWM`). `None` off Linux — the CI memory-ceiling smoke only runs
/// where it is `Some`.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Result of a high-level streaming run: the engine summary plus streaming
/// flow statistics and the live OPT tracker over the same arrivals.
pub struct StreamRun {
    /// Engine summary (stats, rounds, exact max flow, retirement).
    pub summary: StreamSummary,
    /// Streaming flow statistics (exact max/mean, histogram percentiles).
    pub flows: StreamingFlowStats,
    /// Incremental OPT lower bounds over every streamed arrival.
    pub opt: OptTracker,
}

impl StreamRun {
    /// `max_flow / combined_lower_bound`, `None` when the bound is zero.
    pub fn competitive_ratio(&self) -> Option<f64> {
        let bound = self.opt.combined_lower_bound().to_f64();
        (bound > 0.0).then(|| self.summary.max_flow.to_f64() / bound)
    }
}

/// Run the streaming work-stealing engine over the first `jobs` jobs of
/// `spec`, folding flows into streaming stats and OPT bounds on the fly.
/// `rec` receives the engine taxonomy plus the `ws.stream.*` retirement
/// counters; callers that want none pass `&mut NullRecorder`.
pub fn run_stream_ws(
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    jobs: u64,
    rec: &mut dyn Recorder,
) -> Result<StreamRun, StreamError> {
    let mut tap = OptTap::new(SpecJobStream::new(spec, jobs), config.m);
    let mut flows = StreamingFlowStats::new(0.0, FLOW_HIST_HI_TICKS, FLOW_HIST_BINS);
    let (summary, _) = run_worksteal_stream_observed(
        &mut tap,
        config,
        policy,
        seed,
        &mut |o| {
            flows.record(o.flow);
        },
        rec,
    )?;
    let (_, opt) = tap.into_parts();
    Ok(StreamRun {
        summary,
        flows,
        opt,
    })
}

/// Run the streaming centralized FIFO engine over the first `jobs` jobs of
/// `spec` — the streaming counterpart of `simulate_fifo`. `rec` as in
/// [`run_stream_ws`].
pub fn run_stream_fifo(
    spec: &WorkloadSpec,
    config: &SimConfig,
    jobs: u64,
    rec: &mut dyn Recorder,
) -> Result<StreamRun, StreamError> {
    let mut tap = OptTap::new(SpecJobStream::new(spec, jobs), config.m);
    let mut flows = StreamingFlowStats::new(0.0, FLOW_HIST_HI_TICKS, FLOW_HIST_BINS);
    let (summary, _) = run_priority_stream_observed(
        &mut tap,
        config,
        &Fifo,
        &mut |o| {
            flows.record(o.flow);
        },
        rec,
    )?;
    let (_, opt) = tap.into_parts();
    Ok(StreamRun {
        summary,
        flows,
        opt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parflow_obs::NullRecorder;
    use parflow_workloads::DistKind;

    fn spec(n: usize) -> WorkloadSpec {
        WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, n, 7)
    }

    #[test]
    fn spec_stream_respects_limit_and_caches_dags() {
        let mut s = SpecJobStream::new(&spec(0), 50);
        let mut jobs = Vec::new();
        while let Some(j) = s.next_job() {
            jobs.push(j);
        }
        assert_eq!(jobs.len(), 50);
        // Arrivals non-decreasing (engine contract).
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Equal-work jobs share a DAG allocation.
        assert!(s.dag_cache.len() <= 50);
        for j in &jobs {
            let cached = s.dag_cache.get(&j.dag.total_work());
            if let Some(d) = cached {
                assert!(Arc::ptr_eq(d, &j.dag) || d.total_work() == j.dag.total_work());
            }
        }
    }

    #[test]
    fn stream_run_produces_consistent_stats() {
        let run = run_stream_ws(
            &spec(0),
            &SimConfig::new(4).with_free_steals(),
            StealPolicy::StealKFirst { k: 16 },
            42,
            400,
            &mut NullRecorder,
        )
        .expect("streams cleanly");
        assert_eq!(run.summary.jobs, 400);
        assert_eq!(run.flows.count(), 400);
        assert_eq!(run.summary.max_flow, run.flows.max());
        assert_eq!(run.opt.arrivals(), 400);
        // Engine can't beat the lower bound.
        let ratio = run.competitive_ratio().expect("bound positive");
        assert!(ratio >= 1.0 - 1e-9, "ratio = {ratio}");
        // Steady state recycles: far fewer slots than jobs.
        assert!(run.summary.retire.slab_slots < 400);
        assert_eq!(run.summary.retire.jobs_retired, 400);
    }

    #[test]
    fn fifo_stream_run_completes() {
        let run = run_stream_fifo(&spec(0), &SimConfig::new(4), 200, &mut NullRecorder)
            .expect("streams cleanly");
        assert_eq!(run.summary.jobs, 200);
        assert!(run.competitive_ratio().expect("bound positive") >= 1.0 - 1e-9);
    }

    #[test]
    fn peak_rss_probe_parses_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0);
        }
    }
}
