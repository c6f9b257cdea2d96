//! Engine throughput measurement: the bench trajectory baseline.
//!
//! Wall-clock throughput (rounds/sec, steal-attempts/sec) is inherently
//! machine- and run-dependent, so it lives here at the bench layer —
//! [`parflow_core::EngineStats`] stays a purely deterministic counter set
//! that golden and differential tests can compare bit-for-bit.
//!
//! `repro --bench-json PATH` serializes a [`BenchReport`] for the committed
//! `BENCH_engine.json` baseline; `scripts/bench_check` regenerates one and
//! fails CI on a >2× throughput regression against that baseline.

use crate::experiments::{jobs_per_point, PAPER_K, PAPER_M};
use parflow_core::{
    run_priority, run_priority_observed, run_worksteal_observed, simulate_batched,
    simulate_worksteal, Fifo, ReplicaSpec, SimConfig, StealPolicy,
};
use parflow_obs::{NullRecorder, Recorder};
use parflow_workloads::{qps_for_utilization, DistKind, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Replicas in the batched seed sweep (`batched_ws` series).
pub const BATCH_B: usize = 8;

/// Steal bound for the batched sweep: unit-step steal-`k`-first is the
/// configuration whose idle probing spans the engine core's k-burn window
/// collapses, so this series is where that window shows up.
pub const BATCH_SWEEP_K: u32 = 128;

/// Machine size of the `giant_m` probe (the core's O(m) window scans).
pub const GIANT_M: usize = 256;

/// The `stream_ws` probe streams this many times the materialized job
/// count, so slab/cursor slots recycle through many generations.
pub const STREAM_FACTOR: u64 = 5;

/// Throughput of one engine configuration on the probe instance.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EngineThroughput {
    /// Simulated rounds advanced.
    pub rounds: u64,
    /// Steal attempts issued (0 for the centralized engine).
    pub steal_attempts: u64,
    /// Wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// `rounds / wall_seconds`.
    pub rounds_per_sec: f64,
    /// `steal_attempts / wall_seconds` (0 for the centralized engine).
    pub steal_attempts_per_sec: f64,
    /// Heap allocation events during the run, when the probe binary was
    /// built with `--features bench-alloc`; absent otherwise.
    #[serde(default)]
    pub allocs: Option<u64>,
    /// `allocs / rounds`, the steady-state allocation pressure. Arena
    /// recycling should keep this ≈ 0.
    #[serde(default)]
    pub allocs_per_round: Option<f64>,
    /// Aggregate rounds/sec divided by per-replica `simulate_worksteal`'s
    /// rounds/sec on the identical replica set. Both sides run the engine
    /// core, so this reads about 1; the difference is buffer reuse.
    /// Present only for batched series.
    #[serde(default)]
    pub speedup_vs_sequential: Option<f64>,
}

impl EngineThroughput {
    fn new(rounds: u64, steal_attempts: u64, wall_seconds: f64, allocs: Option<u64>) -> Self {
        let secs = wall_seconds.max(1e-9);
        EngineThroughput {
            rounds,
            steal_attempts,
            wall_seconds,
            rounds_per_sec: rounds as f64 / secs,
            steal_attempts_per_sec: steal_attempts as f64 / secs,
            allocs,
            allocs_per_round: allocs.map(|a| a as f64 / rounds.max(1) as f64),
            speedup_vs_sequential: None,
        }
    }

    fn with_speedup(mut self, sequential_rounds_per_sec: f64) -> Self {
        self.speedup_vs_sequential =
            Some(self.rounds_per_sec / sequential_rounds_per_sec.max(1e-9));
        self
    }
}

/// Throughput of the streaming work-stealing engine on the probe spec.
///
/// Carries the same positional keys as [`EngineThroughput`] (`rounds`,
/// `rounds_per_sec`, `allocs`, `allocs_per_round`) so `scripts/bench_check`
/// can read all six engine series with one grep, plus the stream-specific
/// jobs/s rate, per-job allocation pressure, and the peak RSS the
/// O(active)-memory claim is gated on.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StreamThroughput {
    /// Jobs streamed through the engine.
    pub jobs: u64,
    /// Simulated rounds advanced.
    pub rounds: u64,
    /// Steal attempts issued.
    pub steal_attempts: u64,
    /// Wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// `rounds / wall_seconds`.
    pub rounds_per_sec: f64,
    /// `jobs / wall_seconds` — the streaming headline number.
    pub jobs_per_sec: f64,
    /// Heap allocation events (bench-alloc builds only).
    #[serde(default)]
    pub allocs: Option<u64>,
    /// `allocs / rounds` — held to the same steady-state budget as the
    /// materialized engines.
    #[serde(default)]
    pub allocs_per_round: Option<f64>,
    /// `allocs / jobs` — retirement must recycle slab and cursor slots, so
    /// this stays O(1) (DAG-cache misses, samples) rather than O(n).
    #[serde(default)]
    pub allocs_per_job: Option<f64>,
    /// Process peak RSS (`VmHWM`) in kB after the stream, Linux only.
    #[serde(default)]
    pub peak_rss_kb: Option<u64>,
}

impl StreamThroughput {
    fn new(
        jobs: u64,
        rounds: u64,
        steal_attempts: u64,
        wall_seconds: f64,
        allocs: Option<u64>,
        peak_rss_kb: Option<u64>,
    ) -> Self {
        let secs = wall_seconds.max(1e-9);
        StreamThroughput {
            jobs,
            rounds,
            steal_attempts,
            wall_seconds,
            rounds_per_sec: rounds as f64 / secs,
            jobs_per_sec: jobs as f64 / secs,
            allocs,
            allocs_per_round: allocs.map(|a| a as f64 / rounds.max(1) as f64),
            allocs_per_job: allocs.map(|a| a as f64 / jobs.max(1) as f64),
            peak_rss_kb,
        }
    }
}

/// The full baseline document written by `repro --bench-json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Format version for forward compatibility.
    pub schema: u32,
    /// Jobs per probe instance (`PARFLOW_JOBS`-sensitive).
    pub jobs: usize,
    /// Processors in the probe instance.
    pub m: usize,
    /// Work-stealing engine, steal-16-first, free steals (Fig. 2 model).
    pub ws_steal16: EngineThroughput,
    /// Work-stealing engine, admit-first, free steals.
    pub ws_admit: EngineThroughput,
    /// Centralized FIFO engine (event-horizon stepping).
    pub centralized_fifo: EngineThroughput,
    /// `simulate_batched`, a `BATCH_B`-replica seed sweep of unit-step
    /// steal-`BATCH_SWEEP_K`-first on one set of engine buffers; aggregate
    /// across replicas, with `speedup_vs_sequential` against per-replica
    /// `simulate_worksteal` (fresh buffers each).
    pub batched_ws: EngineThroughput,
    /// `simulate_batched`, one warm replica at m = `GIANT_M`, free-steal
    /// steal-16-first at ~65 % load.
    pub giant_m: EngineThroughput,
    /// Streaming work-stealing engine: the probe spec's endless job source
    /// pulled through `run_worksteal_stream` with slab/arena retirement,
    /// O(active + m) live memory. Same spec family as `ws_steal16` but a
    /// different workload realization (the streaming source draws its RNG
    /// in a different order than `generate()`), so compare rates, not
    /// rounds.
    pub stream_ws: StreamThroughput,
    /// Wall-clock seconds of the enclosing `repro` invocation, when the
    /// caller timed one (e.g. `repro all --bench-json`).
    pub repro_wall_seconds: Option<f64>,
}

/// Run the fixed throughput probes.
///
/// One Bing instance at QPS 1000 (the Figure 2 midpoint) drives all three
/// engine configurations, so the numbers are comparable across PRs as long
/// as `PARFLOW_JOBS` and the seed stay at their defaults.
pub fn measure(seed: u64) -> BenchReport {
    let n = jobs_per_point().min(20_000);
    let m = PAPER_M;
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, n, seed).generate();
    let cfg = SimConfig::new(m).with_free_steals();

    let a0 = crate::alloc_probe::alloc_count();
    let t = Instant::now();
    let r = simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: PAPER_K }, seed);
    let wall = t.elapsed().as_secs_f64();
    let allocs = crate::alloc_probe::alloc_count()
        .zip(a0)
        .map(|(a, b)| a - b);
    let ws_steal16 = EngineThroughput::new(r.total_rounds, r.stats.steal_attempts, wall, allocs);

    let a0 = crate::alloc_probe::alloc_count();
    let t = Instant::now();
    let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, seed);
    let wall = t.elapsed().as_secs_f64();
    let allocs = crate::alloc_probe::alloc_count()
        .zip(a0)
        .map(|(a, b)| a - b);
    let ws_admit = EngineThroughput::new(r.total_rounds, r.stats.steal_attempts, wall, allocs);

    let a0 = crate::alloc_probe::alloc_count();
    let t = Instant::now();
    let (r, _) = run_priority(&inst, &SimConfig::new(m), &Fifo);
    let wall = t.elapsed().as_secs_f64();
    let allocs = crate::alloc_probe::alloc_count()
        .zip(a0)
        .map(|(a, b)| a - b);
    let centralized_fifo = EngineThroughput::new(r.total_rounds, 0, wall, allocs);

    // Batched replica sweep: BATCH_B seeds of the unit-step
    // steal-BATCH_SWEEP_K config on an admission-bound burst — n short
    // sequential jobs arriving at once, so between admissions every worker
    // spends k costly probe rounds (the paper's non-free-steal regime).
    // Those spans are exactly what the core's k-burn window collapses.
    // Victim selection is the round-robin scan, whose probe cursor
    // fast-forwards in closed form (`advance_scan`) — uniform sampling
    // would put an O(k) per-span RNG-burn floor under the window.
    // Per-replica `simulate_worksteal` is timed on the identical replica
    // set first, so `speedup_vs_sequential` is an apples-to-apples
    // aggregate-rounds/s ratio with bit-identical schedules on both sides.
    let sweep_inst = {
        use parflow_dag::{shapes, Instance, Job};
        use std::sync::Arc;
        let dag = Arc::new(shapes::single_node(4));
        Instance::new((0..n as u32).map(|i| Job::new(i, 0, dag.clone())).collect())
    };
    let sweep_cfg = SimConfig::new(m).with_victim_scan();
    let specs: Vec<ReplicaSpec> = (0..BATCH_B as u64)
        .map(|i| {
            ReplicaSpec::new(
                sweep_cfg.clone(),
                StealPolicy::StealKFirst { k: BATCH_SWEEP_K },
                seed ^ (i + 1),
            )
        })
        .collect();
    let t = Instant::now();
    let mut seq_rounds = 0u64;
    for s in &specs {
        seq_rounds += simulate_worksteal(&sweep_inst, &s.config, s.policy, s.seed).total_rounds;
    }
    let seq_rps = seq_rounds as f64 / t.elapsed().as_secs_f64().max(1e-9);

    let a0 = crate::alloc_probe::alloc_count();
    let t = Instant::now();
    let rs = simulate_batched(&sweep_inst, &specs);
    let wall = t.elapsed().as_secs_f64();
    let allocs = crate::alloc_probe::alloc_count()
        .zip(a0)
        .map(|(a, b)| a - b);
    let rounds: u64 = rs.iter().map(|r| r.total_rounds).sum();
    let steals: u64 = rs.iter().map(|r| r.stats.steal_attempts).sum();
    let batched_ws = EngineThroughput::new(rounds, steals, wall, allocs).with_speedup(seq_rps);

    // Giant-m probe: m = GIANT_M, load scaled to ~65 % utilization so the
    // machine is neither idle nor drowning. Two identical replicas share
    // one set of engine buffers; the alloc numbers report only the second,
    // warm replica's marginal allocations. The first replica's one-time
    // buffer growth (deques, slab, arena slots, fault vectors — O(m +
    // jobs)) would otherwise swamp the signal, and re-running the
    // *same* seed makes the marginal count a pure leak detector: every
    // buffer already sits at its high-water mark, so any allocation the
    // warm replica performs is per-replica overhead that recycling missed.
    let giant_qps = qps_for_utilization(DistKind::Bing, GIANT_M, 0.65);
    let giant_inst = WorkloadSpec::paper_fig2(DistKind::Bing, giant_qps, n, seed).generate();
    let giant_cfg = SimConfig::new(GIANT_M).with_free_steals();
    let giant_policy = StealPolicy::StealKFirst { k: PAPER_K };
    let cold = ReplicaSpec::new(giant_cfg.clone(), giant_policy, seed);
    let warm = ReplicaSpec::new(giant_cfg, giant_policy, seed);
    let a0 = crate::alloc_probe::alloc_count();
    let single = simulate_batched(&giant_inst, std::slice::from_ref(&cold));
    let a1 = crate::alloc_probe::alloc_count();
    let t = Instant::now();
    let rs = simulate_batched(&giant_inst, &[cold, warm]);
    let wall = t.elapsed().as_secs_f64();
    let a2 = crate::alloc_probe::alloc_count();
    let cold_allocs = a1.zip(a0).map(|(a, b)| a - b);
    let warm_allocs = a2
        .zip(a1)
        .map(|(a, b)| (a - b).saturating_sub(cold_allocs.unwrap_or(0)));
    debug_assert_eq!(single[0], rs[0]);
    let warm_rounds = rs[1].total_rounds;
    let warm_steals = rs[1].stats.steal_attempts;
    // Wall time covers both replicas in the pair; halve the aggregate by
    // reporting the warm replica's rounds against half the pair's wall.
    let giant_m = EngineThroughput::new(warm_rounds, warm_steals, wall / 2.0, warm_allocs);

    // Streaming probe: the same Bing QPS-1000 spec pulled as an endless
    // source through the streaming engine. `STREAM_FACTOR`× the
    // materialized job count exercises steady-state retirement (slab and
    // cursor slots cycling many times over) without meaningfully moving CI
    // wall time.
    let stream_jobs = (n as u64) * STREAM_FACTOR;
    let stream_spec = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, n, seed);
    let a0 = crate::alloc_probe::alloc_count();
    let t = Instant::now();
    let run = crate::stream::run_stream_ws(
        &stream_spec,
        &cfg,
        StealPolicy::StealKFirst { k: PAPER_K },
        seed,
        stream_jobs,
        &mut NullRecorder,
    )
    .expect("probe spec is fault-free and sorted");
    let wall = t.elapsed().as_secs_f64();
    let allocs = crate::alloc_probe::alloc_count()
        .zip(a0)
        .map(|(a, b)| a - b);
    let stream_ws = StreamThroughput::new(
        stream_jobs,
        run.summary.total_rounds,
        run.summary.stats.steal_attempts,
        wall,
        allocs,
        crate::stream::peak_rss_kb(),
    );

    BenchReport {
        schema: 3,
        jobs: n,
        m,
        ws_steal16,
        ws_admit,
        centralized_fifo,
        batched_ws,
        giant_m,
        stream_ws,
        repro_wall_seconds: None,
    }
}

/// Run the throughput probe instance once through the *observed* engine
/// entry points, feeding per-worker steal/admission counters and flow-time
/// samples into `rec`. Backs `repro --obs-json`: the report then contains
/// `ws.worker.*[i]` counters (u64-exact, no saturation) next to the
/// centralized engine's horizon/quiescence telemetry.
pub fn probe_observed(seed: u64, jobs_cap: usize, rec: &mut dyn Recorder) {
    let n = jobs_per_point().min(jobs_cap);
    let m = PAPER_M;
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, n, seed).generate();
    let cfg = SimConfig::new(m).with_free_steals();
    let _ = run_worksteal_observed(
        &inst,
        &cfg,
        StealPolicy::StealKFirst { k: PAPER_K },
        seed,
        rec,
    );
    let _ = run_priority_observed(&inst, &SimConfig::new(m), &Fifo, rec);
}

/// Run a small burst on the *real* threaded executor and feed its
/// per-worker stats and wall-clock latency histogram into `rec`. The
/// second half of the `repro --obs-json` epilogue.
pub fn runtime_probe_observed(rec: &mut dyn Recorder) {
    use parflow_runtime::{run_workload, JobSpec, RtPolicy, RuntimeConfig};
    use std::time::Duration;
    let cfg = RuntimeConfig::new(2, RtPolicy::StealKFirst { k: 4 }).with_seed(7);
    let wl: Vec<_> = (0..8u64)
        .map(|i| (Duration::from_micros(50 * i), JobSpec::split(20_000, 4)))
        .collect();
    let r = run_workload(&cfg, &wl);
    r.observe_into(rec);
}

/// Serialize `report` to pretty JSON with a trailing newline.
///
/// Hand-rolled: the offline `serde_json` stub cannot serialize, and this
/// fixed schema is trivial to emit directly. The derives stay on the types
/// so real `serde_json` round-trips work when the workspace is built with
/// the genuine dependency.
pub fn to_json(report: &BenchReport) -> String {
    fn engine(name: &str, e: &EngineThroughput) -> String {
        let alloc_fields = match (e.allocs, e.allocs_per_round) {
            (Some(a), Some(apr)) => {
                format!(",\n    \"allocs\": {a},\n    \"allocs_per_round\": {apr:.4}")
            }
            _ => String::new(),
        };
        let speedup_field = match e.speedup_vs_sequential {
            Some(s) => format!(",\n    \"speedup_vs_sequential\": {s:.2}"),
            None => String::new(),
        };
        format!(
            "  \"{name}\": {{\n    \"rounds\": {},\n    \"steal_attempts\": {},\n    \
             \"wall_seconds\": {:.6},\n    \"rounds_per_sec\": {:.1},\n    \
             \"steal_attempts_per_sec\": {:.1}{}{}\n  }}",
            e.rounds,
            e.steal_attempts,
            e.wall_seconds,
            e.rounds_per_sec,
            e.steal_attempts_per_sec,
            alloc_fields,
            speedup_field
        )
    }
    fn stream(name: &str, s: &StreamThroughput) -> String {
        let alloc_fields = match (s.allocs, s.allocs_per_round, s.allocs_per_job) {
            (Some(a), Some(apr), Some(apj)) => format!(
                ",\n    \"allocs\": {a},\n    \"allocs_per_round\": {apr:.4},\n    \
                 \"allocs_per_job\": {apj:.4}"
            ),
            _ => String::new(),
        };
        let rss_field = match s.peak_rss_kb {
            Some(kb) => format!(",\n    \"peak_rss_kb\": {kb}"),
            None => String::new(),
        };
        format!(
            "  \"{name}\": {{\n    \"jobs\": {},\n    \"rounds\": {},\n    \
             \"steal_attempts\": {},\n    \"wall_seconds\": {:.6},\n    \
             \"rounds_per_sec\": {:.1},\n    \"jobs_per_sec\": {:.1}{}{}\n  }}",
            s.jobs,
            s.rounds,
            s.steal_attempts,
            s.wall_seconds,
            s.rounds_per_sec,
            s.jobs_per_sec,
            alloc_fields,
            rss_field
        )
    }
    let wall = match report.repro_wall_seconds {
        Some(w) => format!("{w:.3}"),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"schema\": {},\n  \"jobs\": {},\n  \"m\": {},\n{},\n{},\n{},\n{},\n{},\n{},\n  \
         \"repro_wall_seconds\": {}\n}}\n",
        report.schema,
        report.jobs,
        report.m,
        engine("ws_steal16", &report.ws_steal16),
        engine("ws_admit", &report.ws_admit),
        engine("centralized_fifo", &report.centralized_fifo),
        engine("batched_ws", &report.batched_ws),
        engine("giant_m", &report.giant_m),
        stream("stream_ws", &report.stream_ws),
        wall
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_runs_and_roundtrips() {
        std::env::set_var("PARFLOW_JOBS", "2000");
        let rep = measure(7);
        std::env::remove_var("PARFLOW_JOBS");
        assert!(rep.ws_steal16.rounds > 0);
        assert!(rep.ws_steal16.steal_attempts > 0);
        assert!(rep.ws_steal16.rounds_per_sec > 0.0);
        assert!(rep.ws_admit.rounds > 0);
        assert!(rep.centralized_fifo.rounds > 0);
        assert_eq!(rep.centralized_fifo.steal_attempts, 0);
        // The batched sweep aggregates BATCH_B replicas of one instance:
        // every replica advances at least as far as the last arrival.
        assert!(rep.batched_ws.rounds >= BATCH_B as u64);
        assert!(rep.batched_ws.speedup_vs_sequential.unwrap() > 0.0);
        assert!(rep.giant_m.rounds > 0);
        assert!(rep.giant_m.speedup_vs_sequential.is_none());
        // The streaming probe pulls STREAM_FACTOR× the materialized count.
        assert_eq!(rep.stream_ws.jobs, rep.jobs as u64 * STREAM_FACTOR);
        assert!(rep.stream_ws.rounds > 0);
        assert!(rep.stream_ws.jobs_per_sec > 0.0);
        let json = to_json(&rep);
        for key in [
            "\"schema\": 3",
            "\"ws_steal16\"",
            "\"ws_admit\"",
            "\"centralized_fifo\"",
            "\"batched_ws\"",
            "\"giant_m\"",
            "\"stream_ws\"",
            "\"rounds_per_sec\"",
            "\"jobs_per_sec\"",
            "\"speedup_vs_sequential\"",
            "\"repro_wall_seconds\": null",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Exactly one rounds_per_sec line per engine, in declaration order
        // (scripts/bench_check reads them positionally; stream_ws is last).
        assert_eq!(json.matches("\"rounds_per_sec\"").count(), 6);
        // Only the streaming series carries jobs/s.
        assert_eq!(json.matches("\"jobs_per_sec\"").count(), 1);
        // Only the batched sweep carries a sequential-baseline ratio.
        assert_eq!(json.matches("\"speedup_vs_sequential\"").count(), 1);
        // Alloc fields appear exactly when the probe is compiled in
        // (bench_check greps them positionally too).
        if cfg!(feature = "bench-alloc") {
            assert_eq!(json.matches("\"allocs\":").count(), 6);
            assert_eq!(json.matches("\"allocs_per_round\":").count(), 6);
            assert_eq!(json.matches("\"allocs_per_job\":").count(), 1);
        } else {
            assert!(!json.contains("\"allocs\""));
        }
        // Peak RSS rides along on Linux (the platform CI gates on).
        if cfg!(target_os = "linux") {
            assert!(json.contains("\"peak_rss_kb\""));
        }
    }

    #[test]
    fn observed_probes_populate_recorder() {
        use parflow_obs::AggregatingRecorder;
        std::env::set_var("PARFLOW_JOBS", "500");
        let mut rec = AggregatingRecorder::new();
        probe_observed(7, 500, &mut rec);
        std::env::remove_var("PARFLOW_JOBS");
        assert!(rec.counter_value("ws.steal_attempts", None) > 0);
        assert!(rec.counter_value("ws.worker.work_steps", Some(0)) > 0);
        assert!(rec.counter_value("central.work_steps", None) > 0);
        assert!(!rec.samples("ws.flow_ticks").is_empty());

        runtime_probe_observed(&mut rec);
        assert!(rec.counter_value("rt.tasks_executed", None) > 0);
        assert_eq!(rec.samples("rt.job_flow_ms").len(), 8);
    }
}
