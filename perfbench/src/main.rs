//! parflow end-to-end benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_fig2|sim_stream|exec_steal16_open_loop|serve_replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per invocation, so `peak_rss_mb` is the high-water mark of
//! a process that ran only that workload. Single-threaded CPU-bound times
//! (every set-up, and the simulator workloads' timed phases) are scaled by
//! a reference computation run around them (see `reference.rs`). Inputs are made from `--seed`;
//! the program under test receives only the generated inputs. Every
//! output is checked; any violated gate is counted in `failed`, printed on
//! stderr, and makes the process exit 1 after printing the result.
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` prints the per-layer metrics: spans around calls into each
//! layer's public functions plus the counters the `_observed` entry points
//! emit, nothing instrumented inside the crates. Spans are kept in memory
//! and written to `perfbench/traces/<workload>-seed<n>.jsonl` at the end.
//! See `perfbench/NOTES.md` for what each metric means on each workload.

mod exec;
mod fig2;
mod reference;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str =
    "usage: parflow-perfbench --workload \
<sim_fig2|sim_stream|exec_steal16_open_loop|serve_replay> \
--seed <n> --seconds <s> --trace <0|1>";

/// Every per-layer metric and its unit. A traced run prints all of them;
/// a layer the workload does not reach reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("workloads.source_s", "s"),
    ("dag.nodes_per_job", "count"),
    ("core.worksteal.steal16.s", "s"),
    ("core.worksteal.steal16.rounds", "count"),
    ("core.worksteal.steal16.rounds_per_s", "1/s"),
    ("core.worksteal.steal16.work_steps", "count"),
    ("core.worksteal.steal16.steal_attempts", "count"),
    ("core.worksteal.steal16.successful_steals", "count"),
    ("core.worksteal.steal16.steal_success_ratio", "ratio"),
    ("core.worksteal.steal16.admissions", "count"),
    ("core.worksteal.steal16.idle_steps", "count"),
    ("core.worksteal.steal16.max_flow_opt_ratio", "ratio"),
    ("core.worksteal.admit.s", "s"),
    ("core.worksteal.admit.rounds", "count"),
    ("core.worksteal.admit.rounds_per_s", "1/s"),
    ("core.worksteal.admit.work_steps", "count"),
    ("core.worksteal.admit.steal_attempts", "count"),
    ("core.worksteal.admit.successful_steals", "count"),
    ("core.worksteal.admit.steal_success_ratio", "ratio"),
    ("core.worksteal.admit.admissions", "count"),
    ("core.worksteal.admit.idle_steps", "count"),
    ("core.centralized.fifo_s", "s"),
    ("core.centralized.rounds", "count"),
    ("core.centralized.work_steps", "count"),
    ("core.centralized.idle_steps", "count"),
    ("core.centralized.event_horizons", "count"),
    ("core.centralized.quiescent_jumps", "count"),
    ("core.opt.max_flow_s", "s"),
    ("core.opt.tap_s", "s"),
    ("core.trace.record_s", "s"),
    ("core.trace.actions", "count"),
    ("certify.check_s", "s"),
    ("certify.rounds_checked", "count"),
    ("certify.rounds_per_s", "1/s"),
    ("core.stream.engine_self_s", "s"),
    ("core.stream.rounds", "count"),
    ("core.stream.work_steps", "count"),
    ("core.stream.steal_attempts", "count"),
    ("core.stream.successful_steals", "count"),
    ("core.stream.steal_success_ratio", "ratio"),
    ("core.stream.admissions", "count"),
    ("core.stream.idle_steps", "count"),
    ("core.stream.jobs_retired", "count"),
    ("core.stream.live_jobs_high_water", "count"),
    ("core.stream.slab_slots", "count"),
    ("core.stream.cursor_slots", "count"),
    ("core.stream.slab_reuse_ratio", "ratio"),
    ("core.stream.opt_ratio", "ratio"),
    ("metrics.flow_stats_s", "s"),
    ("metrics.stream_record_s", "s"),
    ("bridge.to_workload_s", "s"),
    ("runtime.admit.run_s", "s"),
    ("runtime.admit.tasks_executed", "count"),
    ("runtime.admit.steal_attempts", "count"),
    ("runtime.admit.successful_steals", "count"),
    ("runtime.admit.steal_success_ratio", "ratio"),
    ("runtime.admit.admissions", "count"),
    ("runtime.admit.steal_attempts_per_admission", "ratio"),
    ("runtime.admit.worker_task_imbalance", "ratio"),
    ("runtime.admit.drain_ms", "ms"),
    ("runtime.admit.flow_mean_ms", "ms"),
    ("runtime.admit.flow_p50_ms", "ms"),
    ("runtime.admit.flow_p99_ms", "ms"),
    ("runtime.admit.flow_max_ms", "ms"),
    ("runtime.steal16.run_s", "s"),
    ("runtime.steal16.tasks_executed", "count"),
    ("runtime.steal16.steal_attempts", "count"),
    ("runtime.steal16.successful_steals", "count"),
    ("runtime.steal16.steal_success_ratio", "ratio"),
    ("runtime.steal16.admissions", "count"),
    ("runtime.steal16.steal_attempts_per_admission", "ratio"),
    ("runtime.steal16.worker_task_imbalance", "ratio"),
    ("runtime.steal16.drain_ms", "ms"),
    ("runtime.steal16.flow_mean_ms", "ms"),
    ("runtime.steal16.flow_p50_ms", "ms"),
    ("runtime.steal16.flow_p99_ms", "ms"),
    ("runtime.steal16.flow_max_ms", "ms"),
    ("serve.protocol.parse_s", "s"),
    ("serve.protocol.lines", "count"),
    ("serve.admission.decide_s", "s"),
    ("serve.admission.admitted", "count"),
    ("serve.admission.shed", "count"),
    ("serve.admission.rejected_slo", "count"),
    ("serve.supervisor.offer_s", "s"),
    ("serve.supervisor.pump_s", "s"),
    ("serve.supervisor.finish_s", "s"),
    ("serve.supervisor.completed", "count"),
    ("serve.supervisor.lost", "count"),
    ("serve.supervisor.duplicates", "count"),
    ("serve.supervisor.restarts", "count"),
    ("serve.supervisor.worker_imbalance", "ratio"),
    ("serve.supervisor.wall_flow_p50_ms", "ms"),
    ("obs.trace_overhead_frac", "frac"),
];

/// The end-to-end metrics: name, unit. Each workload gives each a meaning
/// (see `NOTES.md`); `latency_tail_ms` is the highest percentile with at
/// least ten samples beyond it at the workload's minimum sample count.
const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Command-line settings of one run.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    fn parse(args: &[String]) -> Result<Run, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        let get = |name: &str| {
            flags
                .get(name)
                .ok_or_else(|| format!("missing --{name}"))
                .cloned()
        };
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".to_string());
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        if let Some(extra) = flags
            .keys()
            .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
        {
            return Err(format!("unknown flag --{extra}"));
        }
        Ok(Run {
            workload: get("workload")?,
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace,
        })
    }
}

/// Per-layer samples, one per traced repetition; reported as medians.
#[derive(Default)]
pub struct Layers(BTreeMap<String, Vec<f64>>);

impl Layers {
    pub fn push(&mut self, name: &str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unregistered layer metric {name}"
        );
        self.0.entry(name.to_string()).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| stats::median(v))
    }
}

/// What one workload run measured.
pub struct Measured {
    /// One sample per set-up (input generation and conversion).
    pub setup_s: Vec<f64>,
    /// Jobs through the timed operation, and its total wall time.
    pub jobs: u64,
    pub timed_s: f64,
    pub repetitions: u64,
    /// Pooled per-operation latency samples.
    pub latency_ms: Vec<f64>,
    /// Per-repetition `(p50, tail, samples)`, reported as their medians;
    /// preferred over `latency_ms` (serve's live report gives only these,
    /// and the executor's pooled tail follows a few bursty schedules).
    pub latency_summaries: Vec<(f64, f64, u64)>,
    /// The percentile `latency_tail_ms` reports, in (0, 1).
    tail_q: f64,
    /// Per timed operation, the factor its CPU-bound times were scaled by
    /// (see `reference.rs`).
    pub host_factors: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub layers: Layers,
    pub tracer: trace::Tracer,
}

impl Measured {
    pub fn new(run: &Run, tail_q: f64) -> Self {
        Measured {
            setup_s: Vec::new(),
            jobs: 0,
            timed_s: 0.0,
            repetitions: 0,
            latency_ms: Vec::new(),
            latency_summaries: Vec::new(),
            tail_q,
            host_factors: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            layers: Layers::default(),
            tracer: trace::Tracer::new(run.trace),
        }
    }

    /// Count one repetition that put `jobs` through the timed operation in
    /// `secs` of wall time.
    pub fn timed(&mut self, jobs: u64, secs: f64) {
        self.jobs += jobs;
        self.timed_s += secs;
        self.repetitions += 1;
    }

    /// Whether the run goes on: for `--seconds`, then, in an untraced run
    /// where no gate has failed, until `samples` reach `min`.
    pub fn more(&self, run: &Run, started: Instant, samples: usize, min: usize) -> bool {
        started.elapsed().as_secs_f64() < run.seconds
            || (!run.trace && self.failures.is_empty() && samples < min)
    }

    /// Record a violated correctness gate that failed `jobs` operations.
    pub fn fail(&mut self, jobs: u64, why: String) {
        self.failed += jobs;
        self.failures.push(why);
    }

    /// `(p50, tail, how)` of the latency samples.
    fn latency(&self) -> (f64, f64, String) {
        let q = self.tail_q * 100.0;
        if self.latency_summaries.is_empty() {
            let xs = &self.latency_ms;
            let how = format!("p{q} of {} samples", xs.len());
            (stats::median(xs), stats::percentile(xs, self.tail_q), how)
        } else {
            let s = &self.latency_summaries;
            let p50: Vec<f64> = s.iter().map(|x| x.0).collect();
            let tail: Vec<f64> = s.iter().map(|x| x.1).collect();
            let n: u64 = s.iter().map(|x| x.2).sum();
            let how = format!(
                "median over {} repetitions of each one's p{q}; {n} samples",
                s.len()
            );
            (stats::median(&p50), stats::median(&tail), how)
        }
    }
}

/// Seed of repetition `i` of a run seeded with `seed` (splitmix64 mix, so
/// neighbouring run seeds give unrelated inputs).
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker threads for the real executor and serve: two, capped at the
/// host's parallelism.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn report(run: &Run, mut m: Measured) -> bool {
    let mut metrics = String::from("{");
    if run.trace {
        for &(name, unit) in LAYER_METRICS {
            let v = m.layers.median(name);
            println!("{name} = {v} {unit}");
            json_metric(
                &mut metrics,
                name,
                if v.is_finite() { v } else { 0.0 },
                unit,
            );
        }
        let path = format!(
            "{}/traces/{}-seed{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            run.workload,
            run.seed
        );
        let written = std::fs::create_dir_all(format!("{}/traces", env!("CARGO_MANIFEST_DIR")))
            .and_then(|()| std::fs::write(&path, m.tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("could not write spans to {path}: {e}"),
        }
    } else {
        let (p50, tail, how) = m.latency();
        let rss_mb = parflow_bench::stream::peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
        let values = [
            (
                stats::median(&m.setup_s),
                format!("median of {}", m.setup_s.len()),
            ),
            (
                m.jobs as f64 / m.timed_s,
                format!("{} jobs over {} repetitions", m.jobs, m.repetitions),
            ),
            (tail, format!("{how}; p50 {p50} ms")),
            (rss_mb, "VmHWM of this process".to_string()),
        ];
        if !m.host_factors.is_empty() {
            println!(
                "CPU-bound times scaled by the host reference: median factor {} over {} operations",
                stats::median(&m.host_factors),
                m.host_factors.len()
            );
        }
        for (&(name, unit), (v, how)) in E2E_METRICS.iter().zip(values) {
            println!("{name} = {v} {unit} ({how})");
            if !(v.is_finite() && v > 0.0) {
                m.fail(0, format!("{name} is not a positive number: {v}"));
            }
            json_metric(
                &mut metrics,
                name,
                if v.is_finite() { v } else { 0.0 },
                unit,
            );
        }
    }
    metrics.push('}');
    for f in &m.failures {
        eprintln!("correctness gate failed: {f}");
    }
    let correct = m.failures.is_empty() && m.failed == 0 && m.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        m.attempted.max(1),
        m.failed
    );
    correct
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match Run::parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let measured = match run.workload.as_str() {
        "sim_fig2" => fig2::run(&run),
        "sim_stream" => stream::run(&run),
        "exec_steal16_open_loop" => exec::run(&run),
        "serve_replay" => serve::run(&run),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !report(&run, measured) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads `BENCHMARK.json` declares.
    const WORKLOADS: &[&str] = &[
        "sim_fig2",
        "sim_stream",
        "exec_steal16_open_loop",
        "serve_replay",
    ];

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        for (name, unit) in E2E_METRICS.iter().chain(LAYER_METRICS) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            let entry = format!("\"name\":\"{w}\",\"why\":");
            assert!(json.contains(&entry), "BENCHMARK.json lacks workload {w}");
        }
        let workloads = WORKLOADS.len();
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            workloads + E2E_METRICS.len() + LAYER_METRICS.len()
        );
    }

    #[test]
    fn parses_the_command_line() {
        let run = Run::parse(&args("--workload sim_fig2 --seed 3 --seconds 20 --trace 1"))
            .expect("valid arguments");
        assert_eq!((run.seed, run.seconds, run.trace), (3, 20.0, true));
        for bad in [
            "--workload sim_fig2 --seed 3 --seconds 20",
            "--workload sim_fig2 --seed x --seconds 20 --trace 0",
            "--workload sim_fig2 --seed 3 --seconds 0 --trace 0",
            "--workload sim_fig2 --seed 3 --seconds 20 --trace 2",
            "--workload sim_fig2 --seed 3 --seconds 20 --trace 0 --extra 1",
            "--workload sim_fig2 --seed 3 --seconds",
        ] {
            assert!(Run::parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn repetition_seeds_differ() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
