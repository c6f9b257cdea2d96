//! The `parflow` command-line interface, as a library so every command is
//! unit-testable. The binary (`src/bin/parflow.rs`) is a thin wrapper.
//!
//! ```text
//! parflow simulate --dist bing --qps 1000 --jobs 5000 --scheduler steal-16-first
//! parflow compare  --dist finance --qps 900 --jobs 5000
//! parflow generate --dist lognormal --qps 1200 --jobs 1000 --out inst.json
//! parflow analyze  --in inst.json --scheduler fifo --eps 1/10
//! parflow exec     --jobs 200 --m 4 --faults crash:3@1000,panic:0.01 --deadline 30s
//! parflow exec     --stream --jobs 10000000 --policy steal-16-first
//! parflow serve    run --input subs.jsonl --workers 2 --slo 5000
//! parflow sweep    --grid smoke --out store.jsonl
//! parflow dot      --shape fork-join --depth 3 --leaf 4
//! ```
//!
//! Fault injection (`simulate`, `compare`, `analyze`, `exec`) takes a
//! `--faults` spec: comma-separated `crash:W@R`, `slow:WxF`, `stall:W@R+D`,
//! `blackhole:W`, `panic:P` entries (`W` worker index, `R` round, `D`
//! rounds, `F` speed factor in `(0,1]`, `P` probability in `[0,1]`).
//! Faults apply to the work-stealing schedulers and the real executor;
//! the centralized engines (fifo/bwf/lifo/sjf/equi) model an idealized
//! reliable machine and ignore the plan, which the report says in one
//! `fault plan not applied` line per such scheduler. `exec` additionally accepts
//! `--deadline` (e.g. `30s`, `500ms`) arming the runtime's no-progress
//! watchdog, and `--obs-json PATH` dumping a machine-readable run report
//! (counters, per-worker telemetry, latency histograms, phase wall times)
//! through the `parflow-obs` observability layer.
//!
//! `exec --stream` (or `--stream on`) swaps the threaded executor for the
//! O(active)-memory streaming simulation core: jobs are pulled one at a
//! time from the workload's endless source and retired on completion, so
//! `--jobs 10000000` runs in a few MB of peak RSS where the materialized
//! path would need the whole instance in memory. Reports exact max flow, the
//! incremental OPT lower bound (live competitive ratio), histogram
//! percentiles, retirement counters, and peak RSS. `--policy` additionally
//! accepts `fifo` (the streaming centralized engine); `--faults` is
//! rejected (the streaming `--certify` path does not handle fault-injected
//! runs). `--jobs 0` is rejected, as on the executor path. `--certify`
//! (or `--certify on`) runs the `parflow-certify` exact-arithmetic P5
//! check on the streamed summary — at speed 1 the reported max flow can
//! never beat the incremental OPT lower bound — and appends the
//! certificate line to the report.

use crate::bridge::{instance_to_workload, BridgeConfig};
use crate::core::{
    analyze_intervals, opt_max_flow, FaultPlan, JobStatus, SchedulerKind, SimConfig, PPM,
};
use crate::metrics::{FlowStats, Table};
use crate::runtime::{try_run_workload, RtPolicy, RuntimeConfig, RuntimeError};
use crate::time::{Rational, Speed};
use crate::workloads::{trace_io, DistKind, InstanceStats, ShapeKind, WorkloadSpec};
use parflow_dag::{shapes, Instance};
use parflow_obs::{JsonRecorder, NullRecorder, Recorder};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// The usage text: every command [`run_cli`] dispatches. `parflow help`,
/// `--help` and `-h` print it; the binary also prints it after an error.
pub const USAGE: &str = "\
usage:
  parflow simulate --dist bing|finance|lognormal --qps N --jobs N \\
                   --m N --scheduler fifo|bwf|lifo|sjf|equi|admit-first|steal-<k>-first \\
                   [--speed NUM[/DEN]] [--steals free|unit] [--seed N] [--grain N]
                   [--faults crash:W@R,slow:WxF,stall:W@R+D,blackhole:W,panic:P]
  parflow compare  <same workload flags>
  parflow generate <same workload flags> --out FILE.json
  parflow analyze  --in FILE.json [--scheduler S] [--m N] [--eps NUM/DEN]
  parflow exec     <workload flags> --policy admit-first|steal-<k>-first \\
                   [--faults SPEC] [--deadline 30s|500ms] [--compress N] [--iters-per-unit N] [--obs-json FILE]
  parflow exec     --stream [--certify] <workload flags> --policy fifo|admit-first|steal-<k>-first
  parflow serve    emit|run|tcp [--flag value ...]
  parflow sweep    [--grid SPEC|smoke|phase] [--out PATH] [--resume] [--stream] [--certify] (sweep --help)
  parflow dot      --shape single|chain|diamond|parallel-for|fork-join|map-reduce|pipeline|adversarial [shape flags]
  parflow help     print this text (also --help, -h)";

/// CLI errors (all user-facing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand or an unknown one.
    UnknownCommand(String),
    /// A flag was given without a value or with an unparsable one.
    BadFlag(String, String),
    /// A required flag is missing.
    MissingFlag(String),
    /// Filesystem / serde problem (message only, for testability).
    Io(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown command '{c}'; try simulate|compare|generate|analyze|exec|serve|sweep|dot|help"
                )
            }
            CliError::BadFlag(k, v) => write!(f, "bad value '{v}' for --{k}"),
            CliError::MissingFlag(k) => write!(f, "missing required flag --{k}"),
            CliError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed `--key value` flags.
pub struct Flags(BTreeMap<String, String>);

impl Flags {
    /// Parse flags from arguments after the subcommand. Flags must come as
    /// `--key value` pairs.
    pub fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| CliError::BadFlag(a.clone(), "expected --flag".into()))?;
            let value = it
                .next()
                .ok_or_else(|| CliError::BadFlag(key.into(), "missing value".into()))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| CliError::BadFlag(key.into(), v.into())),
        }
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::MissingFlag(key.into()))
    }
}

fn parse_dist(s: &str) -> Result<DistKind, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "bing" => Ok(DistKind::Bing),
        "finance" => Ok(DistKind::Finance),
        "lognormal" | "log-normal" => Ok(DistKind::LogNormal),
        other => Err(CliError::BadFlag("dist".into(), other.into())),
    }
}

fn parse_speed(s: &str) -> Result<Speed, CliError> {
    let err = || CliError::BadFlag("speed".into(), s.into());
    if let Some((num, den)) = s.split_once('/') {
        let num: u64 = num.parse().map_err(|_| err())?;
        let den: u64 = den.parse().map_err(|_| err())?;
        if num == 0 || den == 0 {
            return Err(err());
        }
        Ok(Speed::new(num, den))
    } else {
        let v: u64 = s.parse().map_err(|_| err())?;
        if v == 0 {
            return Err(err());
        }
        Ok(Speed::integer(v))
    }
}

fn parse_rational(key: &str, s: &str) -> Result<Rational, CliError> {
    let err = || CliError::BadFlag(key.into(), s.into());
    if let Some((num, den)) = s.split_once('/') {
        let num: i128 = num.parse().map_err(|_| err())?;
        let den: i128 = den.parse().map_err(|_| err())?;
        if den == 0 {
            return Err(err());
        }
        Ok(Rational::new(num, den))
    } else {
        let v: i128 = s.parse().map_err(|_| err())?;
        Ok(Rational::from_int(v))
    }
}

/// Parse a `--faults` specification: comma-separated entries of
/// `crash:W@R`, `slow:WxF`, `stall:W@R+D`, `blackhole:W`, `panic:P`.
fn parse_faults(s: &str) -> Result<FaultPlan, CliError> {
    let err = |part: &str| CliError::BadFlag("faults".into(), part.into());
    let mut plan = FaultPlan::none();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (kind, spec) = part.split_once(':').ok_or_else(|| err(part))?;
        match kind {
            "crash" => {
                let (w, r) = spec.split_once('@').ok_or_else(|| err(part))?;
                plan = plan.crash(
                    w.parse().map_err(|_| err(part))?,
                    r.parse().map_err(|_| err(part))?,
                );
            }
            "slow" => {
                let (w, f) = spec.split_once('x').ok_or_else(|| err(part))?;
                let factor: f64 = f.parse().map_err(|_| err(part))?;
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(err(part));
                }
                plan = plan.slowdown(
                    w.parse().map_err(|_| err(part))?,
                    (factor * PPM as f64).round() as u32,
                );
            }
            "stall" => {
                let (w, window) = spec.split_once('@').ok_or_else(|| err(part))?;
                let (from, dur) = window.split_once('+').ok_or_else(|| err(part))?;
                plan = plan.stall(
                    w.parse().map_err(|_| err(part))?,
                    from.parse().map_err(|_| err(part))?,
                    dur.parse().map_err(|_| err(part))?,
                );
            }
            "blackhole" => {
                plan = plan.blackhole(spec.parse().map_err(|_| err(part))?);
            }
            "panic" => {
                let p: f64 = spec.parse().map_err(|_| err(part))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(err(part));
                }
                plan = plan.with_panic_ppm((p * PPM as f64).round() as u32);
            }
            _ => return Err(err(part)),
        }
    }
    Ok(plan)
}

/// Parse a `--deadline` value: `30s`, `500ms`, or bare seconds (`0.5`).
fn parse_deadline(s: &str) -> Result<Duration, CliError> {
    let err = || CliError::BadFlag("deadline".into(), s.into());
    let (num, scale_ns) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1e9)
    } else {
        (s, 1e9)
    };
    let v: f64 = num.parse().map_err(|_| err())?;
    if !v.is_finite() || v <= 0.0 {
        return Err(err());
    }
    Ok(Duration::from_nanos((v * scale_ns) as u64))
}

fn workload_from_flags(flags: &Flags) -> Result<(WorkloadSpec, usize), CliError> {
    let dist = parse_dist(flags.get("dist").unwrap_or("bing"))?;
    let qps: f64 = flags.parse_or("qps", 1000.0)?;
    if qps <= 0.0 || !qps.is_finite() {
        return Err(CliError::BadFlag("qps".into(), qps.to_string()));
    }
    let jobs: usize = flags.parse_or("jobs", 10_000)?;
    let seed: u64 = flags.parse_or("seed", 42u64)?;
    let grain: u64 = flags.parse_or("grain", 10u64)?;
    let m: usize = flags.parse_or("m", 16usize)?;
    if m == 0 {
        return Err(CliError::BadFlag("m".into(), "0".into()));
    }
    let spec = WorkloadSpec {
        dist,
        shape: ShapeKind::ParallelFor {
            grain: grain.max(1),
        },
        qps: Some(qps),
        period_ticks: 0,
        n_jobs: jobs,
        seed,
    };
    Ok((spec, m))
}

fn config_from_flags(flags: &Flags, m: usize) -> Result<SimConfig, CliError> {
    let mut cfg = SimConfig::new(m);
    if let Some(s) = flags.get("speed") {
        cfg = cfg.with_speed(parse_speed(s)?);
    }
    match flags.get("steals").unwrap_or("free") {
        "free" => cfg = cfg.with_free_steals(),
        "unit" => {}
        other => return Err(CliError::BadFlag("steals".into(), other.into())),
    }
    if let Some(s) = flags.get("faults") {
        let plan = parse_faults(s)?;
        // Validate here so a bad plan is a CLI error, not an engine panic.
        plan.validate(m)
            .map_err(|msg| CliError::BadFlag("faults".into(), msg))?;
        cfg = cfg.with_faults(plan);
    }
    Ok(cfg)
}

fn result_summary(
    inst: &Instance,
    cfg: &SimConfig,
    kind: SchedulerKind,
    seed: u64,
) -> (Vec<String>, crate::core::SimResult) {
    let name = kind.to_string();
    let r = kind.run(inst, cfg, seed).0;
    let flows: Vec<Rational> = r.outcomes.iter().map(|o| o.flow).collect();
    // An empty instance (or one whose flows all degrade to non-finite)
    // yields no statistics; report placeholders instead of panicking.
    let row = match FlowStats::from_flows(&flows) {
        Some(stats) => {
            let opt = opt_max_flow(inst, cfg.m);
            vec![
                name,
                format!("{:.1}", stats.max.to_f64()),
                format!("{:.2}", (stats.max / opt).to_f64()),
                format!("{:.1}", stats.mean),
                format!("{:.1}", stats.p99),
                format!("{:.3}", r.busy_fraction()),
            ]
        }
        None => {
            let dash = "-".to_string();
            vec![
                name,
                dash.clone(),
                dash.clone(),
                dash.clone(),
                dash,
                format!("{:.3}", r.busy_fraction()),
            ]
        }
    };
    (row, r)
}

/// One line of fault accounting for a simulated run, or `None` when the
/// run was fault-free (keeps fault-free output byte-identical). A
/// centralized scheduler never applies a fault plan; it gets one line
/// saying so.
fn fault_summary(
    kind: SchedulerKind,
    cfg: &SimConfig,
    r: &crate::core::SimResult,
) -> Option<String> {
    if !kind.is_randomized() {
        return (!cfg.faults.is_empty()).then(|| {
            format!("{kind}: fault plan not applied (centralized engines model a reliable machine)")
        });
    }
    if r.fault_events.is_empty() && r.all_completed() {
        return None;
    }
    let completed = r
        .outcomes
        .iter()
        .filter(|o| o.status.is_completed())
        .count();
    Some(format!(
        "{kind}: {completed}/{} jobs completed, {} failed (max completed flow {:.1}); \
         {} crashed workers, {} reinjected tasks, {} injected panics",
        r.outcomes.len(),
        r.outcomes.len() - completed,
        r.max_completed_flow().to_f64(),
        r.stats.crashed_workers,
        r.stats.reinjected_tasks,
        r.stats.injected_panics,
    ))
}

fn simulate_cmd(flags: &Flags) -> Result<String, CliError> {
    let (spec, m) = workload_from_flags(flags)?;
    let kind: SchedulerKind =
        flags
            .require("scheduler")?
            .parse()
            .map_err(|e: crate::core::ParseSchedulerError| {
                CliError::BadFlag("scheduler".into(), e.0)
            })?;
    let seed: u64 = flags.parse_or("seed", 42u64)?;
    let cfg = config_from_flags(flags, m)?;
    let inst = spec.generate();
    if inst.is_empty() {
        return Err(CliError::BadFlag("jobs".into(), "0".into()));
    }
    let mut t = Table::new(["scheduler", "max flow", "vs OPT", "mean", "p99", "busy"]);
    let (row, r) = result_summary(&inst, &cfg, kind, seed);
    t.row(row);
    let faults = fault_summary(kind, &cfg, &r)
        .map(|l| format!("\n{l}"))
        .unwrap_or_default();
    // At extreme QPS every arrival rounds to tick 0 and the load measure
    // (work over the arrival horizon) is undefined, not zero.
    let util = match inst.utilization(m) {
        Some(u) => format!("{:.0}%", u.to_f64() * 100.0),
        None => "n/a (all jobs arrive at t=0)".to_string(),
    };
    let stats = InstanceStats::of(&inst).expect("non-empty");
    Ok(format!(
        "workload: {} @{:.0} QPS, m={m}, utilization {util} (flows in ticks; 1 tick = 0.1 ms)\n{stats}\n{}{faults}",
        spec.dist.name(),
        spec.qps.unwrap_or(0.0),
        t.render()
    ))
}

fn compare_cmd(flags: &Flags) -> Result<String, CliError> {
    let (spec, m) = workload_from_flags(flags)?;
    let seed: u64 = flags.parse_or("seed", 42u64)?;
    let cfg = config_from_flags(flags, m)?;
    let inst = spec.generate();
    if inst.is_empty() {
        return Err(CliError::BadFlag("jobs".into(), "0".into()));
    }
    let mut t = Table::new(["scheduler", "max flow", "vs OPT", "mean", "p99", "busy"]);
    let mut fault_lines = Vec::new();
    for kind in SchedulerKind::all() {
        let (row, r) = result_summary(&inst, &cfg, kind, seed);
        t.row(row);
        fault_lines.extend(fault_summary(kind, &cfg, &r));
    }
    let mut out = t.render();
    for l in &fault_lines {
        out.push('\n');
        out.push_str(l);
    }
    Ok(out)
}

fn generate_cmd(flags: &Flags) -> Result<String, CliError> {
    let (spec, _) = workload_from_flags(flags)?;
    let out = flags.require("out")?;
    let inst = spec.generate();
    trace_io::save_instance(&inst, out).map_err(|e| CliError::Io(e.to_string()))?;
    Ok(format!(
        "wrote {} jobs ({} total work units) to {out}",
        inst.len(),
        inst.total_work()
    ))
}

fn analyze_cmd(flags: &Flags) -> Result<String, CliError> {
    let path = flags.require("in")?;
    let inst = trace_io::load_instance(path).map_err(|e| CliError::Io(e.to_string()))?;
    if inst.is_empty() {
        return Err(CliError::Io("instance is empty".into()));
    }
    let kind: SchedulerKind = flags
        .get("scheduler")
        .unwrap_or("steal-16-first")
        .parse()
        .map_err(|e: crate::core::ParseSchedulerError| {
            CliError::BadFlag("scheduler".into(), e.0)
        })?;
    let m: usize = flags.parse_or("m", 16usize)?;
    let seed: u64 = flags.parse_or("seed", 42u64)?;
    let eps = parse_rational("eps", flags.get("eps").unwrap_or("1/10"))?;
    if !eps.is_positive() {
        return Err(CliError::BadFlag("eps".into(), eps.to_string()));
    }
    let cfg = config_from_flags(flags, m)?;
    let r = kind.run(&inst, &cfg, seed).0;
    let a = analyze_intervals(&r, eps).expect("non-empty");
    let mut out = format!(
        "{kind} on {} jobs, m={m}: max flow {:.1} ticks (job J_{}), OPT >= {:.1}\n",
        inst.len(),
        a.flow.to_f64(),
        a.job,
        opt_max_flow(&inst, m).to_f64()
    );
    out.push_str(&format!(
        "interval decomposition (eps = {eps}): beta = {}, t' = {:.1}\n",
        a.beta(),
        a.t_prime.to_f64()
    ));
    let mut t = Table::new(["start", "end", "length", "defining job"]);
    for iv in &a.intervals {
        t.row([
            format!("{:.1}", iv.start.to_f64()),
            format!("{:.1}", iv.end.to_f64()),
            format!("{:.1}", iv.len().to_f64()),
            iv.defining_job
                .map(|j| format!("J_{j}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str(&t.render());
    if let Some(l) = fault_summary(kind, &cfg, &r) {
        out.push('\n');
        out.push_str(&l);
    }
    Ok(out)
}

/// `exec --stream on`: pull the workload's endless job source through the
/// O(active)-memory streaming simulation core instead of the threaded
/// executor. This is the multi-million-job mode (`--jobs 10000000`): the
/// executor path must materialize the whole instance up front, which at
/// that scale does not fit; the stream retires completed jobs back into a
/// free-listed slab, tracks the OPT lower bound incrementally, and keeps
/// exact max flow plus histogram percentiles in O(1) memory.
fn exec_stream_cmd(flags: &Flags) -> Result<String, CliError> {
    let (spec, m) = workload_from_flags(flags)?;
    let seed: u64 = flags.parse_or("seed", 42u64)?;
    if spec.n_jobs == 0 {
        return Err(CliError::BadFlag("jobs".into(), "0".into()));
    }
    if flags.get("faults").is_some() {
        return Err(CliError::BadFlag(
            "faults".into(),
            "not supported with --stream on (the streaming --certify path does not handle \
             fault-injected runs)"
                .into(),
        ));
    }
    let cfg = config_from_flags(flags, m)?;
    let certify = match flags.get("certify") {
        None | Some("off" | "false" | "0") => false,
        Some("on" | "true" | "1") => true,
        Some(other) => return Err(CliError::BadFlag("certify".into(), other.into())),
    };
    let jobs = spec.n_jobs as u64;
    let obs_path = flags.get("obs-json").map(str::to_string);
    let mut rec = obs_path.as_deref().map(JsonRecorder::new);
    let started = std::time::Instant::now(); // lint: allow(nondeterminism) wall-clock jobs/s reporting only; the schedule is seed-deterministic
    let mut null = NullRecorder;
    let recorder: &mut dyn Recorder = match rec.as_mut() {
        Some(r) => r,
        None => &mut null,
    };
    let run = match flags.get("policy").unwrap_or("steal-16-first") {
        "fifo" => parflow_bench::stream::run_stream_fifo(&spec, &cfg, jobs, recorder),
        s => {
            let policy = match s {
                "admit-first" => crate::core::StealPolicy::AdmitFirst,
                _ => {
                    let k = s
                        .strip_prefix("steal-")
                        .and_then(|t| t.strip_suffix("-first"))
                        .and_then(|k| k.parse().ok())
                        .ok_or_else(|| CliError::BadFlag("policy".into(), s.into()))?;
                    crate::core::StealPolicy::StealKFirst { k }
                }
            };
            parflow_bench::stream::run_stream_ws(&spec, &cfg, policy, seed, jobs, recorder)
        }
    }
    .map_err(|e| CliError::Io(format!("stream: {e}")))?;
    let wall = started.elapsed().as_secs_f64();
    let to_ms = 1000.0 / crate::workloads::TICKS_PER_SECOND;
    let mut out = format!(
        "streamed {} jobs on {m} workers in {:.1}s ({:.0} jobs/s, {:.2e} rounds/s)\n",
        run.summary.jobs,
        wall,
        run.summary.jobs as f64 / wall.max(1e-9),
        run.summary.total_rounds as f64 / wall.max(1e-9),
    );
    out.push_str(&format!(
        "max flow {:.2} ms, mean {:.2} ms, ~p99 {:.2} ms ({} NaN excluded)\n",
        run.summary.max_flow.to_f64() * to_ms,
        run.flows.mean().unwrap_or(0.0) * to_ms,
        run.flows.quantile(0.99).unwrap_or(0.0) * to_ms,
        run.flows.nan(),
    ));
    out.push_str(&format!(
        "live OPT bound {:.2} ms -> ratio {}\n",
        run.opt.combined_lower_bound().to_f64() * to_ms,
        run.competitive_ratio()
            .map_or("n/a".to_string(), |r| format!("{r:.2}")),
    ));
    if certify {
        // Exact-arithmetic P5 check: at speed 1 the streamed max flow can
        // never beat the OPT lower bound over the same arrivals. A
        // violation is a hard error (broken engine or tracker), not a line
        // in the report.
        let report = parflow_certify::certify_stream_summary(
            cfg.speed,
            run.summary.jobs,
            run.summary.max_flow,
            run.opt.combined_lower_bound(),
        );
        if !report.is_clean() {
            return Err(CliError::Io(report.render()));
        }
        out.push_str(&format!("{}\n", report.render()));
    }
    out.push_str(&format!(
        "retirement: {} retired, {} live high-water, {} slab slots (reuse {}), {} cursor slots",
        run.summary.retire.jobs_retired,
        run.summary.retire.live_jobs_high_water,
        run.summary.retire.slab_slots,
        run.summary
            .retire
            .slab_reuse_ratio()
            .map_or("n/a".to_string(), |r| format!("{:.1}%", r * 100.0)),
        run.summary.retire.cursor_slots,
    ));
    if let Some(kb) = parflow_bench::stream::peak_rss_kb() {
        out.push_str(&format!("\npeak RSS {:.1} MB (VmHWM)", kb as f64 / 1024.0));
    }
    if let Some(rec) = rec.as_mut() {
        rec.flush()
            .map_err(|e| CliError::Io(format!("obs-json: {e}")))?;
        out.push_str(&format!(
            "\n(obs json written to {})",
            obs_path.as_deref().unwrap_or_default()
        ));
    }
    Ok(out)
}

/// Run a generated workload on the *real* threaded executor (via the
/// bridge), with optional fault injection and watchdog deadline.
fn exec_cmd(flags: &Flags) -> Result<String, CliError> {
    match flags.get("stream") {
        Some("on" | "true" | "1") => return exec_stream_cmd(flags),
        Some("off" | "false" | "0") | None => {}
        Some(other) => return Err(CliError::BadFlag("stream".into(), other.into())),
    }
    let (spec, m) = workload_from_flags(flags)?;
    let seed: u64 = flags.parse_or("seed", 42u64)?;
    let policy = match flags.get("policy").unwrap_or("admit-first") {
        "admit-first" => RtPolicy::AdmitFirst,
        s => {
            let k = s
                .strip_prefix("steal-")
                .and_then(|t| t.strip_suffix("-first"))
                .and_then(|k| k.parse().ok())
                .ok_or_else(|| CliError::BadFlag("policy".into(), s.into()))?;
            RtPolicy::StealKFirst { k }
        }
    };
    let compress: f64 = flags.parse_or("compress", 1000.0)?;
    if !(compress > 0.0 && compress.is_finite()) {
        return Err(CliError::BadFlag("compress".into(), compress.to_string()));
    }
    let iters: u64 = flags.parse_or("iters-per-unit", 20u64)?;
    if iters == 0 {
        return Err(CliError::BadFlag("iters-per-unit".into(), "0".into()));
    }
    let obs_path = flags.get("obs-json").map(str::to_string);
    let mut rec = obs_path.as_deref().map(JsonRecorder::new);
    if let Some(r) = rec.as_mut() {
        r.span_begin("exec.generate");
    }
    let inst = spec.generate();
    if inst.is_empty() {
        return Err(CliError::BadFlag("jobs".into(), "0".into()));
    }
    let wl = instance_to_workload(&inst, &BridgeConfig::compressed(iters, compress));
    if let Some(r) = rec.as_mut() {
        r.span_end("exec.generate");
    }
    let mut cfg = RuntimeConfig::new(m, policy).with_seed(seed);
    if let Some(s) = flags.get("faults") {
        cfg = cfg.with_faults(parse_faults(s)?);
    }
    if let Some(s) = flags.get("deadline") {
        cfg = cfg.with_deadline(parse_deadline(s)?);
    }
    if let Some(r) = rec.as_mut() {
        r.span_begin("exec.run");
    }
    let r = try_run_workload(&cfg, &wl).map_err(|e| match e.error {
        RuntimeError::InvalidFaultPlan(msg) => CliError::BadFlag("faults".into(), msg),
        other => CliError::Io(other.to_string()),
    })?;
    if let Some(rec) = rec.as_mut() {
        rec.span_end("exec.run");
    }
    let count = |s: JobStatus| r.jobs.iter().filter(|j| j.status == s).count();
    let mut out = format!(
        "executed {} jobs on {m} workers in {:.1} ms ({compress}x compressed time)\n",
        r.jobs.len(),
        r.elapsed.as_secs_f64() * 1e3,
    );
    out.push_str(&format!(
        "status: {} completed, {} failed, {} aborted{}\n",
        count(JobStatus::Completed),
        count(JobStatus::Failed),
        count(JobStatus::Aborted),
        if r.aborted {
            " [run aborted by watchdog]"
        } else {
            ""
        }
    ));
    out.push_str(&format!(
        "max flow {:.2} ms (completed only: {:.2} ms), mean {:.2} ms\n",
        r.max_flow().as_secs_f64() * 1e3,
        r.max_completed_flow().as_secs_f64() * 1e3,
        r.mean_flow().as_secs_f64() * 1e3,
    ));
    out.push_str(&format!(
        "steals {}/{}, admissions {}, task panics {}, orphaned tasks {}, fault events {}",
        r.stats.successful_steals,
        r.stats.steal_attempts,
        r.stats.admissions,
        r.stats.task_panics,
        r.stats.orphaned_tasks,
        r.fault_events.len(),
    ));
    if let Some(rec) = rec.as_mut() {
        r.observe_into(rec);
        rec.flush()
            .map_err(|e| CliError::Io(format!("obs-json: {e}")))?;
        out.push_str(&format!(
            "\n(obs json written to {})",
            obs_path.as_deref().unwrap_or_default()
        ));
    }
    Ok(out)
}

fn dot_cmd(flags: &Flags) -> Result<String, CliError> {
    let shape = flags.require("shape")?;
    let dag = match shape {
        "single" => shapes::single_node(flags.parse_or("work", 10u64)?),
        "chain" => shapes::chain(
            flags.parse_or("len", 4usize)?,
            flags.parse_or("work", 2u64)?,
        ),
        "diamond" => shapes::diamond(
            flags.parse_or("width", 4usize)?,
            flags.parse_or("work", 2u64)?,
        ),
        "parallel-for" => shapes::parallel_for(
            flags.parse_or("work", 40u64)?,
            flags.parse_or("chunks", 8usize)?,
        ),
        "fork-join" => shapes::fork_join(
            flags.parse_or("depth", 3u32)?,
            flags.parse_or("leaf", 4u64)?,
        ),
        "map-reduce" => shapes::map_reduce(
            flags.parse_or("mappers", 4usize)?,
            flags.parse_or("map-work", 5u64)?,
            flags.parse_or("reducers", 2usize)?,
            flags.parse_or("reduce-work", 3u64)?,
        ),
        "pipeline" => shapes::pipeline(
            flags.parse_or("stages", 3usize)?,
            flags.parse_or("items", 4usize)?,
            flags.parse_or("work", 2u64)?,
        ),
        "adversarial" => shapes::adversarial_tiny(flags.parse_or("m", 40usize)?),
        other => return Err(CliError::BadFlag("shape".into(), other.into())),
    };
    Ok(dag.to_dot(&shape.replace('-', "_")))
}

/// Entry point: dispatch on the first argument.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::UnknownCommand("<none>".into()))?;
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_string());
    }
    if cmd == "serve" {
        // The streaming admission service has its own flag grammar
        // (boolean flags, subcommands); delegate before Flags::parse.
        return parflow_serve::cli::run(rest).map_err(|e| CliError::Io(e.to_string()));
    }
    if cmd == "sweep" {
        // The mega-sweep harness also has boolean flags (--resume);
        // delegate before Flags::parse.
        return parflow_bench::sweep::cli_main(rest).map_err(CliError::Io);
    }
    // `--stream` and `--certify` read naturally as bare flags (`exec
    // --stream --certify --jobs 10000000`); Flags::parse wants `--key
    // value` pairs, so a bare occurrence is normalized to `... on`
    // before parsing.
    let normalized: Vec<String>;
    let is_bare = |a: &str| a == "--stream" || a == "--certify";
    let rest = if cmd == "exec" && rest.iter().any(|a| is_bare(a)) {
        let mut v = Vec::with_capacity(rest.len() + 2);
        let mut it = rest.iter().peekable();
        while let Some(a) = it.next() {
            v.push(a.clone());
            if is_bare(a) && it.peek().is_none_or(|n| n.starts_with("--")) {
                v.push("on".to_string());
            }
        }
        normalized = v;
        &normalized[..]
    } else {
        rest
    };
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "simulate" => simulate_cmd(&flags),
        "compare" => compare_cmd(&flags),
        "generate" => generate_cmd(&flags),
        "analyze" => analyze_cmd(&flags),
        "exec" => exec_cmd(&flags),
        "dot" => dot_cmd(&flags),
        other => Err(CliError::UnknownCommand(other.into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// True when a real `serde_json` is linked (the offline build stubs it
    /// out; see vendor/offline-stubs/README.md).
    fn serde_available() -> bool {
        serde_json::from_str::<i32>("1").is_ok()
    }

    #[test]
    fn no_command_errors() {
        assert!(matches!(run_cli(&[]), Err(CliError::UnknownCommand(_))));
        assert!(matches!(
            run_cli(&argv("frobnicate")),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn help_names_every_command() {
        for arg in ["help", "--help", "-h"] {
            let out = run_cli(&argv(arg)).expect("help is not an error");
            assert_eq!(out, USAGE);
            for cmd in [
                "simulate", "compare", "generate", "analyze", "exec", "serve", "sweep", "dot",
                "help",
            ] {
                assert!(out.contains(&format!("parflow {cmd} ")), "{arg}: {cmd}");
            }
        }
    }

    #[test]
    fn simulate_at_extreme_qps_reports_utilization_na() {
        // Every arrival rounds to tick 0: the load is undefined, not 0%.
        let out = run_cli(&argv(
            "simulate --dist bing --qps 1e9 --jobs 50 --m 4 --scheduler fifo",
        ))
        .unwrap();
        assert!(
            out.contains("utilization n/a (all jobs arrive at t=0)"),
            "{out}"
        );
        assert!(!out.contains("utilization 0%"));
        let out = run_cli(&argv(
            "simulate --dist bing --qps 1000 --jobs 50 --m 4 --scheduler fifo",
        ))
        .unwrap();
        assert!(out.contains("% (flows in ticks"), "{out}");
    }

    #[test]
    fn serve_delegates_to_the_serve_crate() {
        let out = run_cli(&argv("serve emit --n 3 --seed 1")).expect("serve emit");
        assert_eq!(out.lines().count(), 3);
        assert!(out.lines().all(|l| l.starts_with('{')));
        // Serve-side errors surface as CliError::Io.
        assert!(matches!(
            run_cli(&argv("serve bogus")),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn simulate_small() {
        let out = run_cli(&argv(
            "simulate --dist finance --qps 2000 --jobs 200 --m 4 --scheduler fifo",
        ))
        .unwrap();
        assert!(out.contains("fifo"));
        assert!(out.contains("max flow"));
        assert!(out.contains("utilization"));
    }

    #[test]
    fn simulate_requires_scheduler() {
        let err = run_cli(&argv("simulate --jobs 10")).unwrap_err();
        assert_eq!(err, CliError::MissingFlag("scheduler".into()));
    }

    #[test]
    fn simulate_rejects_bad_scheduler() {
        let err = run_cli(&argv("simulate --jobs 10 --scheduler warp")).unwrap_err();
        assert!(matches!(err, CliError::BadFlag(k, _) if k == "scheduler"));
    }

    #[test]
    fn compare_lists_all_schedulers() {
        let out = run_cli(&argv("compare --dist bing --qps 3000 --jobs 150 --m 4")).unwrap();
        for name in [
            "fifo",
            "bwf",
            "lifo",
            "sjf",
            "equi",
            "admit-first",
            "steal-16-first",
        ] {
            assert!(out.contains(name), "missing {name} in output");
        }
    }

    #[test]
    fn generate_and_analyze_roundtrip() {
        if !serde_available() {
            eprintln!("skipping: serde_json is stubbed in this offline build");
            return;
        }
        let dir = std::env::temp_dir().join("parflow_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wl.json");
        let path_s = path.to_str().unwrap();
        let out = run_cli(&argv(&format!(
            "generate --dist finance --qps 2000 --jobs 100 --out {path_s}"
        )))
        .unwrap();
        assert!(out.contains("wrote 100 jobs"));
        let out = run_cli(&argv(&format!(
            "analyze --in {path_s} --scheduler fifo --m 4 --eps 1/10"
        )))
        .unwrap();
        assert!(out.contains("interval decomposition"));
        assert!(out.contains("max flow"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn analyze_missing_file_errors() {
        let err = run_cli(&argv("analyze --in /no/such/file.json")).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn dot_shapes() {
        for shape in [
            "single",
            "chain",
            "diamond",
            "parallel-for",
            "fork-join",
            "map-reduce",
            "pipeline",
            "adversarial",
        ] {
            let out = run_cli(&argv(&format!("dot --shape {shape}"))).unwrap();
            assert!(out.starts_with("digraph"), "{shape}: {out}");
        }
        assert!(run_cli(&argv("dot --shape blob")).is_err());
        assert!(matches!(
            run_cli(&argv("dot")),
            Err(CliError::MissingFlag(_))
        ));
    }

    #[test]
    fn speed_parsing() {
        assert_eq!(parse_speed("2").unwrap(), Speed::integer(2));
        assert_eq!(parse_speed("11/10").unwrap(), Speed::new(11, 10));
        assert!(parse_speed("0").is_err());
        assert!(parse_speed("a/b").is_err());
        // and through the full pipeline:
        let out = run_cli(&argv(
            "simulate --jobs 100 --m 4 --qps 2000 --scheduler fifo --speed 11/10",
        ))
        .unwrap();
        assert!(out.contains("fifo"));
    }

    #[test]
    fn steal_cost_flag() {
        assert!(run_cli(&argv(
            "simulate --jobs 50 --m 2 --qps 2000 --scheduler admit-first --steals unit"
        ))
        .is_ok());
        assert!(run_cli(&argv(
            "simulate --jobs 50 --m 2 --qps 2000 --scheduler admit-first --steals maybe"
        ))
        .is_err());
    }

    #[test]
    fn flag_parser_rejects_stragglers() {
        assert!(Flags::parse(&argv("--key")).is_err());
        assert!(Flags::parse(&argv("orphan value")).is_err());
        let f = Flags::parse(&argv("--a 1 --b two")).unwrap();
        assert_eq!(f.get("a"), Some("1"));
        assert_eq!(f.get("b"), Some("two"));
    }

    // ---- CliError coverage: every variant, constructed and displayed ----

    #[test]
    fn every_error_variant_is_reachable_and_displays() {
        // UnknownCommand
        let e = run_cli(&argv("warp")).unwrap_err();
        assert!(matches!(e, CliError::UnknownCommand(_)));
        assert!(e.to_string().contains("unknown command"));
        assert!(e.to_string().contains("exec"), "usage must list exec");
        // BadFlag
        let e = run_cli(&argv("simulate --jobs nope --scheduler fifo")).unwrap_err();
        assert_eq!(e, CliError::BadFlag("jobs".into(), "nope".into()));
        assert!(e.to_string().contains("bad value 'nope'"));
        // MissingFlag
        let e = run_cli(&argv("generate --jobs 5")).unwrap_err();
        assert_eq!(e, CliError::MissingFlag("out".into()));
        assert!(e.to_string().contains("missing required flag --out"));
        // Io
        let e = run_cli(&argv("analyze --in /no/such/file.json")).unwrap_err();
        assert!(matches!(e, CliError::Io(_)));
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn bad_flag_variants_across_commands() {
        // Non-numeric and out-of-range values on each numeric flag.
        for cmd in [
            "simulate --qps -5 --scheduler fifo",
            "simulate --qps inf --scheduler fifo",
            "simulate --m 0 --scheduler fifo",
            "simulate --seed x --scheduler fifo",
            "simulate --jobs 0 --scheduler fifo",
            "simulate --jobs 10 --scheduler fifo --speed 0",
            "simulate --jobs 10 --scheduler fifo --steals maybe",
            "simulate --jobs 10 --scheduler fifo --faults crash",
            "exec --compress 0",
            "exec --compress nan",
            "exec --iters-per-unit 0",
            "exec --policy warp-first",
            "exec --jobs 0",
            "exec --stream --jobs 0",
        ] {
            let e = run_cli(&argv(cmd)).unwrap_err();
            assert!(
                matches!(e, CliError::BadFlag(..) | CliError::MissingFlag(_)),
                "{cmd}: {e:?}"
            );
        }
        // eps must be a positive rational with a non-zero denominator.
        assert!(parse_rational("eps", "1/0").is_err());
        assert!(parse_rational("eps", "x").is_err());
    }

    // ---- --faults / --deadline parsing ----

    #[test]
    fn fault_spec_round_trips_every_kind() {
        let plan =
            parse_faults("crash:3@1000,slow:2x0.5,stall:1@50+10,blackhole:0,panic:0.01").unwrap();
        assert_eq!(plan.crash_round_of(3), Some(1000));
        assert_eq!(plan.rate_ppm_of(2), 500_000);
        assert!(plan.is_stalled(1, 55));
        assert!(plan.is_blackhole(0));
        assert_eq!(plan.panic_ppm, 10_000);
        // Whitespace and empty segments are tolerated.
        let plan = parse_faults(" crash:0@5 , ,panic:1 ").unwrap();
        assert_eq!(plan.crash_round_of(0), Some(5));
        assert_eq!(plan.panic_ppm, PPM);
        // Empty spec is an empty plan.
        assert!(parse_faults("").unwrap().is_empty());
    }

    #[test]
    fn malformed_fault_specs_are_rejected() {
        for bad in [
            "crash",           // no spec at all
            "crash:3",         // missing @round
            "crash:x@5",       // non-numeric worker
            "crash:3@",        // missing round
            "slow:2",          // missing factor
            "slow:2x0",        // zero factor = frozen, use stall/crash
            "slow:2x1.5",      // faster than full speed
            "slow:2x-0.5",     // negative
            "slow:2xnan",      // NaN must not pass the range check
            "stall:1@50",      // missing +duration
            "stall:1@x+5",     // non-numeric from
            "blackhole:",      // missing worker
            "blackhole:zero",  // non-numeric worker
            "panic:1.5",       // probability > 1
            "panic:-0.1",      // negative probability
            "panic:often",     // non-numeric
            "meteor:1@2",      // unknown fault kind
            "crash:1@2,panic", // good entry followed by bad one
        ] {
            let e = parse_faults(bad).unwrap_err();
            assert!(
                matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
                "{bad}: {e:?}"
            );
        }
    }

    #[test]
    fn fault_plan_validated_against_machine_size() {
        // Worker 7 does not exist on a 4-core simulated machine.
        let e = run_cli(&argv(
            "simulate --jobs 20 --m 4 --qps 2000 --scheduler admit-first --faults crash:7@0",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
            "{e:?}"
        );
        // Crashing every worker leaves nobody to finish the work.
        let e = run_cli(&argv(
            "simulate --jobs 20 --m 2 --qps 2000 --scheduler admit-first \
             --faults crash:0@0,crash:1@0",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
            "{e:?}"
        );
    }

    #[test]
    fn simulate_with_faults_reports_flows() {
        let out = run_cli(&argv(
            "simulate --jobs 100 --m 4 --qps 2000 --scheduler steal-4-first \
             --faults crash:3@100,slow:2x0.5",
        ))
        .unwrap();
        assert!(out.contains("max flow"));
    }

    #[test]
    fn centralized_schedulers_say_the_fault_plan_is_not_applied() {
        let out = run_cli(&argv(
            "simulate --jobs 200 --m 4 --qps 800 --scheduler fifo \
             --faults crash:1@100,stall:2@50+500",
        ))
        .unwrap();
        assert!(
            out.ends_with(
                "\nfifo: fault plan not applied (centralized engines model a reliable machine)"
            ),
            "{out}"
        );
        // Without a plan the output carries no fault line at all.
        let out = run_cli(&argv(
            "simulate --jobs 200 --m 4 --qps 800 --scheduler fifo",
        ))
        .unwrap();
        assert!(!out.contains("fault plan"), "{out}");
        // compare: one line per centralized scheduler, none mislabelled.
        let out = run_cli(&argv(
            "compare --jobs 100 --m 4 --qps 800 --faults crash:1@100",
        ))
        .unwrap();
        for kind in ["fifo", "bwf", "lifo", "sjf", "equi"] {
            assert!(
                out.contains(&format!("\n{kind}: fault plan not applied")),
                "{kind}: {out}"
            );
        }
        assert!(
            !out.contains("steal-16-first: fault plan not applied"),
            "{out}"
        );
    }

    #[test]
    fn deadline_parsing() {
        assert_eq!(parse_deadline("30s").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_deadline("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_deadline("0.25").unwrap(), Duration::from_millis(250));
        for bad in ["", "s", "ms", "-1s", "0s", "0", "soon", "nan", "infs"] {
            let e = parse_deadline(bad).unwrap_err();
            assert!(
                matches!(e, CliError::BadFlag(ref k, _) if k == "deadline"),
                "{bad}: {e:?}"
            );
        }
    }

    #[test]
    fn exec_runs_real_executor() {
        let out = run_cli(&argv(
            "exec --jobs 10 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1",
        ))
        .unwrap();
        assert!(out.contains("10 completed, 0 failed, 0 aborted"), "{out}");
        assert!(out.contains("max flow"));
    }

    #[test]
    fn exec_obs_json_writes_report() {
        let path = std::env::temp_dir().join("parflow_cli_exec_obs.json");
        let path_s = path.to_str().unwrap();
        let out = run_cli(&argv(&format!(
            "exec --jobs 10 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1 \
             --obs-json {path_s}"
        )))
        .unwrap();
        assert!(
            out.contains(&format!("(obs json written to {path_s})")),
            "{out}"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        // Aggregates, per-worker counters, the latency histogram and both
        // phase spans must all land in the report.
        for key in [
            "\"schema\": 1",
            "\"rt.tasks_executed\"",
            "\"rt.worker.tasks_executed[0]\"",
            "\"rt.worker.tasks_executed[1]\"",
            "\"rt.job_flow_ms\"",
            "\"exec.generate\"",
            "\"exec.run\"",
        ] {
            assert!(body.contains(key), "missing {key} in:\n{body}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exec_with_full_panic_rate_fails_all_jobs() {
        let out = run_cli(&argv(
            "exec --jobs 8 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1 \
             --policy steal-4-first --faults panic:1",
        ))
        .unwrap();
        assert!(out.contains("0 completed, 8 failed, 0 aborted"), "{out}");
    }

    #[test]
    fn exec_watchdog_aborts_stalled_machine() {
        // The only worker stalls forever; the watchdog must end the run.
        let out = run_cli(&argv(
            "exec --jobs 4 --m 1 --qps 5000 --compress 20000 --iters-per-unit 1 \
             --faults stall:0@0+100000000 --deadline 60ms",
        ))
        .unwrap();
        assert!(out.contains("aborted"), "{out}");
        assert!(out.contains("[run aborted by watchdog]"), "{out}");
    }

    #[test]
    fn exec_rejects_invalid_plan_for_machine() {
        let e = run_cli(&argv(
            "exec --jobs 4 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1 \
             --faults blackhole:9",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
            "{e:?}"
        );
    }

    // ---- exec --stream: the O(active)-memory streaming path ----

    #[test]
    fn exec_stream_runs_and_reports() {
        // Bare `--stream` is normalized to `--stream on` before parsing.
        let out = run_cli(&argv("exec --stream --jobs 200 --m 4 --qps 5000")).unwrap();
        assert!(out.contains("streamed 200 jobs on 4 workers"), "{out}");
        assert!(out.contains("live OPT bound"), "{out}");
        assert!(out.contains("retirement:"), "{out}");
        // Explicit value form behaves identically.
        let out2 = run_cli(&argv("exec --stream on --jobs 200 --m 4 --qps 5000")).unwrap();
        assert!(out2.contains("streamed 200 jobs"), "{out2}");
        // `--stream off` falls through to the threaded executor.
        let out3 = run_cli(&argv(
            "exec --stream off --jobs 10 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1",
        ))
        .unwrap();
        assert!(out3.contains("executed 10 jobs"), "{out3}");
    }

    #[test]
    fn exec_stream_accepts_every_policy_spelling() {
        for policy in ["fifo", "admit-first", "steal-4-first"] {
            let out = run_cli(&argv(&format!(
                "exec --stream --jobs 100 --m 2 --qps 5000 --policy {policy}"
            )))
            .unwrap();
            assert!(out.contains("streamed 100 jobs"), "{policy}: {out}");
        }
        let e = run_cli(&argv(
            "exec --stream --jobs 100 --m 2 --qps 5000 --policy warp-first",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "policy"),
            "{e:?}"
        );
    }

    #[test]
    fn exec_stream_rejects_faults_and_bad_values() {
        let e = run_cli(&argv(
            "exec --stream --jobs 100 --m 2 --qps 5000 --faults panic:0.5",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
            "{e:?}"
        );
        let e = run_cli(&argv("exec --stream maybe --jobs 100 --m 2 --qps 5000")).unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "stream"),
            "{e:?}"
        );
    }

    #[test]
    fn exec_stream_certify_reports_certificate() {
        // Bare `--certify` normalizes like `--stream`; the run must pass
        // the P5 check and append the certificate line.
        for flags in [
            "exec --stream --certify --jobs 200 --m 4 --qps 5000",
            "exec --stream on --certify on --jobs 200 --m 4 --qps 5000 --policy fifo",
        ] {
            let out = run_cli(&argv(flags)).unwrap();
            assert!(out.contains("certify: clean"), "{flags}: {out}");
        }
        // An unparsable value is a flag error, not a silent no-op.
        let e = run_cli(&argv(
            "exec --stream --certify maybe --jobs 100 --m 2 --qps 5000",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "certify"),
            "{e:?}"
        );
    }
}
