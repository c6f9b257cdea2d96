//! Command-line surface shared by the `parflow-serve` binary and the root
//! `parflow serve` subcommand.
//!
//! ```text
//! parflow-serve emit --n 300 --qps 2000 --dist bing --seed 42 > subs.jsonl
//! parflow-serve run  --input subs.jsonl --workers 2 --slo 5000 --digest-only
//! parflow-serve tcp  --addr 127.0.0.1:7070 --workers 4 --max-conns 1
//! ```
//!
//! `emit` renders a deterministic submission stream (the workloads crate's
//! [`JobSource`] under the hood) as jsonl; `run` replays jsonl from a file
//! or stdin (`--input -`); `tcp` serves live connections. All three are
//! plain functions returning the text they would print, so they are
//! unit-testable without process spawning.

use crate::ingest::{run_jsonl, run_tcp_listener};
use crate::protocol::Submission;
use crate::supervisor::{FaultSpec, ServeConfig, Supervisor};
use parflow_runtime::RuntimeError;
use parflow_workloads::{DistKind, WorkloadSpec};
use std::collections::BTreeMap;

const USAGE: &str = "usage: parflow-serve <emit|run|tcp> [--flag value ...]\n\
  emit: --n N --qps QPS --dist bing|finance|lognormal --seed S [--poison-every K]\n\
  run:  --input PATH|- [--workers W --slots M --queue-cap Q --slo TICKS --seed S\n\
        --iters-per-unit I --chaos W:AFTER,.. --merged-json P --live-json P --digest-only]\n\
  tcp:  --addr HOST:PORT [--max-conns C + the run flags]";

/// `--key value` flags; a flag followed by another flag (or nothing) is a
/// boolean `true`, so `--digest-only` needs no operand.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, RuntimeError> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| RuntimeError::Io(format!("expected --flag, got `{}`", args[i])))?;
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                map.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        }
        Ok(Flags(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, RuntimeError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| RuntimeError::Io(format!("bad value `{v}` for --{key}"))),
        }
    }

    fn is_set(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }
}

fn parse_dist(s: &str) -> Result<DistKind, RuntimeError> {
    match s.to_ascii_lowercase().as_str() {
        "bing" => Ok(DistKind::Bing),
        "finance" => Ok(DistKind::Finance),
        "lognormal" | "log-normal" => Ok(DistKind::LogNormal),
        other => Err(RuntimeError::Io(format!("unknown dist `{other}`"))),
    }
}

/// Dispatch one serve invocation; returns the text to print.
pub fn run(args: &[String]) -> Result<String, RuntimeError> {
    match args.first().map(String::as_str) {
        Some("emit") => emit(&args[1..]),
        Some("run") => run_replay(&args[1..]),
        Some("tcp") => run_tcp(&args[1..]),
        _ => Err(RuntimeError::Io(USAGE.to_string())),
    }
}

/// Deterministic jsonl stream from the endless [`JobSource`]: same flags,
/// same bytes, forever replayable.
///
/// [`JobSource`]: parflow_workloads::JobSource
fn emit(args: &[String]) -> Result<String, RuntimeError> {
    let flags = Flags::parse(args)?;
    let n: u64 = flags.parse_or("n", 100)?;
    let qps: f64 = flags.parse_or("qps", 2000.0)?;
    let seed: u64 = flags.parse_or("seed", 42)?;
    let poison_every: u64 = flags.parse_or("poison-every", 0)?;
    let dist = parse_dist(flags.get("dist").unwrap_or("bing"))?;
    let spec = WorkloadSpec::paper_fig2(dist, qps, n as usize, seed);
    let mut source = spec.job_source();
    let mut out = String::new();
    for _ in 0..n {
        let job = source.next_job();
        let poison = poison_every > 0 && (job.index + 1).is_multiple_of(poison_every);
        out.push_str(
            &Submission {
                id: job.index,
                arrival: job.arrival,
                work: job.work,
                poison,
            }
            .to_jsonl(),
        );
        out.push('\n');
    }
    Ok(out)
}

fn config_from(flags: &Flags) -> Result<ServeConfig, RuntimeError> {
    let mut cfg = ServeConfig::new(flags.parse_or("workers", 2)?);
    cfg.capacity_slots = flags.parse_or("slots", cfg.capacity_slots)?;
    cfg.queue_cap = flags.parse_or("queue-cap", cfg.queue_cap)?;
    cfg.seed = flags.parse_or("seed", cfg.seed)?;
    cfg.iters_per_unit = flags.parse_or("iters-per-unit", cfg.iters_per_unit)?;
    cfg.inbox_cap = flags.parse_or("inbox-cap", cfg.inbox_cap)?;
    cfg.max_restarts = flags.parse_or("max-restarts", cfg.max_restarts)?;
    if let Some(slo) = flags.get("slo") {
        cfg.slo_ticks = Some(
            slo.parse()
                .map_err(|_| RuntimeError::Io(format!("bad value `{slo}` for --slo")))?,
        );
    }
    if let Some(chaos) = flags.get("chaos") {
        cfg.faults = FaultSpec::parse_list(chaos).map_err(RuntimeError::Io)?;
    }
    Ok(cfg)
}

/// Finish the supervisor and render per the reporting flags.
fn report_out(sup: Supervisor, flags: &Flags) -> Result<String, RuntimeError> {
    let report = sup.finish();
    if let Some(path) = flags.get("merged-json") {
        std::fs::write(path, report.merged.to_json())
            .map_err(|e| RuntimeError::Io(format!("cannot write `{path}`: {e}")))?;
    }
    if let Some(path) = flags.get("live-json") {
        std::fs::write(path, report.live.to_json())
            .map_err(|e| RuntimeError::Io(format!("cannot write `{path}`: {e}")))?;
    }
    if flags.is_set("digest-only") {
        Ok(format!("{}\n", report.digest))
    } else {
        Ok(format!("{}\n", report.summary()))
    }
}

/// Replay jsonl from a file or stdin through a fresh supervisor.
fn run_replay(args: &[String]) -> Result<String, RuntimeError> {
    let flags = Flags::parse(args)?;
    let input = flags
        .get("input")
        .ok_or_else(|| RuntimeError::Io("missing required flag --input".into()))?;
    let mut sup = Supervisor::new(config_from(&flags)?)?;
    if input == "-" {
        run_jsonl(&mut sup, std::io::stdin().lock())?;
    } else {
        let file = std::fs::File::open(input)
            .map_err(|e| RuntimeError::Io(format!("cannot open `{input}`: {e}")))?;
        run_jsonl(&mut sup, std::io::BufReader::new(file))?;
    };
    report_out(sup, &flags)
}

/// Live mode: bind, serve `--max-conns` connections, then report.
fn run_tcp(args: &[String]) -> Result<String, RuntimeError> {
    let flags = Flags::parse(args)?;
    let addr = flags
        .get("addr")
        .ok_or_else(|| RuntimeError::Io("missing required flag --addr".into()))?;
    let max_conns: usize = flags.parse_or("max-conns", 1)?;
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| RuntimeError::Io(format!("cannot bind `{addr}`: {e}")))?;
    let mut sup = Supervisor::new(config_from(&flags)?)?;
    run_tcp_listener(&mut sup, &listener, max_conns)?;
    report_out(sup, &flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn emit_is_deterministic_and_parseable() {
        let a = run(&argv("emit --n 50 --qps 1500 --seed 7")).expect("emit");
        let b = run(&argv("emit --n 50 --qps 1500 --seed 7")).expect("emit");
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 50);
        for line in a.lines() {
            crate::protocol::parse_submission(line).expect("emitted line parses");
        }
        let c = run(&argv("emit --n 50 --qps 1500 --seed 8")).expect("emit");
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn emit_poison_every() {
        let out = run(&argv("emit --n 10 --seed 1 --poison-every 3")).expect("emit");
        let poisoned = out.lines().filter(|l| l.contains("\"poison\"")).count();
        assert_eq!(poisoned, 3);
    }

    #[test]
    fn replay_digest_is_stable_across_worker_counts() {
        let stream = run(&argv("emit --n 40 --qps 2000 --seed 5")).expect("emit");
        let path = std::env::temp_dir().join("parflow_serve_cli_test.jsonl");
        std::fs::write(&path, &stream).expect("write stream");
        let base = format!(
            "run --input {} --seed 9 --iters-per-unit 1 --digest-only",
            path.display()
        );
        let d1 = run(&argv(&format!("{base} --workers 1"))).expect("run w1");
        let d2 = run(&argv(&format!("{base} --workers 2"))).expect("run w2");
        assert_eq!(d1, d2);
        assert_eq!(d1.trim().len(), 16);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_usage_is_an_io_error() {
        assert!(matches!(run(&argv("bogus")), Err(RuntimeError::Io(_))));
        assert!(matches!(run(&argv("run")), Err(RuntimeError::Io(_))));
        assert!(matches!(
            run(&argv("run --input missing.jsonl --chaos nope")),
            Err(RuntimeError::Io(_))
        ));
    }
}
