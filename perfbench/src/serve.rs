//! `serve_replay`: `JobSource` submissions (Bing, QPS 2000) rendered to
//! jsonl in memory, then replayed line by line through
//! `parse_submission` -> `Supervisor::offer` / `pump` -> `finish`, on two
//! worker shards with the default ledger (16 slots, queue cap 64). The
//! replay runs as fast as the supervisor accepts, so the figure is
//! throughput at a stated input size. It is the only workload that
//! reaches `crates/serve`.

use crate::reference::Host;
use crate::{derive_seed, stats, Measured, Run};
use parflow::obs::ObsReport;
use parflow::workloads::{DistKind, WorkloadSpec};
use parflow_serve::{
    parse_submission, AdmissionConfig, AdmissionLedger, Outcome, ServeConfig, ServeReport,
    Submission, Supervisor,
};
use std::fmt::Write as _;
use std::time::Instant;

const QPS: f64 = 2000.0;
/// Submissions per replay.
const SUBMISSIONS: u64 = 20_000;
/// Replays every run makes; each gives one p50 and p99 of about 15 000
/// admitted jobs.
const MIN_REPLAYS: usize = 3;

fn config() -> ServeConfig {
    ServeConfig::new(crate::worker_threads())
}

fn supervisor() -> Supervisor {
    Supervisor::new(config()).expect("the default serve config has no faults to validate")
}

/// Render the submission stream of `seed` as jsonl.
fn render(seed: u64) -> String {
    let spec = WorkloadSpec::paper_fig2(DistKind::Bing, QPS, SUBMISSIONS as usize, seed);
    let mut source = spec.job_source();
    let mut out = String::new();
    for _ in 0..SUBMISSIONS {
        let job = source.next_job();
        let sub = Submission {
            id: job.index,
            arrival: job.arrival,
            work: job.work,
            poison: false,
        };
        let _ = writeln!(out, "{}", sub.to_jsonl());
    }
    out
}

/// Replay `jsonl` with tracing off; returns the report, the parse-error
/// count and the wall time from the first offer to `finish`'s return.
fn replay(sup: Supervisor, jsonl: &str) -> (ServeReport, u64, f64) {
    let mut sup = sup;
    let mut parse_errors = 0;
    let t = Instant::now();
    for line in jsonl.lines() {
        match parse_submission(line) {
            Ok(sub) => {
                sup.offer(sub);
            }
            Err(_) => parse_errors += 1,
        }
        sup.pump();
    }
    let report = sup.finish();
    (report, parse_errors, t.elapsed().as_secs_f64())
}

/// Per-call times of one traced replay.
#[derive(Default)]
struct CallTimes {
    parse: f64,
    offer: f64,
    pump: f64,
    lines: u64,
    offers: u64,
}

/// [`replay`] with a timer around every call into each layer.
fn traced_replay(sup: Supervisor, jsonl: &str, m: &mut Measured) -> (ServeReport, u64, f64) {
    let mut sup = sup;
    let mut parse_errors = 0;
    let mut ct = CallTimes::default();
    let t = Instant::now();
    m.tracer.begin("serve.replay");
    for line in jsonl.lines() {
        let t0 = Instant::now();
        let parsed = parse_submission(line);
        let t1 = Instant::now();
        ct.parse += (t1 - t0).as_secs_f64();
        ct.lines += 1;
        match parsed {
            Ok(sub) => {
                sup.offer(sub);
                ct.offer += t1.elapsed().as_secs_f64();
                ct.offers += 1;
            }
            Err(_) => parse_errors += 1,
        }
        let t2 = Instant::now();
        sup.pump();
        ct.pump += t2.elapsed().as_secs_f64();
    }
    let (report, finish_s) = m.tracer.span("serve.supervisor.finish", || sup.finish());
    m.tracer.end();
    let secs = t.elapsed().as_secs_f64();
    m.tracer
        .aggregate("serve.protocol.parse", ct.lines, ct.parse);
    m.tracer
        .aggregate("serve.supervisor.offer", ct.offers, ct.offer);
    m.tracer
        .aggregate("serve.supervisor.pump", ct.lines, ct.pump);
    let l = &mut m.layers;
    l.push("serve.protocol.parse_s", ct.parse);
    l.push("serve.protocol.lines", ct.lines as f64);
    l.push("serve.supervisor.offer_s", ct.offer);
    l.push("serve.supervisor.pump_s", ct.pump);
    l.push("serve.supervisor.finish_s", finish_s);
    supervisor_layer(m, &report);
    (report, parse_errors, secs)
}

fn counter(report: &ObsReport, label: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(l, _)| l == label)
        .map_or(0, |&(_, v)| v)
}

fn supervisor_layer(m: &mut Measured, r: &ServeReport) {
    let per_worker: Vec<f64> = (0..config().workers)
        .map(|w| counter(&r.live, &format!("serve.worker.completed[{w}]")) as f64)
        .collect();
    let l = &mut m.layers;
    l.push("serve.supervisor.completed", r.completed as f64);
    l.push("serve.supervisor.lost", r.lost as f64);
    l.push(
        "serve.supervisor.duplicates",
        counter(&r.live, "serve.duplicate_completion") as f64,
    );
    l.push(
        "serve.supervisor.restarts",
        counter(&r.live, "serve.restarts") as f64,
    );
    l.push(
        "serve.supervisor.worker_imbalance",
        stats::imbalance(&per_worker),
    );
    l.push("serve.supervisor.wall_flow_p50_ms", wall_flow(r).0);
}

/// `(p50, p99, samples)` of the live report's offer-to-ack wall flow.
fn wall_flow(r: &ServeReport) -> (f64, f64, u64) {
    r.live
        .histograms
        .iter()
        .find(|h| h.name == "serve.wall_flow_ms")
        .map_or((f64::NAN, f64::NAN, 0), |h| (h.p50, h.p99, h.count))
}

/// The admission ledger on its own over the same submissions: it is a pure
/// function of the stream, so this pass times `decide` without the
/// supervisor around it.
fn ledger_pass(jsonl: &str, m: &mut Measured) {
    let cfg = config();
    let mut ledger = AdmissionLedger::new(AdmissionConfig {
        capacity_slots: cfg.capacity_slots,
        queue_cap: cfg.queue_cap,
        slo_ticks: cfg.slo_ticks,
    });
    let subs: Vec<Submission> = jsonl
        .lines()
        .filter_map(|l| parse_submission(l).ok())
        .collect();
    let (admitted, decide_s) = m.tracer.span("serve.admission.decide", || {
        subs.iter()
            .filter(|s| matches!(ledger.decide(s.arrival, s.work), Outcome::Admitted { .. }))
            .count()
    });
    let l = &mut m.layers;
    l.push("serve.admission.decide_s", decide_s);
    l.push("serve.admission.admitted", admitted as f64);
    l.push("serve.admission.shed", ledger.shed() as f64);
    l.push("serve.admission.rejected_slo", ledger.rejected_slo() as f64);
}

/// Gates: every admitted job completes exactly once, nothing is lost and
/// every line parses.
fn check(report: &ServeReport, parse_errors: u64, m: &mut Measured) {
    let duplicates = counter(&report.live, "serve.duplicate_completion");
    let failed = report.lost + parse_errors + duplicates;
    if failed > 0 || report.completed != report.admitted {
        let why = format!(
            "admitted {} completed {} lost {} parse errors {parse_errors} duplicate completions {duplicates}",
            report.admitted, report.completed, report.lost
        );
        m.fail(failed.max(1), why);
    }
}

pub fn run(run: &Run) -> Measured {
    let mut m = Measured::new(run, 0.99);
    let started = Instant::now();
    let mut rep = 0u64;
    while m.more(run, started, m.latency_summaries.len(), MIN_REPLAYS) {
        let seed = derive_seed(run.seed, rep);
        m.tracer.begin("serve.repetition");
        // Set-up is mostly the single-threaded render, so its time is
        // scaled to the host reference measured around it.
        let mut host = Host::new();
        let ((jsonl, sup), setup_s) = m
            .tracer
            .span("serve.setup", || (render(seed), supervisor()));
        let k = host.factor();
        m.host_factors.push(k);
        m.setup_s.push(setup_s * k);
        let (report, parse_errors, secs) = replay(sup, &jsonl);
        m.attempted += SUBMISSIONS;
        m.timed(SUBMISSIONS, secs);
        m.latency_summaries.push(wall_flow(&report));
        check(&report, parse_errors, &mut m);
        if run.trace {
            let (traced, parse_errors, traced_s) = traced_replay(supervisor(), &jsonl, &mut m);
            m.attempted += SUBMISSIONS;
            m.layers
                .push("obs.trace_overhead_frac", (traced_s - secs) / secs);
            check(&traced, parse_errors, &mut m);
            if traced.digest != report.digest {
                let why = "merged digest differs between traced and untraced replays";
                m.fail(SUBMISSIONS, why.to_string());
            }
            ledger_pass(&jsonl, &mut m);
        }
        m.tracer.end();
        rep += 1;
    }
    m
}
