//! The `repro` binary's command line: experiment listing, unknown flags,
//! and degenerate sizes, which must be usage errors (exit 2, naming the
//! flag or variable) before any experiment runs.

use std::process::{Command, Output};

/// Every experiment `repro --list` must name.
const EXPERIMENTS: &[&str] = &[
    "fig2-bing",
    "fig2-finance",
    "fig2-lognormal",
    "fig3",
    "lower-bound",
    "theory-fifo",
    "theory-ws",
    "theory-bwf",
    "steal-k",
    "victim-ablation",
    "equi",
    "norms",
    "grain",
    "burst",
    "scaling",
    "variance",
    "steal-amount",
    "weighted-ws",
    "fault-resilience",
    "serve-soak",
    "lemmas",
    "backlog",
    "intervals",
];

/// Run `repro` with `args` and the `PARFLOW_*` variables in `env`; every
/// other `PARFLOW_*` variable is cleared so the caller's shell cannot
/// leak in.
fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    for var in ["PARFLOW_JOBS", "PARFLOW_SEED", "PARFLOW_THREADS"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("repro binary runs")
}

/// Assert a usage error: exit 2, `needle` in stderr, nothing on stdout
/// (so no experiment banner was printed).
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "`{needle}` not in: {stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(out.stdout.is_empty(), "an experiment ran before the error");
}

#[test]
fn list_names_every_experiment() {
    let out = repro(&["--list"], &[]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(listed, EXPERIMENTS);
}

#[test]
fn stream_is_an_unknown_flag() {
    assert_usage_error(&repro(&["--stream"], &[]), "unknown flag `--stream`");
}

#[test]
fn zero_jobs_flag_is_rejected() {
    assert_usage_error(&repro(&["--jobs", "0", "serve-soak"], &[]), "--jobs");
}

#[test]
fn degenerate_env_values_are_rejected() {
    for (var, value) in [
        ("PARFLOW_JOBS", "0"),
        ("PARFLOW_JOBS", "abc"),
        ("PARFLOW_SEED", "abc"),
        ("PARFLOW_THREADS", "0"),
        ("PARFLOW_THREADS", "abc"),
    ] {
        let out = repro(&["fig2-bing"], &[(var, value)]);
        assert_usage_error(&out, &format!("{var} must be an integer"));
    }
}

#[test]
fn small_env_job_count_runs() {
    let out = repro(&["steal-k"], &[("PARFLOW_JOBS", "300")]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("steal-k-first parameter sweep"), "{stdout}");
}
