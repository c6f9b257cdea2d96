//! Experiment drivers: one module per paper table/figure plus theory
//! validations and ablations. Each driver returns structured rows and can
//! render a `parflow_metrics::Table`, which the `repro` binary prints and
//! persists. Engine timing lives in `perfbench/` and `scripts/bench_check`,
//! not here.

pub mod backlog;
pub mod burst;
pub mod equi_ablation;
pub mod fault_resilience;
pub mod fig2;
pub mod fig3;
pub mod grain;
pub mod intervals;
pub mod lemma_audit;
pub mod lower_bound;
pub mod norms;
pub mod scaling;
pub mod serve_soak;
pub mod steal_amount;
pub mod steal_k;
pub mod theory_bwf;
pub mod theory_fifo;
pub mod theory_ws;
pub mod variance;
pub mod victim_ablation;
pub mod weighted_ws;

/// The paper's machine size: dual 8-core Xeon, m = 16.
pub const PAPER_M: usize = 16;

/// The paper's steal-k-first parameter (Section 6: "we use k = 16").
pub const PAPER_K: u32 = 16;

/// `var` parsed as an integer `>= min`: `Ok(None)` when unset, and an
/// error naming the variable when it is set but unparsable or too small.
fn env_value<T>(var: &str, min: T) -> Result<Option<T>, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let Some(raw) = std::env::var_os(var) else {
        return Ok(None);
    };
    raw.to_str()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v >= min)
        .map(Some)
        .ok_or_else(|| {
            format!(
                "{var} must be an integer >= {min}, got `{}`",
                raw.to_string_lossy()
            )
        })
}

/// Reject a set but invalid `PARFLOW_JOBS` (unparsable or 0),
/// `PARFLOW_SEED` (unparsable) or `PARFLOW_THREADS` (unparsable or 0).
/// The accessors below fall back to their defaults on such values, so a
/// binary calls this once before any experiment runs.
pub fn check_env() -> Result<(), String> {
    env_value::<usize>("PARFLOW_JOBS", 1)?;
    env_value::<u64>("PARFLOW_SEED", 0)?;
    env_value::<usize>("PARFLOW_THREADS", 1)?;
    Ok(())
}

/// Number of jobs per experiment point. The paper uses 100 000; the default
/// here is 20 000 to keep a full `repro` run short. Set
/// `PARFLOW_JOBS=100000` to run at paper scale.
pub fn jobs_per_point() -> usize {
    env_value("PARFLOW_JOBS", 1)
        .ok()
        .flatten()
        .unwrap_or(20_000)
}

/// Base seed for all experiments (deterministic; override with
/// `PARFLOW_SEED`).
pub fn base_seed() -> u64 {
    env_value("PARFLOW_SEED", 0)
        .ok()
        .flatten()
        .unwrap_or(0x9af1)
}

/// Worker threads for [`par_map`]: `PARFLOW_THREADS` if set (≥ 1), else the
/// machine's available parallelism. `PARFLOW_THREADS=1` forces the serial
/// path (useful for profiling a single experiment point).
pub fn par_threads() -> usize {
    env_value("PARFLOW_THREADS", 1)
        .ok()
        .flatten()
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Order-preserving parallel map over independent experiment points.
///
/// Each point owns its instance generation and its simulator RNG seed, so
/// evaluation order cannot affect results — only wall clock. Results are
/// returned in input order, which keeps every table, CSV and stdout byte
/// stream identical to the serial path regardless of thread count or
/// scheduling jitter. Workers pull indexed items off a shared stack; a
/// panic in `f` propagates out of the scope.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_with(par_threads(), items, f)
}

/// [`par_map`] with an explicit thread count instead of the
/// `PARFLOW_THREADS` environment lookup. The sweep harness threads its
/// `--threads` option through here so determinism tests can compare
/// thread counts within one process without racing on env state.
pub fn par_map_with<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = std::sync::Mutex::new(items.into_iter().enumerate().rev().collect::<Vec<_>>());
    let slots = std::sync::Mutex::new((0..n).map(|_| None).collect::<Vec<Option<U>>>());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue lock").pop();
                match next {
                    Some((i, item)) => {
                        let out = f(item);
                        slots.lock().expect("slots lock")[i] = Some(out);
                    }
                    None => break,
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|o| o.expect("every index filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(PAPER_M, 16);
        assert_eq!(PAPER_K, 16);
        assert!(jobs_per_point() > 0);
        assert!(par_threads() >= 1);
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100u64).collect(), |i| i * 3);
        assert_eq!(out, (0..100u64).map(|i| i * 3).collect::<Vec<_>>());
        let empty: Vec<u64> = par_map(Vec::new(), |i: u64| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn par_map_matches_serial_under_contention() {
        // Uneven per-item cost so workers finish out of order.
        let work = |i: u64| -> u64 { (0..(i % 7) * 1000).fold(i, |a, b| a ^ b.wrapping_mul(a)) };
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|&i| work(i)).collect();
        assert_eq!(par_map(items, work), serial);
    }
}
