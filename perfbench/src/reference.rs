//! A fixed reference computation that tracks the host's speed.
//!
//! The simulator workloads are single-threaded and CPU-bound, and they run
//! on shared virtual machines whose cores slow by up to half under other
//! tenants' load, in phases from under a second to minutes. Neither the
//! thread's on-CPU time nor a plain arithmetic or memory loop follows
//! those phases. A small round-based work-stealing simulation does: its
//! instruction mix (a per-round worker loop, deque pushes and pops, random
//! victims, binary splitting of parallel-for jobs) resembles the engines'.
//!
//! This module is that simulation, written in the benchmark itself, so no
//! change to the repository's crates changes it. The simulator workloads
//! run it between their timed operations, and the other workloads around
//! their set-up, and scale each operation's time by [`NOMINAL_S`] over the
//! reference time around it (see [`Host`]).

use std::collections::VecDeque;
use std::time::Instant;

const WORKERS: usize = 16;
const JOBS: u32 = 400;
/// Runs of [`run_once`] per reference measurement.
const RUNS: usize = 16;
/// Seconds one reference measurement typically took on the host the
/// benchmark was tuned on (a 2-vCPU Intel Xeon virtual machine, where it
/// took 10 ms to 17 ms). Scaled figures are the figures a host gives while
/// one reference measurement takes this long.
pub const NOMINAL_S: f64 = 0.012;

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A range `[lo, hi)` of one job's parallel-for iterations.
#[derive(Clone, Copy)]
struct Task {
    job: u32,
    lo: u32,
    hi: u32,
}

/// Run the fixed simulation once: 400 parallel-for jobs on 16 workers
/// under steal-16-first. Returns a checksum of the flows.
fn run_once() -> u64 {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut deques: Vec<VecDeque<Task>> = (0..WORKERS).map(|_| VecDeque::new()).collect();
    let mut current: Vec<Option<(Task, u32)>> = vec![None; WORKERS];
    let mut failed = [0u32; WORKERS];
    let mut remaining: Vec<u32> = Vec::with_capacity(JOBS as usize);
    let mut arrival: Vec<u64> = Vec::with_capacity(JOBS as usize);
    let mut queue: VecDeque<u32> = VecDeque::new();
    let (mut released, mut done, mut round, mut sum) = (0u32, 0u32, 0u64, 0u64);
    while done < JOBS {
        if released < JOBS && rng.below(8) == 0 {
            remaining.push(1 + rng.below(48) as u32);
            arrival.push(round);
            queue.push_back(released);
            released += 1;
        }
        for w in 0..WORKERS {
            let Some((mut t, left)) = current[w] else {
                if let Some(t) = deques[w].pop_back() {
                    current[w] = Some((t, 1 + t.lo % 4));
                } else if failed[w] >= 16 && !queue.is_empty() {
                    let job = queue.pop_front().unwrap_or(0);
                    let hi = remaining[job as usize];
                    current[w] = Some((Task { job, lo: 0, hi }, 1));
                    failed[w] = 0;
                } else {
                    let victim = rng.below(WORKERS as u64) as usize;
                    match deques[victim].pop_front() {
                        Some(t) if victim != w => {
                            current[w] = Some((t, 1 + t.lo % 4));
                            failed[w] = 0;
                        }
                        Some(t) => deques[victim].push_front(t),
                        None => failed[w] += 1,
                    }
                }
                continue;
            };
            if t.hi - t.lo > 1 {
                let mid = t.lo + (t.hi - t.lo) / 2;
                deques[w].push_back(Task {
                    job: t.job,
                    lo: mid,
                    hi: t.hi,
                });
                t.hi = mid;
                current[w] = Some((t, left));
            } else if left > 1 {
                current[w] = Some((t, left - 1));
            } else {
                current[w] = None;
                let r = &mut remaining[t.job as usize];
                *r -= 1;
                if *r == 0 {
                    done += 1;
                    let flow = round - arrival[t.job as usize];
                    sum = sum.wrapping_mul(31).wrapping_add(flow);
                }
            }
        }
        round += 1;
    }
    sum ^ round
}

/// Seconds of one reference measurement.
fn measure() -> f64 {
    let t = Instant::now();
    for _ in 0..RUNS {
        std::hint::black_box(run_once());
    }
    t.elapsed().as_secs_f64()
}

/// The host's speed around a sequence of timed operations: a reference
/// measurement before the first and after each one.
pub struct Host {
    last_s: f64,
}

impl Host {
    pub fn new() -> Self {
        Host { last_s: measure() }
    }

    /// Measure the reference after the operation that just ended, and
    /// return the factor that scales that operation's times:
    /// [`NOMINAL_S`] over the mean of the measurements before and after it.
    /// A factor below 1 means the host ran slower than nominal.
    pub fn factor(&mut self) -> f64 {
        let now_s = measure();
        let k = 2.0 * NOMINAL_S / (self.last_s + now_s);
        self.last_s = now_s;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference is deterministic and finishes every job.
    #[test]
    fn reference_is_fixed() {
        assert_eq!(run_once(), run_once());
        assert!(Host::new().factor() > 0.0);
    }
}
