//! Golden regression tests: exact outputs pinned for fixed seeds.
//!
//! Every engine in this workspace is bit-deterministic given its inputs;
//! these tests freeze that behaviour so refactors cannot silently change
//! schedules. If a change *intentionally* alters scheduling behaviour,
//! update the constants here and say so in the commit message.
//!
//! Constants re-frozen 2026-08: the original pinned values predate the
//! first successful build of this workspace and did not correspond to any
//! runnable RNG stream. The current values were produced by a rand-0.8.5
//! compatible `SmallRng` (xoshiro256++ / SplitMix64 seeding) validated
//! against the official xoshiro reference vectors
//! (`vendor/offline-stubs/rand/tests/reference.rs`).

use parflow::core::SchedulerKind;
use parflow::prelude::*;

fn golden_instance() -> Instance {
    WorkloadSpec::paper_fig2(DistKind::Bing, 600.0, 500, 0xC0FFEE).generate()
}

#[test]
fn workload_generation_is_frozen() {
    let inst = golden_instance();
    assert_eq!(inst.len(), 500);
    assert_eq!(inst.total_work(), 59_950);
    assert_eq!(inst.last_arrival(), 8_439);
    assert_eq!(inst.max_work(), 1_452);
    assert_eq!(inst.max_span(), 12);
}

#[test]
fn scheduler_outputs_are_frozen() {
    let inst = golden_instance();
    let cfg = SimConfig::new(8).with_free_steals();
    // (scheduler, expected max flow in ticks as (num, den))
    let expectations: &[(SchedulerKind, i128, i128)] = &[
        (SchedulerKind::Fifo, 345, 1),
        (SchedulerKind::Bwf, 345, 1),
        (SchedulerKind::Equi, 1_527, 1),
        (SchedulerKind::AdmitFirst, 1_305, 1),
        (SchedulerKind::StealKFirst(16), 467, 1),
    ];
    for &(kind, num, den) in expectations {
        let r = kind.run(&inst, &cfg, 12345).0;
        assert_eq!(
            r.max_flow(),
            Rational::new(num, den),
            "{kind} max flow drifted (got {})",
            r.max_flow()
        );
    }
}

#[test]
fn opt_bound_is_frozen() {
    let inst = golden_instance();
    assert_eq!(opt_max_flow(&inst, 8), Rational::from_int(336));
}

#[test]
fn lower_bound_instance_is_frozen() {
    let inst = lower_bound_instance(64, 40);
    let cfg = SimConfig::new(40);
    let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 99);
    // Deterministic for this seed: pinned exact value.
    assert_eq!(r.max_flow(), Rational::from_int(5));
    assert_eq!(r.stats.work_steps, inst.total_work());
}

#[test]
fn stats_are_frozen_for_ws() {
    let inst = golden_instance();
    let cfg = SimConfig::new(8);
    let r = simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 4 }, 777);
    assert_eq!(r.stats.work_steps, 59_950);
    assert_eq!(r.stats.admissions, 500);
    // Steal counters are part of the frozen behaviour too.
    assert_eq!(
        (r.stats.steal_attempts, r.stats.successful_steals),
        (9_650, 3_121),
        "steal accounting drifted: {:?}",
        r.stats
    );
}

/// The fault plan of [`faulted_runs_are_frozen`]: every fault kind at once
/// on an m = 8 machine — a crash mid-run, a stall window, a half-speed
/// worker, a blackholed victim and a 1% task-panic rate.
fn golden_fault_plan() -> parflow::core::FaultPlan {
    parflow::core::FaultPlan::none()
        .crash(1, 2000)
        .stall(2, 500, 800)
        .slowdown(3, 500_000)
        .blackhole(4)
        .with_panic_ppm(10_000)
}

/// Faulted work-stealing runs, pinned exactly: max flow, round count,
/// engine counters, how many fault events of each kind fired, and how
/// many jobs ended `Failed`.
#[test]
fn faulted_runs_are_frozen() {
    use parflow::core::{EngineStats, FaultKind, JobStatus, PanicSampler};
    let inst = golden_instance();
    let base = SimConfig::new(8).with_faults(golden_fault_plan());
    let stats =
        |work_steps, steal_attempts, successful_steals, idle_steps, faulted_steps| EngineStats {
            work_steps,
            steal_attempts,
            successful_steals,
            admissions: 500,
            idle_steps,
            crashed_workers: 1,
            reinjected_tasks: 1,
            injected_panics: 66,
            faulted_steps,
        };
    // (config, policy, max flow, total rounds, stats)
    let expectations = [
        (
            base.clone().with_free_steals(),
            StealPolicy::StealKFirst { k: 16 },
            961,
            8_698,
            stats(52_950, 84_776, 3_714, 4_862, 5_074),
        ),
        (
            base.clone().with_free_steals(),
            StealPolicy::AdmitFirst,
            1_183,
            8_668,
            stats(52_439, 66_306, 1_585, 5_201, 5_036),
        ),
        (
            base.clone(),
            StealPolicy::StealKFirst { k: 16 },
            3_279,
            11_690,
            stats(52_633, 24_431, 3_080, 136, 6_630),
        ),
        (
            base.clone(),
            StealPolicy::AdmitFirst,
            1_123,
            8_721,
            stats(52_097, 4_995, 991, 852, 5_103),
        ),
    ];
    for (cfg, policy, max_flow, rounds, expect_stats) in expectations {
        let label = format!("{} free={:?}", policy.name(), cfg.steal_cost);
        let r = simulate_worksteal(&inst, &cfg, policy, 12345);
        assert_eq!(r.max_flow(), Rational::from_int(max_flow), "{label}");
        assert_eq!(r.total_rounds, rounds, "{label}");
        assert_eq!(r.stats, expect_stats, "{label}");
        let count = |kind: FaultKind| r.fault_events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(FaultKind::Crash), 1, "{label}");
        assert_eq!(count(FaultKind::OrphanReinjection), 1, "{label}");
        assert_eq!(count(FaultKind::StallBegin), 1, "{label}");
        assert_eq!(count(FaultKind::StallEnd), 1, "{label}");
        assert_eq!(count(FaultKind::TaskPanic), 66, "{label}");
        assert_eq!(r.fault_events.len(), 70, "{label}");
        let failed: Vec<u32> = r
            .outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Failed)
            .map(|o| o.job)
            .collect();
        assert_eq!(failed.len(), 66, "{label}");
        assert_eq!(r.outcomes.len(), 500, "{label}");
        // Each panic event names the failed job and a (job, node) pair the
        // sampler selects.
        let sampler = PanicSampler::new(12345, 10_000);
        let mut panicked: Vec<u32> = Vec::new();
        for e in r
            .fault_events
            .iter()
            .filter(|e| e.kind == FaultKind::TaskPanic)
        {
            let job = e.job.expect("panic events name their job");
            assert!(sampler.should_panic(job, e.detail as u32), "{label}");
            panicked.push(job);
        }
        panicked.sort_unstable();
        assert_eq!(panicked, failed, "{label}");
    }
}
