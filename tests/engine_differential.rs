//! Differential proof of the event-horizon centralized engine.
//!
//! `run_priority` advances in bulk between scheduling events (arrivals and
//! node completions of claimed work); `run_priority_reference` — compiled in
//! via the `reference-engine` feature — is the original round-by-round loop,
//! kept verbatim as the behavioural spec. Across random instances, processor
//! counts, speeds (including fractional augmentation) and priority policies,
//! the two must be **bit-identical**: same outcomes, same stats, same round
//! counts, and the same trace round-for-round.
//!
//! The work-stealing core gets the same treatment: its event windows
//! (including the steal-k-first k-burn window) are checked against the
//! traced run, which steps every round, and `run_batched`'s replicas on
//! reused engine buffers against fresh `run_worksteal` runs.

use parflow::core::{
    run_priority, run_priority_reference, BiggestWeightFirst, Fifo, JobPriority, Lifo,
    ShortestJobFirst, SimConfig,
};
use parflow::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random small instance of mixed DAG shapes and arrival patterns,
/// including bursts (equal arrivals) and sparse gaps that exercise the
/// quiescent fast-forward path.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (any::<u64>(), 1usize..14, 0u64..60).prop_map(|(seed, njobs, spread)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let jobs = (0..njobs)
            .map(|i| {
                let arrival = if spread == 0 {
                    0
                } else {
                    rng.gen_range(0..=spread)
                };
                let dag = match rng.gen_range(0..5u8) {
                    0 => shapes::single_node(rng.gen_range(1..25)),
                    1 => shapes::chain(rng.gen_range(1..6), rng.gen_range(1..5)),
                    2 => shapes::parallel_for(rng.gen_range(1..40), rng.gen_range(1..8)),
                    3 => shapes::fork_join(rng.gen_range(0..4), rng.gen_range(1..5)),
                    _ => shapes::layered_random(&mut rng, shapes::LayeredParams::default()),
                };
                let weight = rng.gen_range(1..10u64);
                Job::weighted(i as u32, arrival, weight, Arc::new(dag))
            })
            .collect();
        Instance::new(jobs)
    })
}

fn arb_speed() -> impl Strategy<Value = Speed> {
    prop_oneof![
        Just(Speed::ONE),
        Just(Speed::new(11, 10)),
        Just(Speed::new(3, 2)),
        Just(Speed::new(21, 20)),
        Just(Speed::integer(2)),
        Just(Speed::integer(3)),
    ]
}

/// Assert the fast and reference engines agree bit-for-bit on `inst`.
fn assert_identical<P: JobPriority>(inst: &Instance, cfg: &SimConfig, policy: &P, name: &str) {
    let (fast, fast_trace) = run_priority(inst, cfg, policy);
    let (slow, slow_trace) = run_priority_reference(inst, cfg, policy);
    assert_eq!(fast.m, slow.m, "{name}: m");
    assert_eq!(fast.speed, slow.speed, "{name}: speed");
    assert_eq!(fast.total_rounds, slow.total_rounds, "{name}: total_rounds");
    assert_eq!(fast.outcomes, slow.outcomes, "{name}: outcomes");
    assert_eq!(fast.stats, slow.stats, "{name}: stats");
    assert_eq!(fast.samples, slow.samples, "{name}: samples");
    match (fast_trace, slow_trace) {
        (None, None) => {}
        (Some(f), Some(s)) => {
            assert_eq!(f.spans, s.spans, "{name}: trace spans");
            assert_eq!(f.validate(inst), Ok(()), "{name}: trace validity");
            // Independent machine-check of the paper invariants (P1–P5)
            // on the agreed-upon schedule.
            let report = parflow_certify::certify_run(inst, cfg, None, &fast, &f);
            assert!(report.is_clean(), "{name}: {}", report.render());
        }
        _ => panic!("{name}: trace presence mismatch"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fifo_event_horizon_is_bit_identical(
        inst in arb_instance(), m in 1usize..6, speed in arb_speed(), traced in any::<bool>()
    ) {
        let mut cfg = SimConfig::new(m).with_speed(speed);
        if traced {
            cfg = cfg.with_trace();
        }
        assert_identical(&inst, &cfg, &Fifo, "fifo");
    }

    #[test]
    fn bwf_event_horizon_is_bit_identical(
        inst in arb_instance(), m in 1usize..6, speed in arb_speed()
    ) {
        let cfg = SimConfig::new(m).with_speed(speed).with_trace();
        assert_identical(&inst, &cfg, &BiggestWeightFirst, "bwf");
    }

    #[test]
    fn lifo_event_horizon_is_bit_identical(
        inst in arb_instance(), m in 1usize..6, speed in arb_speed()
    ) {
        let cfg = SimConfig::new(m).with_speed(speed).with_trace();
        assert_identical(&inst, &cfg, &Lifo, "lifo");
    }

    #[test]
    fn sjf_event_horizon_is_bit_identical(
        inst in arb_instance(), m in 1usize..6, speed in arb_speed()
    ) {
        let cfg = SimConfig::new(m).with_speed(speed).with_trace();
        assert_identical(&inst, &cfg, &ShortestJobFirst, "sjf");
    }
}

#[test]
fn single_processor_long_chain_is_bit_identical() {
    // Degenerate shapes the proptest generator rarely hits: m=1 with a
    // long sequential chain (maximal event-horizon spans) and a huge gap.
    let jobs = vec![
        Job::new(0, 0, Arc::new(shapes::chain(4, 50))),
        Job::new(1, 100_000, Arc::new(shapes::single_node(3))),
    ];
    let inst = Instance::new(jobs);
    for speed in [Speed::ONE, Speed::new(11, 10)] {
        let cfg = SimConfig::new(1).with_speed(speed).with_trace();
        assert_identical(&inst, &cfg, &Fifo, "chain-gap");
    }
}

// ---------------------------------------------------------------------------
// Work-stealing core differentials. The core bulk-steps forced round spans
// (event windows A and B, and the k-burn window C); a traced run steps
// every round, so it is the behavioural reference for the windows, exactly
// as `run_priority_reference` anchors the centralized fast path.
// `run_batched` runs replicas back to back on one set of engine buffers
// and must be bit-identical, replica by replica, to a fresh `run_worksteal`.
// ---------------------------------------------------------------------------

use parflow::core::{run_batched, run_worksteal, ReplicaSpec};

/// A random work-stealing replica spec: config knobs that all interact
/// with the event windows (steal cost, victim strategy, steal amount,
/// admission order, sampling cadence, trace recording) plus policy + seed.
fn arb_replica_spec() -> impl Strategy<Value = ReplicaSpec> {
    (
        1usize..6, // m
        arb_speed(),
        0u32..5,       // k (0 = admit-first)
        any::<bool>(), // free steals
        any::<bool>(), // round-robin scan victims
        any::<bool>(), // half steals
        any::<bool>(), // weighted admission
        0u64..4,       // sample_every (0 = off)
        any::<bool>(), // record trace
        any::<u64>(),  // rng seed
    )
        .prop_map(
            |(m, speed, k, free, scan, half, weighted, sample, traced, seed)| {
                let mut cfg = SimConfig::new(m).with_speed(speed);
                if free {
                    cfg = cfg.with_free_steals();
                }
                if scan {
                    cfg = cfg.with_victim_scan();
                }
                if half {
                    cfg = cfg.with_half_steals();
                }
                if weighted {
                    cfg = cfg.with_weighted_admission();
                }
                if sample > 0 {
                    cfg = cfg.with_sampling(sample);
                }
                if traced {
                    cfg = cfg.with_trace();
                }
                let policy = if k == 0 {
                    StealPolicy::AdmitFirst
                } else {
                    StealPolicy::StealKFirst { k }
                };
                ReplicaSpec::new(cfg, policy, seed)
            },
        )
}

/// Assert the untraced run of `spec`, which may bulk-step event windows,
/// equals the traced run, which steps every round: same outcomes, stats,
/// samples and round count.
fn assert_windows_match_round_stepping(inst: &Instance, spec: &ReplicaSpec) {
    let mut cfg = spec.config.clone();
    cfg.record_trace = false;
    let (windowed, none) = run_worksteal(inst, &cfg, spec.policy, spec.seed);
    let (stepped, trace) = run_worksteal(inst, &cfg.with_trace(), spec.policy, spec.seed);
    assert!(none.is_none() && trace.is_some());
    assert_eq!(windowed.outcomes, stepped.outcomes, "outcomes");
    assert_eq!(windowed.stats, stepped.stats, "stats");
    assert_eq!(windowed.samples, stepped.samples, "samples");
    assert_eq!(windowed.total_rounds, stepped.total_rounds, "total_rounds");
    assert_eq!(windowed, stepped, "result");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn event_windows_match_round_stepping(
        inst in arb_instance(),
        spec in arb_replica_spec(),
        m in prop_oneof![Just(None), Just(Some(1usize)), Just(Some(256usize))],
        extra_k in 0u32..24
    ) {
        // Larger k than `arb_replica_spec` draws gives long k-burn spans.
        let mut spec = spec;
        if let Some(m) = m {
            spec.config.m = m;
        }
        if let StealPolicy::StealKFirst { k } = spec.policy {
            spec.policy = StealPolicy::StealKFirst { k: k + extra_k };
        }
        assert_windows_match_round_stepping(&inst, &spec);
    }
}

/// Assert every replica of `run_batched` (one set of reused buffers)
/// matches its fresh-buffer `run_worksteal` bit-for-bit, including the
/// trace.
fn assert_batch_identical(inst: &Instance, specs: &[ReplicaSpec]) {
    let batched = run_batched(inst, specs);
    assert_eq!(batched.len(), specs.len());
    for (i, (spec, (result, trace))) in specs.iter().zip(&batched).enumerate() {
        let (want_result, want_trace) = run_worksteal(inst, &spec.config, spec.policy, spec.seed);
        assert_eq!(*result, want_result, "replica {i}: result");
        assert_eq!(*trace, want_trace, "replica {i}: trace");
        if let Some(t) = trace {
            assert_eq!(t.validate(inst), Ok(()), "replica {i}: trace validity");
            let report =
                parflow_certify::certify_run(inst, &spec.config, Some(spec.policy), result, t);
            assert!(report.is_clean(), "replica {i}: {}", report.render());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_replicas_on_reused_buffers_are_bit_identical(
        inst in arb_instance(),
        specs in proptest::collection::vec(arb_replica_spec(), 1..8)
    ) {
        assert_batch_identical(&inst, &specs);
    }

    #[test]
    fn batched_same_config_seed_sweep_is_bit_identical(
        inst in arb_instance(), spec in arb_replica_spec(), seed0 in any::<u64>()
    ) {
        // The bench drivers' shape: one config, many seeds.
        let specs: Vec<ReplicaSpec> = (0..7)
            .map(|i| ReplicaSpec::new(spec.config.clone(), spec.policy, seed0 ^ (i + 1)))
            .collect();
        assert_batch_identical(&inst, &specs);
    }
}

proptest! {
    // Giant-m runs are slower per case; fewer cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_giant_m_256_is_bit_identical(
        inst in arb_instance(), seed in any::<u64>(), k in 0u32..20, traced in any::<bool>()
    ) {
        let mut cfg = SimConfig::new(256);
        if traced {
            cfg = cfg.with_trace();
        }
        let policy = if k == 0 {
            StealPolicy::AdmitFirst
        } else {
            StealPolicy::StealKFirst { k }
        };
        // Two replicas, so the second runs on the first one's buffers.
        let specs = [
            ReplicaSpec::new(cfg.clone(), policy, seed),
            ReplicaSpec::new(cfg, policy, seed ^ 1),
        ];
        assert_batch_identical(&inst, &specs);
    }
}

/// Satellite regression: the admit-first (`ws_admit`) free-steal
/// configuration counts `2m` bounded steal attempts per idle worker per
/// round; replicas on reused buffers must report `steal_attempts` (and
/// every other counter) identical to a fresh run.
#[test]
fn ws_admit_steal_attempts_match_sequential_exactly() {
    let jobs = vec![
        Job::new(0, 0, Arc::new(shapes::parallel_for(24, 6))),
        Job::new(1, 4, Arc::new(shapes::chain(3, 5))),
        Job::new(2, 4, Arc::new(shapes::single_node(9))),
        Job::new(3, 90, Arc::new(shapes::fork_join(3, 2))),
    ];
    let inst = Instance::new(jobs);
    let cfg = SimConfig::new(4).with_free_steals();
    let specs: Vec<ReplicaSpec> = (0..3)
        .map(|i| ReplicaSpec::new(cfg.clone(), StealPolicy::AdmitFirst, 0x5eed ^ i))
        .collect();
    let batched = run_batched(&inst, &specs);
    for (spec, (result, _)) in specs.iter().zip(&batched) {
        let (want, _) = run_worksteal(&inst, &spec.config, spec.policy, spec.seed);
        assert_eq!(
            result.stats.steal_attempts, want.stats.steal_attempts,
            "seed {}: steal_attempts",
            spec.seed
        );
        assert_eq!(result.stats, want.stats, "seed {}: stats", spec.seed);
        assert_eq!(*result, want, "seed {}: full result", spec.seed);
    }
    // Pin the absolute value so both paths regressing together still
    // trips the test (seed 0x5eed, the exact stream the goldens freeze).
    assert_eq!(batched[0].0.stats.steal_attempts, 354);
}
