//! The engine cores: one work-stealing round loop and one centralized
//! event-horizon loop, both running in O(active) memory over job streams.
//!
//! Each loop pulls jobs one at a time from a [`JobStream`], keeps exactly
//! one job of lookahead, and retires completed jobs back into a
//! free-listed slab (plus the recycled [`CursorArena`]), so live memory is
//! O(active jobs + m), not O(n). Completed [`JobOutcome`]s are pushed into
//! a caller-provided sink instead of being accumulated. The paper's model
//! is an online endless arrival stream, and its asymptotic claims
//! (competitive ratios as n → ∞) need 10⁷-job runs that a materialized
//! instance could not hold.
//!
//! **Materialized runs are thin drivers.** [`crate::run_worksteal`] and
//! [`crate::run_priority`] (and every wrapper around them) replay their
//! [`Instance`] through [`InstanceReplay`] into a sink that files outcomes
//! by job id, so a materialized run and a streamed replay of the same
//! instance are the same computation. Internally tasks carry slab *slot*
//! ids instead of job ids; slots are handed out in arrival order from a
//! LIFO free list, and every job-visible quantity (trace rows, admission
//! tie-breaks, panic sampling, fault events, outcomes) is translated back
//! through the slot's stored job id. Victim selection never reads job
//! ids, so the RNG stream is independent of slot numbering.
//!
//! **Event windows.** Where the round-by-round behaviour is forced, the
//! work-stealing loop consumes the whole span at once: every worker busy;
//! idle workers with nothing to acquire; and the k-burn window, where
//! under unit-cost steal-k-first the idle workers must keep failing steals
//! until the first one reaches k. RNG draws are burned in exactly the
//! positions per-round stepping would use. A traced run steps every
//! round, so it is the reference the windows are tested against.
//!
//! **Replica runs.** Every heap buffer of the work-stealing loop lives in
//! one `WsBuffers` set that the loop resets at the start of a run.
//! Public entry points use a fresh set; [`crate::run_batched`] runs all
//! its replicas on one set, so only the first replica pays warm-up
//! allocations.
//!
//! **Faults.** The work-stealing loop runs the whole [`FaultPlan`]:
//! crashes reinject the dead worker's tasks into an orphan FIFO that
//! survivors adopt, stalls and slowdown gates freeze workers, blackholed
//! deques refuse thieves, and injected task panics fail the job and purge
//! its tasks everywhere. Quiescent fast-forwards stop at fault boundaries,
//! and the event-window fast path is only taken under an empty plan. The
//! centralized loop models a reliable machine and ignores the plan.
//!
//! [`FaultPlan`]: crate::FaultPlan

use crate::centralized::JobPriority;
use crate::config::{AdmissionOrder, SimConfig, StealCost, VictimStrategy};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, JobStatus, PanicSampler, SlowdownGate, PPM};
use crate::opt::OptTracker;
use crate::result::{BacklogSample, EngineStats, JobOutcome, SimResult};
use crate::trace::{Action, ScheduleTrace};
use crate::worksteal::{
    advance_scan, any_stealable, burn_failed_attempts, burn_uniform_draws, steal_into, StealPolicy,
    Worker, WorkerObs,
};
use parflow_dag::{CursorArena, CursorId, Instance, Job, JobDag, JobId, NodeId, StepOutcome};
use parflow_obs::{NullRecorder, Recorder};
use parflow_time::{Rational, Round, Speed, Ticks};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// One job pulled from a [`JobStream`]: the online metadata the scheduler
/// learns at release time, minus the dense id (assigned by the engine in
/// pull order). `weight` must be positive, like [`Job::weighted`]'s.
#[derive(Clone, Debug)]
pub struct StreamedJob {
    /// Release time `r_i` in wall-clock ticks. Streams must be
    /// non-decreasing in arrival, like [`Instance`]s.
    pub arrival: Ticks,
    /// Priority weight `w_i` (1 for unweighted streams).
    pub weight: u64,
    /// The job's internal structure. Shared via `Arc` so generators can
    /// cache structurally identical DAGs across millions of jobs.
    pub dag: Arc<JobDag>,
}

/// An online arrival sequence, pulled one job at a time.
///
/// The engine keeps exactly one job of lookahead: a job is pulled only
/// once the previous one has been released into the global queue, so a
/// stream backed by a live source sees demand-driven pulls and an endless
/// stream never materializes.
pub trait JobStream {
    /// The next job in arrival order, or `None` when the stream ends.
    fn next_job(&mut self) -> Option<StreamedJob>;
}

/// Replay of a materialized [`Instance`] as a [`JobStream`] — how the
/// materialized entry points drive the engine cores.
#[derive(Clone, Debug)]
pub struct InstanceReplay<'a> {
    jobs: &'a [Job],
    next: usize,
}

impl<'a> InstanceReplay<'a> {
    /// Replay every job of `instance` in arrival order.
    pub fn new(instance: &'a Instance) -> Self {
        InstanceReplay {
            jobs: instance.jobs(),
            next: 0,
        }
    }

    /// Replay only the first `n` jobs (arrival order). Because instances
    /// are arrival-sorted with dense ids, this is exactly the instance
    /// built from the first `n` jobs.
    pub fn prefix(instance: &'a Instance, n: usize) -> Self {
        InstanceReplay {
            jobs: &instance.jobs()[..n.min(instance.len())],
            next: 0,
        }
    }
}

impl JobStream for InstanceReplay<'_> {
    fn next_job(&mut self) -> Option<StreamedJob> {
        let job = self.jobs.get(self.next)?;
        self.next += 1;
        Some(StreamedJob {
            arrival: job.arrival,
            weight: job.weight,
            dag: Arc::clone(&job.dag),
        })
    }
}

/// A [`JobStream`] adapter that feeds every pulled job into an
/// [`OptTracker`] before handing it to the engine, so the OPT lower bound
/// and competitive ratio are available live alongside the streaming run.
#[derive(Clone, Debug)]
pub struct OptTap<S> {
    inner: S,
    opt: OptTracker,
}

impl<S: JobStream> OptTap<S> {
    /// Wrap `inner`, tracking OPT bounds for an `m`-machine cluster.
    pub fn new(inner: S, m: usize) -> Self {
        OptTap {
            inner,
            opt: OptTracker::new(m),
        }
    }

    /// The tracker (covers every job pulled so far).
    pub fn opt(&self) -> &OptTracker {
        &self.opt
    }

    /// Unwrap into the inner stream and the tracker.
    pub fn into_parts(self) -> (S, OptTracker) {
        (self.inner, self.opt)
    }
}

impl<S: JobStream> JobStream for OptTap<S> {
    fn next_job(&mut self) -> Option<StreamedJob> {
        let job = self.inner.next_job()?;
        self.opt
            .on_arrival(job.arrival, job.dag.total_work(), job.dag.span());
        Some(job)
    }
}

/// Errors surfaced by the streaming entry points.
///
/// Jobs are indexed with dense `u32` ids; a stream is the only input that
/// can outgrow that space, so the engines check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The stream produced more jobs than `u32` job ids can index
    /// (mirrors `parflow_runtime`'s `RuntimeError::TooManyJobs` guard).
    /// Carries the first id that did not fit.
    TooManyJobs(u64),
    /// Job at this pull index arrived before its predecessor; streams
    /// must be non-decreasing in arrival, like [`Instance`]s.
    UnsortedArrivals {
        /// 0-based pull index of the offending job.
        index: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StreamError::TooManyJobs(id) => write!(
                f,
                "job stream exceeded u32 id space (job index {id} > {})",
                u32::MAX
            ),
            StreamError::UnsortedArrivals { index } => write!(
                f,
                "job stream is not sorted by arrival (job index {index} arrived before its predecessor)"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Retirement telemetry of a streaming run: how hard the free-listed slab
/// and cursor arena were recycled. Kept out of [`EngineStats`] (which
/// goldens bit-compare) and surfaced both here and as `ws.stream.*` /
/// `central.stream.*` counters on the obs taxonomy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetirementStats {
    /// Jobs whose slab slot was recycled after completion.
    pub jobs_retired: u64,
    /// High-water mark of simultaneously live (released, not yet retired)
    /// jobs — the "active" in the O(active + m) memory bound.
    pub live_jobs_high_water: u64,
    /// Slab slots ever allocated (== the high-water mark; retirement
    /// recycles instead of freeing).
    pub slab_slots: u64,
    /// Cursor-arena slots ever allocated (bounded by peak admitted jobs).
    pub cursor_slots: u64,
}

impl RetirementStats {
    /// Fraction of job activations served from recycled slots:
    /// `1 - slab_slots / jobs`, i.e. 0 when every job needed a fresh slot
    /// and → 1 when the slab reached steady state early. `None` until the
    /// first job is retired.
    pub fn slab_reuse_ratio(&self) -> Option<f64> {
        if self.jobs_retired == 0 {
            return None;
        }
        Some(1.0 - self.slab_slots as f64 / self.jobs_retired as f64)
    }

    /// Emit the `<prefix>.*` retirement counters and reuse gauge.
    fn record(&self, rec: &mut dyn Recorder, prefix: &str) {
        rec.counter(&format!("{prefix}.jobs_retired"), self.jobs_retired);
        rec.counter(
            &format!("{prefix}.live_jobs_high_water"),
            self.live_jobs_high_water,
        );
        rec.counter(&format!("{prefix}.slab_slots"), self.slab_slots);
        rec.counter(&format!("{prefix}.cursor_slots"), self.cursor_slots);
        if let Some(r) = self.slab_reuse_ratio() {
            rec.gauge(&format!("{prefix}.slab_reuse_ratio"), r);
        }
    }
}

/// Result of a streaming run: everything [`crate::SimResult`] carries
/// except the O(n) outcome vector (outcomes went to the sink) — plus the
/// running max flow (the paper's objective, tracked exactly) and the
/// retirement telemetry.
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// Number of machines.
    pub m: usize,
    /// Machine speed used.
    pub speed: Speed,
    /// Rounds until the last job completed.
    pub total_rounds: Round,
    /// Jobs pulled from the stream (all retired, completed or failed).
    pub jobs: u64,
    /// Engine counters.
    pub stats: EngineStats,
    /// Periodic backlog samples (`config.sample_every`).
    pub samples: Vec<BacklogSample>,
    /// Maximum flow time over all retired jobs, in ticks (exact) — the
    /// same quantity as [`SimResult::max_flow`].
    pub max_flow: Rational,
    /// Slab/arena recycling telemetry.
    pub retire: RetirementStats,
    /// Faults that fired, in engine-time order (empty under an empty
    /// plan).
    pub fault_events: Vec<FaultEvent>,
}

/// Run an engine core over a replay of `instance` and assemble the
/// materialized [`SimResult`], outcomes filed by job id into `outcomes`
/// (cleared first, capacity kept): the replay behind every materialized
/// entry point.
pub(crate) fn replay_instance(
    instance: &Instance,
    outcomes: &mut Vec<Option<JobOutcome>>,
    engine: impl FnOnce(
        &mut InstanceReplay<'_>,
        &mut dyn FnMut(&JobOutcome),
    ) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError>,
) -> (SimResult, Option<ScheduleTrace>) {
    outcomes.clear();
    outcomes.resize(instance.len(), None);
    let (summary, trace) = engine(&mut InstanceReplay::new(instance), &mut |o| {
        outcomes[o.job as usize] = Some(o.clone());
    })
    .expect("instance replays are arrival-sorted with dense u32 ids"); // lint: allow(panicking) invariant: Instance::new sorts by arrival and renumbers ids densely
    let outcomes = outcomes
        .drain(..)
        .map(|o| o.expect("every job retired")) // lint: allow(panicking) invariant: the engine loops exit only after every pulled job retired
        .collect();
    let result = SimResult {
        m: summary.m,
        speed: summary.speed,
        total_rounds: summary.total_rounds,
        outcomes,
        stats: summary.stats,
        samples: summary.samples,
        fault_events: summary.fault_events,
    };
    (result, trace)
}

/// Replay `instance` through the work-stealing core on `bufs`: what runs
/// behind [`crate::run_worksteal_observed`] (fresh buffers) and
/// [`crate::run_batched`] (one set of buffers for every replica).
pub(crate) fn replay_worksteal(
    instance: &Instance,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    rec: &mut dyn Recorder,
    bufs: &mut WsBuffers,
) -> (SimResult, Option<ScheduleTrace>) {
    let mut outcomes = std::mem::take(&mut bufs.outcomes);
    let out = replay_instance(instance, &mut outcomes, |replay, sink| {
        worksteal_engine(
            Puller::new(replay, 0)?,
            config,
            policy,
            seed,
            sink,
            rec,
            bufs,
        )
    });
    bufs.outcomes = outcomes;
    out
}

/// Every heap buffer of the work-stealing loop. Public entry points run
/// on a fresh set; [`crate::run_batched`] runs all its replicas on one
/// set, so only the first replica pays the warm-up allocations. The
/// engine resets the set at the start of every run, keeping capacity.
#[derive(Default)]
pub(crate) struct WsBuffers {
    workers: Vec<Worker>,
    arena: CursorArena,
    slab: JobSlab,
    /// The global FIFO: slab slot ids in arrival order.
    global_queue: VecDeque<u32>,
    /// Tasks of crashed workers, adopted by survivors.
    orphans: VecDeque<(u32, NodeId)>,
    alive: Vec<bool>,
    was_stalled: Vec<bool>,
    gates: Vec<SlowdownGate>,
    blackholed: Vec<bool>,
    fault_boundaries: Vec<Round>,
    ready_scratch: Vec<NodeId>,
    sources_scratch: Vec<NodeId>,
    /// Outcomes filed by job id ([`replay_worksteal`] only).
    outcomes: Vec<Option<JobOutcome>>,
}

impl WsBuffers {
    /// Restore the state of a fresh set for an `m`-worker run under
    /// `faults`. Cursor slots are recycled in allocation order and the
    /// slab is emptied, so slot numbering matches a fresh run's.
    fn reset(&mut self, m: usize, faults: &FaultPlan) {
        self.workers.truncate(m);
        for (p, w) in self.workers.iter_mut().enumerate() {
            w.current = None;
            w.deque.clear();
            w.pending.clear();
            w.failed_steals = 0;
            w.scan_next = p + 1;
        }
        let len = self.workers.len();
        self.workers.extend((len..m).map(Worker::new));
        self.arena.recycle_all();
        self.slab.clear();
        self.global_queue.clear();
        self.orphans.clear();
        self.alive.clear();
        self.alive.resize(m, true);
        self.was_stalled.clear();
        self.was_stalled.resize(m, false);
        self.gates.clear();
        self.gates
            .extend((0..m).map(|p| SlowdownGate::new(faults.rate_ppm_of(p))));
        self.blackholed.clear();
        self.blackholed
            .extend((0..m).map(|p| faults.is_blackhole(p)));
        // Rounds at which the plan changes some worker's behaviour;
        // quiescent fast-forwards must not skip them.
        self.fault_boundaries.clear();
        self.fault_boundaries.extend(
            faults.crashes.iter().map(|c| c.at_round).chain(
                faults
                    .stalls
                    .iter()
                    .flat_map(|s| [s.from_round, s.from_round.saturating_add(s.duration)]),
            ),
        );
        self.fault_boundaries.sort_unstable();
        self.fault_boundaries.dedup();
    }
}

/// A live (released, not yet retired) job in the slab. The `Job` keeps the
/// stream-assigned dense id so admission tie-breaks, priority keys, trace
/// rows and outcomes speak in job ids, never slot ids.
struct Slot {
    job: Job,
    cursor: Option<CursorId>,
    started: Option<Round>,
}

/// The free-listed job slab: slots recycle LIFO so the live set stays hot
/// in cache and steady state allocates nothing per job.
#[derive(Default)]
struct JobSlab {
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    live: u64,
    high_water: u64,
}

impl JobSlab {
    /// Empty the slab for the next run, keeping capacity.
    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.high_water = 0;
    }

    /// Release `(id, job)` into a fresh or recycled slot.
    #[inline]
    fn alloc(&mut self, id: JobId, job: StreamedJob) -> u32 {
        let slot = Slot {
            job: Job::weighted(id, job.arrival, job.weight, job.dag),
            cursor: None,
            started: None,
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        if let Some(sid) = self.free.pop() {
            self.slots[sid as usize] = Some(slot);
            sid
        } else {
            // Live jobs are bounded by backlog, which blows the round cap
            // long before it could blow u32 — but check anyway.
            assert!(
                self.slots.len() < u32::MAX as usize,
                "live-job slab exceeded u32 slot space"
            );
            self.slots.push(Some(slot));
            (self.slots.len() - 1) as u32 // lint: allow(truncating-cast) length bounded by the assert above
        }
    }

    #[inline]
    fn get(&self, sid: u32) -> &Slot {
        self.slots[sid as usize].as_ref().expect("live slot") // lint: allow(panicking) invariant: queued/claimed tasks only reference live slots
    }

    #[inline]
    fn get_mut(&mut self, sid: u32) -> &mut Slot {
        self.slots[sid as usize].as_mut().expect("live slot") // lint: allow(panicking) invariant: queued/claimed tasks only reference live slots
    }

    /// The arena cursor of the admitted job in `sid`.
    #[inline]
    fn cursor(&self, sid: u32) -> CursorId {
        self.get(sid).cursor.expect("admitted job owns a cursor") // lint: allow(panicking) invariant: every admitted job owns an arena cursor until it retires
    }

    /// Retire the job in `sid`, which reached `status` during `round`:
    /// release its cursor, push the slot onto the free list for the next
    /// arrival, and return the job's outcome.
    fn finish(
        &mut self,
        sid: u32,
        arena: &mut CursorArena,
        round: Round,
        speed: Speed,
        status: JobStatus,
    ) -> JobOutcome {
        let slot = self.slots[sid as usize].take().expect("live slot"); // lint: allow(panicking) invariant: a retiring job occupies its slab slot exactly once
        self.free.push(sid);
        self.live -= 1;
        if let Some(cid) = slot.cursor {
            arena.release(cid);
        }
        JobOutcome {
            job: slot.job.id,
            arrival: slot.job.arrival,
            weight: slot.job.weight,
            start_round: slot.started.expect("job started"), // lint: allow(panicking) invariant: start_round is recorded before any execution
            completion_round: round,
            completion: speed.round_end(round),
            flow: speed.flow_time(slot.job.arrival, round),
            status,
        }
    }

    fn retirement(&self, arena: &CursorArena, jobs_retired: u64) -> RetirementStats {
        RetirementStats {
            jobs_retired,
            live_jobs_high_water: self.high_water,
            slab_slots: self.slots.len() as u64,
            cursor_slots: arena.capacity() as u64,
        }
    }
}

/// Where retired jobs go: the caller's sink, plus the retirement count
/// and the exact running max flow.
struct Retired<'k> {
    sink: &'k mut dyn FnMut(&JobOutcome),
    count: u64,
    max_flow: Rational,
}

impl<'k> Retired<'k> {
    fn new(sink: &'k mut dyn FnMut(&JobOutcome)) -> Self {
        Retired {
            sink,
            count: 0,
            max_flow: Rational::ZERO,
        }
    }

    #[inline]
    fn push(&mut self, out: JobOutcome) {
        self.count += 1;
        self.max_flow = self.max_flow.max(out.flow);
        (self.sink)(&out);
    }
}

/// One-job-lookahead pull state shared by the engines: assigns dense ids
/// in pull order, validates id space and arrival monotonicity, and
/// maintains the running totals the growing safety cap needs.
struct Puller<'s, S: JobStream> {
    stream: &'s mut S,
    id_base: u64,
    produced: u64,
    total_work: u64,
    last_arrival: Ticks,
    /// The job pulled but not yet released, with its assigned id.
    pending: Option<(JobId, StreamedJob)>,
}

impl<'s, S: JobStream> Puller<'s, S> {
    fn new(stream: &'s mut S, id_base: u64) -> Result<Self, StreamError> {
        let mut p = Puller {
            stream,
            id_base,
            produced: 0,
            total_work: 0,
            last_arrival: 0,
            pending: None,
        };
        p.advance()?;
        Ok(p)
    }

    /// Pull the next job into `pending` (replacing the released one).
    fn advance(&mut self) -> Result<(), StreamError> {
        let Some(job) = self.stream.next_job() else {
            self.pending = None;
            return Ok(());
        };
        let index = self.produced;
        let id64 = self
            .id_base
            .checked_add(index)
            .ok_or(StreamError::TooManyJobs(u64::MAX))?;
        if id64 > u32::MAX as u64 {
            return Err(StreamError::TooManyJobs(id64));
        }
        if index > 0 && job.arrival < self.last_arrival {
            return Err(StreamError::UnsortedArrivals { index });
        }
        self.produced += 1;
        self.total_work += job.dag.total_work();
        self.last_arrival = job.arrival;
        self.pending = Some((id64 as u32, job)); // lint: allow(truncating-cast) id64 checked <= u32::MAX just above
        Ok(())
    }

    /// Take the pending job if it has arrived by `round`, pulling its
    /// successor into the lookahead.
    #[inline]
    fn pop_arrived(
        &mut self,
        speed: Speed,
        round: Round,
    ) -> Result<Option<(JobId, StreamedJob)>, StreamError> {
        match &self.pending {
            Some((_, job)) if speed.arrived_by_round(job.arrival, round) => {
                let arrived = self.pending.take();
                self.advance()?;
                Ok(arrived)
            }
            _ => Ok(None),
        }
    }

    /// First round in which the pending job is visible, if any.
    #[inline]
    fn next_arrival_round(&self, speed: Speed) -> Option<Round> {
        self.pending
            .as_ref()
            .map(|(_, job)| speed.first_round_at_or_after(job.arrival))
    }
}

/// Simulate work stealing over a [`JobStream`], pushing each retired
/// job's [`JobOutcome`] into `sink` (in retirement order) instead of
/// accumulating them. Same schedule as [`crate::run_worksteal`] on the
/// materialization of the stream — same RNG stream, same [`EngineStats`],
/// same trace, same fault events — in O(active + m) live memory.
///
/// # Panics
///
/// If `config.faults` is invalid for `config.m` (see
/// [`crate::FaultPlan::validate`]), like every simulator entry point.
pub fn run_worksteal_stream<S: JobStream>(
    stream: &mut S,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    sink: &mut dyn FnMut(&JobOutcome),
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    run_worksteal_stream_observed(stream, config, policy, seed, sink, &mut NullRecorder)
}

/// [`run_worksteal_stream`] with a [`Recorder`] attached. Emits the same
/// `ws.*` / `ws.worker.*` taxonomy as [`crate::run_worksteal_observed`]
/// minus the fault counters, plus `ws.stream.*` retirement counters;
/// per-job `ws.flow_ticks` samples are intentionally **not** emitted (the
/// recorder would grow O(n) on a 10M-job stream — sample from the sink
/// instead).
pub fn run_worksteal_stream_observed<S: JobStream>(
    stream: &mut S,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    sink: &mut dyn FnMut(&JobOutcome),
    rec: &mut dyn Recorder,
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    let out = worksteal_engine(
        Puller::new(stream, 0)?,
        config,
        policy,
        seed,
        sink,
        rec,
        &mut WsBuffers::default(),
    )?;
    if rec.enabled() {
        out.0.retire.record(rec, "ws.stream");
    }
    Ok(out)
}

/// The work-stealing engine behind every work-stealing entry point,
/// running on `bufs`. Job ids are assigned by `puller`, whose id base
/// exists so the `TooManyJobs` id-space guard is testable at the
/// `u32::MAX` boundary without streaming 4 billion jobs first. Emits the
/// `ws.worker.*` counters, the engine-level `ws.*` counters every entry
/// point shares and the `ws.total_rounds` gauge; each entry point adds
/// its own.
fn worksteal_engine<S: JobStream>(
    mut puller: Puller<'_, S>,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    sink: &mut dyn FnMut(&JobOutcome),
    rec: &mut dyn Recorder,
    bufs: &mut WsBuffers,
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    let m = config.m;
    let speed = config.speed;
    let k = policy.k();
    let faults = &config.faults;
    if let Err(e) = faults.validate(m) {
        panic!("invalid fault plan: {e}"); // lint: allow(panicking) documented contract: simulator entry points panic on invalid fault plans, validated before any stepping
    }
    let mut rng = SmallRng::seed_from_u64(seed);

    // The buffers move into locals for the run (a loop over fields
    // behind `bufs` measured ~3% slower) and move back at the end; a
    // run that returns an error drops them.
    bufs.reset(m, faults);
    let WsBuffers {
        mut workers,
        mut arena,
        mut slab,
        mut global_queue,
        mut orphans,
        mut alive,
        mut was_stalled,
        mut gates,
        blackholed,
        fault_boundaries,
        mut ready_scratch,
        mut sources_scratch,
        outcomes,
    } = std::mem::take(bufs);
    let mut stats = EngineStats::default();
    let mut trace = config.record_trace.then(|| ScheduleTrace::new(m, speed));
    let mut samples: Vec<BacklogSample> = Vec::new();

    // Hoisted once: with the NullRecorder every `if obs` below is a dead
    // branch and `wobs` stays empty (no allocation).
    let obs = rec.enabled();
    let mut wobs: Vec<WorkerObs> = if obs {
        vec![WorkerObs::default(); m]
    } else {
        Vec::new()
    };

    // Fault machinery, inert under an empty plan. Orphaned tasks from
    // crashed workers go into a global FIFO of their own: claimed-node
    // state lives in the job's cursor, so an adopting worker resumes
    // exactly where the dead one stopped without re-racing for the nodes.
    let faulty = !faults.is_empty();
    let mut fault_events: Vec<FaultEvent> = Vec::new();
    let mut alive_count = m;
    let sampler = PanicSampler::new(seed, faults.panic_ppm);
    let has_stalls = !faults.stalls.is_empty();
    let mut crash_pending = (0..m).any(|p| faults.crash_round_of(p).is_some());
    let next_fault_boundary = |round: Round| -> Option<Round> {
        let i = fault_boundaries.partition_point(|&b| b <= round);
        fault_boundaries.get(i).copied()
    };
    // The event-window fast path below bulk-steps uneventful round spans.
    // It preserves the RNG stream bit-for-bit but compresses bookkeeping,
    // so it is only taken when no fault can fire and no trace row is
    // needed.
    let fast_ok = !faulty && !config.record_trace;

    // Rounds with admitted live work always execute ≥ 1 unit; rounds with
    // only queued jobs admit within ≤ k+1 rounds; quiescent gaps are
    // skipped. Under faults, stalls add dead rounds, slowdowns stretch
    // execution by up to PPM/best_rate, and fault boundaries bound
    // fast-forward clamping. Anything past this cap is an engine bug. It
    // covers the pulled prefix and grows with every pull: each round the
    // engine can reach is justified by jobs already pulled.
    let stall_total: Round = faults.stalls.iter().map(|s| s.duration).sum();
    let best_rate = (0..m)
        .filter(|&p| faults.crash_round_of(p).is_none())
        .map(|p| faults.rate_ppm_of(p))
        .max()
        .unwrap_or(PPM)
        .max(1);
    let stretch = (PPM as Round).div_ceil(best_rate as Round);
    let last_fault = faults.last_scheduled_round().unwrap_or(0);
    let cap = |p: &Puller<'_, S>| -> Round {
        let base = speed.first_round_at_or_after(p.last_arrival)
            + p.total_work
            + (k as Round + 2) * (p.produced + m as Round)
            + 64;
        if faulty {
            base * stretch + last_fault + stall_total + 64
        } else {
            base
        }
    };

    let mut safety_cap = cap(&puller);
    let mut retired = Retired::new(sink);
    let mut released: u64 = 0;
    // Jobs admitted but not yet retired.
    let mut live_admitted = 0usize;
    let mut round: Round = 0;
    let mut last_busy_round: Round = 0;

    'rounds: while puller.pending.is_some() || retired.count < released {
        assert!(
            round <= safety_cap,
            "work-stealing engine exceeded round cap"
        );

        // Crash pre-pass: workers whose crash round has come die at the
        // start of the round; their current task, deque and pending pushes
        // are reinjected into the orphan FIFO for survivors to adopt.
        // Skipped entirely once every scheduled crash has fired.
        if crash_pending {
            for p in 0..m {
                if alive[p] && faults.crash_round_of(p).is_some_and(|cr| cr <= round) {
                    alive[p] = false;
                    alive_count -= 1;
                    stats.crashed_workers += 1;
                    fault_events.push(FaultEvent {
                        round,
                        worker: Some(p),
                        job: None,
                        kind: FaultKind::Crash,
                        detail: 0,
                    });
                    let w = &mut workers[p];
                    let before = orphans.len();
                    orphans.extend(w.current.take());
                    orphans.extend(w.deque.drain(..));
                    orphans.extend(w.pending.drain(..));
                    let reinjected = (orphans.len() - before) as u64;
                    if reinjected > 0 {
                        stats.reinjected_tasks += reinjected;
                        fault_events.push(FaultEvent {
                            round,
                            worker: Some(p),
                            job: None,
                            kind: FaultKind::OrphanReinjection,
                            detail: reinjected,
                        });
                    }
                }
            }
            crash_pending = (0..m).any(|q| alive[q] && faults.crash_round_of(q).is_some());
        }

        // Release arrivals into the global FIFO queue, pulling the next
        // job after each release (one-job lookahead).
        while let Some((jid, job)) = puller.pop_arrived(speed, round)? {
            global_queue.push_back(slab.alloc(jid, job));
            released += 1;
            safety_cap = cap(&puller);
        }

        if config.sample_every > 0 && round.is_multiple_of(config.sample_every) {
            samples.push(BacklogSample {
                round,
                queued: global_queue.len(),
                live: live_admitted,
                deque_tasks: workers.iter().map(|w| w.deque.len()).sum::<usize>() + orphans.len(),
            });
        }

        // Quiescent fast-forward: nothing admitted is live and nothing is
        // queued — skip to the next arrival. The skipped rounds would be
        // failed steal attempts; count every one of them. Fault
        // boundaries clamp the jump so crash/stall transitions still fire
        // at their scheduled rounds.
        if live_admitted == 0 && global_queue.is_empty() && orphans.is_empty() {
            // Every released job retired, so the loop condition
            // guarantees a pending arrival.
            let mut target = puller
                .next_arrival_round(speed)
                .expect("deadlock: nothing live, nothing queued"); // lint: allow(panicking) invariant: loop condition guarantees a pending arrival when the backlog is empty
            if let Some(boundary) = next_fault_boundary(round) {
                target = target.min(boundary);
            }
            debug_assert!(target > round, "fast-forward must move time forward");
            let gap = target - round;
            stats.idle_steps += gap * alive_count as u64;
            for (p, w) in workers.iter_mut().enumerate() {
                if alive[p] {
                    w.failed_steals = w.failed_steals.saturating_add(gap);
                    if obs {
                        let o = &mut wobs[p];
                        o.failed_steal_rounds += gap;
                        o.idle_steps += gap;
                        o.max_failed_streak = o.max_failed_streak.max(w.failed_steals);
                    }
                }
            }
            // Backlog samples falling inside the skipped span are still
            // emitted (the backlog is empty by construction), so sampled
            // series stay evenly spaced across gaps.
            if config.sample_every > 0 {
                let se = config.sample_every;
                let mut s = (round / se + 1) * se;
                while s < target {
                    samples.push(BacklogSample {
                        round: s,
                        queued: 0,
                        live: 0,
                        deque_tasks: 0,
                    });
                    s += se;
                }
            }
            if let Some(t) = trace.as_mut() {
                t.push_idle_rounds(gap);
            }
            round = target;
            continue;
        }

        // Event-window fast path: between events the round-by-round
        // behaviour is forced. Three cases qualify:
        //   A. every worker is busy (nobody pops, admits or steals);
        //   B. the idle workers provably cannot acquire anything (global
        //      queue and every deque empty, so every steal attempt fails);
        //   C. the k-burn window: unit-cost steals under steal-k-first,
        //      nothing stealable, the queue non-empty, and every idle
        //      worker below k failed steals, so each idle round is a
        //      forced failed steal until the first worker reaches k.
        // Until the next node completion, arrival or (case C) admission,
        // each round repeats the same pattern. Consume the whole span at
        // once: busy workers bulk-execute their current node, idle
        // workers' failed steal attempts are replayed onto the RNG stream
        // without computing victims. Completions land in the last round
        // of the span, exactly where the per-round loop would put them.
        'window: {
            if !fast_ok {
                break 'window;
            }
            // Cheapest cap first: if the next arrival lands next round the
            // span can only be 1 round — skip the worker scan entirely.
            let arrival_cap = puller
                .next_arrival_round(speed)
                .map_or(u64::MAX, |r| r - round);
            if arrival_cap < 2 {
                break 'window;
            }
            let mut min_rem = u64::MAX;
            let mut busy = 0usize;
            let mut deques_empty = true;
            for w in &workers {
                if let Some((sid, v)) = w.current {
                    let rem = arena
                        .get(slab.cursor(sid))
                        .remaining_work(v)
                        .expect("current node in range"); // lint: allow(panicking) invariant: cursors only hold nodes of their own DAG
                    if rem < 2 {
                        // The span is capped at 1 round — the per-round
                        // loop handles that more cheaply than span setup.
                        break 'window;
                    }
                    min_rem = min_rem.min(rem);
                    busy += 1;
                }
                if !w.deque.is_empty() {
                    deques_empty = false;
                }
            }
            let mut steal_cap = u64::MAX;
            if busy == 0 || (busy < m && !(global_queue.is_empty() && deques_empty)) {
                // Not case A or B; try case C, steal cost first so that
                // free-steal runs pay one branch.
                if config.steal_cost != StealCost::UnitStep
                    || k == 0
                    || !deques_empty
                    || global_queue.is_empty()
                {
                    break 'window;
                }
                for w in workers.iter() {
                    if w.current.is_none() {
                        // Below k the worker steals for k − f more rounds;
                        // the span stops before the first admission.
                        steal_cap = steal_cap.min((k as u64).saturating_sub(w.failed_steals));
                    }
                }
                if steal_cap < 2 {
                    break 'window;
                }
            }
            // ≥ 2 by construction: every remaining-work, the arrival cap
            // and the steal cap were pre-checked, so the span always beats
            // per-round.
            let delta = min_rem.min(arrival_cap).min(steal_cap);
            let last = round + delta - 1;
            // Backlog state is constant at the top of every round in the
            // span (completions only land *during* the last one), so
            // interior samples all read the same values.
            if config.sample_every > 0 {
                let se = config.sample_every;
                let queued = global_queue.len();
                let deque_tasks = workers.iter().map(|w| w.deque.len()).sum::<usize>();
                let mut s = (round / se + 1) * se;
                while s <= last {
                    samples.push(BacklogSample {
                        round: s,
                        queued,
                        live: live_admitted,
                        deque_tasks,
                    });
                    s += se;
                }
            }
            if busy < m {
                let per_round: u64 = match config.steal_cost {
                    StealCost::UnitStep => 1,
                    StealCost::Free if k == 0 => 2 * m as u64,
                    StealCost::Free => k as u64,
                };
                let idle = (m - busy) as u64;
                stats.steal_attempts += delta * per_round * idle;
                if obs {
                    for (p, w) in workers.iter().enumerate() {
                        if w.current.is_none() {
                            wobs[p].steal_attempts += delta * per_round;
                        }
                    }
                }
                // `m == 1` burns no per-attempt state, mirroring
                // `burn_failed_attempts` (only case C reaches here with
                // m = 1: its lone worker is idle).
                if m > 1 {
                    match config.victim {
                        VictimStrategy::Uniform => {
                            burn_uniform_draws(&mut rng, m, delta * per_round * idle);
                        }
                        VictimStrategy::RoundRobinScan => {
                            for (p, w) in workers.iter_mut().enumerate() {
                                if w.current.is_none() {
                                    w.scan_next =
                                        advance_scan(w.scan_next, p, m, delta * per_round);
                                }
                            }
                        }
                    }
                }
                match config.steal_cost {
                    StealCost::UnitStep => {
                        // A failed unit-cost steal consumes the round and
                        // bumps the failure counter.
                        for (p, w) in workers.iter_mut().enumerate() {
                            if w.current.is_none() {
                                w.failed_steals = w.failed_steals.saturating_add(delta);
                                if obs {
                                    let o = &mut wobs[p];
                                    o.failed_steal_rounds += delta;
                                    o.max_failed_streak = o.max_failed_streak.max(w.failed_steals);
                                }
                            }
                        }
                    }
                    StealCost::Free => {
                        // Free attempts cost nothing; the round itself is
                        // recorded as idle.
                        stats.idle_steps += delta * idle;
                        if obs {
                            for (p, w) in workers.iter().enumerate() {
                                if w.current.is_none() {
                                    wobs[p].idle_steps += delta;
                                }
                            }
                        }
                    }
                }
            }
            for (p, w) in workers.iter_mut().enumerate() {
                let Some((sid, v)) = w.current else {
                    continue;
                };
                let cid = slab.cursor(sid);
                stats.work_steps += delta;
                if obs {
                    wobs[p].work_steps += delta;
                }
                w.failed_steals = 0;
                ready_scratch.clear();
                let cursor = arena.get_mut(cid);
                let outcome = cursor
                    .execute_units(&slab.get(sid).job.dag, v, delta, &mut ready_scratch)
                    .expect("current node claimed"); // lint: allow(panicking) invariant: executed nodes were claimed by this cursor
                if let StepOutcome::NodeCompleted { job_completed } = outcome {
                    w.current = None;
                    for &u in ready_scratch.iter() {
                        cursor.claim(u).expect("newly ready claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                        w.pending.push((sid, u));
                    }
                    if job_completed {
                        // Last live node of the job: no other worker's
                        // `current` can reference this slot, safe to
                        // recycle.
                        live_admitted -= 1;
                        retired.push(slab.finish(
                            sid,
                            &mut arena,
                            last,
                            speed,
                            JobStatus::Completed,
                        ));
                    }
                }
            }
            for w in &mut workers {
                for task in w.pending.drain(..) {
                    w.deque.push_back(task);
                }
            }
            last_busy_round = last;
            round += delta;
            continue 'rounds;
        }

        let mut row: Vec<Action> = if config.record_trace {
            Vec::with_capacity(m)
        } else {
            Vec::new()
        };
        // All-deques-empty knowledge, shared across this round's steal
        // sites: `Some(false)` ⇒ every attempt fails (burn it), computed at
        // most once per round and invalidated by any deque change.
        let mut stealable_cache: Option<bool> = None;

        for p in 0..m {
            // 0. Fault gates: dead workers do nothing; stalled workers
            // freeze (their deques stay stealable); slowed workers only
            // act in the rounds their credit gate opens.
            if faulty {
                let mut frozen = !alive[p];
                if !frozen && has_stalls {
                    let stalled = faults.is_stalled(p, round);
                    if stalled != was_stalled[p] {
                        was_stalled[p] = stalled;
                        fault_events.push(FaultEvent {
                            round,
                            worker: Some(p),
                            job: None,
                            kind: if stalled {
                                FaultKind::StallBegin
                            } else {
                                FaultKind::StallEnd
                            },
                            detail: 0,
                        });
                    }
                    frozen = stalled;
                    stats.faulted_steps += stalled as u64;
                }
                if !frozen && !gates[p].is_full_speed() && !gates[p].tick() {
                    frozen = true;
                    stats.faulted_steps += 1;
                }
                if frozen {
                    if config.record_trace {
                        row.push(Action::Idle);
                    }
                    continue;
                }
            }

            // 1. Acquire work if idle: own deque → orphan FIFO → (policy)
            //    admit/steal. Adopting an orphaned task is free, like
            //    popping the own deque: the task was already claimed by the
            //    crashed worker, no coordination is needed.
            if workers[p].current.is_none() {
                workers[p].current = workers[p].deque.pop_back();
            }
            if workers[p].current.is_none() {
                if let Some(task) = orphans.pop_front() {
                    workers[p].current = Some(task);
                    workers[p].failed_steals = 0;
                }
            }
            if workers[p].current.is_none() {
                let admit = match config.steal_cost {
                    StealCost::UnitStep => {
                        if global_queue.is_empty() || workers[p].failed_steals < k as u64 {
                            // Steal attempt: one full round; the stolen
                            // node (if any) starts executing next round.
                            stats.steal_attempts += 1;
                            if obs {
                                wobs[p].steal_attempts += 1;
                            }
                            let hit = if *stealable_cache
                                .get_or_insert_with(|| any_stealable(&workers, &blackholed))
                            {
                                steal_into(
                                    p,
                                    &mut workers,
                                    &mut rng,
                                    config.victim,
                                    config.steal_amount,
                                    &blackholed,
                                )
                            } else {
                                burn_failed_attempts(&mut rng, &mut workers, p, config.victim, 1);
                                false
                            };
                            if hit {
                                stats.successful_steals += 1;
                                workers[p].failed_steals = 0;
                                if obs {
                                    wobs[p].successful_steals += 1;
                                }
                                stealable_cache = None;
                            } else {
                                workers[p].failed_steals =
                                    workers[p].failed_steals.saturating_add(1);
                                if obs {
                                    let o = &mut wobs[p];
                                    o.failed_steal_rounds += 1;
                                    o.max_failed_streak =
                                        o.max_failed_streak.max(workers[p].failed_steals);
                                }
                            }
                            if config.record_trace {
                                row.push(Action::Steal { hit });
                            }
                            continue;
                        }
                        true
                    }
                    // Instantaneous acquisition: steal attempts cost
                    // nothing; only executing work (or finding none)
                    // consumes the round. Admit-first (`k = 0`) admits
                    // before scanning 2m victims, steal-k-first admits
                    // after k failed attempts.
                    StealCost::Free if k == 0 && !global_queue.is_empty() => true,
                    StealCost::Free => {
                        let attempts = if k == 0 { 2 * m as u64 } else { k as u64 };
                        if *stealable_cache
                            .get_or_insert_with(|| any_stealable(&workers, &blackholed))
                        {
                            for _ in 0..attempts {
                                stats.steal_attempts += 1;
                                if obs {
                                    wobs[p].steal_attempts += 1;
                                }
                                if steal_into(
                                    p,
                                    &mut workers,
                                    &mut rng,
                                    config.victim,
                                    config.steal_amount,
                                    &blackholed,
                                ) {
                                    stats.successful_steals += 1;
                                    if obs {
                                        wobs[p].successful_steals += 1;
                                    }
                                    stealable_cache = None;
                                    break;
                                }
                            }
                        } else {
                            stats.steal_attempts += attempts;
                            if obs {
                                wobs[p].steal_attempts += attempts;
                            }
                            burn_failed_attempts(
                                &mut rng,
                                &mut workers,
                                p,
                                config.victim,
                                attempts,
                            );
                        }
                        k > 0 && workers[p].current.is_none() && !global_queue.is_empty()
                    }
                };
                if admit {
                    let sid = pop_admission_slot(&mut global_queue, &slab, config.admission)
                        .expect("queue non-empty"); // lint: allow(panicking) emptiness checked on every path that sets `admit`
                    admit_slot(
                        sid,
                        p,
                        &mut slab,
                        &mut workers,
                        &mut arena,
                        &mut sources_scratch,
                        round,
                    );
                    live_admitted += 1;
                    stats.admissions += 1;
                    if obs {
                        wobs[p].admissions += 1;
                    }
                    stealable_cache = None;
                }
                if workers[p].current.is_none() {
                    // Only free steals reach here empty-handed.
                    stats.idle_steps += 1;
                    if obs {
                        wobs[p].idle_steps += 1;
                    }
                    if config.record_trace {
                        row.push(Action::Idle);
                    }
                    continue;
                }
            }

            // 2. Execute one unit of the current node.
            let (sid, v) = workers[p].current.expect("acquired work above"); // lint: allow(panicking) set on the acquisition path immediately above
            let cid = slab.cursor(sid);
            let jid = slab.get(sid).job.id;
            stats.work_steps += 1;
            if obs {
                wobs[p].work_steps += 1;
            }
            workers[p].failed_steals = 0;
            ready_scratch.clear();
            let cursor = arena.get_mut(cid);
            let outcome = cursor
                .execute_unit_into(&slab.get(sid).job.dag, v, &mut ready_scratch)
                .expect("current node claimed"); // lint: allow(panicking) invariant: executed nodes were claimed by this cursor
            if config.record_trace {
                row.push(Action::Work { job: jid, node: v });
            }
            let StepOutcome::NodeCompleted { job_completed } = outcome else {
                continue;
            };
            workers[p].current = None;
            if sampler.should_panic(jid, v) {
                // Injected task panic: the job fails and is abandoned.
                // Purge its tasks everywhere so no worker touches the dead
                // job again.
                stats.injected_panics += 1;
                fault_events.push(FaultEvent {
                    round,
                    worker: Some(p),
                    job: Some(jid),
                    kind: FaultKind::TaskPanic,
                    detail: v as u64,
                });
                for w in workers.iter_mut() {
                    w.deque.retain(|t| t.0 != sid);
                    w.pending.retain(|t| t.0 != sid);
                    if w.current.is_some_and(|t| t.0 == sid) {
                        w.current = None;
                    }
                }
                orphans.retain(|t| t.0 != sid);
                live_admitted -= 1;
                retired.push(slab.finish(sid, &mut arena, round, speed, JobStatus::Failed));
                continue;
            }
            // Claim enabled nodes now (they are exclusively ours) but defer
            // deque publication to the end of the round.
            for &u in ready_scratch.iter() {
                cursor.claim(u).expect("newly ready claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                workers[p].pending.push((sid, u));
            }
            if job_completed {
                live_admitted -= 1;
                retired.push(slab.finish(sid, &mut arena, round, speed, JobStatus::Completed));
            }
        }

        // Flush deferred pushes (bottom of the owner's deque, enable order).
        for w in &mut workers {
            for task in w.pending.drain(..) {
                w.deque.push_back(task);
            }
        }

        last_busy_round = round;
        if let Some(t) = trace.as_mut() {
            t.push_row(row);
        }
        round += 1;
    }

    if obs {
        for (p, o) in wobs.iter().enumerate() {
            rec.counter_at("ws.worker.work_steps", p, o.work_steps);
            rec.counter_at("ws.worker.steal_attempts", p, o.steal_attempts);
            rec.counter_at("ws.worker.successful_steals", p, o.successful_steals);
            rec.counter_at("ws.worker.failed_steal_rounds", p, o.failed_steal_rounds);
            rec.counter_at("ws.worker.admissions", p, o.admissions);
            rec.counter_at("ws.worker.idle_steps", p, o.idle_steps);
            rec.counter_at("ws.worker.max_failed_streak", p, o.max_failed_streak);
        }
        rec.counter("ws.work_steps", stats.work_steps);
        rec.counter("ws.steal_attempts", stats.steal_attempts);
        rec.counter("ws.successful_steals", stats.successful_steals);
        rec.counter("ws.admissions", stats.admissions);
        rec.counter("ws.idle_steps", stats.idle_steps);
        rec.gauge("ws.total_rounds", (last_busy_round + 1) as f64);
    }
    let summary = StreamSummary {
        m,
        speed,
        total_rounds: last_busy_round + 1,
        jobs: retired.count,
        stats,
        samples,
        max_flow: retired.max_flow,
        retire: slab.retirement(&arena, retired.count),
        fault_events,
    };
    *bufs = WsBuffers {
        workers,
        arena,
        slab,
        global_queue,
        orphans,
        alive,
        was_stalled,
        gates,
        blackholed,
        fault_boundaries,
        ready_scratch,
        sources_scratch,
        outcomes,
    };
    Ok((summary, trace))
}

/// Pop the next slot to admit: the front (FIFO) or the largest-weight
/// queued job (distributed BWF; ties go to the earlier arrival, i.e. the
/// smaller job id).
fn pop_admission_slot(
    queue: &mut VecDeque<u32>,
    slab: &JobSlab,
    order: AdmissionOrder,
) -> Option<u32> {
    match order {
        AdmissionOrder::Fifo => queue.pop_front(),
        AdmissionOrder::ByWeight => {
            let best = queue
                .iter()
                .enumerate()
                .max_by_key(|&(_, &sid)| {
                    let job = &slab.get(sid).job;
                    (job.weight, std::cmp::Reverse(job.id))
                })?
                .0;
            queue.remove(best)
        }
    }
}

/// Admit the job in slot `sid` on worker `p` at `round`: create its
/// cursor, push all source nodes onto the worker's deque and take the last
/// one as the current task.
fn admit_slot(
    sid: u32,
    p: usize,
    slab: &mut JobSlab,
    workers: &mut [Worker],
    arena: &mut CursorArena,
    sources: &mut Vec<NodeId>,
    round: Round,
) {
    let slot = slab.get_mut(sid);
    let id = arena.alloc(&slot.job.dag);
    slot.cursor = Some(id);
    slot.started = Some(round);
    let cur = arena.get_mut(id);
    sources.clear();
    sources.extend_from_slice(cur.ready_nodes());
    for &s in sources.iter() {
        cur.claim(s).expect("source ready"); // lint: allow(panicking) invariant: freshly materialized source nodes are unclaimed
        workers[p].deque.push_back((sid, s));
    }
    let task = workers[p].deque.pop_back().expect("pushed sources"); // lint: allow(panicking) a source task was pushed just above; the deque is non-empty
    workers[p].current = Some(task);
    workers[p].failed_steals = 0;
}

/// Simulate a centralized priority scheduler over a [`JobStream`] —
/// the same schedule as [`crate::run_priority`] on the materialization of
/// the stream, in O(active + m) live memory. Outcomes go to `sink` in
/// completion order. The centralized engine models a reliable machine:
/// `config.faults` is ignored.
pub fn run_priority_stream<P: JobPriority, S: JobStream>(
    stream: &mut S,
    config: &SimConfig,
    policy: &P,
    sink: &mut dyn FnMut(&JobOutcome),
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    run_priority_stream_observed(stream, config, policy, sink, &mut NullRecorder)
}

/// [`run_priority_stream`] with a [`Recorder`] attached: emits the same
/// `central.*` taxonomy as [`crate::run_priority_observed`] plus
/// `central.stream.*` retirement counters (no per-job `central.flow_ticks`
/// samples — sample from the sink).
pub fn run_priority_stream_observed<P: JobPriority, S: JobStream>(
    stream: &mut S,
    config: &SimConfig,
    policy: &P,
    sink: &mut dyn FnMut(&JobOutcome),
    rec: &mut dyn Recorder,
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    let out = priority_engine(stream, config, policy, sink, rec)?;
    if rec.enabled() {
        out.0.retire.record(rec, "central.stream");
    }
    Ok(out)
}

/// The centralized priority-list engine behind every centralized entry
/// point. Emits the `central.*` counters and the `central.total_rounds`
/// gauge every entry point shares; each entry point adds its own.
///
/// The engine steps by **event horizons** rather than single rounds: it is
/// deterministic and the assignment rule depends only on the active set
/// and the jobs' ready frontiers, so between two consecutive events (a job
/// arrival or a node completion) every round repeats the same processor
/// assignment. The engine computes that assignment once, derives the span
/// `Δ = min(next arrival, earliest node completion)` and consumes all `Δ`
/// rounds in one bulk update — bit-identical to the round-by-round
/// reference (`run_priority_reference`), but `O(events)` instead of
/// `O(rounds)` assignment work.
pub(crate) fn priority_engine<P: JobPriority, S: JobStream>(
    stream: &mut S,
    config: &SimConfig,
    policy: &P,
    sink: &mut dyn FnMut(&JobOutcome),
    rec: &mut dyn Recorder,
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    let m = config.m;
    let speed = config.speed;

    let mut arena = CursorArena::new();
    let mut slab = JobSlab::default();
    // Active jobs as (key, slot id), kept sorted ascending by key; keys
    // are computed from the slot's `Job`, whose id is the job id, so the
    // order (and every tie-break) is the job order.
    let mut active: Vec<((u64, u64, u32), u32)> = Vec::new();
    let mut claimed: Vec<(u32, JobId, NodeId)> = Vec::new();
    let mut ready_buf: Vec<NodeId> = Vec::new();
    let mut ready_scratch: Vec<NodeId> = Vec::new();
    let mut stats = EngineStats::default();
    let mut trace = config.record_trace.then(|| ScheduleTrace::new(m, speed));

    // Event-horizon telemetry, kept in locals (not EngineStats, which
    // goldens bit-compare) and flushed once at the end when observing.
    let obs = rec.enabled();
    let mut horizons: u64 = 0;
    let mut quiescent_jumps: u64 = 0;

    // Every round with an active job executes at least one unit, so this
    // bound (over the pulled prefix) can only be exceeded by an engine bug.
    let cap = |p: &Puller<'_, S>| -> Round {
        speed.first_round_at_or_after(p.last_arrival) + p.total_work + p.produced + 16
    };
    let mut puller = Puller::new(stream, 0)?;
    let mut safety_cap = cap(&puller);
    let mut retired = Retired::new(sink);
    let mut released: u64 = 0;
    let mut round: Round = 0;
    let mut last_busy_round: Round = 0;

    while puller.pending.is_some() || retired.count < released {
        assert!(round <= safety_cap, "centralized engine exceeded round cap");

        // Activate arrivals visible at the start of this round.
        while let Some((jid, job)) = puller.pop_arrived(speed, round)? {
            let sid = slab.alloc(jid, job);
            let slot = slab.get_mut(sid);
            slot.cursor = Some(arena.alloc(&slot.job.dag));
            let key = policy.key(&slot.job);
            let pos = active.partition_point(|&(k, _)| k < key);
            active.insert(pos, (key, sid));
            released += 1;
            safety_cap = cap(&puller);
        }

        if active.is_empty() {
            // Quiescent: fast-forward to the next arrival (run-length
            // encoded as one idle span when tracing).
            let target = puller
                .next_arrival_round(speed)
                .expect("no active jobs but none left to arrive"); // lint: allow(panicking) invariant: loop condition guarantees a pending arrival when nothing is active
            debug_assert!(target > round);
            let gap = target - round;
            stats.idle_steps += gap * m as u64;
            if obs {
                quiescent_jumps += 1;
            }
            if let Some(t) = trace.as_mut() {
                t.push_idle_rounds(gap);
            }
            round = target;
            continue;
        }

        // Assignment phase: walk jobs in priority order, claim ready nodes.
        claimed.clear();
        let mut avail = m;
        for &(_, sid) in active.iter() {
            if avail == 0 {
                break;
            }
            let slot = slab.get(sid);
            let cursor = arena.get_mut(slab.cursor(sid));
            ready_buf.clear();
            ready_buf.extend_from_slice(cursor.ready_nodes());
            // Deterministic choice of the "arbitrary set of ready nodes".
            ready_buf.sort_unstable();
            for &v in ready_buf.iter().take(avail) {
                cursor.claim(v).expect("ready node claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                claimed.push((sid, slot.job.id, v));
            }
            avail -= ready_buf.len().min(avail);
        }
        debug_assert!(!claimed.is_empty(), "active jobs must yield ready nodes");

        // Event horizon: the assignment repeats verbatim until a claimed
        // node completes or the pending job arrives, whichever is first.
        let mut delta: Round = claimed
            .iter()
            .map(|&(sid, _, v)| {
                arena
                    .get(slab.cursor(sid))
                    .remaining_work(v)
                    .expect("claimed node in range") // lint: allow(panicking) invariant: claimed nodes index this job DAG
            })
            .min()
            .expect("claimed non-empty"); // lint: allow(panicking) claim set verified non-empty above
        if let Some(next) = puller.next_arrival_round(speed) {
            // ≥ 1: everything due by `round` was activated above.
            delta = delta.min(next - round);
        }
        debug_assert!(delta >= 1);
        let last = round + delta - 1;

        // Execution phase: `delta` units on every claimed node. Nodes
        // whose remaining work equals `delta` complete during the final
        // round of the span, exactly where the reference engine completes
        // them; everything else is released for the next assignment.
        for &(sid, _, v) in claimed.iter() {
            let cid = slab.cursor(sid);
            let slot = slab.get_mut(sid);
            slot.started.get_or_insert(round);
            ready_scratch.clear();
            let cursor = arena.get_mut(cid);
            match cursor
                .execute_units(&slot.job.dag, v, delta, &mut ready_scratch)
                .expect("claimed node executes") // lint: allow(panicking) invariant: execute targets were claimed this round
            {
                StepOutcome::InProgress => {
                    cursor.release(v).expect("in-progress node releases"); // lint: allow(panicking) invariant: release follows the successful claim above
                }
                StepOutcome::NodeCompleted {
                    job_completed: true,
                } => {
                    // `job_completed` can only fire on the job's last
                    // claimed node this horizon, so no later `claimed`
                    // entry touches this slot — safe to recycle now.
                    let pos = active
                        .iter()
                        .position(|&(_, s)| s == sid)
                        .expect("completed job was active"); // lint: allow(panicking) invariant: a completing job sits in the active list exactly once
                    active.remove(pos);
                    retired.push(slab.finish(sid, &mut arena, last, speed, JobStatus::Completed));
                }
                StepOutcome::NodeCompleted { .. } => {}
            }
        }

        stats.work_steps += delta * claimed.len() as u64;
        stats.idle_steps += delta * (m - claimed.len()) as u64;
        if obs {
            horizons += 1;
        }
        last_busy_round = last;

        if let Some(t) = trace.as_mut() {
            let mut row: Vec<Action> = claimed
                .iter()
                .map(|&(_, job, node)| Action::Work { job, node })
                .collect();
            row.resize(m, Action::Idle);
            for _ in 1..delta {
                t.push_row(row.clone());
            }
            t.push_row(row);
        }

        round += delta;
    }

    if obs {
        rec.counter("central.work_steps", stats.work_steps);
        rec.counter("central.idle_steps", stats.idle_steps);
        rec.counter("central.event_horizons", horizons);
        rec.counter("central.quiescent_jumps", quiescent_jumps);
        rec.gauge("central.total_rounds", (last_busy_round + 1) as f64);
    }
    let summary = StreamSummary {
        m,
        speed,
        total_rounds: last_busy_round + 1,
        jobs: retired.count,
        stats,
        samples: Vec::new(),
        max_flow: retired.max_flow,
        retire: slab.retirement(&arena, retired.count),
        fault_events: Vec::new(),
    };
    Ok((summary, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::Fifo;
    use crate::ReplicaSpec;
    use parflow_dag::shapes;

    fn inst_seq(arrivals_works: &[(u64, u64)]) -> Instance {
        Instance::new(
            arrivals_works
                .iter()
                .enumerate()
                .map(|(i, &(a, w))| Job::new(i as u32, a, Arc::new(shapes::single_node(w))))
                .collect(),
        )
    }

    #[test]
    fn replay_matches_materialized_worksteal() {
        let inst = inst_seq(&[(0, 7), (0, 3), (4, 9), (10, 1), (10, 6)]);
        let cfg = SimConfig::new(2);
        let (batch, _) = crate::run_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 2 }, 9);
        let mut outs = Vec::new();
        let mut replay = InstanceReplay::new(&inst);
        let (sum, _) = run_worksteal_stream(
            &mut replay,
            &cfg,
            StealPolicy::StealKFirst { k: 2 },
            9,
            &mut |o| outs.push(o.clone()),
        )
        .expect("streams cleanly");
        assert_eq!(sum.stats, batch.stats);
        assert_eq!(sum.total_rounds, batch.total_rounds);
        assert_eq!(sum.max_flow, batch.max_flow());
        assert_eq!(sum.jobs, inst.len() as u64);
        // Outcomes arrive in completion order; compare as sets keyed by id.
        outs.sort_by_key(|o| o.job);
        assert_eq!(outs, batch.outcomes);
    }

    #[test]
    fn replay_matches_materialized_centralized() {
        let inst = inst_seq(&[(0, 5), (2, 2), (2, 8), (9, 4)]);
        let cfg = SimConfig::new(3);
        let (batch, _) = crate::run_priority(&inst, &cfg, &Fifo);
        let mut outs = Vec::new();
        let mut replay = InstanceReplay::new(&inst);
        let (sum, _) = run_priority_stream(&mut replay, &cfg, &Fifo, &mut |o| outs.push(o.clone()))
            .expect("streams cleanly");
        assert_eq!(sum.stats, batch.stats);
        assert_eq!(sum.total_rounds, batch.total_rounds);
        assert_eq!(sum.max_flow, batch.max_flow());
        outs.sort_by_key(|o| o.job);
        assert_eq!(outs, batch.outcomes);
    }

    #[test]
    fn empty_stream_is_one_idle_round() {
        let inst = Instance::new(Vec::new());
        let mut replay = InstanceReplay::new(&inst);
        let (sum, _) = run_worksteal_stream(
            &mut replay,
            &SimConfig::new(2),
            StealPolicy::AdmitFirst,
            1,
            &mut |_| {},
        )
        .expect("empty stream is fine");
        assert_eq!(sum.total_rounds, 1);
        assert_eq!(sum.jobs, 0);
        assert_eq!(sum.max_flow, Rational::ZERO);
        assert_eq!(sum.retire, RetirementStats::default());
    }

    #[test]
    fn slab_recycles_slots() {
        // Jobs spaced far apart: at most one is ever live, so the slab
        // should end with exactly one slot regardless of job count.
        let inst = inst_seq(&[(0, 3), (100, 3), (200, 3), (300, 3)]);
        let mut replay = InstanceReplay::new(&inst);
        let (sum, _) = run_worksteal_stream(
            &mut replay,
            &SimConfig::new(2),
            StealPolicy::AdmitFirst,
            5,
            &mut |_| {},
        )
        .expect("streams cleanly");
        assert_eq!(sum.retire.jobs_retired, 4);
        assert_eq!(sum.retire.live_jobs_high_water, 1);
        assert_eq!(sum.retire.slab_slots, 1);
        assert_eq!(sum.retire.cursor_slots, 1);
        assert_eq!(sum.retire.slab_reuse_ratio(), Some(0.75));
    }

    /// The `u32` job-id space fails closed. Seeding the stream near the
    /// top of the id space (as a resharded producer would) must surface
    /// `TooManyJobs` with the first id that did not fit, instead of
    /// silently wrapping — and a stream that stops exactly at `u32::MAX`
    /// must still run to completion.
    #[test]
    fn job_id_overflow_is_a_checked_error() {
        let inst = Instance::new(
            (0..6)
                .map(|i| Job::new(i, i as u64 * 4, Arc::new(shapes::single_node(3))))
                .collect(),
        );
        let cfg = SimConfig::new(2);
        let policy = StealPolicy::StealKFirst { k: 2 };
        let run = |base: u64, ids: &mut Vec<u32>| {
            worksteal_engine(
                Puller::new(&mut InstanceReplay::new(&inst), base)?,
                &cfg,
                policy,
                7,
                &mut |o| ids.push(o.job),
                &mut NullRecorder,
                &mut WsBuffers::default(),
            )
        };

        // Base chosen so ids MAX-2, MAX-1, MAX fit and the 4th job overflows.
        let err = run(u32::MAX as u64 - 2, &mut Vec::new()).expect_err("4th id exceeds u32");
        assert_eq!(err, StreamError::TooManyJobs(u32::MAX as u64 + 1));

        // Exactly filling the id space is fine, and the run is the same
        // schedule as a base-0 run with every outcome id shifted by the base.
        let top = u32::MAX as u64 - 5;
        let mut shifted_ids = Vec::new();
        let (sum_top, _) = run(top, &mut shifted_ids).expect("ids end exactly at u32::MAX");
        let mut base_ids = Vec::new();
        let (sum_zero, _) = run(0, &mut base_ids).expect("base 0 streams cleanly");
        assert_eq!(sum_top.stats, sum_zero.stats);
        assert_eq!(sum_top.max_flow, sum_zero.max_flow);
        assert_eq!(sum_top.total_rounds, sum_zero.total_rounds);
        let unshifted: Vec<u32> = shifted_ids
            .iter()
            .map(|id| (*id as u64 - top) as u32)
            .collect();
        assert_eq!(unshifted, base_ids);
        assert_eq!(*shifted_ids.iter().max().unwrap(), u32::MAX);
    }

    #[test]
    fn unsorted_stream_is_rejected() {
        struct Unsorted(u32);
        impl JobStream for Unsorted {
            fn next_job(&mut self) -> Option<StreamedJob> {
                self.0 += 1;
                (self.0 <= 2).then(|| StreamedJob {
                    arrival: if self.0 == 1 { 10 } else { 5 },
                    weight: 1,
                    dag: Arc::new(shapes::single_node(1)),
                })
            }
        }
        let err = run_worksteal_stream(
            &mut Unsorted(0),
            &SimConfig::new(1),
            StealPolicy::AdmitFirst,
            1,
            &mut |_| {},
        )
        .expect_err("unsorted arrivals must be rejected");
        assert_eq!(err, StreamError::UnsortedArrivals { index: 1 });
    }

    #[test]
    fn faulted_stream_retires_failed_jobs_through_the_sink() {
        use crate::fault::{FaultPlan, PPM};
        // Every task panics: each job fails at its first node completion,
        // reaches the sink as `Failed`, and fires one TaskPanic event.
        let cfg = SimConfig::new(2).with_faults(FaultPlan::none().with_panic_ppm(PPM));
        let inst = inst_seq(&[(0, 3), (1, 3), (50, 2)]);
        let mut statuses = Vec::new();
        let (sum, _) = run_worksteal_stream(
            &mut InstanceReplay::new(&inst),
            &cfg,
            StealPolicy::AdmitFirst,
            1,
            &mut |o| statuses.push(o.status),
        )
        .expect("faulted streams run");
        assert_eq!(statuses, vec![JobStatus::Failed; 3]);
        assert_eq!(sum.jobs, 3);
        assert_eq!(sum.stats.injected_panics, 3);
        assert_eq!(sum.fault_events.len(), 3);
        assert!(sum
            .fault_events
            .iter()
            .all(|e| e.kind == FaultKind::TaskPanic));
        assert_eq!(sum.retire.jobs_retired, 3);
    }

    #[test]
    fn empty_specs_empty_results() {
        let inst = inst_seq(&[(0, 1)]);
        assert!(crate::run_batched(&inst, &[]).is_empty());
    }

    #[test]
    fn single_replica_matches_sequential() {
        let inst = inst_seq(&[(0, 7), (3, 2), (9, 5)]);
        let cfg = SimConfig::new(2);
        let policy = StealPolicy::StealKFirst { k: 3 };
        let seq = crate::simulate_worksteal(&inst, &cfg, policy, 42);
        let out = crate::simulate_batched(&inst, &[ReplicaSpec::new(cfg, policy, 42)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], seq);
    }

    #[test]
    fn k_burn_window_matches_per_round_counters() {
        // 2 unit jobs, 2 workers, k = 3: both workers burn exactly 3
        // failed steal rounds before admitting (the k-burn window path).
        let inst = inst_seq(&[(0, 1), (0, 1)]);
        let cfg = SimConfig::new(2);
        let policy = StealPolicy::StealKFirst { k: 3 };
        let r = &crate::simulate_batched(&inst, &[ReplicaSpec::new(cfg.clone(), policy, 7)])[0];
        let seq = crate::simulate_worksteal(&inst, &cfg, policy, 7);
        assert_eq!(*r, seq);
        // A traced run steps every round: the per-round reference.
        let (stepped, _) = crate::run_worksteal(&inst, &cfg.with_trace(), policy, 7);
        assert_eq!(*r, stepped);
        assert_eq!(r.stats.steal_attempts, 6);
        assert_eq!(r.stats.admissions, 2);
    }

    #[test]
    fn faulted_and_clean_replicas_share_buffers() {
        use crate::fault::FaultPlan;
        // Replicas of different machine sizes and fault plans run back to
        // back on one set of buffers; each matches its fresh-buffer run.
        let inst = inst_seq(&[(0, 6), (1, 6), (2, 3), (40, 5)]);
        let plan = FaultPlan::none().crash(1, 2).stall(2, 1, 5).blackhole(0);
        let specs = [
            ReplicaSpec::new(
                SimConfig::new(3).with_faults(plan),
                StealPolicy::AdmitFirst,
                3,
            ),
            ReplicaSpec::new(SimConfig::new(2), StealPolicy::StealKFirst { k: 4 }, 3),
            ReplicaSpec::new(
                SimConfig::new(4).with_faults(FaultPlan::none().slowdown(0, 500_000)),
                StealPolicy::StealKFirst { k: 2 },
                5,
            ),
            ReplicaSpec::new(
                SimConfig::new(2).with_victim_scan(),
                StealPolicy::AdmitFirst,
                3,
            ),
        ];
        let out = crate::simulate_batched(&inst, &specs);
        for (spec, got) in specs.iter().zip(&out) {
            let want = crate::simulate_worksteal(&inst, &spec.config, spec.policy, spec.seed);
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn opt_tap_tracks_batch_bound() {
        let inst = inst_seq(&[(0, 6), (1, 2), (5, 4)]);
        let m = 2;
        let mut tap = OptTap::new(InstanceReplay::new(&inst), m);
        let (_, _) = run_worksteal_stream(
            &mut tap,
            &SimConfig::new(m),
            StealPolicy::AdmitFirst,
            3,
            &mut |_| {},
        )
        .expect("streams cleanly");
        assert_eq!(tap.opt().opt_max_flow(), crate::opt_max_flow(&inst, m));
        assert_eq!(
            tap.opt().combined_lower_bound(),
            crate::combined_lower_bound(&inst, m)
        );
    }
}
