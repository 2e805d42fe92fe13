//! The unified simulation engine.
//!
//! [`Engine`] is generic over [`bo3_graph::Topology`] and owns every
//! stepping implementation in the crate — one per [`Schedule`]:
//!
//! * **synchronous** — the paper's model: every vertex reads the previous
//!   round's snapshot.  Built-in protocols run the monomorphized kernels of
//!   [`crate::kernel`] over a bit-packed snapshot; the seeded entry points
//!   derive one RNG per `(master_seed, round, chunk)` work unit and scale
//!   across threads, bit-identical at any thread count.
//! * **asynchronous (random sequential)** — the distributed-systems
//!   ablation: every vertex updates exactly once per round, in a fresh
//!   uniformly random order, reading the *current* (partially updated)
//!   state.  Works on **any** topology — an implicit `G(n, 1/2)` at
//!   `n = 10⁶` runs without materialising an edge — and the seeded entry
//!   derives one RNG per round (see [`ASYNC_ROUND_CHUNK`]), so results are
//!   reproducible and trivially independent of the thread count.
//!
//! The protocol input is always a [`ProtocolKind`]: every built-in protocol
//! has one, and [`crate::protocol::Protocol::kind`] names it.  Each
//! schedule has two entry styles — seeded (`run_seeded_kind`,
//! `step_seeded_kind`, budgeted runs and resumes) and caller-RNG (`run`,
//! `step_synchronous`, `step_asynchronous_with`), whose draws match
//! [`crate::protocol::Protocol::update`] draw for draw.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::seq::SliceRandom;
use rand::RngCore;

use bo3_graph::{
    CsrGraph, CsrTopology, MeteredTopology, NeighbourLane, NeighbourSampler, PairHashSpec, Topology,
};
use bo3_obs::SamplerMeter;

use crate::adversary::{self, Adversary, AdversaryCounters};
use crate::checkpoint::{
    pack_opinions, RunBudget, RunCheckpoint, RunOutcome, RUN_CHECKPOINT_VERSION,
};
use crate::error::{DynamicsError, Result};
use crate::kernel::{self, PackedSnapshot, ProtocolKind};
use crate::observe::{maybe_now, NoopObserver, Observer};
use crate::opinion::{Configuration, Opinion};
use crate::schedule::Schedule;
use crate::stopping::{StopReason, StoppingCondition};
use crate::trace::Trace;

/// The chunk coordinate reserved for the asynchronous schedule's per-round
/// RNG stream.
///
/// A synchronous round is split into `CHUNK_SIZE` work units, chunk `c`
/// drawing from the `(master_seed, round, c)` stream.  An asynchronous round
/// is one sequential unit (each update may read the one before it), so it
/// draws everything — the order shuffle, the neighbour samples, the tie
/// coins — from the single `(master_seed, round, ASYNC_ROUND_CHUNK)` stream.
/// Real chunk indices are bounded by `n / CHUNK_SIZE`, so `u64::MAX` can
/// never collide with one.
pub const ASYNC_ROUND_CHUNK: u64 = u64::MAX;

/// Outcome of a single dynamics run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Consensus winner, when consensus was reached.
    pub winner: Option<Opinion>,
    /// Number of rounds executed (round 0 is the initial configuration and
    /// is not counted).
    pub rounds: usize,
    /// Blue fraction of the initial configuration.
    pub initial_blue_fraction: f64,
    /// Blue fraction of the final configuration.
    pub final_blue_fraction: f64,
    /// The per-round trajectory (present when tracing was enabled).
    pub trace: Option<Trace>,
    /// What the adversary did, when one was configured
    /// ([`Engine::with_adversary`]); `None` on honest runs.
    pub adversary: Option<AdversaryCounters>,
}

impl RunResult {
    /// `true` when the run ended in consensus on red — the outcome Theorem 1
    /// predicts for the paper's parameter regime.
    pub fn red_won(&self) -> bool {
        self.winner == Some(Opinion::Red)
    }

    /// `true` when the run ended in consensus (on either colour).
    pub fn reached_consensus(&self) -> bool {
        self.winner.is_some()
    }
}

/// The one voting-dynamics engine: any [`Topology`], either [`Schedule`],
/// seeded or caller-RNG execution, sequential or multi-threaded.
///
/// The second type parameter is the attached [`Observer`]
/// ([`Engine::with_observer`]); it defaults to [`NoopObserver`], whose hooks
/// monomorphize to nothing — an unobserved engine compiles to exactly the
/// uninstrumented hot path.  Observers read a run, they never perturb it:
/// results are bit-identical with or without one (see [`crate::observe`]).
pub struct Engine<T: Topology, O: Observer = NoopObserver> {
    topo: T,
    schedule: Schedule,
    stopping: StoppingCondition,
    threads: usize,
    record_trace: bool,
    adversary: Option<Adversary>,
    observer: O,
}

impl<T: Topology> Engine<T> {
    /// Creates an engine over `topo` (owned or borrowed — `&T` is itself a
    /// topology) with the defaults: synchronous schedule, stop at consensus,
    /// single-threaded, no trace.
    ///
    /// Fails on the empty topology, and — when the topology is backed by a
    /// materialised graph — on isolated vertices, which could never perform
    /// an update.  Hash-defined implicit topologies cannot be checked
    /// without `Θ(n²)` work and instead panic from sampling if run outside
    /// their dense regime.
    pub fn new(topo: T) -> Result<Self> {
        if topo.n() == 0 {
            return Err(DynamicsError::InvalidGraph {
                reason: "cannot run dynamics on the empty topology".into(),
            });
        }
        if let Some(graph) = topo.as_graph() {
            NeighbourSampler::new(graph)?;
        }
        Ok(Engine {
            topo,
            schedule: Schedule::default(),
            stopping: StoppingCondition::default(),
            threads: 1,
            record_trace: false,
            adversary: None,
            observer: NoopObserver,
        })
    }
}

impl<T: Topology, O: Observer> Engine<T, O> {
    /// Attaches an observer, replacing the current one (the default is the
    /// free [`NoopObserver`]).
    ///
    /// Observers receive read-only notifications — per-round and per-chunk
    /// progress/wall-time, the adversary tally, rejection-sampling effort —
    /// and are bound by the [`crate::observe`] contract: they never consume
    /// randomness or alter control flow, so the run's results are
    /// **bit-identical** with any observer attached, at any thread count, on
    /// either schedule.
    pub fn with_observer<O2: Observer>(self, observer: O2) -> Engine<T, O2> {
        Engine {
            topo: self.topo,
            schedule: self.schedule,
            stopping: self.stopping,
            threads: self.threads,
            record_trace: self.record_trace,
            adversary: self.adversary,
            observer,
        }
    }

    /// The attached observer (use after a run to read what it recorded).
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Sets the update schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the stopping condition.
    pub fn with_stopping(mut self, stopping: StoppingCondition) -> Self {
        self.stopping = stopping;
        self
    }

    /// Sets the worker thread count (`0` means "number of available CPUs").
    ///
    /// Only the synchronous seeded rounds fan out across workers; the result
    /// never depends on this — only the wall clock does.  (An asynchronous
    /// round is sequential by definition: each update may read the previous
    /// one.)
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        self
    }

    /// Enables or disables per-round trace recording.
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Attaches an adversary ([`crate::adversary`]) wrapping every update
    /// step: zealots, Byzantine reporters, message drop and block
    /// partitions, on either schedule.
    ///
    /// The adversary must have been built for this topology's vertex count
    /// (checked by the run entry points).  Without this call the engine
    /// never touches the adversarial code paths, so honest runs are
    /// bit-identical to previous releases.
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// The configured adversary, if any.
    pub fn adversary(&self) -> Option<&Adversary> {
        self.adversary.as_ref()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The configured update schedule.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The configured stopping condition.
    pub fn stopping(&self) -> StoppingCondition {
        self.stopping
    }

    /// Number of worker threads in use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    // ------------------------------------------------------------------
    // Validation helpers
    // ------------------------------------------------------------------

    fn check_initial(&self, initial: &Configuration) -> Result<()> {
        if initial.len() != self.topo.n() {
            return Err(DynamicsError::OpinionLengthMismatch {
                got: initial.len(),
                expected: self.topo.n(),
            });
        }
        Ok(())
    }

    /// Refuses full-neighbourhood protocols on huge hash-defined topologies
    /// (no [`Topology::cheap_rows`]): enumerating their rows tests all
    /// `n − 1` candidate pairs per vertex, `Θ(n²)` per round, so — matching
    /// the `GraphError::TooLarge` policy of the graph-side diagnostics —
    /// that combination is a typed error past
    /// [`bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT`] instead of an open-ended
    /// grind.
    fn check_kind(&self, kind: ProtocolKind) -> Result<()> {
        if matches!(kind, ProtocolKind::LocalMajority(_))
            && !self.topo.is_all_but_self()
            && !self.topo.cheap_rows()
            && self.topo.n() > bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT
        {
            return Err(DynamicsError::InvalidParameter {
                reason: format!(
                    "local majority on {} enumerates all n-1 candidate pairs per vertex \
                     (Theta(n^2) per round); refusing beyond {} vertices",
                    self.topo.label(),
                    bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT
                ),
            });
        }
        Ok(())
    }

    /// Checks that a configured adversary was compiled for this topology's
    /// vertex count.
    fn check_adversary(&self) -> Result<()> {
        match &self.adversary {
            Some(adv) if adv.n() != self.topo.n() => Err(DynamicsError::InvalidParameter {
                reason: format!(
                    "adversary was built for n = {} but the topology has {} vertices",
                    adv.n(),
                    self.topo.n()
                ),
            }),
            _ => Ok(()),
        }
    }

    /// Runs one round through `step` and reports it to the observer as round
    /// `round` with `n` updates — the one place a round is timed, shared by
    /// the runners and the single-step entry points.
    #[inline]
    fn timed_round(&self, round: u64, n: usize, step: impl FnOnce()) {
        let timer = maybe_now(&self.observer);
        step();
        if let Some(t0) = timer {
            self.observer
                .on_round(round, n as u64, t0.elapsed().as_nanos() as u64);
        }
    }

    // ------------------------------------------------------------------
    // Synchronous stepping — the only implementations in the crate
    // ------------------------------------------------------------------

    /// Routes one kernel chunk to the best dispatch the topology supports:
    /// graph-backed topologies go through the CSR entry point (which keeps
    /// the materialised-complete-graph row synthesis), everything else
    /// through the fully generic topology dispatch.  Both consume the RNG
    /// identically.
    ///
    /// When the observer wants a sampler meter, the generic arm wraps the
    /// topology in [`MeteredTopology`] — which consumes the RNG identically
    /// and forwards every routing predicate, so metering is invisible in the
    /// output.  The CSR arm samples in one try by construction and stays
    /// unmetered (its try-rate is definitionally 1).
    #[inline]
    fn dispatch<R: RngCore + ?Sized>(
        &self,
        kind: ProtocolKind,
        snap: &PackedSnapshot,
        start: usize,
        out: &mut [Opinion],
        rng: &mut R,
    ) {
        match self.topo.as_graph() {
            Some(graph) => kernel::dispatch_chunk(kind, graph, snap, start, out, rng),
            None => match self.observer.sampler_meter() {
                Some(meter) => kernel::dispatch_chunk_topology(
                    kind,
                    &MeteredTopology::new(&self.topo, meter),
                    snap,
                    start,
                    out,
                    rng,
                ),
                None => kernel::dispatch_chunk_topology(kind, &self.topo, snap, start, out, rng),
            },
        }
    }

    /// [`Engine::dispatch`] for callers whose chunk RNG is **scoped** — one
    /// fresh stream per `(master_seed, round, chunk)` work unit, dropped at
    /// chunk end.  Scoping is what licenses the draw-ahead lane kernel (its
    /// pre-drawn-but-unconsumed tail is unobservable when nothing else ever
    /// reads the stream), so hash-defined topologies route through
    /// [`kernel::try_dispatch_chunk_lane`] here and only here; caller-RNG
    /// steppers keep the strict scalar [`Engine::dispatch`].  Accepted
    /// neighbours — and therefore outputs — are bit-identical either way.
    #[inline]
    fn dispatch_scoped<R: RngCore + ?Sized>(
        &self,
        kind: ProtocolKind,
        snap: &PackedSnapshot,
        start: usize,
        out: &mut [Opinion],
        rng: &mut R,
    ) {
        if self.topo.as_graph().is_none() {
            if let Some(spec) = self.topo.pair_hash_spec() {
                if kernel::try_dispatch_chunk_lane(
                    kind,
                    spec,
                    snap,
                    start,
                    out,
                    rng,
                    self.observer.sampler_meter(),
                ) {
                    return;
                }
            }
        }
        self.dispatch(kind, snap, start, out, rng)
    }

    /// [`adversary::dispatch_chunk_adversarial`] behind the same
    /// meter-or-not routing as [`Engine::dispatch`]: the wrapper forwards
    /// `as_graph`, so the adversarial dispatch's internal CSR-vs-generic
    /// choice is unchanged by metering.
    #[allow(clippy::too_many_arguments)] // private plumbing: mirrors the adversarial dispatch
    #[inline]
    fn dispatch_adversarial<R: RngCore + ?Sized, A: RngCore + ?Sized>(
        &self,
        adv: &Adversary,
        kind: ProtocolKind,
        snap: &PackedSnapshot,
        start: usize,
        out: &mut [Opinion],
        round: u64,
        rng: &mut R,
        adv_rng: &mut A,
        dropped: &AtomicU64,
    ) {
        match self.observer.sampler_meter() {
            Some(meter) => adversary::dispatch_chunk_adversarial(
                adv,
                kind,
                &MeteredTopology::new(&self.topo, meter),
                snap,
                start,
                out,
                round,
                rng,
                adv_rng,
                dropped,
            ),
            None => adversary::dispatch_chunk_adversarial(
                adv, kind, &self.topo, snap, start, out, round, rng, adv_rng, dropped,
            ),
        }
    }

    /// One caller-RNG synchronous round: reads `current`, writes the next
    /// opinions into `next` (cleared and refilled), consuming `rng` over the
    /// whole vertex range in order.
    ///
    /// `round` and `dropped` feed the adversary (partition windows, the
    /// drop-coin stream and the drop tally); honest rounds ignore both.
    /// Caller-RNG execution is sequential (one work unit), so the
    /// adversary's stream coordinate is `(stream_seed, round, 0)`.
    #[allow(clippy::too_many_arguments)] // private plumbing: scratch buffers ride along
    fn step_sync_with_rng(
        &self,
        kind: ProtocolKind,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        snap: &mut PackedSnapshot,
        round: u64,
        dropped: &AtomicU64,
        rng: &mut dyn RngCore,
    ) {
        let prev = current.as_slice();
        next.clear();
        next.resize(prev.len(), Opinion::Red);
        snap.repack_from(prev);
        match &self.adversary {
            None => self.dispatch(kind, snap, 0, next, rng),
            Some(adv) => {
                let mut adv_rng = adv.round_rng(0, round, 0);
                self.dispatch_adversarial(
                    adv,
                    kind,
                    snap,
                    0,
                    next,
                    round,
                    rng,
                    &mut adv_rng,
                    dropped,
                );
            }
        }
    }

    /// One seeded synchronous kernel round: one RNG per
    /// `(master_seed, round, chunk)` work unit via
    /// [`kernel::kernel_chunk_rng`], chunks fanned across the worker pool —
    /// bit-identical at any thread count.
    #[allow(clippy::too_many_arguments)] // private plumbing: scratch buffers ride along
    fn step_sync_seeded_kernel(
        &self,
        kind: ProtocolKind,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        snap: &mut PackedSnapshot,
        master_seed: u64,
        round: u64,
        dropped: &AtomicU64,
    ) {
        let prev = current.as_slice();
        next.clear();
        next.resize(prev.len(), Opinion::Red);
        snap.repack_from(prev);
        let snap_ref = &*snap;
        match &self.adversary {
            None => crate::parallel::run_chunks(self.threads, next, &|chunk, start, out| {
                let timer = maybe_now(&self.observer);
                let mut rng = kernel::kernel_chunk_rng(master_seed, round, chunk);
                self.dispatch_scoped(kind, snap_ref, start, out, &mut rng);
                if let Some(t0) = timer {
                    self.observer
                        .on_chunk(chunk, out.len() as u64, t0.elapsed().as_nanos() as u64);
                }
            }),
            // The adversarial round keeps the exact same kernel streams and
            // chunk layout; the adversary's drop coins ride a second,
            // salted per-(seed, round, chunk) stream, so the round stays
            // bit-identical at any thread count.
            Some(adv) => crate::parallel::run_chunks(self.threads, next, &|chunk, start, out| {
                let timer = maybe_now(&self.observer);
                let mut rng = kernel::kernel_chunk_rng(master_seed, round, chunk);
                let mut adv_rng = adv.round_rng(master_seed, round, chunk);
                self.dispatch_adversarial(
                    adv,
                    kind,
                    snap_ref,
                    start,
                    out,
                    round,
                    &mut rng,
                    &mut adv_rng,
                    dropped,
                );
                if let Some(t0) = timer {
                    self.observer
                        .on_chunk(chunk, out.len() as u64, t0.elapsed().as_nanos() as u64);
                }
            }),
        }
    }

    // ------------------------------------------------------------------
    // Asynchronous stepping — the only implementation in the crate
    // ------------------------------------------------------------------

    /// One asynchronous (random sequential) round: every vertex updates
    /// exactly once, in a fresh uniformly random order drawn from `rng`,
    /// reading the **current** (partially updated) state.
    ///
    /// The round runs the live-state kernel update
    /// ([`kernel::update_vertex_live`]) against a bit-packed mirror of the
    /// configuration — which is what makes it topology-generic (an implicit
    /// topology samples neighbours arithmetically).
    ///
    /// `scoped` declares that `rng` is a per-round stream dropped when the
    /// round ends (the seeded `(master_seed, round, ASYNC_ROUND_CHUNK)`
    /// stream) — the licence the draw-ahead lane sweep needs to pre-draw
    /// candidates; see the contract in `bo3_graph::topology`.  Caller-held
    /// RNGs (`step_asynchronous_with`, `run`) pass `false` and stay on the
    /// strict scalar sweep, preserving their RNG positions draw for draw.
    #[allow(clippy::too_many_arguments)] // private plumbing: scratch buffers ride along
    fn step_async(
        &self,
        kind: ProtocolKind,
        config: &mut Configuration,
        order: &mut Vec<usize>,
        live: &mut PackedSnapshot,
        round: u64,
        adv_master: u64,
        dropped: &AtomicU64,
        scoped: bool,
        rng: &mut dyn RngCore,
    ) {
        // Identity-refill then shuffle: the buffer's allocation is reused
        // across rounds (see `AsyncScratch`), but its *contents* must be the
        // identity permutation before each shuffle — shuffling last round's
        // order instead would change the pinned seeded permutation.
        order.clear();
        order.extend(0..config.len());
        {
            let mut r = &mut *rng;
            order.shuffle(&mut r);
        }
        live.repack_from(config.as_slice());
        if let Some(adv) = &self.adversary {
            // Asynchronous rounds are one sequential work unit, so the
            // adversary stream mirrors the kernel stream's layout: one
            // stream per round at ASYNC_ROUND_CHUNK.
            let mut adv_rng = adv.round_rng(adv_master, round, ASYNC_ROUND_CHUNK);
            let mut lost = 0u64;
            match self.observer.sampler_meter() {
                Some(meter) => async_adversarial_sweep(
                    adv,
                    kind,
                    &MeteredTopology::new(&self.topo, meter),
                    order,
                    live,
                    config,
                    round,
                    rng,
                    &mut adv_rng,
                    &mut lost,
                ),
                None => async_adversarial_sweep(
                    adv,
                    kind,
                    &self.topo,
                    order,
                    live,
                    config,
                    round,
                    rng,
                    &mut adv_rng,
                    &mut lost,
                ),
            }
            if lost > 0 {
                dropped.fetch_add(lost, Ordering::Relaxed);
            }
            return;
        }
        if scoped && self.topo.as_graph().is_none() {
            if let (Some(k), Some(spec)) = (kernel::lane_samples(kind), self.topo.pair_hash_spec())
            {
                async_lane_sweep(
                    k,
                    spec,
                    order,
                    live,
                    config,
                    rng,
                    self.observer.sampler_meter(),
                );
                return;
            }
        }
        match self.observer.sampler_meter() {
            Some(meter) => async_kernel_sweep(
                kind,
                &MeteredTopology::new(&self.topo, meter),
                order,
                live,
                config,
                rng,
            ),
            None => async_kernel_sweep(kind, &self.topo, order, live, config, rng),
        }
    }

    // ------------------------------------------------------------------
    // Public single-step entry points
    // ------------------------------------------------------------------

    /// Performs one caller-RNG synchronous round: reads `current`, writes
    /// the next opinions into `next` (which is cleared and refilled).
    ///
    /// The round runs the monomorphized kernel over a bit-packed snapshot
    /// and consumes `rng` exactly as [`crate::protocol::Protocol::update`]
    /// applied to every vertex in order would.  The observer sees it as
    /// round 0.
    pub fn step_synchronous(
        &self,
        kind: ProtocolKind,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        rng: &mut dyn RngCore,
    ) {
        let mut snap = PackedSnapshot::all_red(0);
        let dropped = AtomicU64::new(0);
        self.timed_round(0, current.len(), || {
            self.step_sync_with_rng(kind, current, next, &mut snap, 0, &dropped, rng)
        });
    }

    /// Performs one caller-RNG asynchronous round on the live configuration
    /// (see the module docs), reusing the caller-held scratch: the shuffled
    /// order buffer and the packed live mirror.  Buffer reuse never changes
    /// the output — each round refills the order with the identity
    /// permutation before shuffling, so the permutation stream is exactly a
    /// fresh allocation's.  The observer sees it as round 0.
    pub fn step_asynchronous_with(
        &self,
        kind: ProtocolKind,
        config: &mut Configuration,
        scratch: &mut AsyncScratch,
        rng: &mut dyn RngCore,
    ) {
        let dropped = AtomicU64::new(0);
        self.timed_round(0, config.len(), || {
            self.step_async(
                kind,
                config,
                &mut scratch.order,
                &mut scratch.live,
                0,
                0,
                &dropped,
                false,
                rng,
            )
        });
    }

    /// Performs one synchronous round with the seeded
    /// `(master_seed, round, chunk)` kernel streams, across the configured
    /// worker pool; the observer sees it as round `round`.
    pub fn step_seeded_kind(
        &self,
        kind: ProtocolKind,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        master_seed: u64,
        round: u64,
    ) {
        let mut snap = PackedSnapshot::all_red(0);
        let dropped = AtomicU64::new(0);
        self.timed_round(round, current.len(), || {
            self.step_sync_seeded_kernel(
                kind,
                current,
                next,
                &mut snap,
                master_seed,
                round,
                &dropped,
            )
        });
    }

    // ------------------------------------------------------------------
    // Runners
    // ------------------------------------------------------------------

    /// Runs the dynamics from `initial` until the stopping condition fires,
    /// with every draw taken from the caller's `rng` (both schedules;
    /// sequential — seeded execution is what fans out across threads).
    pub fn run(
        &self,
        kind: ProtocolKind,
        initial: Configuration,
        rng: &mut dyn RngCore,
    ) -> Result<RunResult> {
        self.check_initial(&initial)?;
        self.check_adversary()?;
        self.check_kind(kind)?;
        let mut scratch: Vec<Opinion> = Vec::with_capacity(initial.len());
        let mut snap = PackedSnapshot::all_red(0);
        let mut order: Vec<usize> = Vec::new();
        let dropped = AtomicU64::new(0);
        let mut result = drive(
            &self.stopping,
            self.record_trace,
            initial,
            |config, round| {
                let round = round as u64;
                self.timed_round(round, config.len(), || match self.schedule {
                    Schedule::Synchronous => {
                        self.step_sync_with_rng(
                            kind,
                            config,
                            &mut scratch,
                            &mut snap,
                            round,
                            &dropped,
                            rng,
                        );
                        config.overwrite_from(&scratch);
                    }
                    Schedule::AsynchronousRandomOrder => self.step_async(
                        kind, config, &mut order, &mut snap, round, 0, &dropped, false, rng,
                    ),
                });
            },
        );
        if let Some(adv) = &self.adversary {
            let counters = adv.counters(result.rounds, dropped.into_inner());
            self.observer.on_adversary(&counters);
            result.adversary = Some(counters);
        }
        Ok(result)
    }

    /// Runs the dynamics with all randomness derived from `master_seed`.
    ///
    /// Synchronous runs derive one RNG per `(master_seed, round, chunk)`
    /// work unit and are **bit-for-bit identical at any thread count**;
    /// asynchronous runs derive one RNG per round (chunk coordinate
    /// [`ASYNC_ROUND_CHUNK`]) and execute sequentially, so the same property
    /// holds trivially.  See [`Schedule`] for the full determinism
    /// semantics.
    pub fn run_seeded_kind(
        &self,
        kind: ProtocolKind,
        initial: Configuration,
        master_seed: u64,
    ) -> Result<RunResult> {
        match self.run_seeded_kind_budgeted(kind, initial, master_seed, &RunBudget::unlimited())? {
            RunOutcome::Completed(result) => Ok(result),
            RunOutcome::Paused(_) => unreachable!("an unlimited budget never pauses"),
        }
    }

    /// [`Engine::run_seeded_kind`] under a [`RunBudget`]: the run yields at
    /// the round boundary where the budget first fires and hands back a
    /// [`RunCheckpoint`]; [`Engine::resume`] continues it **bit-identically**
    /// to an uninterrupted run, on either schedule, at any thread count (see
    /// [`crate::checkpoint`] for why the checkpoint needs no RNG state).
    pub fn run_seeded_kind_budgeted(
        &self,
        kind: ProtocolKind,
        initial: Configuration,
        master_seed: u64,
        budget: &RunBudget,
    ) -> Result<RunOutcome> {
        self.check_initial(&initial)?;
        self.check_adversary()?;
        self.check_kind(kind)?;
        let state = DriveState::fresh(initial, self.record_trace);
        self.seeded_kind_slice(kind, master_seed, state, 0, budget)
    }

    /// Continues a paused seeded run from its checkpoint, under a new
    /// budget.  The engine must be configured identically to the one that
    /// produced the checkpoint (same topology size, schedule, stopping
    /// condition and trace flag) — mismatches are typed errors, never silent
    /// divergence.  The thread count is free to differ: seeded rounds are
    /// bit-identical at any thread count.
    pub fn resume(&self, checkpoint: &RunCheckpoint, budget: &RunBudget) -> Result<RunOutcome> {
        let bad = |reason: String| DynamicsError::InvalidParameter { reason };
        if checkpoint.version != RUN_CHECKPOINT_VERSION {
            return Err(bad(format!(
                "checkpoint version {} is not the supported version {RUN_CHECKPOINT_VERSION}",
                checkpoint.version
            )));
        }
        if checkpoint.n != self.topo.n() {
            return Err(bad(format!(
                "checkpoint was taken at n = {} but the topology has {} vertices",
                checkpoint.n,
                self.topo.n()
            )));
        }
        if checkpoint.schedule != self.schedule {
            return Err(bad(format!(
                "checkpoint was taken under the {} schedule but the engine runs {}",
                checkpoint.schedule.label(),
                self.schedule.label()
            )));
        }
        if checkpoint.stopping != self.stopping {
            return Err(bad(
                "checkpoint stopping condition differs from the engine's".into(),
            ));
        }
        if checkpoint.trace.is_some() != self.record_trace {
            return Err(bad(format!(
                "checkpoint {} a partial trace but the engine has tracing {}",
                if checkpoint.trace.is_some() {
                    "carries"
                } else {
                    "lacks"
                },
                if self.record_trace { "on" } else { "off" }
            )));
        }
        self.check_adversary()?;
        self.check_kind(checkpoint.protocol)?;
        let state = DriveState {
            config: checkpoint.configuration()?,
            rounds: checkpoint.round,
            trace: checkpoint.trace.clone(),
            initial_blue_fraction: checkpoint.initial_blue_fraction,
        };
        self.seeded_kind_slice(
            checkpoint.protocol,
            checkpoint.master_seed,
            state,
            checkpoint.dropped_samples,
            budget,
        )
    }

    /// [`Engine::resume`] with an unlimited budget: runs the checkpoint to
    /// completion.
    pub fn resume_to_end(&self, checkpoint: &RunCheckpoint) -> Result<RunResult> {
        match self.resume(checkpoint, &RunBudget::unlimited())? {
            RunOutcome::Completed(result) => Ok(result),
            RunOutcome::Paused(_) => unreachable!("an unlimited budget never pauses"),
        }
    }

    /// The one seeded-kernel slice driver behind [`Engine::run_seeded_kind`],
    /// [`Engine::run_seeded_kind_budgeted`] and [`Engine::resume`]: drives
    /// rounds (both schedules) until the stopping condition or the budget
    /// fires, then assembles the result or captures the checkpoint.
    fn seeded_kind_slice(
        &self,
        kind: ProtocolKind,
        master_seed: u64,
        state: DriveState,
        prior_dropped: u64,
        budget: &RunBudget,
    ) -> Result<RunOutcome> {
        let mut scratch: Vec<Opinion> = Vec::with_capacity(state.config.len());
        // The packed snapshot doubles as the async path's live mirror; it is
        // repacked in place each round either way.
        let mut snap = PackedSnapshot::all_red(0);
        let mut order: Vec<usize> = Vec::new();
        let dropped = AtomicU64::new(prior_dropped);
        let outcome = drive_budgeted(&self.stopping, budget, state, |config, round| {
            let round = round as u64;
            self.timed_round(round, config.len(), || match self.schedule {
                Schedule::Synchronous => {
                    self.step_sync_seeded_kernel(
                        kind,
                        config,
                        &mut scratch,
                        &mut snap,
                        master_seed,
                        round,
                        &dropped,
                    );
                    config.overwrite_from(&scratch);
                }
                Schedule::AsynchronousRandomOrder => {
                    let mut rng = kernel::kernel_chunk_rng(master_seed, round, ASYNC_ROUND_CHUNK);
                    self.step_async(
                        kind,
                        config,
                        &mut order,
                        &mut snap,
                        round,
                        master_seed,
                        &dropped,
                        true,
                        &mut rng,
                    );
                }
            });
        });
        match outcome {
            DriveOutcome::Done(mut result) => {
                if let Some(adv) = &self.adversary {
                    let counters = adv.counters(result.rounds, dropped.into_inner());
                    self.observer.on_adversary(&counters);
                    result.adversary = Some(counters);
                }
                Ok(RunOutcome::Completed(result))
            }
            DriveOutcome::Paused(state) => Ok(RunOutcome::Paused(Box::new(RunCheckpoint {
                version: RUN_CHECKPOINT_VERSION,
                protocol: kind,
                schedule: self.schedule,
                stopping: self.stopping,
                master_seed,
                round: state.rounds,
                n: state.config.len(),
                opinion_words: pack_opinions(state.config.as_slice()),
                initial_blue_fraction: state.initial_blue_fraction,
                dropped_samples: dropped.into_inner(),
                trace: state.trace,
            }))),
        }
    }
}

/// Creates an engine over a borrowed materialised graph — shorthand for
/// `Engine::new(CsrTopology::new(graph))`.
impl<'g> Engine<CsrTopology<'g>> {
    /// See [`Engine::new`]; fails on empty graphs and isolated vertices.
    pub fn on_graph(graph: &'g CsrGraph) -> Result<Self> {
        Engine::new(CsrTopology::new(graph))
    }
}

impl<'g, O: Observer> Engine<CsrTopology<'g>, O> {
    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.topology().graph()
    }
}

/// The honest asynchronous kernel sweep, generic over the (possibly
/// metered) topology so the observer's sampler meter can wrap it without a
/// second copy of the loop.
///
/// The live blue count makes the complete-topology local majority O(1) per
/// update instead of a Θ(n) row walk; it is maintained exactly, so counts
/// (and tie coins) match the row-walking path bit for bit.
fn async_kernel_sweep<T: Topology>(
    kind: ProtocolKind,
    topo: &T,
    order: &[usize],
    live: &mut PackedSnapshot,
    config: &mut Configuration,
    rng: &mut dyn RngCore,
) {
    let mut blues = live.blue_count();
    for &v in order {
        let new = kernel::update_vertex_live(kind, topo, live, blues, v, rng);
        if live.get(v) != new {
            blues = if new.is_blue() { blues + 1 } else { blues - 1 };
            live.set(v, new);
            config.set(v, new);
        }
    }
}

/// The draw-ahead asynchronous sweep for fixed-draw-count protocols on
/// hash-defined topologies: [`async_kernel_sweep`] with the per-vertex
/// scalar sampling replaced by one [`NeighbourLane`] shared across the
/// round.  Only seeded rounds may take this path — the round RNG is scoped
/// to `(master_seed, round, ASYNC_ROUND_CHUNK)` and dropped at round end,
/// which is what makes the lane's pre-drawn tail unobservable — and the
/// accepted neighbours are bit-identical to the scalar sweep, so the
/// partially-updated live state evolves identically.
///
/// The lane-eligible kinds never reach a tie coin (`kernel::lane_samples`
/// filters for odd draw counts or `KeepOwn`), so the pure majority decision
/// [`kernel::decide_pure`] is the whole update rule.
fn async_lane_sweep(
    k: usize,
    spec: PairHashSpec,
    order: &[usize],
    live: &mut PackedSnapshot,
    config: &mut Configuration,
    rng: &mut dyn RngCore,
    meter: Option<&SamplerMeter>,
) {
    let mut lane = NeighbourLane::new(spec);
    for &v in order {
        let mut blues = 0usize;
        for _ in 0..k {
            let (w, _) = lane.sample(v, rng);
            blues += live.is_blue(w) as usize;
        }
        let new = kernel::decide_pure(blues, k, live.get(v));
        if live.get(v) != new {
            live.set(v, new);
            config.set(v, new);
        }
    }
    if let Some(meter) = meter {
        meter.record_lane(lane.consumed(), (order.len() * k) as u64, lane.drawn());
    }
}

/// The adversarial asynchronous sweep, generic like [`async_kernel_sweep`]
/// (zealots skip their update; `lost` tallies samples the adversary ate).
#[allow(clippy::too_many_arguments)] // private plumbing: mirrors the adversarial update
fn async_adversarial_sweep<T: Topology>(
    adv: &Adversary,
    kind: ProtocolKind,
    topo: &T,
    order: &[usize],
    live: &mut PackedSnapshot,
    config: &mut Configuration,
    round: u64,
    rng: &mut dyn RngCore,
    adv_rng: &mut dyn RngCore,
    lost: &mut u64,
) {
    for &v in order {
        if adv.is_zealot(v) {
            continue;
        }
        let new = adversary::update_vertex_adversarial(
            adv, kind, topo, live, v, round, rng, adv_rng, lost,
        );
        if live.get(v) != new {
            live.set(v, new);
            config.set(v, new);
        }
    }
}

/// Caller-held scratch buffers for repeated asynchronous stepping: the
/// shuffled vertex order and the packed live mirror, reused across rounds by
/// [`Engine::step_asynchronous_with`] instead of re-allocated per call.
///
/// Reuse is purely an allocation optimisation — each round refills the order
/// buffer with the identity permutation before shuffling, so the results are
/// bit-identical to fresh buffers.
pub struct AsyncScratch {
    pub(crate) order: Vec<usize>,
    pub(crate) live: PackedSnapshot,
}

impl AsyncScratch {
    /// Creates empty scratch; the first round sizes the buffers.
    pub fn new() -> Self {
        AsyncScratch {
            order: Vec::new(),
            live: PackedSnapshot::all_red(0),
        }
    }
}

impl Default for AsyncScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// In-flight state of a (possibly sliced) run: what [`drive_budgeted`]
/// threads from slice to slice, and what a [`RunCheckpoint`] captures.
pub(crate) struct DriveState {
    pub(crate) config: Configuration,
    pub(crate) rounds: usize,
    pub(crate) trace: Option<Trace>,
    pub(crate) initial_blue_fraction: f64,
}

impl DriveState {
    /// Round-0 state of a fresh run (records the trace's round 0).
    pub(crate) fn fresh(initial: Configuration, record_trace: bool) -> Self {
        let initial_blue_fraction = initial.blue_fraction();
        let mut trace = if record_trace {
            Some(Trace::new())
        } else {
            None
        };
        if let Some(t) = trace.as_mut() {
            t.record(0, &initial);
        }
        DriveState {
            config: initial,
            rounds: 0,
            trace,
            initial_blue_fraction,
        }
    }
}

/// What one [`drive_budgeted`] call produced.
pub(crate) enum DriveOutcome {
    /// The stopping condition fired.
    Done(RunResult),
    /// The budget fired at a round boundary; the state is ready to continue.
    Paused(DriveState),
}

/// The shared run driver: applies `round_fn` until `stopping` or the budget
/// fires, recording the trace and assembling the [`RunResult`].
///
/// Every runner goes through this single loop, so stopping, trace and
/// bookkeeping semantics cannot drift between schedules or execution modes
/// (the bit-identical determinism contract depends on that).  The budget is
/// checked *after* the stopping condition at each round boundary — these are
/// the yield points — so a run whose stopping condition fires within the
/// slice completes rather than pausing, and pausing never observes a
/// half-applied round.
pub(crate) fn drive_budgeted(
    stopping: &StoppingCondition,
    budget: &RunBudget,
    mut state: DriveState,
    mut round_fn: impl FnMut(&mut Configuration, usize),
) -> DriveOutcome {
    let mut slice_rounds = 0usize;
    loop {
        if let Some(reason) = stopping.should_stop(&state.config, state.rounds) {
            return DriveOutcome::Done(RunResult {
                stop_reason: reason,
                winner: reason.winner(),
                rounds: state.rounds,
                initial_blue_fraction: state.initial_blue_fraction,
                final_blue_fraction: state.config.blue_fraction(),
                trace: state.trace,
                adversary: None,
            });
        }
        if budget.should_pause(slice_rounds) {
            return DriveOutcome::Paused(state);
        }
        round_fn(&mut state.config, state.rounds);
        state.rounds += 1;
        slice_rounds += 1;
        if let Some(t) = state.trace.as_mut() {
            t.record(state.rounds, &state.config);
        }
    }
}

/// [`drive_budgeted`] with an unlimited budget — the unbudgeted runners'
/// entry point.
pub(crate) fn drive(
    stopping: &StoppingCondition,
    record_trace: bool,
    initial: Configuration,
    round_fn: impl FnMut(&mut Configuration, usize),
) -> RunResult {
    match drive_budgeted(
        stopping,
        &RunBudget::unlimited(),
        DriveState::fresh(initial, record_trace),
        round_fn,
    ) {
        DriveOutcome::Done(result) => result,
        DriveOutcome::Paused(_) => unreachable!("an unlimited budget never pauses"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitialCondition;
    use crate::protocol::{BestOfK, BestOfThree, BestOfTwo, LocalMajority, Protocol, TieRule};
    use crate::protocol::{UpdateContext, Voter};
    use bo3_graph::{generators, ImplicitGnp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BO3: ProtocolKind = ProtocolKind::BestOfThree;

    #[test]
    fn rejects_empty_graph_and_isolated_vertices() {
        let empty = bo3_graph::GraphBuilder::new(0).build().unwrap();
        assert!(Engine::on_graph(&empty).is_err());
        let iso = bo3_graph::GraphBuilder::new(3)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        assert!(Engine::on_graph(&iso).is_err());
    }

    #[test]
    fn rejects_mismatched_initial_configuration() {
        let g = generators::complete(5);
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let bad = Configuration::all_red(3);
        assert!(matches!(
            sim.run(BO3, bad, &mut rng),
            Err(DynamicsError::OpinionLengthMismatch {
                got: 3,
                expected: 5
            })
        ));
    }

    #[test]
    fn consensus_initial_state_stops_immediately() {
        let g = generators::complete(8);
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let res = sim.run(BO3, Configuration::all_red(8), &mut rng).unwrap();
        assert_eq!(res.rounds, 0);
        assert!(res.red_won());
        assert!(res.reached_consensus());
        assert_eq!(res.final_blue_fraction, 0.0);
    }

    #[test]
    fn best_of_three_reaches_red_consensus_on_dense_graph() {
        let g = generators::complete(400);
        let sim = Engine::on_graph(&g).unwrap().with_trace(true);
        let mut rng = StdRng::seed_from_u64(2);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(BO3, init, &mut rng).unwrap();
        assert!(res.red_won(), "stop reason {:?}", res.stop_reason);
        assert!(res.rounds <= 30, "took {} rounds", res.rounds);
        let trace = res.trace.as_ref().unwrap();
        assert_eq!(trace.len(), res.rounds + 1);
        // The blue fraction is (weakly) shrinking over most of the run.
        let fr = trace.blue_fractions();
        assert!(fr.first().unwrap() > fr.last().unwrap());
    }

    #[test]
    fn blue_majority_start_gives_blue_consensus() {
        let g = generators::complete(300);
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let init = InitialCondition::Bernoulli {
            blue_probability: 0.7,
        }
        .sample(&g, &mut rng)
        .unwrap();
        let res = sim.run(BO3, init, &mut rng).unwrap();
        assert_eq!(res.winner, Some(Opinion::Blue));
    }

    #[test]
    fn fixed_round_budget_is_respected() {
        let g = generators::complete(100);
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(4))
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(4);
        let init = InitialCondition::ExactCount { blue: 50 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(BO3, init, &mut rng).unwrap();
        assert_eq!(res.rounds, 4);
        assert_eq!(res.stop_reason, StopReason::RoundLimit);
        assert_eq!(res.trace.unwrap().len(), 5);
    }

    #[test]
    fn voter_model_is_much_slower_than_best_of_three() {
        let g = generators::complete(150);
        let mut rng = StdRng::seed_from_u64(5);
        let init = InitialCondition::ExactCount { blue: 60 }
            .sample(&g, &mut rng)
            .unwrap();

        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_stopping(StoppingCondition::consensus_within(100_000));
        let bo3 = sim.run(BO3, init.clone(), &mut rng).unwrap();
        let voter = sim.run(ProtocolKind::Voter, init, &mut rng).unwrap();
        assert!(bo3.reached_consensus());
        assert!(voter.reached_consensus());
        assert!(
            voter.rounds > 3 * bo3.rounds,
            "voter {} rounds vs best-of-3 {}",
            voter.rounds,
            bo3.rounds
        );
    }

    #[test]
    fn local_majority_converges_in_one_round_on_complete_graph() {
        let g = generators::complete(101);
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let init = InitialCondition::ExactCount { blue: 30 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim
            .run(
                ProtocolKind::LocalMajority(TieRule::KeepOwn),
                init,
                &mut rng,
            )
            .unwrap();
        assert!(res.red_won());
        assert_eq!(res.rounds, 1);
    }

    #[test]
    fn asynchronous_schedule_also_converges() {
        let g = generators::complete(200);
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder);
        let mut rng = StdRng::seed_from_u64(7);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(BO3, init, &mut rng).unwrap();
        assert!(res.reached_consensus());
        assert!(res.red_won());
    }

    #[test]
    fn synchronous_step_reads_only_the_snapshot() {
        // On a 2-colourable structure, a synchronous local-majority update of
        // an alternating colouring swaps the colours (period-2 oscillation),
        // which is only possible if every vertex reads the *old* snapshot.
        let g = generators::complete_bipartite(5, 5).unwrap();
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        // Left side blue, right side red.
        let opinions: Vec<Opinion> = (0..10)
            .map(|v| if v < 5 { Opinion::Blue } else { Opinion::Red })
            .collect();
        let cfg = Configuration::new(opinions);
        let mut next = Vec::new();
        let kind = ProtocolKind::LocalMajority(TieRule::KeepOwn);
        sim.step_synchronous(kind, &cfg, &mut next, &mut rng);
        // Every left vertex sees only red neighbours and vice versa.
        assert!(next[..5].iter().all(|&o| o == Opinion::Red));
        assert!(next[5..].iter().all(|&o| o == Opinion::Blue));
    }

    #[test]
    fn blue_extinction_stopping_is_honoured() {
        let g = generators::complete(500);
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_stopping(StoppingCondition::blue_extinction(1_000, 0.05));
        let mut rng = StdRng::seed_from_u64(9);
        let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(BO3, init, &mut rng).unwrap();
        assert!(res.final_blue_fraction <= 0.05);
    }

    #[test]
    fn run_seeded_supports_the_asynchronous_schedule() {
        // Seeded runs cover the asynchronous schedule, reproducibly, on
        // materialised graphs...
        let g = generators::complete(300);
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(10);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample(&g, &mut rng)
            .unwrap();
        let a = sim.run_seeded_kind(BO3, init.clone(), 5).unwrap();
        let b = sim.run_seeded_kind(BO3, init, 5).unwrap();
        assert_eq!(a, b);
        assert!(a.red_won());
    }

    #[test]
    fn seeded_async_runs_on_implicit_topologies() {
        // ...and on adjacency-free topologies.
        let n = 2_000;
        let mut rng = StdRng::seed_from_u64(11);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample_n(n, &mut rng)
            .unwrap();
        let engine = Engine::new(ImplicitGnp::new(n, 0.3, 3).unwrap())
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_trace(true);
        let a = engine.run_seeded_kind(BO3, init.clone(), 21).unwrap();
        let b = engine.run_seeded_kind(BO3, init.clone(), 21).unwrap();
        assert_eq!(a, b, "seeded async must be reproducible");
        assert!(a.red_won());
        // The thread knob cannot change an asynchronous result (the round
        // is sequential by definition).
        let threaded = Engine::new(ImplicitGnp::new(n, 0.3, 3).unwrap())
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_threads(8)
            .with_trace(true)
            .run_seeded_kind(BO3, init, 21)
            .unwrap();
        assert_eq!(a, threaded);
    }

    #[test]
    fn async_kernel_path_matches_the_dyn_path_draw_for_draw() {
        // The async round runs the live-state kernel update; applying
        // `Protocol::update` to the live configuration in the same shuffled
        // order, with the same caller RNG, must give bit-identical rounds
        // and leave the RNG at the same position.
        let g = generators::complete_bipartite(150, 170).unwrap();
        let sampler = NeighbourSampler::new(&g).unwrap();
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_stopping(StoppingCondition::fixed_rounds(6))
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(12);
        let init = InitialCondition::BernoulliWithBias { delta: 0.05 }
            .sample(&g, &mut rng)
            .unwrap();
        let protocols: Vec<Box<dyn Protocol>> = vec![
            Box::new(Voter::new()),
            Box::new(BestOfTwo::new(TieRule::Random)),
            Box::new(BestOfThree::new()),
            Box::new(BestOfK::new(4, TieRule::Random)),
            Box::new(LocalMajority::new(TieRule::Random)),
        ];
        for protocol in &protocols {
            let mut rng_a = StdRng::seed_from_u64(77);
            let a = sim.run(protocol.kind(), init.clone(), &mut rng_a).unwrap();

            let mut rng_b = StdRng::seed_from_u64(77);
            let mut config = init.clone();
            let mut trace = Trace::new();
            trace.record(0, &config);
            for round in 1..=6 {
                let mut order: Vec<usize> = (0..config.len()).collect();
                order.shuffle(&mut rng_b);
                for v in order {
                    let prev = config.as_slice();
                    let ctx = UpdateContext {
                        vertex: v,
                        current: prev[v],
                        previous: prev,
                        sampler: &sampler,
                    };
                    let new = protocol.update(&ctx, &mut rng_b);
                    config.set(v, new);
                }
                trace.record(round, &config);
            }
            assert_eq!(
                a.trace.as_ref(),
                Some(&trace),
                "{} diverged",
                protocol.name()
            );
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{}", protocol.name());
        }
    }

    #[test]
    fn run_seeded_is_reproducible() {
        let g = generators::complete(300);
        let sim = Engine::on_graph(&g).unwrap().with_trace(true);
        let mut rng = StdRng::seed_from_u64(10);
        let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
            .sample(&g, &mut rng)
            .unwrap();
        let a = sim.run_seeded_kind(BO3, init.clone(), 77).unwrap();
        let b = sim.run_seeded_kind(BO3, init, 77).unwrap();
        assert_eq!(a, b);
        assert!(a.red_won());
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let g = generators::complete(100);
        let sim = Engine::on_graph(&g).unwrap().with_trace(true);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
                .sample(&g, &mut rng)
                .unwrap();
            sim.run(BO3, init, &mut rng).unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        let c = run(43);
        assert!(a.rounds != c.rounds || a.trace != c.trace);
    }
}
