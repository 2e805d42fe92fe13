//! The per-layer ledger (`--trace 1`).
//!
//! Each layer is measured from outside, by timing calls into its public
//! functions at the workload's own `n`, `p` and thread count:
//!
//! * micro-rows for `bo3_dynamics::kernel` (RNG draw, packed gather, repack,
//!   live set), `bo3_dynamics::opinion` (decide, write-back),
//!   `bo3_graph::topology` (Lemire reduction, `K_n` and strict scalar
//!   `G(n, p)` samples), `bo3_graph::lane` (draw-ahead sample) and the
//!   two-worker scoped fan-out `bo3_dynamics::parallel` runs chunks on;
//! * a `MetricsObserver` pass for the sampler's tries per draw and lane
//!   occupancy, which are seeded counts and must repeat exactly;
//! * round spans and chunk spans from [`SpanObserver`], an engine
//!   [`Observer`] kept in memory, alternated with untraced runs of the same
//!   seeds for `engine.trace_overhead`;
//! * a served-job probe for `bo3_core::wire`, `bo3_core::experiment` and
//!   `bo3_serve`.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use bo3_core::prelude::*;
use bo3_dynamics::kernel::{kernel_chunk_rng, PackedSnapshot};
use bo3_graph::lane::NeighbourLane;
use bo3_graph::topology::lemire_index;
use rand::seq::SliceRandom;
use rand::RngCore;

use crate::engine::{engine_on, run_input, to_consensus, Expected};
use crate::{median, serve, tail, Checks, EngineShape, Metrics, Workload};

/// Operations per micro-row repetition.
const OPS: usize = 1 << 20;
/// Timed repetitions per micro-row (after one warm-up); rows report the
/// median.
const REPS: usize = 5;
/// Small operand tables stay in L1, so the pure-compute rows time the
/// operation rather than memory.
const TABLE: usize = 4096;

/// Median nanoseconds per operation of `body`, which performs `ops`
/// operations per call.
fn ns_per_op(reps: usize, ops: usize, mut body: impl FnMut() -> u64) -> f64 {
    black_box(body());
    let per: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(body());
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per)
}

/// Times `sample(v, rng)` the way a Best-of-Three round calls it: three
/// draws per vertex, vertices in order.
fn sample_ns<R: RngCore>(
    n: usize,
    vertices: usize,
    rng: &mut R,
    mut sample: impl FnMut(usize, &mut R) -> usize,
) -> f64 {
    ns_per_op(REPS, 3 * vertices, || {
        let mut acc = 0usize;
        for i in 0..vertices {
            let v = i % n;
            for _ in 0..3 {
                acc = acc.wrapping_add(sample(v, rng));
            }
        }
        acc as u64
    })
}

struct MicroRows {
    rng_draw_ns: f64,
    lemire_ns: f64,
    gather_ns: f64,
    repack_ms: f64,
    live_set_ns: f64,
    majority3_ns: f64,
    overwrite_ms: f64,
    /// Identity refill and shuffle of the vertex order, the serial preamble
    /// of an asynchronous round.
    shuffle_ms: f64,
    complete_sample_ns: f64,
    gnp_scalar_sample_ns: f64,
    lane_sample_ns: f64,
    fanout_us: f64,
}

fn micro_rows(shape: &EngineShape, seed: u64, init: &Configuration) -> Result<MicroRows> {
    let n = shape.n;
    let mut rng = kernel_chunk_rng(seed, 0, 0);
    let rng_draw_ns = ns_per_op(REPS, OPS, || {
        (0..OPS).fold(0u64, |acc, _| acc ^ rng.next_u64())
    });

    let draws: Vec<u64> = (0..TABLE).map(|_| rng.next_u64()).collect();
    let lemire_ns = ns_per_op(REPS, OPS, || {
        let draws = black_box(&draws);
        let mut acc = 0usize;
        for _ in 0..OPS / TABLE {
            for &d in draws {
                acc = acc.wrapping_add(lemire_index(d, n - 1));
            }
        }
        acc as u64
    });

    let vertices: Vec<usize> = (0..OPS).map(|_| lemire_index(rng.next_u64(), n)).collect();
    let snap = PackedSnapshot::from_opinions(init.as_slice());
    let gather_ns = ns_per_op(REPS, OPS, || {
        vertices.iter().filter(|&&v| snap.is_blue(v)).count() as u64
    });

    let colour = |d: u64, bit: u32| {
        if d >> bit & 1 == 1 {
            Opinion::Blue
        } else {
            Opinion::Red
        }
    };
    let mut live = snap.clone();
    let repack_ms = ns_per_op(4 * REPS, 1, || {
        live.repack_from(init.as_slice());
        live.len() as u64
    }) / 1e6;
    let live_set_ns = ns_per_op(REPS, OPS, || {
        for &v in &vertices {
            live.set(v, colour(v as u64, 0));
        }
        live.is_blue(vertices[0]) as u64
    });

    let triples: Vec<[Opinion; 3]> = draws
        .iter()
        .map(|&d| [colour(d, 0), colour(d, 1), colour(d, 2)])
        .collect();
    let majority3_ns = ns_per_op(REPS, OPS, || {
        let triples = black_box(&triples);
        let mut blues = 0u64;
        for _ in 0..OPS / TABLE {
            for &[a, b, c] in triples {
                blues += Opinion::majority3(a, b, c).is_blue() as u64;
            }
        }
        blues
    });

    let mut config = init.clone();
    let next: Vec<Opinion> = init.as_slice().iter().map(|o| o.flipped()).collect();
    let overwrite_ms = ns_per_op(4 * REPS, 1, || {
        config.overwrite_from(&next);
        config.get(0).as_value() as u64
    }) / 1e6;

    let mut order = Vec::with_capacity(n);
    let shuffle_ms = ns_per_op(4 * REPS, 1, || {
        order.clear();
        order.extend(0..n);
        order.shuffle(&mut rng);
        order[0] as u64
    }) / 1e6;

    let complete = Complete::new(n)?;
    let complete_sample_ns =
        sample_ns(n, OPS / 3, &mut rng, |v, r| complete.sample_neighbour(v, r));
    let gnp = ImplicitGnp::new(n, shape.p, seed)?;
    let gnp_scalar_sample_ns = sample_ns(n, OPS / 12, &mut rng, |v, r| gnp.sample_neighbour(v, r));
    let mut lane = NeighbourLane::new(gnp.pair_hash_spec().ok_or_else(|| CoreError::Report {
        reason: "implicit G(n, p) has no pair-hash spec".into(),
    })?);
    let lane_sample_ns = sample_ns(n, OPS / 12, &mut rng, |v, r| lane.sample(v, r).0);

    let fanout_us = ns_per_op(200, 1, || {
        crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| black_box(0u64));
            }
        })
        .expect("fan-out worker panicked");
        0
    }) / 1e3;

    Ok(MicroRows {
        rng_draw_ns,
        lemire_ns,
        gather_ns,
        repack_ms,
        live_set_ns,
        majority3_ns,
        overwrite_ms,
        shuffle_ms,
        complete_sample_ns,
        gnp_scalar_sample_ns,
        lane_sample_ns,
        fanout_us,
    })
}

/// Times `step(false)` and `step(true)` alternately, after one untimed
/// call of each, and returns the median seconds of each side.
fn alternate(mut step: impl FnMut(bool) -> Result<()>) -> Result<(f64, f64)> {
    const PAIRS: usize = 7;
    step(false)?;
    step(true)?;
    let (mut a, mut b) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for _ in 0..PAIRS {
        for (side, times) in [(false, &mut a), (true, &mut b)] {
            let t0 = Instant::now();
            step(side)?;
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    Ok((median(&a), median(&b)))
}

/// `(start, end)` of a span, in ns since the observer was created.
type Span = (u64, u64);

/// An engine observer that keeps round and chunk spans in memory.  Its
/// `sampler_meter` is the default `None`, so the engine runs the same
/// unmetered kernels as an untraced run.
struct SpanObserver {
    origin: Instant,
    rounds: Mutex<Vec<Span>>,
    chunks: Mutex<Vec<Span>>,
}

impl SpanObserver {
    fn new() -> Self {
        SpanObserver {
            origin: Instant::now(),
            rounds: Mutex::new(Vec::new()),
            chunks: Mutex::new(Vec::new()),
        }
    }

    /// The span of `wall_ns` ending now.
    fn span(&self, wall_ns: u64) -> Span {
        let end = self.origin.elapsed().as_nanos() as u64;
        (end.saturating_sub(wall_ns), end)
    }

    fn take(&self) -> (Vec<Span>, Vec<Span>) {
        (
            std::mem::take(&mut *self.rounds.lock().expect("round spans poisoned")),
            std::mem::take(&mut *self.chunks.lock().expect("chunk spans poisoned")),
        )
    }
}

impl Observer for SpanObserver {
    fn enabled(&self) -> bool {
        true
    }

    fn on_round(&self, _round: u64, _updates: u64, wall_ns: u64) {
        let span = self.span(wall_ns);
        self.rounds.lock().expect("round spans poisoned").push(span);
    }

    fn on_chunk(&self, _chunk: u64, _updates: u64, wall_ns: u64) {
        let span = self.span(wall_ns);
        self.chunks.lock().expect("chunk spans poisoned").push(span);
    }
}

/// Self times from the traced runs, in ms, one entry per round (or per gap
/// between rounds).
#[derive(Default)]
struct Spans {
    round_ms: Vec<f64>,
    chunk_busy_ms: Vec<f64>,
    serial_ms: Vec<f64>,
    between_ms: Vec<f64>,
    /// Σ rounds + Σ gaps, and the runs' wall time measured outside, in ns.
    covered_ns: f64,
    wall_ns: f64,
}

impl Spans {
    /// Adds one run's spans.  A chunk belongs to the round whose span
    /// contains it; a round's chunk-busy time is per worker thread, so
    /// `round − busy` is the serial part: repack, write-back, fan-out and
    /// imbalance.
    fn add(&mut self, rounds: &[Span], chunks: &[Span], threads: usize, wall_ns: f64) {
        for &(start, end) in rounds {
            let busy: u64 = chunks
                .iter()
                .filter(|c| c.0 >= start && c.1 <= end)
                .map(|c| c.1 - c.0)
                .sum();
            let round = (end - start) as f64;
            let per_thread = busy as f64 / threads as f64;
            self.round_ms.push(round / 1e6);
            self.chunk_busy_ms.push(per_thread / 1e6);
            self.serial_ms.push((round - per_thread) / 1e6);
            self.covered_ns += round;
        }
        for pair in rounds.windows(2) {
            let gap = pair[1].0.saturating_sub(pair[0].1) as f64;
            self.between_ms.push(gap / 1e6);
            self.covered_ns += gap;
        }
        self.wall_ns += wall_ns;
    }
}

/// Runs the ledger for `w` and returns every per-layer metric.
pub fn run(w: &Workload, seed: u64, seconds: f64, checks: &mut Checks) -> Result<Metrics> {
    let shape = &w.shape;
    let kind = ProtocolKind::BestOfThree;
    let untraced = engine_on(shape, seed, shape.threads, to_consensus())?;
    let (seed0, init0) = &run_input(shape, seed, 0)?;
    let micro = micro_rows(shape, seed, init0)?;
    let one_round = StoppingCondition::fixed_rounds(1);

    // Sampler counts from a metered pass, twice: they must repeat exactly.
    let metered_pass = || -> Result<(u64, u64, u64, u64)> {
        let engine =
            engine_on(shape, seed, shape.threads, one_round)?.with_observer(MetricsObserver::new());
        engine.run_seeded_kind(kind, init0.clone(), *seed0)?;
        let m = engine.observer().meter();
        Ok((m.tries(), m.accepts(), m.lane_drawn(), m.lane_consumed()))
    };
    let counts = metered_pass()?;
    let again = metered_pass()?;
    checks.record(
        "sampler counts repeat",
        if counts == again {
            Ok(())
        } else {
            Err(format!("{counts:?} then {again:?}"))
        },
    );
    let (tries, accepts, drawn, consumed) = counts;

    // Parallel speed-up: one synchronous round at 1 and at 2 threads.
    let at = |threads| engine_on(shape, seed, threads, one_round);
    let (one, two) = (at(1)?, at(2)?);
    let mut scratch = Vec::new();
    let mut round = 0;
    let (t1, t2) = alternate(|side| {
        let engine = if side { &two } else { &one };
        engine.step_seeded_kind(kind, init0, &mut scratch, *seed0, round);
        round += 1;
        Ok(())
    })?;
    let parallel_speedup = t1 / t2;

    // MetricsObserver against Noop on one round of the workload's engine.
    let noop = at(shape.threads)?;
    let metrics = at(shape.threads)?.with_observer(MetricsObserver::new());
    let (t_noop, t_metrics) = alternate(|side| {
        let init = init0.clone();
        if side {
            metrics.run_seeded_kind(kind, init, *seed0)?;
        } else {
            noop.run_seeded_kind(kind, init, *seed0)?;
        }
        Ok(())
    })?;
    let metrics_over_noop = t_noop / t_metrics;

    // Traced runs to consensus, alternated with untraced runs of the same
    // seeds; both must give the same result.
    let traced =
        engine_on(shape, seed, shape.threads, to_consensus())?.with_observer(SpanObserver::new());
    let mut spans = Spans::default();
    let mut expected = Expected::default();
    let (mut plain_updates, mut plain_wall, mut traced_updates) = (0.0, 0.0, 0.0);
    let (mut plain_ms, mut plain_round_ms) = (Vec::new(), Vec::new());
    let n = shape.n as f64;
    let window = Instant::now();
    let mut i = 0;
    while i < 2 || window.elapsed().as_secs_f64() < seconds / 2.0 {
        let (run_seed, init) = &run_input(shape, seed, i)?;
        let copy = init.clone();
        let t0 = Instant::now();
        let plain = untraced.run_seeded_kind(kind, copy, *run_seed);
        let wall = t0.elapsed().as_secs_f64();
        checks.record("untraced run", expected.check(*run_seed, &plain));

        let copy = init.clone();
        let t0 = Instant::now();
        let observed = traced.run_seeded_kind(kind, copy, *run_seed);
        let traced_wall = t0.elapsed().as_nanos() as f64;
        let same = match (&plain, &observed) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (a, b) => Err(format!("untraced {a:?} but traced {b:?}")),
        };
        checks.record("traced run equals untraced run", same);

        let (rounds, chunks) = traced.observer().take();
        if let (Ok(a), Ok(b)) = (plain, observed) {
            plain_updates += a.rounds as f64 * n;
            plain_wall += wall;
            plain_ms.push(wall * 1e3);
            plain_round_ms.push(wall * 1e3 / a.rounds.max(1) as f64);
            traced_updates += b.rounds as f64 * n;
            spans.add(&rounds, &chunks, shape.threads, traced_wall);
        }
        i += 1;
    }
    let trace_overhead = (plain_updates / plain_wall) / (traced_updates / (spans.wall_ns / 1e9));
    let round_ms = median(&spans.round_ms);

    // The round the micro-rows predict, against the traced round.
    let per_update = 3.0 * (micro.lane_sample_ns + micro.gather_ns) + micro.majority3_ns;
    let modelled_ns = match shape.schedule {
        Schedule::Synchronous => {
            let fanout = if shape.threads > 1 {
                micro.fanout_us * 1e3
            } else {
                0.0
            };
            n * per_update / shape.threads as f64
                + (micro.repack_ms + micro.overwrite_ms) * 1e6
                + fanout
        }
        Schedule::AsynchronousRandomOrder => {
            n * (per_update + micro.live_set_ns) + (micro.shuffle_ms + micro.repack_ms) * 1e6
        }
    };
    // An asynchronous round is one sequential sweep and reports no chunk
    // spans: its serial part is the shuffle and repack before the sweep,
    // timed by the micro-rows, and the rest of the round is the sweep.
    let (chunk_busy_ms, serial_ms) = if spans.chunk_busy_ms.iter().any(|&b| b > 0.0) {
        (median(&spans.chunk_busy_ms), median(&spans.serial_ms))
    } else {
        let serial = micro.shuffle_ms + micro.repack_ms;
        (round_ms - serial, serial)
    };

    // The service path: the mix's closed loop on `serve_jobs`, one job of
    // the workload's own shape elsewhere.
    let rows = if w.engine {
        let job = serve::job(shape.spec(), &w.name, *seed0)
            .schedule(shape.schedule)
            .replicas(1);
        serve::rows_for_job(job, checks)?
    } else {
        let jobs = serve::job_mix(seed);
        let refs = serve::references(&jobs, serve::PROBE_REPS, checks)?;
        let handle = serve::start_daemon()?;
        let observed = serve::closed_loop(&handle, &jobs, &refs, seconds / 2.0, checks);
        handle.drain_and_join();
        let observed = observed?;
        serve::rows(&observed.served, observed.max_queue_depth, &refs)?
    };

    // Tail percentiles swing with host stalls (a `K_n` p99 spread 0.28 over
    // ten runs), so they are reported here, ungated: from the untraced runs
    // above on engine workloads, from the closed loop on `serve_jobs`.
    let (latency_p90_ms, gap_p99_ms) = if w.engine {
        (tail(&plain_ms, 0.9), tail(&plain_round_ms, 0.99))
    } else {
        (rows.latency_p90_ms, rows.gap_p99_ms)
    };

    let mut m = Metrics::default();
    m.push("tail.job_latency_ms_p90", latency_p90_ms, "ms");
    m.push("tail.update_gap_ms_p99", gap_p99_ms, "ms");
    m.push("kernel.rng_draw_ns", micro.rng_draw_ns, "ns");
    m.push("kernel.gather_ns", micro.gather_ns, "ns");
    m.push("kernel.repack_ms", micro.repack_ms, "ms");
    m.push("kernel.live_set_ns", micro.live_set_ns, "ns");
    m.push("opinion.majority3_ns", micro.majority3_ns, "ns");
    m.push("opinion.overwrite_ms", micro.overwrite_ms, "ms");
    m.push("topology.lemire_ns", micro.lemire_ns, "ns");
    m.push(
        "topology.complete_sample_ns",
        micro.complete_sample_ns,
        "ns",
    );
    m.push(
        "topology.gnp_scalar_sample_ns",
        micro.gnp_scalar_sample_ns,
        "ns",
    );
    m.push("lane.sample_ns", micro.lane_sample_ns, "ns");
    m.push(
        "lane.speedup_over_scalar",
        micro.gnp_scalar_sample_ns / micro.lane_sample_ns,
        "ratio",
    );
    m.push(
        "lane.tries_per_draw",
        tries as f64 / accepts.max(1) as f64,
        "count",
    );
    m.push(
        "lane.occupancy",
        consumed as f64 / drawn.max(1) as f64,
        "ratio",
    );
    m.push("parallel.speedup", parallel_speedup, "ratio");
    m.push("parallel.fanout_us", micro.fanout_us, "us");
    m.push("engine.round_ms", round_ms, "ms");
    m.push("engine.chunk_busy_ms", chunk_busy_ms, "ms");
    m.push("engine.round_serial_ms", serial_ms, "ms");
    m.push("engine.between_rounds_ms", median(&spans.between_ms), "ms");
    m.push(
        "engine.reconcile",
        spans.covered_ns / spans.wall_ns,
        "ratio",
    );
    m.push(
        "engine.micro_over_round",
        modelled_ns / (round_ms * 1e6),
        "ratio",
    );
    m.push("engine.trace_overhead", trace_overhead, "ratio");
    m.push("obs.metrics_over_noop", metrics_over_noop, "ratio");
    m.push("wire.encode_us", rows.encode_us, "us");
    m.push("wire.decode_us", rows.decode_us, "us");
    m.push("experiment.run_ms", rows.run_ms, "ms");
    m.push("serve.overhead_ms", rows.overhead_ms, "ms");
    m.push("serve.first_update_ms", rows.first_update_ms, "ms");
    m.push("serve.max_queue_depth", rows.max_queue_depth, "count");
    Ok(m)
}
