//! Engine workloads: seeded `run_seeded_kind` runs to consensus, untraced.

use std::collections::HashMap;
use std::time::Instant;

use bo3_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{derive_seed, median, Check, Checks, EngineShape, Metrics, DELTA};

/// Round cap per run: honest runs finish in 5–8 rounds, and a broken
/// decide rule must still end (as a failed run) in bounded time.
const ROUND_CAP: usize = 30;
/// Distinct run seeds per workload seed; the timed window cycles through
/// them, so seeds run more than once and their results are compared.
/// Asynchronous runs end after 5 or 6 rounds depending on the run seed
/// (about a third take 6).  With 32 seeds the median run stays a 5-round
/// one for almost every workload seed; with 4 seeds the share of 6-round
/// runs moved `consensus_s_p50` by 25% from one workload seed to the next.
const RUN_SEEDS: u64 = 32;
/// Set-up repetitions; `setup_s` is their median.  They are spread over
/// the timed window, so the median samples the host across the run rather
/// than in its first half second.
const SETUP_REPS: usize = 9;

/// An unobserved engine on the workload's topology and schedule.
pub fn engine_on(
    shape: &EngineShape,
    seed: u64,
    threads: usize,
    stopping: StoppingCondition,
) -> Result<Engine<BuiltTopology>> {
    Ok(Engine::new(shape.spec().build(seed)?)?
        .with_schedule(shape.schedule)
        .with_threads(threads)
        .with_stopping(stopping))
}

/// Runs stop at consensus, or fail at the round cap.
pub fn to_consensus() -> StoppingCondition {
    StoppingCondition::consensus_within(ROUND_CAP)
}

/// The seed and initial configuration of the `i`-th run of a window.
pub fn run_input(shape: &EngineShape, seed: u64, i: usize) -> Result<(u64, Configuration)> {
    let run_seed = derive_seed(seed, i as u64 % RUN_SEEDS);
    let mut rng = StdRng::seed_from_u64(run_seed);
    let init = InitialCondition::BernoulliWithBias { delta: DELTA }.sample_n(shape.n, &mut rng)?;
    Ok((run_seed, init))
}

/// One set-up, timed: the topology, the engine and a run's initial
/// configuration.  Returns the engine and the wall time in seconds.
fn setup_timed(shape: &EngineShape, seed: u64) -> Result<(Engine<BuiltTopology>, f64)> {
    let t0 = Instant::now();
    let engine = engine_on(shape, seed, shape.threads, to_consensus())?;
    std::hint::black_box(run_input(shape, seed, 0)?);
    Ok((engine, t0.elapsed().as_secs_f64()))
}

/// What a run must reproduce: red consensus, and the same `(rounds,
/// winner)` every time its seed runs.
#[derive(Default)]
pub struct Expected(HashMap<u64, (usize, Option<Opinion>)>);

impl Expected {
    pub fn check<E: std::fmt::Display>(
        &mut self,
        run_seed: u64,
        result: &std::result::Result<RunResult, E>,
    ) -> Check {
        let r = result.as_ref().map_err(|e| e.to_string())?;
        if !r.red_won() {
            return Err(format!(
                "seed {run_seed}: no red consensus ({:?} after {} rounds)",
                r.stop_reason, r.rounds
            ));
        }
        let got = (r.rounds, r.winner);
        let want = *self.0.entry(run_seed).or_insert(got);
        if got != want {
            return Err(format!("seed {run_seed}: {got:?} differs from {want:?}"));
        }
        Ok(())
    }
}

/// Runs seeded runs to consensus for `seconds` and reports the end-to-end
/// metrics; afterwards re-runs one seed at another thread count and
/// requires a bit-identical result.
pub fn run(shape: &EngineShape, seed: u64, seconds: f64, checks: &mut Checks) -> Result<Metrics> {
    let (engine, first_setup) = setup_timed(shape, seed)?;
    let mut setups = vec![first_setup];
    let n = shape.n as f64;
    let kind = ProtocolKind::BestOfThree;
    let mut expected = Expected::default();

    // Untimed warm-up: faults in the buffers and fixes the seed-0 reference.
    let (seed0, init0) = run_input(shape, seed, 0)?;
    let reference = engine.run_seeded_kind(kind, init0.clone(), seed0);
    checks.record("warm-up run", expected.check(seed0, &reference));

    let mut walls = Vec::new();
    let mut rounds = Vec::new();
    let window = Instant::now();
    let mut i = 0;
    while window.elapsed().as_secs_f64() < seconds {
        let due = setups.len() as f64 * seconds / SETUP_REPS as f64;
        if setups.len() < SETUP_REPS && window.elapsed().as_secs_f64() >= due {
            setups.push(setup_timed(shape, seed)?.1);
        }
        let (run_seed, init) = run_input(shape, seed, i)?;
        let t0 = Instant::now();
        let result = engine.run_seeded_kind(kind, init, run_seed);
        let wall = t0.elapsed().as_secs_f64();
        checks.record("timed run", expected.check(run_seed, &result));
        if let Ok(r) = result {
            walls.push(wall);
            rounds.push(r.rounds.max(1) as f64);
        }
        i += 1;
    }

    // Synchronous rounds must not depend on the thread count: re-run seed 0
    // at the other of 1 and 2 threads.
    if shape.schedule == Schedule::Synchronous {
        let other = if shape.threads == 1 { 2 } else { 1 };
        let other_engine = engine_on(shape, seed, other, to_consensus())?;
        let again = other_engine.run_seeded_kind(kind, init0, seed0);
        let same = match (&reference, &again) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (a, b) => Err(format!(
                "threads={} gave {a:?}, threads={other} gave {b:?}",
                shape.threads
            )),
        };
        checks.record("thread invariance", same);
    }

    if walls.is_empty() {
        return Err(CoreError::Report {
            reason: "no run completed inside the timed window".into(),
        });
    }
    let rates: Vec<f64> = walls.iter().zip(&rounds).map(|(w, r)| r * n / w).collect();
    let round_ms: Vec<f64> = walls
        .iter()
        .zip(&rounds)
        .map(|(w, r)| w / r * 1e3)
        .collect();
    let mut by_rounds = std::collections::BTreeMap::new();
    for r in &rounds {
        *by_rounds.entry(*r as usize).or_insert(0) += 1;
    }
    println!(
        "samples runs = {}, runs by rounds = {by_rounds:?}",
        walls.len()
    );
    // Every workload reports every end-to-end metric.  Here a job is one
    // run to consensus and an update is one round, so the last three restate
    // the run wall time and only setup_s, consensus_s_p50 and updates_per_s
    // are independent measurements.
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    m.push("consensus_s_p50", median(&walls), "s");
    m.push("updates_per_s", median(&rates), "1/s");
    m.push("jobs_per_s", 1.0 / median(&walls), "1/s");
    m.push("job_latency_ms_p50", median(&walls) * 1e3, "ms");
    m.push("update_gap_ms_p50", median(&round_ms), "ms");
    Ok(m)
}
