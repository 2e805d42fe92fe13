//! Observer-overhead micro-bench: the Noop path must cost nothing.
//!
//! `Engine<T>` defaults its observer parameter to `NoopObserver`, whose
//! `enabled()` returns `false` as an `#[inline(always)]` constant — every
//! timing guard and hook folds away at monomorphization, so the default
//! engine *is* the pre-observability baseline, instruction for
//! instruction.  This target pins that claim two ways:
//!
//! * the criterion group times one seeded round through the default
//!   (Noop) engine and through the same engine with a [`MetricsObserver`]
//!   installed, on implicit `G(n, 1/2)` where the metered
//!   rejection-sampling path is actually exercised;
//! * `main` asserts the two engines produce bit-identical opinion buffers
//!   over several rounds, then writes `BENCH_obs_overhead.json` (both
//!   throughputs and their ratio, tracked across PRs) and the
//!   `METRICS_obs_overhead.json` registry snapshot.
//!
//! Set `OBS_QUICK=1` (the CI bench-smoke job does) to shrink the
//! measurement to a few hundred milliseconds.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_core::prelude::*;
use bo3_graph::ImplicitGnp;

const N: usize = 100_000;
const P: f64 = 0.5;
const SEED: u64 = 0x0B5;

fn quick_mode() -> bool {
    std::env::var_os("OBS_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

fn scenario() -> (ImplicitGnp, Configuration) {
    let topo = ImplicitGnp::new(N, P, SEED).expect("gnp");
    let mut rng = StdRng::seed_from_u64(SEED);
    let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample_n(N, &mut rng)
        .expect("init");
    (topo, init)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(if quick_mode() { 3 } else { 20 });
    if quick_mode() {
        group.measurement_time(Duration::from_millis(300));
    }
    let (topo, init) = scenario();
    let noop = Engine::new(topo).expect("engine");
    let metrics = Engine::new(topo)
        .expect("engine")
        .with_observer(MetricsObserver::new());
    group.bench_with_input(BenchmarkId::new("one_round", "noop"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| noop.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut scratch, SEED, 0));
    });
    group.bench_with_input(BenchmarkId::new("one_round", "metrics"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| {
            metrics.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut scratch, SEED, 0)
        });
    });
    group.finish();
}

/// Rounds/sec of `step_seeded_kind` through `engine`, as updates/sec.
fn updates_per_sec<O: Observer>(engine: &Engine<ImplicitGnp, O>, init: &Configuration) -> f64 {
    let mut scratch = Vec::new();
    engine.step_seeded_kind(ProtocolKind::BestOfThree, init, &mut scratch, SEED, 0);
    let budget = if quick_mode() {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(2)
    };
    let mut rounds = 0u64;
    let start = Instant::now();
    loop {
        engine.step_seeded_kind(ProtocolKind::BestOfThree, init, &mut scratch, SEED, rounds);
        rounds += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    (rounds as u128 * N as u128) as f64 / start.elapsed().as_secs_f64()
}

fn write_snapshot() {
    let (topo, init) = scenario();
    let noop = Engine::new(topo).expect("engine");
    let metrics = Engine::new(topo)
        .expect("engine")
        .with_observer(MetricsObserver::new());

    // The hard guarantee first: observation must not perturb the rounds.
    let (mut plain, mut watched) = (Vec::new(), Vec::new());
    for round in 0..4 {
        noop.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut plain, SEED, round);
        metrics.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut watched, SEED, round);
        assert_eq!(plain, watched, "observer must not perturb round {round}");
    }
    assert!(
        metrics.observer().meter().tries() >= metrics.observer().meter().accepts(),
        "metered path must have recorded the rejection sampler"
    );

    let noop_ups = updates_per_sec(&noop, &init);
    let metrics_ups = updates_per_sec(&metrics, &init);
    let ratio = metrics_ups / noop_ups;
    // The JSON is written by hand: the workspace has no serializer.
    let json = format!(
        "{{\n  \"experiment\": \"obs_overhead\",\n  \"protocol\": \"best-of-3\",\n  \
         \"topology\": \"implicit_gnp\",\n  \"n\": {N},\n  \"p\": {P},\n  \
         \"quick_mode\": {quick},\n  \"noop_updates_per_sec\": {noop_ups:.0},\n  \
         \"metrics_updates_per_sec\": {metrics_ups:.0},\n  \
         \"metrics_over_noop\": {ratio:.3}\n}}\n",
        quick = quick_mode(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_overhead.json");
    std::fs::write(path, &json).expect("write BENCH_obs_overhead.json");
    println!("snapshot ({path}):\n{json}");
    bo3_bench::obsprobe::write_metrics_snapshot(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../METRICS_obs_overhead.json"
        ),
        "obs_overhead",
        &metrics.observer().registry().snapshot_json(),
    );
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_snapshot();
}
