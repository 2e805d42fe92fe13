//! E13: monomorphized-kernel throughput.
//!
//! Times one seeded synchronous round on the complete graph `K_{10000}`:
//! Best-of-Three (bit-packed snapshot, batched Lemire RNG, static
//! dispatch) as the headline, plus the remaining built-in protocols for
//! context.
//!
//! Besides the criterion group, the target writes `BENCH_kernels.json` at
//! the workspace root: a Best-of-Three updates/sec snapshot so the perf
//! trajectory is tracked across PRs.  Set `E13_QUICK=1` (the CI bench-smoke
//! job does) to shrink the measurement to a few hundred milliseconds.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_core::prelude::*;

const N: usize = 10_000;
const SEED: u64 = 0xE13;

fn quick_mode() -> bool {
    std::env::var_os("E13_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

fn scenario() -> (CsrGraph, Configuration) {
    let graph = bo3_graph::generators::complete(N);
    let mut rng = StdRng::seed_from_u64(SEED);
    let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample(&graph, &mut rng)
        .expect("init");
    (graph, init)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_kernel_throughput");
    group.sample_size(if quick_mode() { 3 } else { 20 });
    if quick_mode() {
        group.measurement_time(Duration::from_millis(300));
    }
    let (graph, init) = scenario();
    let sim = Engine::on_graph(&graph).expect("engine");

    // The headline: Best-of-Three.
    group.bench_with_input(BenchmarkId::new("one_round", "bo3-kernel"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| sim.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut scratch, SEED, 0));
    });

    // The remaining built-ins, for cross-protocol context.
    for (label, spec) in comparison_protocols() {
        group.bench_with_input(BenchmarkId::new("kernel_round", label), &spec, |b, spec| {
            let mut scratch = Vec::new();
            b.iter(|| sim.step_seeded_kind(spec.kind(), &init, &mut scratch, SEED, 0));
        });
    }
    group.finish();
}

/// Measures whole-rounds-per-second of `step_seeded_kind` for Best-of-Three
/// and returns vertex updates per second.
fn updates_per_sec(sim: &Engine<CsrTopology<'_>>, init: &Configuration) -> f64 {
    let kind = ProtocolKind::BestOfThree;
    let mut scratch = Vec::new();
    // Warm-up round (page in the graph, size the buffers).
    sim.step_seeded_kind(kind, init, &mut scratch, SEED, 0);
    let budget = if quick_mode() {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(3)
    };
    let mut rounds = 0u64;
    let start = Instant::now();
    loop {
        sim.step_seeded_kind(kind, init, &mut scratch, SEED, rounds);
        rounds += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    (rounds as u128 * N as u128) as f64 / start.elapsed().as_secs_f64()
}

/// Writes the updates/sec snapshot consumed by the perf-trajectory tracking.
fn write_snapshot() {
    let (graph, init) = scenario();
    let sim = Engine::on_graph(&graph).expect("engine");
    let kernel = updates_per_sec(&sim, &init);
    // The JSON is written by hand: the workspace has no serializer.
    let json = format!(
        "{{\n  \"experiment\": \"e13_kernel_throughput\",\n  \"protocol\": \"best-of-3\",\n  \
         \"graph\": \"complete\",\n  \"n\": {N},\n  \"quick_mode\": {quick},\n  \
         \"kernel_updates_per_sec\": {kernel:.0}\n}}\n",
        quick = quick_mode(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("snapshot ({path}):\n{json}");

    // Observed replay: the same seeded round with a MetricsObserver
    // installed must be bit-identical to the plain run — the observer
    // reads the simulation, never the other way round — and its registry
    // snapshot lands next to the BENCH file.
    let observed = Engine::on_graph(&graph)
        .expect("engine")
        .with_observer(MetricsObserver::new());
    let (mut plain, mut watched) = (Vec::new(), Vec::new());
    let kind = ProtocolKind::BestOfThree;
    sim.step_seeded_kind(kind, &init, &mut plain, SEED, 0);
    observed.step_seeded_kind(kind, &init, &mut watched, SEED, 0);
    assert_eq!(plain, watched, "observer must not perturb the round");
    bo3_bench::obsprobe::write_metrics_snapshot(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS_kernels.json"),
        "e13_kernel_throughput",
        &observed.observer().registry().snapshot_json(),
    );
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_snapshot();
}
