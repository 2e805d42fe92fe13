//! Shared scenario helpers for the cross-crate integration tests.
//!
//! The integration tests exercise end-to-end paths that span several crates
//! (generate a graph → run dynamics → compare against theory → verify with
//! the DAG dual); the builders here keep each test focused on the property it
//! checks rather than on wiring.

use bo3_core::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

/// A canonical "inside Theorem 1" scenario: a dense random graph and a small
/// bias that the theorem still covers.
pub fn dense_scenario(n: usize, seed: u64) -> (CsrGraph, f64) {
    let graph = GraphSpec::DenseForAlpha { n, alpha: 0.75 }
        .generate(&mut StdRng::seed_from_u64(seed))
        .expect("dense graph generation");
    (graph, 0.08)
}

/// A canonical "outside Theorem 1" scenario: a constant-degree torus.
pub fn sparse_scenario(side: usize) -> CsrGraph {
    GraphSpec::Torus2d {
        rows: side,
        cols: side,
    }
    .generate(&mut StdRng::seed_from_u64(0))
    .expect("torus generation")
}

/// Runs a single traced Best-of-Three trajectory from the paper's initial
/// condition and returns the run result.
pub fn traced_run(graph: &CsrGraph, delta: f64, seed: u64) -> RunResult {
    let sim = Engine::on_graph(graph).expect("engine").with_trace(true);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = InitialCondition::BernoulliWithBias { delta }
        .sample(graph, &mut rng)
        .expect("initial condition");
    sim.run(ProtocolKind::BestOfThree, init, &mut rng)
        .expect("run")
}

/// Convenience: the mean consensus time of a small Monte-Carlo batch of the
/// given protocol on `graph`.
pub fn mean_consensus_time(
    graph: &CsrGraph,
    protocol: ProtocolSpec,
    delta: f64,
    replicas: usize,
    seed: u64,
) -> Option<f64> {
    let mc = MonteCarlo {
        protocol,
        initial: InitialCondition::BernoulliWithBias { delta },
        schedule: Schedule::Synchronous,
        stopping: StoppingCondition::consensus_within(1_000_000),
        replicas,
        master_seed: seed,
        threads: 0,
        adversary: Vec::new(),
    };
    mc.run(graph).expect("monte carlo").mean_rounds()
}

/// One reference round of `schedule` on `graph`, built from
/// [`Protocol::update`] alone — the per-vertex semantics the engine's
/// kernels must match draw for draw.
///
/// * synchronous: every vertex, in vertex order, reads the previous
///   configuration;
/// * asynchronous: the identity order is shuffled with `rng` (exactly as
///   the engine's round does), then each vertex in that order reads the
///   live configuration.
pub fn reference_step(
    graph: &CsrGraph,
    protocol: &dyn Protocol,
    schedule: Schedule,
    config: &mut Configuration,
    rng: &mut dyn RngCore,
) {
    let sampler = NeighbourSampler::new(graph).expect("no isolated vertices");
    let update = |v: usize, previous: &[Opinion], rng: &mut dyn RngCore| {
        let ctx = UpdateContext {
            vertex: v,
            current: previous[v],
            previous,
            sampler: &sampler,
        };
        protocol.update(&ctx, rng)
    };
    match schedule {
        Schedule::Synchronous => {
            let previous = config.as_slice().to_vec();
            let next: Vec<Opinion> = (0..previous.len())
                .map(|v| update(v, &previous, rng))
                .collect();
            config.overwrite_from(&next);
        }
        Schedule::AsynchronousRandomOrder => {
            let mut order: Vec<usize> = (0..config.len()).collect();
            {
                let mut r = &mut *rng;
                order.shuffle(&mut r);
            }
            for v in order {
                let new = update(v, config.as_slice(), rng);
                config.set(v, new);
            }
        }
    }
}

/// Steps `initial` with [`reference_step`] until `stopping` fires and
/// returns the trace a traced engine run records (round 0 included).
pub fn reference_trace(
    graph: &CsrGraph,
    protocol: &dyn Protocol,
    schedule: Schedule,
    stopping: StoppingCondition,
    initial: &Configuration,
    rng: &mut dyn RngCore,
) -> Trace {
    let mut config = initial.clone();
    let mut trace = Trace::new();
    trace.record(0, &config);
    let mut rounds = 0;
    while stopping.should_stop(&config, rounds).is_none() {
        reference_step(graph, protocol, schedule, &mut config, rng);
        rounds += 1;
        trace.record(rounds, &config);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builders_produce_usable_graphs() {
        let (g, delta) = dense_scenario(500, 1);
        assert_eq!(g.num_vertices(), 500);
        assert!(delta > 0.0 && delta < 0.5);
        let t = sparse_scenario(10);
        assert_eq!(t.num_vertices(), 100);
    }

    #[test]
    fn traced_run_produces_a_trace() {
        let (g, delta) = dense_scenario(300, 2);
        let run = traced_run(&g, delta, 3);
        assert!(run.trace.is_some());
        assert!(run.reached_consensus());
    }
}
