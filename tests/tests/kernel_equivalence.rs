//! Equivalence suite for the monomorphized kernel path.
//!
//! The kernels in `crates/dynamics/src/kernel.rs` promise two things
//! (documented there as the determinism contract):
//!
//! 1. **Draw-for-draw reference compatibility** — handed the same RNG, the
//!    engine's caller-RNG entry points (`Engine::run`, `step_synchronous`,
//!    `step_asynchronous_with`) produce exactly what applying
//!    `Protocol::update` vertex by vertex produces, and leave the RNG at the
//!    same position.  Pinned here against the reference stepper of
//!    `bo3_integration` for every built-in protocol, on both schedules, on
//!    three graph families (the engine's unit tests pin the asynchronous
//!    `Engine::run` on `K_{150,170}` the same way).
//! 2. **Sequential == parallel on the seeded path** — the seeded runs are
//!    bit-identical at any thread count and on every topology that names
//!    the same graph (`CsrTopology`, implicit `Complete`, implicit
//!    `G(n, p)` against its own materialisation).

use bo3_core::prelude::*;
use bo3_integration::{reference_step, reference_trace};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const MASTER_SEED: u64 = 0xE13;

/// The built-in protocols, one per kernel the engine dispatches to.
fn protocols() -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(Voter::new()),
        Box::new(BestOfTwo::keep_own()),
        Box::new(BestOfTwo::new(TieRule::Random)),
        Box::new(BestOfThree::new()),
        Box::new(BestOfK::new(6, TieRule::Random)),
        Box::new(BestOfK::new(5, TieRule::KeepOwn)),
        Box::new(LocalMajority::keep_own()),
    ]
}

/// The graph families the contract is pinned on.  The Erdős–Rényi instance
/// spans multiple 4096-vertex chunks so chunked RNG derivation is exercised;
/// the bipartite graph adds structured (oscillation-prone) dynamics.
fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let mut rng = StdRng::seed_from_u64(40);
    vec![
        ("complete", bo3_graph::generators::complete(900)),
        (
            "erdos-renyi",
            bo3_graph::generators::erdos_renyi_gnp(9_000, 0.01, &mut rng).expect("gnp"),
        ),
        (
            "bipartite",
            bo3_graph::generators::complete_bipartite(400, 500).expect("bipartite"),
        ),
    ]
}

fn biased_init(graph: &CsrGraph, seed: u64) -> Configuration {
    let mut rng = StdRng::seed_from_u64(seed);
    InitialCondition::BernoulliWithBias { delta: 0.05 }
        .sample(graph, &mut rng)
        .expect("initial condition")
}

/// Runs `protocol` through `Engine::run` and through the reference stepper
/// from identically seeded caller RNGs; the traces and the RNG positions
/// afterwards must agree.
fn assert_run_matches_reference(
    graph: &CsrGraph,
    protocol: &dyn Protocol,
    schedule: Schedule,
    stopping: StoppingCondition,
    init: &Configuration,
    context: &str,
) -> RunResult {
    let mut rng_engine = StdRng::seed_from_u64(MASTER_SEED);
    let via_engine = Engine::on_graph(graph)
        .expect("engine")
        .with_schedule(schedule)
        .with_stopping(stopping)
        .with_trace(true)
        .run(protocol.kind(), init.clone(), &mut rng_engine)
        .expect("engine run");
    let mut rng_reference = StdRng::seed_from_u64(MASTER_SEED);
    let reference = reference_trace(
        graph,
        protocol,
        schedule,
        stopping,
        init,
        &mut rng_reference,
    );
    assert_eq!(
        via_engine.trace.as_ref(),
        Some(&reference),
        "{context}: engine run diverged from the reference stepper"
    );
    assert_eq!(
        rng_engine.next_u64(),
        rng_reference.next_u64(),
        "{context}: engine run consumed a different stream length"
    );
    via_engine
}

#[test]
fn kernel_and_dyn_paths_are_bit_identical_given_the_same_rng() {
    for (graph_name, graph) in &graphs() {
        let init = biased_init(graph, 3);
        for protocol in &protocols() {
            assert_run_matches_reference(
                graph,
                protocol.as_ref(),
                Schedule::Synchronous,
                StoppingCondition::fixed_rounds(10),
                &init,
                &format!("{} on {graph_name}", protocol.name()),
            );
        }
    }
}

#[test]
fn unseeded_stepper_also_matches_across_paths() {
    // `Engine::step_synchronous` (the entry point used by the duality
    // checker and the E3 bench) must consume the caller's RNG exactly like
    // the reference stepper, round after round.
    let graph = bo3_graph::generators::complete(700);
    let init = biased_init(&graph, 7);
    let engine = Engine::on_graph(&graph).expect("engine");
    for protocol in &protocols() {
        let name = protocol.name();
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut config = init.clone();
        let mut reference = init.clone();
        let mut next = Vec::new();
        for _ in 0..5 {
            engine.step_synchronous(protocol.kind(), &config, &mut next, &mut rng_a);
            config.overwrite_from(&next);
            reference_step(
                &graph,
                protocol.as_ref(),
                Schedule::Synchronous,
                &mut reference,
                &mut rng_b,
            );
            assert_eq!(config, reference, "{name}: one-step outputs diverged");
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{name}: RNG positions");
    }
}

#[test]
fn asynchronous_steppers_match_the_reference_stepper() {
    // The asynchronous round runs the live-state kernel; both caller-RNG
    // async entry points must equal the reference order shuffle plus
    // `Protocol::update` on the live configuration.
    for (graph_name, graph) in &graphs() {
        let init = biased_init(graph, 13);
        let engine = Engine::on_graph(graph)
            .expect("engine")
            .with_schedule(Schedule::AsynchronousRandomOrder);
        for protocol in &protocols() {
            let context = format!("{} on {graph_name}", protocol.name());
            assert_run_matches_reference(
                graph,
                protocol.as_ref(),
                Schedule::AsynchronousRandomOrder,
                StoppingCondition::fixed_rounds(6),
                &init,
                &context,
            );

            let mut rng_a = StdRng::seed_from_u64(MASTER_SEED + 1);
            let mut rng_b = StdRng::seed_from_u64(MASTER_SEED + 1);
            let mut scratch = AsyncScratch::new();
            let mut config = init.clone();
            let mut reference = init.clone();
            for _ in 0..3 {
                engine.step_asynchronous_with(
                    protocol.kind(),
                    &mut config,
                    &mut scratch,
                    &mut rng_a,
                );
                reference_step(
                    graph,
                    protocol.as_ref(),
                    Schedule::AsynchronousRandomOrder,
                    &mut reference,
                    &mut rng_b,
                );
                assert_eq!(config, reference, "{context}: async step diverged");
            }
            assert_eq!(
                rng_a.next_u64(),
                rng_b.next_u64(),
                "{context}: RNG positions"
            );
        }
    }
}

#[test]
fn csr_topology_is_bit_identical_to_the_csr_kernel_path() {
    // The engine over an explicit `CsrTopology` must reproduce the seeded
    // materialised-graph run bit for bit at any thread count: same
    // per-(seed, round, chunk) RNG streams, same Lemire-reduced draws, same
    // results — on every graph family and every built-in protocol.
    for (graph_name, graph) in &graphs() {
        let init = biased_init(graph, 17);
        for protocol in &protocols() {
            let kind = protocol.kind();
            let reference = Engine::on_graph(graph)
                .expect("engine")
                .with_stopping(StoppingCondition::fixed_rounds(8))
                .with_trace(true)
                .run_seeded_kind(kind, init.clone(), MASTER_SEED)
                .expect("seeded run");
            for threads in [1usize, 4] {
                let via_topology = Engine::new(bo3_graph::CsrTopology::new(graph))
                    .expect("engine")
                    .with_threads(threads)
                    .with_stopping(StoppingCondition::fixed_rounds(8))
                    .with_trace(true)
                    .run_seeded_kind(kind, init.clone(), MASTER_SEED)
                    .expect("topology run");
                assert_eq!(
                    reference,
                    via_topology,
                    "{} on {graph_name}: CsrTopology diverged at {threads} threads",
                    protocol.name()
                );
            }
        }
    }
}

#[test]
fn implicit_complete_matches_the_materialised_complete_graph() {
    // The `Complete` topology and a materialised K_n must be the *same
    // seeded experiment*: the kernels synthesise identical rows from both,
    // so whole runs agree bit for bit — adjacency allocation is the only
    // difference.  (`n` spans multiple chunks to exercise the chunked RNG.)
    let n = 9_500;
    let graph = bo3_graph::generators::complete(n);
    let init = biased_init(&graph, 19);
    for protocol in &protocols() {
        let kind = protocol.kind();
        let materialised = Engine::on_graph(&graph)
            .expect("engine")
            .with_stopping(StoppingCondition::fixed_rounds(6))
            .with_trace(true)
            .run_seeded_kind(kind, init.clone(), MASTER_SEED)
            .expect("materialised run");
        let implicit = Engine::new(bo3_graph::Complete::new(n).expect("topology"))
            .expect("engine")
            .with_stopping(StoppingCondition::fixed_rounds(6))
            .with_trace(true)
            .run_seeded_kind(kind, init.clone(), MASTER_SEED)
            .expect("implicit run");
        assert_eq!(
            materialised,
            implicit,
            "{}: implicit K_n diverged from materialised K_n",
            protocol.name()
        );
    }
}

#[test]
fn implicit_gnp_agrees_with_its_own_materialisation() {
    // An implicit G(n, p) names a frozen edge set; materialising that same
    // edge set and running the (differently-sampled) CSR path must agree on
    // the dynamics' *distributional* behaviour, and the local-majority
    // protocol — which enumerates neighbourhoods instead of sampling — must
    // agree bit for bit, since both paths see identical rows.
    let topo = bo3_graph::ImplicitGnp::new(2_500, 0.3, 23).expect("implicit gnp");
    let graph = topo.materialize().expect("materialise");
    let init = biased_init(&graph, 29);
    let kind = ProtocolKind::LocalMajority(TieRule::KeepOwn);
    let materialised = Engine::on_graph(&graph)
        .expect("engine")
        .with_stopping(StoppingCondition::fixed_rounds(4))
        .with_trace(true)
        .run_seeded_kind(kind, init.clone(), MASTER_SEED)
        .expect("materialised run");
    let implicit = Engine::new(topo)
        .expect("engine")
        .with_stopping(StoppingCondition::fixed_rounds(4))
        .with_trace(true)
        .run_seeded_kind(kind, init, MASTER_SEED)
        .expect("implicit run");
    assert_eq!(
        materialised, implicit,
        "local majority must agree bit-for-bit between implicit and materialised G(n,p)"
    );
}

#[test]
fn full_convergence_agrees_between_paths() {
    // Beyond fixed-round trajectories: let Best-of-3 run to consensus on a
    // multi-chunk graph and require identical stop reason, winner, round
    // count and trace between the engine and the reference stepper (shared
    // caller RNG) and across thread counts (seeded kernel path, sequential
    // vs 8 threads).
    let mut rng = StdRng::seed_from_u64(41);
    let graph = bo3_graph::generators::erdos_renyi_gnp(9_000, 0.02, &mut rng).expect("gnp");
    let init = biased_init(&graph, 11);
    let stopping = StoppingCondition::default();
    let via_kernel = assert_run_matches_reference(
        &graph,
        &BestOfThree::new(),
        Schedule::Synchronous,
        stopping,
        &init,
        "best-of-3 to consensus",
    );
    assert!(via_kernel.reached_consensus(), "scenario must converge");

    let seeded = |threads: usize| {
        Engine::on_graph(&graph)
            .expect("engine")
            .with_threads(threads)
            .with_trace(true)
            .run_seeded_kind(ProtocolKind::BestOfThree, init.clone(), MASTER_SEED)
            .expect("seeded kernel run")
    };
    let seq = seeded(1);
    assert!(seq.reached_consensus(), "seeded scenario must converge");
    assert_eq!(seq, seeded(8), "sequential vs parallel kernel diverged");
}
