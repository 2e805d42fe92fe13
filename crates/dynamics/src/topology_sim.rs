//! Engine tests on adjacency-free topologies: implicit complete,
//! bipartite, `G(n, p)` and SBM instances driven through
//! [`crate::engine::Engine`]'s seeded entry points.

mod tests {
    use crate::engine::Engine;
    use crate::error::DynamicsError;
    use crate::init::InitialCondition;
    use crate::kernel::ProtocolKind;
    use crate::opinion::Configuration;
    use crate::stopping::StoppingCondition;
    use bo3_graph::Topology;
    use bo3_graph::{Complete, CompleteBipartite, ImplicitGnp, ImplicitSbm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn biased_init(n: usize, delta: f64, seed: u64) -> Configuration {
        let mut rng = StdRng::seed_from_u64(seed);
        InitialCondition::BernoulliWithBias { delta }
            .sample_n(n, &mut rng)
            .unwrap()
    }

    #[test]
    fn rejects_mismatched_initial_configuration() {
        let sim = Engine::new(Complete::new(10).unwrap()).unwrap();
        assert!(matches!(
            sim.run_seeded_kind(ProtocolKind::BestOfThree, Configuration::all_red(4), 0),
            Err(DynamicsError::OpinionLengthMismatch {
                got: 4,
                expected: 10
            })
        ));
    }

    #[test]
    fn best_of_three_reaches_red_consensus_on_implicit_complete() {
        let n = 3_000;
        let sim = Engine::new(Complete::new(n).unwrap())
            .unwrap()
            .with_trace(true);
        let res = sim
            .run_seeded_kind(ProtocolKind::BestOfThree, biased_init(n, 0.12, 1), 7)
            .unwrap();
        assert!(res.red_won(), "stop reason {:?}", res.stop_reason);
        assert!(res.rounds <= 30, "took {} rounds", res.rounds);
        assert_eq!(res.trace.unwrap().len(), res.rounds + 1);
    }

    #[test]
    fn implicit_gnp_converges_and_is_reproducible() {
        let n = 2_000;
        let topo = ImplicitGnp::new(n, 0.3, 11).unwrap();
        let sim = Engine::new(topo).unwrap().with_trace(true);
        let init = biased_init(n, 0.12, 2);
        let a = sim
            .run_seeded_kind(ProtocolKind::BestOfThree, init.clone(), 5)
            .unwrap();
        let b = sim
            .run_seeded_kind(ProtocolKind::BestOfThree, init, 5)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.red_won());
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let n = 9_000; // spans multiple 4096-vertex chunks
        let topo = ImplicitSbm::new(n, 3, 0.4, 0.2, 21).unwrap();
        let init = biased_init(n, 0.08, 3);
        let run_with = |threads: usize| {
            Engine::new(topo)
                .unwrap()
                .with_threads(threads)
                .with_trace(true)
                .run_seeded_kind(ProtocolKind::BestOfThree, init.clone(), 99)
                .unwrap()
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2));
        assert_eq!(one, run_with(8));
        assert!(one.reached_consensus());
    }

    #[test]
    fn every_builtin_kind_runs_on_an_implicit_topology() {
        use crate::protocol::TieRule;
        let n = 600;
        let topo = CompleteBipartite::new(300, 300).unwrap();
        let init = biased_init(n, 0.1, 4);
        for kind in [
            ProtocolKind::Voter,
            ProtocolKind::BestOfTwo(TieRule::KeepOwn),
            ProtocolKind::BestOfTwo(TieRule::Random),
            ProtocolKind::BestOfThree,
            ProtocolKind::BestOfK {
                k: 5,
                tie_rule: TieRule::KeepOwn,
            },
            ProtocolKind::BestOfK {
                k: 4,
                tie_rule: TieRule::Random,
            },
            ProtocolKind::LocalMajority(TieRule::KeepOwn),
        ] {
            let sim = Engine::new(topo)
                .unwrap()
                .with_stopping(StoppingCondition::fixed_rounds(3));
            let res = sim.run_seeded_kind(kind, init.clone(), 13).unwrap();
            assert_eq!(res.rounds, 3, "{kind:?}");
        }
    }

    #[test]
    fn huge_hash_defined_local_majority_is_refused() {
        // Enumerating an ImplicitGnp row is Θ(n) per vertex, so local
        // majority at scale would be an unbounded Θ(n²)-per-round grind;
        // the engine must refuse it with a typed error (cheap topologies
        // and sampling protocols at the same size stay allowed).
        let n = bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT + 1;
        let gnp = ImplicitGnp::new(n, 0.5, 1).unwrap();
        let sim = Engine::new(gnp)
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(1));
        let init = Configuration::all_red(n);
        assert!(matches!(
            sim.run_seeded_kind(
                ProtocolKind::LocalMajority(crate::protocol::TieRule::KeepOwn),
                init.clone(),
                0
            ),
            Err(DynamicsError::InvalidParameter { .. })
        ));
        // The complete topology at the same size is fine (popcount path).
        let complete_sim = Engine::new(Complete::new(n).unwrap())
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(1));
        assert!(complete_sim
            .run_seeded_kind(
                ProtocolKind::LocalMajority(crate::protocol::TieRule::KeepOwn),
                init,
                0
            )
            .is_ok());
    }

    #[test]
    fn borrowed_topology_runs_too() {
        let topo = Complete::new(500).unwrap();
        let sim = Engine::new(&topo).unwrap();
        let res = sim
            .run_seeded_kind(ProtocolKind::BestOfThree, biased_init(500, 0.15, 5), 3)
            .unwrap();
        assert!(res.reached_consensus());
        assert_eq!(sim.topology().n(), 500);
    }

    #[test]
    fn single_step_matches_configuration_size() {
        let sim = Engine::new(Complete::new(100).unwrap()).unwrap();
        let init = biased_init(100, 0.1, 6);
        let mut next = Vec::new();
        sim.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut next, 5, 0);
        assert_eq!(next.len(), 100);
    }
}
