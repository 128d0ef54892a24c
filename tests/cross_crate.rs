//! Cross-crate integration tests: the machinery pieces must agree with
//! each other — explorer paths replay in live systems, traces project to
//! legal object histories, witnesses pump in real runs, derived objects
//! substitute for native ones.

use life_beyond_set_agreement::core::history::is_legal_pac_history;
use life_beyond_set_agreement::core::value::int;
use life_beyond_set_agreement::core::{AnyObject, ObjId, Op, Pid, Value};
use life_beyond_set_agreement::explorer::linearizability::check_linearizable;
use life_beyond_set_agreement::explorer::valency::ValencyAnalysis;
use life_beyond_set_agreement::explorer::verdict::WitnessKind;
use life_beyond_set_agreement::explorer::Explorer;
use life_beyond_set_agreement::protocols::candidates::WaitForWinner;
use life_beyond_set_agreement::protocols::consensus_protocols::ConsensusViaObject;
use life_beyond_set_agreement::protocols::dac::DacFromPac;
use life_beyond_set_agreement::protocols::derived_impls::{
    CombinedFromComponents, PowerFromConsensusAndSa,
};
use life_beyond_set_agreement::protocols::set_agreement_protocols::KSetViaPowerLevel;
use life_beyond_set_agreement::runtime::derived::{record_frontend_history, DerivedProtocol};
use life_beyond_set_agreement::runtime::outcome::{FirstOutcome, RandomOutcome, ScriptedOutcome};
use life_beyond_set_agreement::runtime::scheduler::{RandomScheduler, Scripted};
use life_beyond_set_agreement::runtime::system::System;

/// Every path the explorer reports must replay step-for-step in a live
/// system under a scripted scheduler + scripted outcomes, reaching the same
/// terminal decisions.
#[test]
fn explorer_paths_replay_in_live_systems() {
    let inputs = vec![int(0), int(1), int(2)];
    let protocol = ConsensusViaObject::new(inputs, ObjId(0));
    let objects = vec![AnyObject::consensus(3).unwrap()];
    let explorer = Explorer::new(&protocol, &objects);
    let graph = explorer.exploration().run().unwrap();
    assert!(graph.complete);

    for terminal in graph.terminal_indices() {
        let path = graph.path_to(terminal).expect("reachable");
        let pids: Vec<Pid> = path.iter().map(|e| e.pid).collect();
        let outcomes: Vec<usize> = path.iter().map(|e| e.outcome).collect();
        let mut sys = System::new(&protocol, &objects).unwrap();
        sys.run(
            &mut Scripted::new(pids),
            &mut ScriptedOutcome::new(outcomes),
            1_000,
        )
        .unwrap();
        let expected = graph.configs[terminal].decisions();
        let got: Vec<Option<Value>> = (0..3).map(|i| sys.decision(Pid(i))).collect();
        assert_eq!(got, expected, "replay diverged for terminal {terminal}");
    }
}

/// The runtime's trace, projected onto the PAC object, is always a legal
/// prefix — Algorithm 2 never upsets its PAC object (the crux of why it
/// works).
#[test]
fn algorithm_2_never_upsets_its_pac_object() {
    for seed in 0..25u64 {
        let protocol = DacFromPac::new(vec![int(1), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
        let objects = vec![AnyObject::pac(3).unwrap()];
        let mut sys = System::new(&protocol, &objects).unwrap();
        sys.run(&mut RandomScheduler::seeded(seed), &mut FirstOutcome, 500)
            .unwrap();
        let ops: Vec<Op> = sys
            .trace()
            .object_history(ObjId(0))
            .iter()
            .map(|e| e.op)
            .collect();
        assert!(
            is_legal_pac_history(&ops),
            "Algorithm 2 produced an illegal PAC history (seed {seed})"
        );
    }
}

/// Non-termination witnesses of the wait-freedom check replay in live systems:
/// pumping the cycle leaves every victim undecided.
#[test]
fn witnesses_pump_in_live_systems() {
    let inputs = vec![int(1), int(0), int(0)];
    let protocol = WaitForWinner::new(inputs);
    let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::register()];
    let explorer = Explorer::new(&protocol, &objects);
    let witness = explorer
        .exploration()
        .check_wait_free()
        .witness
        .expect("candidate must be refutable");
    witness
        .confirm(&explorer)
        .expect("the certificate confirms");
    let WitnessKind::NonTermination { victims } = &witness.kind else {
        panic!(
            "expected a non-termination certificate, got {}",
            witness.kind
        );
    };

    for pumps in [1usize, 10, 100] {
        let steps: Vec<_> = witness
            .schedule
            .iter()
            .chain(&witness.cycle.repeat(pumps))
            .copied()
            .collect();
        // FirstOutcome resolves every step with outcome 0.
        assert!(steps.iter().all(|s| s.outcome == 0), "{steps:?}");
        let schedule: Vec<Pid> = steps.iter().map(|s| s.pid).collect();
        let budget = schedule.len() + 1;
        let mut sys = System::new(&protocol, &objects).unwrap();
        sys.run(&mut Scripted::new(schedule), &mut FirstOutcome, budget)
            .unwrap();
        for victim in victims {
            assert_eq!(
                sys.decision(*victim),
                None,
                "victim decided after {pumps} pumps"
            );
        }
    }
}

/// Valency analysis agrees with brute reachable-decision collection.
#[test]
fn valency_closure_matches_reachable_decisions() {
    let inputs = vec![int(0), int(1)];
    let protocol = ConsensusViaObject::new(inputs, ObjId(0));
    let objects = vec![AnyObject::consensus(2).unwrap()];
    let explorer = Explorer::new(&protocol, &objects);
    let graph = explorer.exploration().run().unwrap();
    let analysis = ValencyAnalysis::analyze(&graph);

    // Brute force: for each configuration, recompute reachable decisions by
    // a fresh sub-exploration and compare with the fixpoint closure.
    for (idx, config) in graph.configs.iter().enumerate() {
        let sub = explorer.exploration().from(config.clone()).run().unwrap();
        let mut brute: Vec<Value> = sub
            .configs
            .iter()
            .flat_map(|c| c.distinct_decisions())
            .collect();
        brute.sort();
        brute.dedup();
        let closure: Vec<Value> = analysis.closure(idx).iter().copied().collect();
        assert_eq!(closure, brute, "closure mismatch at configuration {idx}");
    }
}

/// A protocol cannot tell a derived (n,m)-PAC from a native one: exhaustive
/// terminal-outcome equivalence.
#[test]
fn derived_combined_pac_substitutes_for_native() {
    let inputs = vec![int(0), int(1)];
    let inner = ConsensusViaObject::via_propose_c(inputs, ObjId(0));

    let native_objects = vec![AnyObject::combined_pac(2, 2).unwrap()];
    let native = Explorer::new(&inner, &native_objects)
        .exploration()
        .run()
        .unwrap();
    let native_outcomes: std::collections::BTreeSet<Vec<Option<Value>>> = native
        .terminal_indices()
        .map(|t| native.configs[t].decisions())
        .collect();

    let procedure = CombinedFromComponents::new();
    let frontends = vec![CombinedFromComponents::frontend(ObjId(0), ObjId(1))];
    let derived = DerivedProtocol::new(&inner, &procedure, frontends);
    let base = vec![AnyObject::pac(2).unwrap(), AnyObject::consensus(2).unwrap()];
    let sim = Explorer::new(&derived, &base).exploration().run().unwrap();
    let sim_outcomes: std::collections::BTreeSet<Vec<Option<Value>>> = sim
        .terminal_indices()
        .map(|t| sim.configs[t].decisions())
        .collect();

    assert_eq!(native_outcomes, sim_outcomes);
}

/// The Lemma 6.4 implementation of O'_n produces linearizable histories
/// under many random schedules and outcome choices (n = 2, both levels
/// exercised concurrently).
#[test]
fn lemma_6_4_linearizable_under_contention() {
    let inputs: Vec<Value> = (0..4).map(int).collect();
    let inner = KSetViaPowerLevel::new(inputs, ObjId(0), 2);
    let procedure = PowerFromConsensusAndSa::new(2);
    let spec_objects = vec![AnyObject::o_prime_n(2, 2).unwrap()];
    for seed in 0..40u64 {
        let frontends = vec![PowerFromConsensusAndSa::frontend(vec![ObjId(0), ObjId(1)])];
        let derived = DerivedProtocol::new(&inner, &procedure, frontends);
        let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::strong_sa()];
        let (history, result) = record_frontend_history(
            &derived,
            &objects,
            &mut RandomScheduler::seeded(seed),
            &mut RandomOutcome::seeded(!seed),
            10_000,
        )
        .unwrap();
        assert!(result.all_decided());
        check_linearizable(&history, &spec_objects).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
