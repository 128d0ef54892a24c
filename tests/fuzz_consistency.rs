//! Whole-pipeline fuzzing: random straight-line workloads over random
//! object mixes, cross-validating the independent components against each
//! other:
//!
//! 1. the execution graphs of straight-line workloads are acyclic and
//!    complete;
//! 2. every concrete (sampled) run's outcome appears among the explorer's
//!    terminal outcomes — the sampler is an *underapproximation* of the
//!    exhaustive graph;
//! 3. every trace the runtime records is replayable through the sequential
//!    specifications — each recorded response is an admissible outcome in
//!    sequence (the runtime agrees with the specs);
//! 4. the trace, converted to a concurrent history of instantaneous ops, is
//!    linearizable (sanity of the linearizability checker on real traces).

use lbsa_support::check::run_cases;
use lbsa_support::rng::SmallRng;
use life_beyond_set_agreement::core::ids::Label;
use life_beyond_set_agreement::core::spec::ObjectSpec;
use life_beyond_set_agreement::core::value::int;
use life_beyond_set_agreement::core::{AnyObject, AnyState, ObjId, Op, Value};
use life_beyond_set_agreement::explorer::linearizability::check_linearizable;
use life_beyond_set_agreement::explorer::{Explorer, Limits};
use life_beyond_set_agreement::runtime::derived::CompletedOp;
use life_beyond_set_agreement::runtime::outcome::RandomOutcome;
use life_beyond_set_agreement::runtime::scheduler::RandomScheduler;
use life_beyond_set_agreement::runtime::script::{ScriptEnd, ScriptProtocol};
use life_beyond_set_agreement::runtime::system::System;
use std::collections::BTreeSet;

/// The fuzzed object universe: a register, a 2-consensus, a 2-SA, and a
/// 2-PAC.
fn universe() -> Vec<AnyObject> {
    vec![
        AnyObject::register(),
        AnyObject::consensus(2).unwrap(),
        AnyObject::strong_sa(),
        AnyObject::pac(2).unwrap(),
    ]
}

/// A random operation valid for object `obj` in the universe.
fn random_op_for(rng: &mut SmallRng, obj: usize) -> Op {
    match obj {
        0 => {
            if rng.ratio(1, 2) {
                Op::Read
            } else {
                Op::Write(int(rng.i64_range(1..4)))
            }
        }
        1 | 2 => Op::Propose(int(rng.i64_range(1..4))),
        _ => {
            let label = Label::new(rng.random_range(0..2) + 1).unwrap();
            if rng.ratio(1, 2) {
                Op::ProposePac(int(rng.i64_range(1..4)), label)
            } else {
                Op::DecidePac(label)
            }
        }
    }
}

/// A random per-process script of 1..=3 operations.
fn random_script(rng: &mut SmallRng) -> Vec<(ObjId, Op)> {
    let len = rng.random_range(1..4);
    (0..len)
        .map(|_| {
            let obj = rng.random_range(0..4);
            (ObjId(obj), random_op_for(rng, obj))
        })
        .collect()
}

/// A random workload of 2..=3 processes.
fn random_workload(rng: &mut SmallRng) -> Vec<Vec<(ObjId, Op)>> {
    let procs = rng.random_range(2..4);
    (0..procs).map(|_| random_script(rng)).collect()
}

/// Replays a trace through the sequential specs, verifying every recorded
/// response is admissible, and returns the per-step validity.
fn trace_replays(objects: &[AnyObject], sys: &System<'_, ScriptProtocol>) -> bool {
    let mut states: Vec<AnyState> = objects.iter().map(ObjectSpec::initial_state).collect();
    for event in sys.trace().iter() {
        let outs = match objects[event.obj.index()].outcomes(&states[event.obj.index()], &event.op)
        {
            Ok(o) => o.into_vec(),
            Err(_) => return false,
        };
        match outs.into_iter().find(|(resp, _)| *resp == event.response) {
            Some((_, next)) => states[event.obj.index()] = next,
            None => return false, // recorded response not admissible
        }
    }
    true
}

/// Cross-validation of explorer, sampler, runtime, and checker on random
/// workloads.
#[test]
fn pipeline_components_agree_on_random_workloads() {
    run_cases("pipeline_agreement", 48, |rng| {
        let scripts = random_workload(rng);
        let seed = rng.next_u64();
        let protocol = ScriptProtocol::new(scripts, ScriptEnd::DecideLast).unwrap();
        let objects = universe();

        // 1. Straight-line workloads explore completely and acyclically.
        let explorer = Explorer::new(&protocol, &objects);
        let graph = explorer
            .exploration()
            .limits(Limits::new(500_000))
            .run()
            .unwrap();
        assert!(graph.complete);
        assert!(!graph.has_cycle(), "straight-line programs cannot cycle");

        let explored_outcomes: BTreeSet<Vec<Option<Value>>> = graph
            .terminal_indices()
            .map(|t| graph.configs[t].decisions())
            .collect();

        // 2. A concrete random run's outcome is among the explored ones.
        let mut sys = System::new(&protocol, &objects).unwrap();
        let result = sys
            .run(
                &mut RandomScheduler::seeded(seed),
                &mut RandomOutcome::seeded(!seed),
                10_000,
            )
            .unwrap();
        assert!(result.is_quiescent());
        assert!(
            explored_outcomes.contains(&result.decisions),
            "sampled outcome {:?} missing from {} explored outcomes",
            result.decisions,
            explored_outcomes.len()
        );

        // 3. The recorded trace replays through the sequential specs.
        assert!(trace_replays(&objects, &sys), "trace not spec-admissible");

        // 4. The trace, as a history of instantaneous operations, is
        //    linearizable (each op's interval is its single step).
        let history: Vec<CompletedOp> = sys
            .trace()
            .iter()
            .map(|e| CompletedOp {
                pid: e.pid,
                obj: e.obj,
                op: e.op,
                response: e.response,
                invoked_at: e.step,
                responded_at: e.step,
            })
            .collect();
        assert!(check_linearizable(&history, &objects).is_ok());
    });
}

/// The explorer's terminal-outcome set is closed under schedule choice:
/// running the SAME workload under round-robin also lands inside it.
#[test]
fn round_robin_outcomes_are_explored() {
    use life_beyond_set_agreement::runtime::outcome::FirstOutcome;
    use life_beyond_set_agreement::runtime::scheduler::RoundRobin;
    run_cases("round_robin_explored", 48, |rng| {
        let scripts = random_workload(rng);
        let protocol = ScriptProtocol::new(scripts, ScriptEnd::DecideLast).unwrap();
        let objects = universe();
        let explorer = Explorer::new(&protocol, &objects);
        let graph = explorer
            .exploration()
            .limits(Limits::new(500_000))
            .run()
            .unwrap();
        let explored: BTreeSet<Vec<Option<Value>>> = graph
            .terminal_indices()
            .map(|t| graph.configs[t].decisions())
            .collect();

        let mut sys = System::new(&protocol, &objects).unwrap();
        let result = sys
            .run(&mut RoundRobin::new(), &mut FirstOutcome, 10_000)
            .unwrap();
        assert!(explored.contains(&result.decisions));
    });
}

/// Decision counts are schedule-independent for halting workloads: the
/// number of decided processes equals the process count in every terminal
/// configuration.
#[test]
fn all_processes_decide_in_every_terminal() {
    run_cases("all_decide_terminal", 48, |rng| {
        let scripts = random_workload(rng);
        let n = scripts.len();
        let protocol = ScriptProtocol::new(scripts, ScriptEnd::DecideLast).unwrap();
        let objects = universe();
        let graph = Explorer::new(&protocol, &objects)
            .exploration()
            .limits(Limits::new(500_000))
            .run()
            .unwrap();
        for t in graph.terminal_indices() {
            let decided = graph.configs[t].decisions().iter().flatten().count();
            assert_eq!(decided, n);
        }
    });
}

/// Deterministic regression instance of the fuzz property (fast, pinned).
#[test]
fn pinned_mixed_workload_cross_check() {
    let l1 = Label::new(1).unwrap();
    let l2 = Label::new(2).unwrap();
    let scripts = vec![
        vec![
            (ObjId(3), Op::ProposePac(int(1), l1)),
            (ObjId(1), Op::Propose(int(2))),
            (ObjId(3), Op::DecidePac(l1)),
        ],
        vec![
            (ObjId(2), Op::Propose(int(3))),
            (ObjId(3), Op::ProposePac(int(2), l2)),
            (ObjId(0), Op::Read),
        ],
    ];
    let protocol = ScriptProtocol::new(scripts, ScriptEnd::DecideLast).unwrap();
    let objects = universe();
    let graph = Explorer::new(&protocol, &objects)
        .exploration()
        .run()
        .unwrap();
    assert!(graph.complete);
    assert!(!graph.has_cycle());
    let outcomes: BTreeSet<Vec<Option<Value>>> = graph
        .terminal_indices()
        .map(|t| graph.configs[t].decisions())
        .collect();
    assert!(!outcomes.is_empty());
    for seed in 0..30u64 {
        let mut sys = System::new(&protocol, &objects).unwrap();
        let result = sys
            .run(
                &mut RandomScheduler::seeded(seed),
                &mut RandomOutcome::seeded(seed),
                1000,
            )
            .unwrap();
        assert!(
            outcomes.contains(&result.decisions),
            "seed {seed} escaped the graph"
        );
        assert!(
            trace_replays(&objects, &sys),
            "seed {seed} trace not admissible"
        );
    }
}
