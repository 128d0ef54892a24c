//! Metamorphic soundness tests for the verification machinery itself: the
//! explorer, valency engine, adversary, and linearizability checker must
//! respect transformations whose effect we know a priori.

use life_beyond_set_agreement::core::value::int;
use life_beyond_set_agreement::core::{AnyObject, ObjId, Op, Pid, Value};
use life_beyond_set_agreement::explorer::linearizability::check_linearizable;
use life_beyond_set_agreement::explorer::sampling::SampleConfig;
use life_beyond_set_agreement::explorer::valency::ValencyAnalysis;
use life_beyond_set_agreement::explorer::{Explorer, Limits, Outcome};
use life_beyond_set_agreement::protocols::consensus_protocols::ConsensusViaObject;
use life_beyond_set_agreement::runtime::derived::CompletedOp;
use life_beyond_set_agreement::runtime::process::{Protocol, Step};

/// Wraps a protocol, adding an untouched spectator register to the object
/// table. Exploration results must be isomorphic.
#[derive(Debug)]
struct WithSpectator<'a, P>(&'a P);

impl<'a, P: Protocol> Protocol for WithSpectator<'a, P> {
    type LocalState = P::LocalState;
    fn num_processes(&self) -> usize {
        self.0.num_processes()
    }
    fn init(&self, pid: Pid) -> P::LocalState {
        self.0.init(pid)
    }
    fn pending_op(&self, pid: Pid, s: &P::LocalState) -> (ObjId, Op) {
        self.0.pending_op(pid, s)
    }
    fn on_response(&self, pid: Pid, s: &P::LocalState, r: Value) -> Step<P::LocalState> {
        self.0.on_response(pid, s, r)
    }
}

/// Adding an object nobody touches changes nothing: same configuration
/// count, same transitions, same valency census, same verdicts.
#[test]
fn inert_objects_do_not_change_anything() {
    let inputs = vec![int(0), int(1)];
    let p = ConsensusViaObject::new(inputs.clone(), ObjId(0));
    let objects = vec![AnyObject::consensus(2).unwrap()];
    let g1 = Explorer::new(&p, &objects).exploration().run().unwrap();
    let va1 = ValencyAnalysis::analyze(&g1);

    let wrapped = WithSpectator(&p);
    let more_objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::register()];
    let ex2 = Explorer::new(&wrapped, &more_objects);
    let g2 = ex2.exploration().run().unwrap();
    let va2 = ValencyAnalysis::analyze(&g2);

    assert_eq!(g1.configs.len(), g2.configs.len());
    assert_eq!(g1.transitions, g2.transitions);
    assert_eq!(va1.census(), va2.census());
    assert!(ex2.exploration().check_consensus(&inputs).holds());
}

/// Renaming proposal values bijectively commutes with everything: the graph
/// sizes and valence censuses are identical, and decisions map through the
/// renaming.
#[test]
fn value_renaming_commutes_with_exploration() {
    let rename = |v: i64| v + 100;
    let a = ConsensusViaObject::new(vec![int(0), int(1)], ObjId(0));
    let b = ConsensusViaObject::new(vec![int(rename(0)), int(rename(1))], ObjId(0));
    let objects = vec![AnyObject::consensus(2).unwrap()];

    let ga = Explorer::new(&a, &objects).exploration().run().unwrap();
    let gb = Explorer::new(&b, &objects).exploration().run().unwrap();
    assert_eq!(ga.configs.len(), gb.configs.len());
    assert_eq!(ga.transitions, gb.transitions);

    let outcomes = |g: &life_beyond_set_agreement::explorer::ExplorationGraph<()>| {
        let mut v: Vec<Vec<Value>> = g
            .terminal_indices()
            .map(|t| g.configs[t].distinct_decisions())
            .collect();
        v.sort();
        v
    };
    let mapped: Vec<Vec<Value>> = outcomes(&ga)
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| int(rename(v.as_int().unwrap())))
                .collect()
        })
        .collect();
    assert_eq!(mapped, outcomes(&gb));
}

/// Exploration is deterministic: two runs produce identical graphs.
#[test]
fn exploration_is_deterministic() {
    let p = ConsensusViaObject::new(vec![int(0), int(1), int(2)], ObjId(0));
    let objects = vec![AnyObject::consensus(3).unwrap()];
    let ex = Explorer::new(&p, &objects);
    let g1 = ex.exploration().run().unwrap();
    let g2 = ex.exploration().run().unwrap();
    assert_eq!(g1.configs, g2.configs);
    assert_eq!(g1.transitions, g2.transitions);
    for (e1, e2) in g1.edges.iter().zip(g2.edges.iter()) {
        assert_eq!(e1, e2);
    }
}

/// Valency closures are monotone along edges: a successor's closure is a
/// subset of its source's.
#[test]
fn closures_shrink_along_edges() {
    let p = ConsensusViaObject::new(vec![int(0), int(1), int(2)], ObjId(0));
    let objects = vec![AnyObject::consensus(3).unwrap()];
    let g = Explorer::new(&p, &objects).exploration().run().unwrap();
    let va = ValencyAnalysis::analyze(&g);
    for (i, edges) in g.edges.iter().enumerate() {
        for e in edges {
            assert!(
                va.closure(e.target).is_subset(va.closure(i)),
                "closure grew along an edge {i} -> {}",
                e.target
            );
        }
    }
}

/// Wait-free protocols have no non-termination witness on ANY complete
/// graph; conversely the sampling checker and the exhaustive checker agree
/// on correct protocols.
#[test]
fn samplers_and_exhaustive_checkers_agree_on_correct_protocols() {
    let inputs = vec![int(0), int(1), int(0)];
    let p = ConsensusViaObject::new(inputs.clone(), ObjId(0));
    let objects = vec![AnyObject::consensus(3).unwrap()];
    let ex = Explorer::new(&p, &objects);
    assert!(ex.exploration().check_consensus(&inputs).holds());
    let g = ex.exploration().run().unwrap();
    assert!(!g.has_cycle());
    let v = ex
        .exploration()
        .sample(SampleConfig {
            runs: 100,
            seed0: 0,
            max_steps: 1000,
            ..SampleConfig::default()
        })
        .check_consensus(&inputs);
    assert!(
        matches!(v.outcome, Outcome::HoldsSampled { quiescent: 100, .. }),
        "{v}"
    );
}

/// Linearizability is monotone under history extension by a fresh,
/// non-overlapping correct operation, and anti-monotone under response
/// corruption.
#[test]
fn linearizability_metamorphic_properties() {
    let specs = vec![AnyObject::consensus(3).unwrap()];
    let base = vec![
        CompletedOp {
            pid: Pid(0),
            obj: ObjId(0),
            op: Op::Propose(int(5)),
            response: int(5),
            invoked_at: 0,
            responded_at: 1,
        },
        CompletedOp {
            pid: Pid(1),
            obj: ObjId(0),
            op: Op::Propose(int(7)),
            response: int(5),
            invoked_at: 2,
            responded_at: 3,
        },
    ];
    assert!(check_linearizable(&base, &specs).is_ok());

    // Extend with a correct later op: still linearizable.
    let mut extended = base.clone();
    extended.push(CompletedOp {
        pid: Pid(2),
        obj: ObjId(0),
        op: Op::Propose(int(9)),
        response: int(5),
        invoked_at: 4,
        responded_at: 5,
    });
    assert!(check_linearizable(&extended, &specs).is_ok());

    // Corrupt any single response: no longer linearizable.
    for i in 0..extended.len() {
        let mut bad = extended.clone();
        bad[i].response = int(999);
        assert!(
            check_linearizable(&bad, &specs).is_err(),
            "corrupting op {i} must break linearizability"
        );
    }

    // Shifting all timestamps uniformly preserves the verdict.
    let mut shifted = extended.clone();
    for op in &mut shifted {
        op.invoked_at += 1000;
        op.responded_at += 1000;
    }
    assert!(check_linearizable(&shifted, &specs).is_ok());
}

/// A truncated exploration is always a prefix of the full one: every config
/// in the truncated graph appears in the complete graph.
#[test]
fn truncated_graphs_are_prefixes() {
    let p = ConsensusViaObject::new(vec![int(0), int(1), int(2)], ObjId(0));
    let objects = vec![AnyObject::consensus(3).unwrap()];
    let ex = Explorer::new(&p, &objects);
    let full = ex.exploration().run().unwrap();
    assert!(full.complete);
    let partial = ex.exploration().limits(Limits::new(3)).run().unwrap();
    assert!(!partial.complete);
    assert!(partial.configs.len() <= full.configs.len());
    for c in &partial.configs {
        assert!(
            full.configs.contains(c),
            "truncated graph invented a configuration"
        );
    }
}
