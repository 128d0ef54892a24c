//! Symmetry reduction soundness, end to end: for every small protocol
//! instance the reduced (orbit) exploration must reach the **same verdict**
//! as the raw one, and every witness extracted from a reduced graph must
//! de-canonicalize into a schedule that replays — and confirms — on the
//! raw system. The broken protocols here are intentionally wrong, so the
//! witness path (not just the Holds path) is exercised. Canonicalization
//! itself is checked against the enumerated group (`common`): it must be an
//! orbit function on every catalogued `Symmetry` implementor.

mod common;

use common::assert_canon_is_orbit_function;
use lbsa_bench::mixed_binary_inputs;
use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use lbsa_explorer::{ExplorationGraph, Explorer, Frontier};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_protocols::dac::{all_binary_inputs, DacFromPac};
use lbsa_protocols::set_agreement_protocols::{GroupSplitKSet, KSetViaPowerLevel, KSetViaStrongSa};
use lbsa_runtime::process::{classes_by_input, Protocol, Step, Symmetry};

/// Consensus with a broken adopt rule (a loser decides its own input), made
/// symmetric: processes with equal inputs are interchangeable, and the
/// consensus object's state is pid-free.
#[derive(Debug)]
struct BrokenAdoptConsensus {
    inputs: Vec<Value>,
}

impl Protocol for BrokenAdoptConsensus {
    type LocalState = ();
    fn num_processes(&self) -> usize {
        self.inputs.len()
    }
    fn init(&self, _pid: Pid) {}
    fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
        (ObjId(0), Op::Propose(self.inputs[pid.index()]))
    }
    fn on_response(&self, pid: Pid, _s: &(), resp: Value) -> Step<()> {
        let own = self.inputs[pid.index()];
        if resp == own {
            Step::Decide(resp)
        } else {
            Step::Decide(own)
        }
    }
}

impl Symmetry for BrokenAdoptConsensus {
    fn pid_classes(&self) -> Vec<u32> {
        classes_by_input(&self.inputs)
    }
}

/// A symmetric protocol that never terminates: every process proposes to a
/// 2-SA object forever. Wait-freedom is violated, and the witness is a
/// pumpable cycle that must survive de-canonicalization.
#[derive(Debug)]
struct SymmetricSpinners {
    n: usize,
}

impl Protocol for SymmetricSpinners {
    type LocalState = ();
    fn num_processes(&self) -> usize {
        self.n
    }
    fn init(&self, _pid: Pid) {}
    fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
        (ObjId(0), Op::Propose(int(1)))
    }
    fn on_response(&self, _pid: Pid, _s: &(), _resp: Value) -> Step<()> {
        Step::Continue(())
    }
}

impl Symmetry for SymmetricSpinners {
    fn pid_classes(&self) -> Vec<u32> {
        vec![0; self.n]
    }
}

/// Every n-DAC instance with n ≤ 3, every binary input vector, every choice
/// of distinguished process: the reduced verdict agrees with the raw one,
/// reduced never explores more, and any reduced witness confirms on the
/// raw system.
#[test]
fn dac_reduced_verdicts_agree_with_raw_on_all_small_instances() {
    for n in [2usize, 3] {
        for inputs in all_binary_inputs(n) {
            for d in 0..n {
                let p = DacFromPac::new(inputs.clone(), Pid(d), ObjId(0)).unwrap();
                let objects = vec![AnyObject::pac(n).unwrap()];
                let ex = Explorer::new(&p, &objects);
                let raw = ex.exploration().check_dac(&p.instance(), 10);
                let reduced = ex.exploration().symmetric().check_dac(&p.instance(), 10);
                assert_eq!(
                    raw.outcome.tag(),
                    reduced.outcome.tag(),
                    "n={n} inputs={inputs:?} distinguished={d}: verdicts diverge"
                );
                assert!(
                    reduced.stats.configs <= raw.stats.configs,
                    "n={n} inputs={inputs:?} distinguished={d}: reduction grew the graph"
                );
                if let Some(w) = &reduced.witness {
                    w.confirm(&ex).unwrap_or_else(|e| {
                        panic!(
                            "n={n} inputs={inputs:?} distinguished={d}: \
                             de-canonicalized witness fails on the raw system: {e}"
                        )
                    });
                }
            }
        }
    }
}

/// Same sweep for the (intentionally broken) symmetric consensus protocol:
/// most input vectors yield an Agreement violation, so this drives the
/// state-witness de-canonicalization path for every orbit shape with
/// n ≤ 5 — at n ≥ 4 the witnesses cross tie blocks of three or more
/// interchangeable processes.
#[test]
fn broken_consensus_reduced_witnesses_confirm_on_the_raw_system() {
    let mut violations = 0usize;
    for n in [2usize, 3, 4, 5] {
        for inputs in all_binary_inputs(n) {
            let valid = inputs.clone();
            let p = BrokenAdoptConsensus { inputs };
            let objects = vec![AnyObject::consensus(n).unwrap()];
            let ex = Explorer::new(&p, &objects);
            let raw = ex.exploration().check_consensus(&valid);
            let reduced = ex.exploration().symmetric().check_consensus(&valid);
            assert_eq!(
                raw.outcome.tag(),
                reduced.outcome.tag(),
                "n={n} inputs={valid:?}: verdicts diverge"
            );
            if let Some(w) = &reduced.witness {
                violations += 1;
                w.confirm(&ex)
                    .unwrap_or_else(|e| panic!("n={n} inputs={valid:?}: witness fails: {e}"));
            }
        }
    }
    assert!(
        violations > 0,
        "the broken protocol never violated — dead test"
    );
}

/// Cycle pumping: the reduced wait-freedom witness on an all-symmetric
/// spinner is a *real* cycle after de-canonicalization, and it confirms on
/// the raw system even though the quotient cycle only closed up to orbit.
#[test]
fn reduced_nontermination_witnesses_pump_to_real_cycles() {
    for n in [2usize, 3] {
        let p = SymmetricSpinners { n };
        let objects = vec![AnyObject::strong_sa()];
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().check_wait_free();
        let reduced = ex.exploration().symmetric().check_wait_free();
        assert_eq!(raw.outcome.tag(), reduced.outcome.tag(), "n={n}");
        let w = reduced.witness.expect("spinners violate wait-freedom");
        w.confirm(&ex)
            .unwrap_or_else(|e| panic!("n={n}: pumped cycle fails on the raw system: {e}"));
    }
}

/// Reduction composes with both frontiers: the deterministic engine builds
/// the byte-identical symmetric graph whatever thread count is requested,
/// and the work-stealing engine at 2 threads reaches the same orbit
/// representatives and transitions.
#[test]
fn reduced_graphs_are_thread_count_independent() {
    let p = DacFromPac::new(vec![int(1), int(0), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
    let objects = vec![AnyObject::pac(4).unwrap()];
    let ex = Explorer::new(&p, &objects);
    let sequential = ex.exploration().threads(1).symmetric().run().unwrap();
    assert!(sequential.complete);
    for threads in [2usize, 8] {
        let g = ex.exploration().threads(threads).symmetric().run().unwrap();
        assert!(
            sequential.same_structure(&g),
            "reduced graph differs at {threads} threads"
        );
    }
    let ws = ex
        .exploration()
        .threads(2)
        .frontier(Frontier::WorkStealing)
        .symmetric()
        .run()
        .unwrap();
    assert!(ws.complete && ws.stats.reduced);
    let sorted = |g: &ExplorationGraph<_>| {
        let mut configs = g.configs.clone();
        configs.sort();
        configs
    };
    assert_eq!(sorted(&sequential), sorted(&ws), "ws reaches other orbits");
    assert_eq!(sequential.transitions, ws.transitions);
    assert_eq!(sequential.stats.dedup_hits, ws.stats.dedup_hits);
}

/// Canonicalization is an orbit function, and the reduced graph holds
/// exactly the brute-force orbit minima, for every catalogued `Symmetry`
/// implementor and the test protocols of this file.
#[test]
fn canonicalization_is_an_orbit_function_for_every_symmetric_protocol() {
    for n in 3..=5usize {
        for inputs in all_binary_inputs(n) {
            let p = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).unwrap();
            let objects = vec![AnyObject::pac(n).unwrap()];
            let ex = Explorer::new(&p, &objects);
            assert_canon_is_orbit_function(&ex, &format!("dac n={n} inputs={inputs:?}"));
        }
    }
    let equal = vec![int(7); 4];

    let p = KSetViaStrongSa::new(equal.clone(), ObjId(0));
    let objects = vec![AnyObject::strong_sa()];
    assert_canon_is_orbit_function(&Explorer::new(&p, &objects), "KSetViaStrongSa");

    let p = GroupSplitKSet::new(equal.clone(), 2).unwrap();
    let objects = vec![
        AnyObject::consensus(2).unwrap(),
        AnyObject::consensus(2).unwrap(),
    ];
    assert_canon_is_orbit_function(&Explorer::new(&p, &objects), "GroupSplitKSet");

    let p = KSetViaPowerLevel::new(equal.clone(), ObjId(0), 2);
    let objects = vec![AnyObject::o_prime_n(2, 2).unwrap()];
    assert_canon_is_orbit_function(&Explorer::new(&p, &objects), "KSetViaPowerLevel");

    let p = ConsensusViaObject::new(equal, ObjId(0));
    let objects = vec![AnyObject::consensus(4).unwrap()];
    assert_canon_is_orbit_function(&Explorer::new(&p, &objects), "ConsensusViaObject");

    for inputs in all_binary_inputs(4) {
        let p = BrokenAdoptConsensus { inputs };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        assert_canon_is_orbit_function(&Explorer::new(&p, &objects), "BrokenAdoptConsensus");
    }

    let p = SymmetricSpinners { n: 4 };
    let objects = vec![AnyObject::strong_sa()];
    assert_canon_is_orbit_function(&Explorer::new(&p, &objects), "SymmetricSpinners");
}

/// At the sizes where the group stops being small (|S₅| = 120, |S₆| = 720)
/// both frontiers build the same quotient: the deterministic engine and
/// work stealing at 2 and 4 threads reach the same orbit representatives
/// with the same transitions.
#[test]
fn large_group_reduced_graphs_agree_across_frontiers() {
    for (n, orbits, transitions) in [(6usize, 188usize, 721usize), (7, 258, 1161)] {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).unwrap();
        let objects = vec![AnyObject::pac(n).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let det = ex.exploration().symmetric().run().unwrap();
        assert!(det.complete && det.stats.reduced);
        assert_eq!(det.configs.len(), orbits, "n={n}: orbit count");
        assert_eq!(det.transitions, transitions, "n={n}: transition count");
        let mut det_configs = det.configs.clone();
        det_configs.sort();
        for threads in [2usize, 4] {
            let ws = ex
                .exploration()
                .threads(threads)
                .frontier(Frontier::WorkStealing)
                .symmetric()
                .run()
                .unwrap();
            assert!(ws.complete && ws.stats.reduced);
            let mut ws_configs = ws.configs.clone();
            ws_configs.sort();
            assert_eq!(det_configs, ws_configs, "n={n}, ws {threads}: other orbits");
            assert_eq!(det.transitions, ws.transitions, "n={n}, ws {threads}");
        }
    }
}

/// Explores T2 (Algorithm 2 over PAC(n), process 0 distinguished with input
/// 1, the rest 0) on one thread, raw or symmetry-reduced.
fn t2_graph(n: usize, symmetric: bool) -> ExplorationGraph<lbsa_protocols::dac::DacPhase> {
    let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(n).expect("PAC(n) for n >= 2")];
    let ex = Explorer::new(&p, &objects);
    let builder = ex.exploration().threads(1);
    let builder = if symmetric {
        builder.symmetric()
    } else {
        builder
    };
    let g = builder.run().expect("explorable");
    assert!(g.complete);
    g
}

/// The exact gate `perf_smoke` applies to `n8_reduced_configs`: the
/// reduced T2 n = 8 quotient (|S_7| = 5,040) has exactly 339 orbits. A
/// canonicalizer that merged orbits or split one would move the count.
#[test]
fn t2_n8_quotient_has_exactly_339_orbits() {
    assert_eq!(t2_graph(8, true).len(), 339);
}

/// The gate `perf_smoke` applies to `n5_reduction_ratio`, computed the way
/// `explore_scaling` reports it: symmetry reduction shrinks the T2 n = 5
/// state space at least five-fold.
#[test]
fn t2_n5_reduction_ratio_is_at_least_five() {
    let (raw, reduced) = (t2_graph(5, false).len(), t2_graph(5, true).len());
    let ratio = (raw as f64 / reduced as f64 * 100.0).round() / 100.0;
    assert!(ratio >= 5.0, "{raw} / {reduced} = {ratio}");
}
