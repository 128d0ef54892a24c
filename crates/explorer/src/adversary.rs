//! The bivalency adversary of the paper's impossibility proofs.
//!
//! The impossibility proofs of the paper (Theorems 4.2 and 5.2) are
//! constructive adversary arguments: an adversary schedules steps so that the
//! configuration stays bivalent forever, so some process takes infinitely
//! many steps without deciding — contradicting Termination.
//! [`bivalent_survival`] is that adversary over a complete execution graph:
//! starting from the (bivalent) initial configuration it greedily steps to
//! bivalent successors, reporting how long it can keep the outcome open. On
//! the object families covered by the paper's theorems it never gets stuck —
//! the experiments use this to trace the proofs' mechanics on concrete
//! candidate protocols.
//!
//! The execution such an argument ends in is certified elsewhere: a
//! reachable cycle is a [`crate::checker::Violation::NonTermination`], and
//! its [`crate::verdict::Witness`] (the shortest schedule to the cycle's
//! entry, plus the cycle) replays on the raw system through
//! [`crate::verdict::Witness::confirm`]. Run
//! [`crate::Exploration::check_wait_free`] to get one.

use crate::explore::ExplorationGraph;
use crate::valency::ValencyAnalysis;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

/// Outcome of a bivalency-preservation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SurvivalReport {
    /// Steps taken while keeping the configuration multivalent.
    pub steps: usize,
    /// `true` if the walk revisited a configuration (the adversary can loop
    /// forever: unbounded survival).
    pub looped: bool,
    /// `true` if the walk got stuck (every successor of the current
    /// configuration is univalent or barren) before `max_steps`.
    pub stuck: bool,
}

/// Greedy bivalency-preserving adversary: starting from the initial
/// configuration, repeatedly move to any multivalent successor; stop after
/// `max_steps`, when stuck, or when a configuration repeats (a loop —
/// unbounded survival).
///
/// Requires an exact analysis (complete graph); on the object families of
/// Theorems 4.2/5.2 the paper proves this adversary never gets stuck before
/// the objects' nondeterminism is exhausted.
#[must_use]
pub fn bivalent_survival<L: Clone + Eq + Hash + Debug>(
    graph: &ExplorationGraph<L>,
    analysis: &ValencyAnalysis,
    max_steps: usize,
) -> SurvivalReport {
    let mut cur = 0usize;
    let mut seen: BTreeSet<usize> = BTreeSet::from([0]);
    let mut steps = 0usize;
    if !analysis.is_multivalent(cur) {
        return SurvivalReport {
            steps: 0,
            looped: false,
            stuck: true,
        };
    }
    while steps < max_steps {
        let Some(next) = graph.edges[cur]
            .iter()
            .find(|e| analysis.is_multivalent(e.target))
            .map(|e| e.target)
        else {
            return SurvivalReport {
                steps,
                looped: false,
                stuck: true,
            };
        };
        steps += 1;
        if !seen.insert(next) {
            return SurvivalReport {
                steps,
                looped: true,
                stuck: false,
            };
        }
        cur = next;
    }
    SurvivalReport {
        steps,
        looped: false,
        stuck: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CheckError;
    use crate::explore::Explorer;
    use crate::verdict::{Outcome, ScheduleStep, Witness, WitnessKind};
    use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
    use lbsa_runtime::process::{Protocol, Step};

    /// A wait-free race: both processes decide after one step. Acyclic.
    #[derive(Debug)]
    struct Race;

    impl Protocol for Race {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            2
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(Value::Int(pid.index() as i64)))
        }
        fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
            Step::Decide(resp)
        }
    }

    /// The classic doomed protocol: two processes try to reach consensus
    /// with only a register, by writing their value and reading the other's;
    /// on a tie-break disagreement they retry forever. The adversary must
    /// find a non-terminating execution (FLP in miniature).
    #[derive(Debug)]
    struct RegisterConsensusAttempt;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum RcState {
        Write,
        Read,
    }

    impl Protocol for RegisterConsensusAttempt {
        type LocalState = RcState;
        fn num_processes(&self) -> usize {
            2
        }
        fn init(&self, _pid: Pid) -> RcState {
            RcState::Write
        }
        fn pending_op(&self, pid: Pid, s: &RcState) -> (ObjId, Op) {
            match s {
                RcState::Write => (
                    ObjId(pid.index()),
                    Op::Write(Value::Int(pid.index() as i64)),
                ),
                RcState::Read => (ObjId(1 - pid.index()), Op::Read),
            }
        }
        fn on_response(&self, pid: Pid, s: &RcState, resp: Value) -> Step<RcState> {
            match s {
                RcState::Write => Step::Continue(RcState::Read),
                RcState::Read => match resp.as_int() {
                    // Other process hasn't written: decide own value (it ran
                    // solo so far, as far as it can tell).
                    None => Step::Decide(Value::Int(pid.index() as i64)),
                    // Saw the other value: defer — retry from the start.
                    // (A real protocol would need to break the symmetry; with
                    // registers only, it cannot.)
                    Some(_) => Step::Continue(RcState::Write),
                },
            }
        }
    }

    #[test]
    fn wait_free_protocol_has_no_witness() {
        let p = Race;
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let v = Explorer::new(&p, &objects).exploration().check_wait_free();
        assert_eq!(v.outcome, Outcome::Holds);
        assert!(v.witness.is_none());
    }

    /// The wait-freedom witness against [`RegisterConsensusAttempt`].
    fn register_consensus_witness(ex: &Explorer<'_, RegisterConsensusAttempt>) -> Witness {
        let v = ex.exploration().check_wait_free();
        assert!(v.is_violated(), "{v}");
        v.witness
            .expect("the adversary must defeat register consensus")
    }

    #[test]
    fn register_consensus_attempt_is_refuted() {
        let p = RegisterConsensusAttempt;
        let objects = vec![AnyObject::register(), AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let w = register_consensus_witness(&ex);
        let WitnessKind::NonTermination { victims } = &w.kind else {
            panic!("wrong kind: {:?}", w.kind);
        };
        assert!(!w.cycle.is_empty());
        assert!(!victims.is_empty());
        w.confirm(&ex)
            .expect("the witness must replay successfully");
    }

    #[test]
    fn tampered_witnesses_are_rejected() {
        let p = RegisterConsensusAttempt;
        let objects = vec![AnyObject::register(), AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let w = register_consensus_witness(&ex);
        let diverges = |w: &Witness, why: &str| match w.confirm(&ex) {
            Err(CheckError::WitnessDiverged { reason, .. }) => {
                assert!(reason.contains(why), "{reason:?} does not say {why:?}");
            }
            other => panic!("expected a diverged witness ({why}), got {other:?}"),
        };

        let mut empty_cycle = w.clone();
        empty_cycle.cycle.clear();
        diverges(&empty_cycle, "empty cycle");

        let mut wrong_victim = w.clone();
        wrong_victim.kind = WitnessKind::NonTermination {
            victims: vec![Pid(99)],
        };
        diverges(&wrong_victim, "victim p99");

        let mut broken_edge = w.clone();
        broken_edge.cycle[0].outcome += 17;
        diverges(&broken_edge, "outcome");

        assert!(w.cycle.len() > 1, "{:?}", w.cycle);
        let mut open_cycle = w.clone();
        open_cycle.cycle.pop();
        diverges(&open_cycle, "does not return to its entry");

        // p0 writes, then p1 spins (write, read the other's value) with p0
        // undecided but idle: a real cycle, on which p0 never steps.
        let step = |pid| ScheduleStep { pid, outcome: 0 };
        let spin = Witness {
            schedule: vec![step(Pid(0)), step(Pid(1)), step(Pid(1))],
            cycle: vec![step(Pid(1)), step(Pid(1))],
            kind: WitnessKind::NonTermination {
                victims: vec![Pid(1)],
            },
            ..w
        };
        spin.confirm(&ex).expect("p1 spins forever");
        let idle_victim = Witness {
            kind: WitnessKind::NonTermination {
                victims: vec![Pid(0), Pid(1)],
            },
            ..spin
        };
        diverges(&idle_victim, "victim p0 never steps on the cycle");
    }

    /// A protocol against which bivalence persists forever: q0 loops
    /// (write 0; read; decide 1 if it reads 1), q1 symmetrically. From any
    /// point on the write/read/write/read cycle, either decision is still
    /// reachable, so the adversary can keep the outcome open indefinitely.
    #[derive(Debug)]
    struct Yielders;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum YState {
        Write,
        Read,
    }

    impl Protocol for Yielders {
        type LocalState = YState;
        fn num_processes(&self) -> usize {
            2
        }
        fn init(&self, _pid: Pid) -> YState {
            YState::Write
        }
        fn pending_op(&self, pid: Pid, s: &YState) -> (ObjId, Op) {
            match s {
                YState::Write => (ObjId(0), Op::Write(Value::Int(pid.index() as i64))),
                YState::Read => (ObjId(0), Op::Read),
            }
        }
        fn on_response(&self, pid: Pid, s: &YState, resp: Value) -> Step<YState> {
            match s {
                YState::Write => Step::Continue(YState::Read),
                YState::Read => {
                    let own = pid.index() as i64;
                    match resp.as_int() {
                        Some(v) if v != own => Step::Decide(Value::Int(v)),
                        _ => Step::Continue(YState::Write),
                    }
                }
            }
        }
    }

    #[test]
    fn survival_against_yielders_is_unbounded() {
        let p = Yielders;
        let objects = vec![AnyObject::register()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let va = ValencyAnalysis::analyze(&g);
        assert!(
            va.is_multivalent(0),
            "initial configuration must be bivalent"
        );
        let report = bivalent_survival(&g, &va, 10_000);
        assert!(
            report.looped,
            "the adversary must be able to keep the outcome open forever: {report:?}"
        );
        assert!(!report.stuck);
    }

    #[test]
    fn survival_against_a_real_consensus_object_is_bounded() {
        let p = Race;
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let va = ValencyAnalysis::analyze(&g);
        let report = bivalent_survival(&g, &va, 10_000);
        assert!(
            report.stuck,
            "one step on the consensus object fixes the outcome"
        );
        assert_eq!(report.steps, 0);
    }
}
