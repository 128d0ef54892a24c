//! Adversarial schedulers and non-termination certificates.
//!
//! The impossibility proofs of the paper (Theorems 4.2 and 5.2) are
//! constructive adversary arguments: an adversary schedules steps so that the
//! configuration stays bivalent forever, so some process takes infinitely
//! many steps without deciding — contradicting Termination. This module is
//! that adversary, made executable:
//!
//! * [`find_nontermination`] searches the (complete) execution graph for a
//!   reachable **cycle**. Because configurations on a cycle repeat exactly,
//!   pumping the cycle yields an infinite execution in which every process
//!   that steps on the cycle takes infinitely many steps while remaining
//!   undecided — a sound, machine-checkable violation of wait-free
//!   termination. The returned [`NonTerminationWitness`] contains the finite
//!   prefix and the cycle schedule; [`verify_witness`] replays it against the
//!   protocol to confirm.
//! * [`bivalent_survival`] is the *online* flavour: starting from the
//!   (bivalent) initial configuration it greedily steps to bivalent
//!   successors, reporting how long it can keep the outcome open. On the
//!   object families covered by the paper's theorems it never gets stuck —
//!   the experiments use this to trace the proofs' mechanics on concrete
//!   candidate protocols.

use crate::explore::{Edge, ExplorationGraph};
use crate::graph::{first_cycle, GraphView};
use crate::valency::ValencyAnalysis;
use lbsa_core::Pid;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

/// A machine-checkable witness that a protocol admits an infinite execution
/// in which the `victims` take infinitely many steps without deciding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonTerminationWitness {
    /// Edge path from the initial configuration to the cycle entry.
    pub prefix: Vec<Edge>,
    /// The cycle: edges from the entry configuration back to itself.
    pub cycle: Vec<Edge>,
    /// Processes that take at least one step on the cycle (and therefore
    /// infinitely many steps in the pumped execution) while never deciding.
    pub victims: Vec<Pid>,
}

impl NonTerminationWitness {
    /// The schedule of one pump: prefix then `k` repetitions of the cycle.
    #[must_use]
    pub fn schedule(&self, pumps: usize) -> Vec<Pid> {
        let mut s: Vec<Pid> = self.prefix.iter().map(|e| e.pid).collect();
        for _ in 0..pumps {
            s.extend(self.cycle.iter().map(|e| e.pid));
        }
        s
    }
}

/// Searches `graph` for a non-termination witness.
///
/// Returns `None` if the graph is acyclic — which, for a **complete** graph,
/// proves that every execution of the protocol is finite (each process
/// decides or halts after boundedly many steps: wait-freedom).
///
/// On a truncated graph a `None` is inconclusive; check `graph.complete`.
#[must_use]
pub fn find_nontermination<L: Clone + Eq + Hash + Debug>(
    graph: &ExplorationGraph<L>,
) -> Option<NonTerminationWitness> {
    nontermination_in(graph)
}

/// [`find_nontermination`] over any [`GraphView`]: the first cycle a
/// depth-first search from the root closes, and the path that leads to it.
pub(crate) fn nontermination_in<G: GraphView>(graph: &G) -> Option<NonTerminationWitness> {
    let (prefix, cycle) = first_cycle(graph)?;
    let victims: BTreeSet<Pid> = cycle.iter().map(|e| e.pid).collect();
    Some(NonTerminationWitness {
        prefix,
        cycle,
        victims: victims.into_iter().collect(),
    })
}

/// Replays a witness against the graph and confirms it is genuine: the
/// prefix leads from the initial configuration to a configuration `C`, the
/// cycle leads from `C` back to `C`, and every victim steps on the cycle and
/// is undecided in every cycle configuration.
///
/// Returns `true` if the witness checks out.
#[must_use]
pub fn verify_witness<L: Clone + Eq + Hash + Debug>(
    graph: &ExplorationGraph<L>,
    witness: &NonTerminationWitness,
) -> bool {
    if witness.cycle.is_empty() {
        return false;
    }
    // Walk the prefix.
    let mut cur = 0usize;
    for e in &witness.prefix {
        match graph.edges[cur]
            .iter()
            .find(|g| g.pid == e.pid && g.outcome == e.outcome)
        {
            Some(g) => cur = g.target,
            None => return false,
        }
    }
    let entry = cur;
    // Walk the cycle, checking victims remain undecided.
    let mut stepped: BTreeSet<Pid> = BTreeSet::new();
    for e in &witness.cycle {
        for victim in &witness.victims {
            match graph.configs[cur].procs.get(victim.index()) {
                Some(status) if status.decision().is_none() => {}
                _ => return false, // decided victim, or bogus pid
            }
        }
        match graph.edges[cur]
            .iter()
            .find(|g| g.pid == e.pid && g.outcome == e.outcome)
        {
            Some(g) => {
                stepped.insert(e.pid);
                cur = g.target;
            }
            None => return false,
        }
    }
    cur == entry && witness.victims.iter().all(|v| stepped.contains(v))
}

/// Outcome of an online bivalency-preservation run.
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

/// Report of an **online** lookahead-driven adversary run
/// (see [`drive_multivalent`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriveReport {
    /// Steps taken while keeping at least two values decidable.
    pub steps: usize,
    /// `true` if a configuration repeated (the adversary can loop forever).
    pub looped: bool,
    /// `true` if no successor could be certified multivalent before
    /// `max_steps`.
    pub stuck: bool,
    /// Configurations explored across all lookahead probes (cost metric).
    pub lookahead_configs: usize,
}

/// The **online** bivalency adversary: instead of precomputing the whole
/// execution graph (as [`bivalent_survival`] requires), it re-explores a
/// bounded neighbourhood from each candidate successor and only moves to
/// configurations whose decision closure it can *certify* as multivalent.
///
/// This is the form of the adversary usable on systems too large for a full
/// graph, and it mirrors how the paper's proofs actually argue: a local
/// extension argument ("there is a step keeping the configuration
/// bivalent"), not a global one. Probes whose bounded exploration is
/// truncated are treated as *not* certified (sound but conservative).
///
/// # Errors
///
/// Propagates runtime errors from stepping (protocol bugs).
pub fn drive_multivalent<P: lbsa_runtime::process::Protocol>(
    explorer: &crate::explore::Explorer<'_, P>,
    lookahead: crate::explore::Limits,
    max_steps: usize,
) -> Result<DriveReport, lbsa_runtime::error::RuntimeError> {
    use crate::valency::ValencyAnalysis;
    let mut current = explorer.initial_config();
    let mut seen: std::collections::HashSet<crate::config::Configuration<P::LocalState>> =
        std::collections::HashSet::new();
    seen.insert(current.clone());
    let mut steps = 0usize;
    let mut lookahead_configs = 0usize;

    // Certify the start.
    let probe = explorer
        .exploration()
        .from(current.clone())
        .limits(lookahead)
        .run()?;
    lookahead_configs += probe.configs.len();
    let analysis = ValencyAnalysis::analyze(&probe);
    if !(analysis.exact && analysis.is_multivalent(0)) {
        return Ok(DriveReport {
            steps: 0,
            looped: false,
            stuck: true,
            lookahead_configs,
        });
    }

    while steps < max_steps {
        let mut moved = false;
        'candidates: for pid in current.enabled_pids() {
            for succ in explorer.successors_of(&current, pid)? {
                let probe = explorer
                    .exploration()
                    .from(succ.clone())
                    .limits(lookahead)
                    .run()?;
                lookahead_configs += probe.configs.len();
                let analysis = ValencyAnalysis::analyze(&probe);
                if analysis.exact && analysis.is_multivalent(0) {
                    steps += 1;
                    if !seen.insert(succ.clone()) {
                        return Ok(DriveReport {
                            steps,
                            looped: true,
                            stuck: false,
                            lookahead_configs,
                        });
                    }
                    current = succ;
                    moved = true;
                    break 'candidates;
                }
            }
        }
        if !moved {
            return Ok(DriveReport {
                steps,
                looped: false,
                stuck: true,
                lookahead_configs,
            });
        }
    }
    Ok(DriveReport {
        steps,
        looped: false,
        stuck: false,
        lookahead_configs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
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
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(g.complete);
        assert_eq!(find_nontermination(&g), None);
    }

    #[test]
    fn register_consensus_attempt_is_refuted() {
        let p = RegisterConsensusAttempt;
        let objects = vec![AnyObject::register(), AnyObject::register()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(g.complete);
        let w = find_nontermination(&g).expect("the adversary must defeat register consensus");
        assert!(!w.cycle.is_empty());
        assert!(!w.victims.is_empty());
        assert!(
            verify_witness(&g, &w),
            "the witness must replay successfully"
        );
        // The pumped schedule has the right length.
        assert_eq!(w.schedule(3).len(), w.prefix.len() + 3 * w.cycle.len());
    }

    #[test]
    fn tampered_witnesses_are_rejected() {
        let p = RegisterConsensusAttempt;
        let objects = vec![AnyObject::register(), AnyObject::register()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let w = find_nontermination(&g).unwrap();

        let mut empty_cycle = w.clone();
        empty_cycle.cycle.clear();
        assert!(!verify_witness(&g, &empty_cycle));

        let mut wrong_victim = w.clone();
        wrong_victim.victims = vec![Pid(99)];
        assert!(!verify_witness(&g, &wrong_victim));

        let mut broken_edge = w.clone();
        if let Some(e) = broken_edge.cycle.first_mut() {
            e.outcome += 17;
        }
        assert!(!verify_witness(&g, &broken_edge));
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

    #[test]
    fn online_adversary_loops_forever_against_yielders() {
        use crate::explore::Limits;
        let p = Yielders;
        let objects = vec![AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let report = drive_multivalent(&ex, Limits::default(), 10_000).unwrap();
        assert!(
            report.looped,
            "online adversary must find the loop: {report:?}"
        );
        assert!(report.lookahead_configs > 0);
    }

    #[test]
    fn online_adversary_stuck_against_real_consensus() {
        use crate::explore::Limits;
        let p = Race;
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let report = drive_multivalent(&ex, Limits::default(), 10_000).unwrap();
        assert!(report.stuck);
        assert_eq!(report.steps, 0, "one consensus step seals the outcome");
    }

    #[test]
    fn online_and_offline_adversaries_agree() {
        use crate::explore::Limits;
        let p = Yielders;
        let objects = vec![AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let g = ex.exploration().run().unwrap();
        let va = ValencyAnalysis::analyze(&g);
        let offline = bivalent_survival(&g, &va, 10_000);
        let online = drive_multivalent(&ex, Limits::default(), 10_000).unwrap();
        assert_eq!(offline.looped, online.looped);
        assert_eq!(offline.stuck, online.stuck);
    }
}
