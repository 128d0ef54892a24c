//! Valency analysis: decision closures over an execution graph.
//!
//! The bivalency technique of Fischer–Lynch–Paterson, used by the paper in
//! Theorems 4.2 and 5.2, classifies configurations by the set of values that
//! remain decidable from them: a configuration is `v`-valent if only `v` can
//! ever be decided from it, and *bivalent* if at least two values can. This
//! module computes those **decision closures** exactly, by a monotone
//! fixpoint over the (complete) exploration graph, and locates *critical
//! configurations* — bivalent configurations all of whose successors are
//! univalent — which is where every FLP-style argument digs in (Claim 5.2.2
//! in the paper).
//!
//! On a **symmetry-reduced** graph the analysis computes the valence of each
//! *orbit*: decidable-value sets are unions over executions, and pid
//! permutations map executions to executions while fixing every decided
//! value, so a configuration and its canonical representative have the same
//! closure. Counting is per orbit, not per raw configuration — a census over
//! a reduced graph reports orbit counts.

use crate::explore::{ExplorationGraph, Explorer};
use lbsa_core::{ObjId, Pid, Value};
use lbsa_runtime::process::Protocol;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

/// The valence of a configuration: which values remain decidable from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Valence {
    /// No decision is reachable (possible for protocols that never decide).
    Barren,
    /// Exactly one value is decidable — the configuration is univalent.
    Univalent(Value),
    /// Two or more values are decidable — bivalent (or multivalent).
    Multivalent(Vec<Value>),
}

impl Valence {
    /// Returns `true` for a bivalent/multivalent configuration.
    #[must_use]
    pub fn is_multivalent(&self) -> bool {
        matches!(self, Valence::Multivalent(_))
    }

    /// Returns the unique decidable value, if univalent.
    #[must_use]
    pub fn univalent_value(&self) -> Option<Value> {
        match self {
            Valence::Univalent(v) => Some(*v),
            _ => None,
        }
    }
}

/// Decision closures for every configuration of an exploration graph.
#[derive(Clone, Debug)]
pub struct ValencyAnalysis {
    closures: Vec<BTreeSet<Value>>,
    /// `true` if the underlying graph was complete, making the closures
    /// exact. On a truncated graph the closures are **under**-approximations
    /// (more values might be decidable through unexpanded frontiers).
    pub exact: bool,
}

impl ValencyAnalysis {
    /// Computes decision closures for `graph` by fixpoint iteration.
    ///
    /// `closure[i]` is the set of values decided in configuration `i` itself
    /// or in any configuration reachable from it.
    #[must_use]
    pub fn analyze<L: Clone + Eq + Hash + Debug>(graph: &ExplorationGraph<L>) -> Self {
        let n = graph.configs.len();
        let mut closures: Vec<BTreeSet<Value>> = (0..n)
            .map(|i| graph.configs[i].distinct_decisions().into_iter().collect())
            .collect();
        // Monotone fixpoint: closures only grow, the lattice is finite.
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                for e in &graph.edges[i] {
                    if !closures[e.target].is_subset(&closures[i]) {
                        let add: Vec<Value> = closures[e.target].iter().copied().collect();
                        closures[i].extend(add);
                        changed = true;
                    }
                }
            }
        }
        ValencyAnalysis {
            closures,
            exact: graph.complete,
        }
    }

    /// The decision closure of configuration `idx`.
    #[must_use]
    pub fn closure(&self, idx: usize) -> &BTreeSet<Value> {
        &self.closures[idx]
    }

    /// The valence of configuration `idx`.
    #[must_use]
    pub fn valence(&self, idx: usize) -> Valence {
        let c = &self.closures[idx];
        match c.len() {
            0 => Valence::Barren,
            1 => Valence::Univalent(*c.iter().next().expect("len 1")),
            _ => Valence::Multivalent(c.iter().copied().collect()),
        }
    }

    /// Returns `true` if configuration `idx` is bivalent (or more).
    #[must_use]
    pub fn is_multivalent(&self, idx: usize) -> bool {
        self.closures[idx].len() >= 2
    }

    /// Number of analyzed configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.closures.len()
    }

    /// Analyses are never empty (the graph has an initial configuration).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Finds all **critical configurations**: multivalent configurations all
    /// of whose successors are univalent (the paper's Claim 5.2.2 / the FLP
    /// "decision step" configurations).
    ///
    /// Only meaningful on exact analyses of complete graphs.
    #[must_use]
    pub fn critical_configurations<L: Clone + Eq + Hash + Debug>(
        &self,
        graph: &ExplorationGraph<L>,
    ) -> Vec<usize> {
        (0..self.closures.len())
            .filter(|&i| {
                self.is_multivalent(i)
                    && !graph.edges[i].is_empty()
                    && graph.edges[i]
                        .iter()
                        .all(|e| !self.is_multivalent(e.target))
            })
            .collect()
    }

    /// Counts configurations by valence class: `(barren, univalent,
    /// multivalent)`.
    #[must_use]
    pub fn census(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for c in &self.closures {
            match c.len() {
                0 => counts.0 += 1,
                1 => counts.1 += 1,
                _ => counts.2 += 1,
            }
        }
        counts
    }
}

/// The anatomy of one critical configuration: which object each enabled
/// process is poised to access.
///
/// The combinatorial heart of the paper's proofs (Claims 4.2.7 and 5.2.3)
/// is that at a critical configuration, all processes must be about to
/// operate on the **same object** — and Claims 4.2.8 / 5.2.4 add that this
/// object cannot be a register. [`critical_anatomy`] extracts exactly this
/// data from concrete protocols, so the experiments can watch the proof's
/// skeleton appear in real executions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalInfo {
    /// Index of the critical configuration in the graph.
    pub config: usize,
    /// Each enabled process, the object its pending operation targets, and
    /// the operation itself (Subclaim 5.2.8.1 inspects the *kind* of the
    /// pending operations: at a critical configuration over a PAC object,
    /// every process is about to perform a decide).
    pub pending: Vec<(Pid, ObjId, lbsa_core::Op)>,
    /// The common target, when every pending operation addresses one object.
    pub same_object: Option<ObjId>,
    /// Human-readable family name of the common object, when one exists.
    pub object_kind: Option<&'static str>,
}

/// Computes the anatomy of every critical configuration of `graph`.
///
/// # Errors
///
/// Propagates runtime errors from querying pending operations.
pub fn critical_anatomy<P: Protocol>(
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
    analysis: &ValencyAnalysis,
) -> Result<Vec<CriticalInfo>, lbsa_runtime::error::RuntimeError> {
    use lbsa_core::spec::ObjectSpec;
    let mut out = Vec::new();
    for idx in analysis.critical_configurations(graph) {
        let config = &graph.configs[idx];
        let mut pending = Vec::new();
        for (i, status) in config.procs.iter().enumerate() {
            if let Some(local) = status.local() {
                let (obj, op) = explorer.protocol().pending_op(Pid(i), local);
                pending.push((Pid(i), obj, op));
            }
        }
        let same_object = match pending.split_first() {
            Some(((_, first, _), rest)) if rest.iter().all(|(_, o, _)| o == first) => Some(*first),
            _ => None,
        };
        let object_kind = same_object
            .and_then(|o| explorer.objects().get(o.index()))
            .map(|o| o.name());
        out.push(CriticalInfo {
            config: idx,
            pending,
            same_object,
            object_kind,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Explorer, Limits};
    use lbsa_core::{AnyObject, Op};
    use lbsa_runtime::process::{Protocol, Step};

    /// Two processes propose their own pid to one consensus object.
    #[derive(Debug)]
    struct RaceConsensus;

    impl Protocol for RaceConsensus {
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

    #[test]
    fn initial_config_of_a_race_is_bivalent() {
        let p = RaceConsensus;
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let va = ValencyAnalysis::analyze(&g);
        assert!(va.exact);
        // Before anyone moves, either value can win: bivalent.
        assert_eq!(
            va.valence(0),
            Valence::Multivalent(vec![Value::Int(0), Value::Int(1)])
        );
        // After the first propose, the winner is fixed: every successor of
        // the initial configuration is univalent, so config 0 is critical.
        let crit = va.critical_configurations(&g);
        assert!(
            crit.contains(&0),
            "the race's initial configuration is critical"
        );
    }

    #[test]
    fn univalent_after_first_step() {
        let p = RaceConsensus;
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let g = ex.exploration().run().unwrap();
        let va = ValencyAnalysis::analyze(&g);
        for e in &g.edges[0] {
            let v = va.valence(e.target);
            assert_eq!(v.univalent_value(), Some(Value::Int(e.pid.index() as i64)));
            assert!(!v.is_multivalent());
        }
    }

    #[test]
    fn census_adds_up() {
        let p = RaceConsensus;
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let va = ValencyAnalysis::analyze(&g);
        let (b, u, m) = va.census();
        assert_eq!(b + u + m, va.len());
        assert_eq!(
            b, 0,
            "every configuration of this protocol leads to decisions"
        );
        assert!(m >= 1, "the initial configuration is multivalent");
        assert!(u >= 2);
    }

    /// A protocol that never decides: all configurations are barren.
    #[derive(Debug)]
    struct NeverDecide;

    impl Protocol for NeverDecide {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            1
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Read)
        }
        fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
            Step::Continue(())
        }
    }

    #[test]
    fn non_deciding_protocol_is_barren() {
        let p = NeverDecide;
        let objects = vec![AnyObject::register()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let va = ValencyAnalysis::analyze(&g);
        for i in 0..va.len() {
            assert_eq!(va.valence(i), Valence::Barren);
        }
        assert!(va.critical_configurations(&g).is_empty());
    }

    #[test]
    fn truncated_graphs_are_flagged_inexact() {
        let p = RaceConsensus;
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects)
            .exploration()
            .limits(Limits::new(1))
            .run()
            .unwrap();
        let va = ValencyAnalysis::analyze(&g);
        assert!(!va.exact);
    }

    #[test]
    fn claim_4_2_7_critical_configs_converge_on_one_object() {
        // A two-object protocol: each process first writes a register, then
        // proposes to consensus. The critical configuration must have BOTH
        // processes poised on the consensus object — never the registers.
        #[derive(Debug)]
        struct WriteThenPropose;
        impl Protocol for WriteThenPropose {
            type LocalState = bool; // written yet?
            fn num_processes(&self) -> usize {
                2
            }
            fn init(&self, _pid: Pid) -> bool {
                false
            }
            fn pending_op(&self, pid: Pid, s: &bool) -> (ObjId, Op) {
                if !s {
                    (
                        ObjId(1 + pid.index()),
                        Op::Write(Value::Int(pid.index() as i64)),
                    )
                } else {
                    (ObjId(0), Op::Propose(Value::Int(pid.index() as i64)))
                }
            }
            fn on_response(&self, _pid: Pid, s: &bool, resp: Value) -> Step<bool> {
                if !s {
                    Step::Continue(true)
                } else {
                    Step::Decide(resp)
                }
            }
        }
        let p = WriteThenPropose;
        let objects = vec![
            AnyObject::consensus(2).unwrap(),
            AnyObject::register(),
            AnyObject::register(),
        ];
        let ex = Explorer::new(&p, &objects);
        let g = ex.exploration().run().unwrap();
        let va = ValencyAnalysis::analyze(&g);
        let anatomy = critical_anatomy(&ex, &g, &va).unwrap();
        assert!(!anatomy.is_empty(), "a decision step must exist");
        for info in &anatomy {
            assert_eq!(
                info.same_object,
                Some(ObjId(0)),
                "claim 4.2.7: all processes poised on the same object at {}",
                info.config
            );
            assert_eq!(
                info.object_kind,
                Some("n-consensus"),
                "claim 4.2.8: not a register"
            );
            assert_eq!(info.pending.len(), 2);
        }
    }

    #[test]
    fn critical_anatomy_of_the_plain_race() {
        let p = RaceConsensus;
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let g = ex.exploration().run().unwrap();
        let va = ValencyAnalysis::analyze(&g);
        let anatomy = critical_anatomy(&ex, &g, &va).unwrap();
        assert_eq!(anatomy.len(), 1);
        assert_eq!(
            anatomy[0].config, 0,
            "the initial configuration is the critical one"
        );
        assert_eq!(anatomy[0].same_object, Some(ObjId(0)));
    }
}
