//! Global configurations: the nodes of the execution graph.

use lbsa_core::{AnyState, ObjId, Pid, Value};
use lbsa_runtime::process::ProcStatus;
use std::fmt::Debug;
use std::hash::Hash;

/// A global configuration: the state of every shared object plus the status
/// (and local state) of every process.
///
/// Configurations are plain first-order data — `Clone + Eq + Hash` — which is
/// what allows exhaustive exploration to deduplicate them. Two executions
/// that reach the same configuration have identical futures (protocols and
/// specs are deterministic functions of the configuration), so merging them
/// is sound.
///
/// The `Ord` derive (available when the local state is `Ord`) is a pure
/// *content* order: symmetry reduction picks the minimum of an orbit under
/// it as the canonical representative. Interned ids must never be compared
/// for this purpose — interning order differs between runs and thread
/// counts, while content order does not.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Configuration<L> {
    /// State of each shared object, indexed by `ObjId`.
    pub object_states: Vec<AnyState>,
    /// Status of each process, indexed by `Pid`.
    pub procs: Vec<ProcStatus<L>>,
}

impl<L: Clone + Eq + Hash + Debug> Configuration<L> {
    /// The pids currently able to take a step.
    #[must_use]
    pub fn enabled_pids(&self) -> Vec<Pid> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_running())
            .map(|(i, _)| Pid(i))
            .collect()
    }

    /// Returns `true` if no process can take a step.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        self.procs.iter().all(|s| !s.is_running())
    }

    /// Each process's decision so far.
    #[must_use]
    pub fn decisions(&self) -> Vec<Option<Value>> {
        self.procs.iter().map(ProcStatus::decision).collect()
    }

    /// The distinct values decided so far, sorted.
    #[must_use]
    pub fn distinct_decisions(&self) -> Vec<Value> {
        let mut vs: Vec<Value> = self.procs.iter().filter_map(ProcStatus::decision).collect();
        vs.sort();
        vs.dedup();
        vs
    }

    /// Returns `true` if every process has decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.procs.iter().all(|s| s.decision().is_some())
    }

    /// The configuration one step of `pid` on `obj` leads to: this one with
    /// that object's state and that process's status replaced. It is built
    /// from parts, so the two replaced slots are never cloned.
    pub(crate) fn after(
        &self,
        obj: ObjId,
        obj_state: AnyState,
        pid: Pid,
        status: ProcStatus<L>,
    ) -> Self {
        Configuration {
            object_states: patched(&self.object_states, obj.index(), obj_state),
            procs: patched(&self.procs, pid.index(), status),
        }
    }

    /// Returns `true` if `pid` has aborted.
    #[must_use]
    pub fn has_aborted(&self, pid: Pid) -> bool {
        matches!(self.procs.get(pid.index()), Some(ProcStatus::Aborted))
    }
}

/// A copy of `items` with slot `at` holding `value`.
fn patched<T: Clone>(items: &[T], at: usize, value: T) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len());
    out.extend_from_slice(&items[..at]);
    out.push(value);
    out.extend_from_slice(&items[at + 1..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::spec::ObjectSpec;
    use lbsa_core::AnyObject;

    fn cfg(procs: Vec<ProcStatus<u8>>) -> Configuration<u8> {
        Configuration {
            object_states: vec![AnyObject::register().initial_state()],
            procs,
        }
    }

    #[test]
    fn enabled_and_terminal() {
        let c = cfg(vec![
            ProcStatus::Running(0),
            ProcStatus::Decided(Value::Int(1)),
        ]);
        assert_eq!(c.enabled_pids(), vec![Pid(0)]);
        assert!(!c.is_terminal());
        let c = cfg(vec![
            ProcStatus::Decided(Value::Int(1)),
            ProcStatus::Crashed,
        ]);
        assert!(c.is_terminal());
        assert!(c.enabled_pids().is_empty());
    }

    #[test]
    fn decision_queries() {
        let c = cfg(vec![
            ProcStatus::Decided(Value::Int(2)),
            ProcStatus::Decided(Value::Int(1)),
            ProcStatus::Decided(Value::Int(2)),
            ProcStatus::Running(0),
        ]);
        assert_eq!(c.distinct_decisions(), vec![Value::Int(1), Value::Int(2)]);
        assert!(!c.all_decided());
        let c = cfg(vec![ProcStatus::Decided(Value::Int(2))]);
        assert!(c.all_decided());
    }

    #[test]
    fn abort_query() {
        let c = cfg(vec![ProcStatus::Aborted, ProcStatus::Running(0)]);
        assert!(c.has_aborted(Pid(0)));
        assert!(!c.has_aborted(Pid(1)));
        assert!(!c.has_aborted(Pid(9)));
    }

    #[test]
    fn configurations_dedupe_in_hash_sets() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(cfg(vec![ProcStatus::Running(0)]));
        set.insert(cfg(vec![ProcStatus::Running(0)]));
        set.insert(cfg(vec![ProcStatus::Running(1)]));
        assert_eq!(set.len(), 2);
    }
}
