//! Protocols: deterministic per-process step machines, and process statuses.

use lbsa_core::{AnyState, ObjId, Pid, Value};
use std::fmt::Debug;
use std::hash::Hash;

/// The effect of consuming a response, from the process's point of view.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Step<S> {
    /// Keep running with a new local state.
    Continue(S),
    /// Decide the given value and halt (the process has produced its
    /// output; it takes no further steps).
    Decide(Value),
    /// Abort and halt. Only the n-DAC problem's distinguished process ever
    /// aborts; for all other protocols this variant is unused.
    Abort,
    /// Halt without deciding (used by helper protocols whose processes have
    /// no output, e.g. history generators).
    Halt,
}

/// The status of a process inside a running system.
///
/// The `Ord` derive gives statuses (and through them whole configurations)
/// a total *content* order, which is what symmetry reduction minimizes over
/// when picking a canonical orbit representative — interned ids cannot be
/// used for that, because interning order varies run to run.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcStatus<S> {
    /// The process is running and its next step is determined by its local
    /// state.
    Running(S),
    /// The process decided a value.
    Decided(Value),
    /// The process aborted (n-DAC distinguished process only).
    Aborted,
    /// The process halted without deciding.
    Halted,
    /// The process crashed: it never takes another step.
    Crashed,
}

impl<S> ProcStatus<S> {
    /// Returns `true` if the process can still take steps.
    #[must_use]
    pub fn is_running(&self) -> bool {
        matches!(self, ProcStatus::Running(_))
    }

    /// Returns the decided value, if the process has decided.
    #[must_use]
    pub fn decision(&self) -> Option<Value> {
        match self {
            ProcStatus::Decided(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the running local state, if any.
    #[must_use]
    pub fn local(&self) -> Option<&S> {
        match self {
            ProcStatus::Running(s) => Some(s),
            _ => None,
        }
    }
}

/// A deterministic asynchronous protocol for a fixed set of processes.
///
/// This is the paper's model of an *algorithm*: each process is a
/// deterministic automaton; in every local state it has exactly one pending
/// operation on one shared object ([`Protocol::pending_op`]), and its
/// transition on the operation's response ([`Protocol::on_response`]) is a
/// function. All scheduling nondeterminism lives in the
/// [`crate::scheduler::Scheduler`]; all object nondeterminism lives in the
/// [`crate::outcome::OutcomeResolver`].
///
/// Local states must be `Clone + Eq + Hash` so that whole configurations can
/// be deduplicated during exhaustive exploration, and protocols and their
/// local states must be `Sync`/`Send`: a protocol is pure data plus pure
/// functions, which lets the explorer expand disjoint parts of the frontier
/// from several threads at once.
///
/// # Determinism contract
///
/// For a fixed `pid` and local state, `pending_op` and `on_response` must be
/// pure functions. The explorer *relies* on this: it re-invokes them freely
/// while replaying branches, concurrently.
pub trait Protocol: Debug + Sync {
    /// Per-process local state.
    type LocalState: Clone + Eq + Hash + Debug + Send + Sync;

    /// Number of processes executing this protocol. Process ids are
    /// `Pid(0) .. Pid(num_processes() - 1)`.
    fn num_processes(&self) -> usize;

    /// The initial local state of process `pid`.
    fn init(&self, pid: Pid) -> Self::LocalState;

    /// The operation process `pid` applies in local state `state`: the
    /// target object and the operation.
    fn pending_op(&self, pid: Pid, state: &Self::LocalState) -> (ObjId, Op);

    /// Consume the response of the pending operation and transition.
    fn on_response(
        &self,
        pid: Pid,
        state: &Self::LocalState,
        response: Value,
    ) -> Step<Self::LocalState>;
}

use lbsa_core::Op;

/// Opt-in declaration that a protocol is **symmetric under process-id
/// permutation** — the hook the explorer's symmetry reduction keys off.
///
/// A protocol implements this trait to declare which processes are
/// *interchangeable*: [`Symmetry::pid_classes`] partitions the pids into
/// classes, and any permutation `π` that maps each class onto itself must
/// satisfy the **equivariance law**
///
/// ```text
/// step(π · C, π(p), o)  ≃  π · step(C, p, o)
/// ```
///
/// where `π · C` permutes a configuration by relocating process `i`'s
/// status to slot `π(i)` and rewriting every object state through
/// [`Symmetry::permute_object_state`] — i.e. permuting the processes of an
/// execution yields another execution of the same protocol, step for step.
/// `≃` is equality up to the order in which a nondeterministic object lists
/// its outcomes; the explorer's witness de-canonicalization matches
/// successors by configuration content, never by outcome index, precisely
/// so that sorted-set object states (whose outcome order is not equivariant)
/// stay admissible.
///
/// **Local states are pid-free.** A process's local state must not mention
/// any pid, so relocating a status is the whole of its permutation. The
/// explorer relies on this: it canonicalizes by *sorting* the statuses of
/// each class, which is an orbit minimum only because a status means the
/// same thing in every slot. Pid-derived structure belongs in object
/// states, where `permute_object_state` rewrites it.
///
/// In practice the law holds when processes in one class run identical code
/// with identical inputs and any pid-derived identity they write into an
/// object (a label, a port) is permuted consistently by
/// `permute_object_state`. Distinguished roles — e.g. the n-DAC process
/// allowed to abort — must be singleton classes, which also keeps every
/// checker predicate that names a specific pid orbit-invariant.
pub trait Symmetry: Protocol {
    /// Partition of the pids into interchangeability classes: processes `i`
    /// and `j` may be swapped iff `pid_classes()[i] == pid_classes()[j]`.
    /// Must return exactly [`Protocol::num_processes`] entries. Returning
    /// pairwise-distinct classes declares the trivial group (no reduction).
    fn pid_classes(&self) -> Vec<u32>;

    /// Applies pid permutation `perm` (`perm[i]` is the new pid of process
    /// `i`) to the state of object `obj`. The default is the identity —
    /// correct whenever object states carry no pid-derived structure
    /// (registers, consensus, 2-SA). Objects indexed by per-process labels
    /// (n-PAC) must permute that structure here.
    fn permute_object_state(&self, obj: ObjId, state: &AnyState, perm: &[usize]) -> AnyState {
        let _ = (obj, perm);
        state.clone()
    }
}

/// Pid classes grouping processes with equal entries of `inputs` — the
/// common [`Symmetry::pid_classes`] answer for input-parameterized protocols
/// whose per-process behaviour depends only on the input value (each class
/// is labelled by the first position carrying that input).
///
/// # Panics
///
/// Panics if more than `u32::MAX` processes are given.
#[must_use]
pub fn classes_by_input<T: PartialEq>(inputs: &[T]) -> Vec<u32> {
    inputs
        .iter()
        .map(|v| {
            let first = inputs.iter().position(|w| w == v).expect("v is in inputs");
            u32::try_from(first).expect("process count fits in u32")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_accessors() {
        let s: ProcStatus<u8> = ProcStatus::Running(3);
        assert!(s.is_running());
        assert_eq!(s.local(), Some(&3));
        assert_eq!(s.decision(), None);

        let s: ProcStatus<u8> = ProcStatus::Decided(Value::Int(1));
        assert!(!s.is_running());
        assert_eq!(s.decision(), Some(Value::Int(1)));
        assert_eq!(s.local(), None);

        for s in [
            ProcStatus::<u8>::Aborted,
            ProcStatus::Halted,
            ProcStatus::Crashed,
        ] {
            assert!(!s.is_running());
            assert_eq!(s.decision(), None);
        }
    }
}
