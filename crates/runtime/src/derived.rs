//! Wait-free **derived objects**: the paper's implementation relation, made
//! executable.
//!
//! "Object `A` can be implemented from instances of `B` and registers" means:
//! there is an *access procedure* such that each operation on (a front-end
//! presenting) `A` is executed as a finite sequence of atomic steps on base
//! objects, and the resulting concurrent front-end histories are
//! linearizable with respect to `A`'s sequential specification.
//!
//! [`AccessProcedure`] is the access procedure; [`DerivedProtocol`] is a
//! *protocol transformer* that takes any [`Protocol`] written against
//! front-end objects and produces an ordinary [`Protocol`] against the base
//! objects. Because the transformed protocol is just another protocol, every
//! tool in the workspace — concrete schedulers, the exhaustive explorer, the
//! bivalency adversary — applies to implemented objects exactly as to native
//! ones. This is what lets experiment T5 attack candidate implementations of
//! `Oₙ` from `O'ₙ` + registers with the very adversary machinery of
//! Theorem 4.2.
//!
//! [`record_frontend_history`] runs a derived protocol and reconstructs the
//! *concurrent* front-end history (invocation/response intervals), which the
//! linearizability checker in `lbsa-explorer` validates against the target
//! specification.

use crate::error::RuntimeError;
use crate::outcome::OutcomeResolver;
use crate::process::{ProcStatus, Protocol, Step};
use crate::scheduler::Scheduler;
use crate::system::{RunEnd, RunResult, System};
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// The effect of consuming a base-object response inside an access
/// procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessStep<S> {
    /// The access continues with more base steps.
    Continue(S),
    /// The front-end operation completes with this response.
    Return(Value),
}

/// An access procedure: how one front-end operation is executed as a
/// sequence of atomic base-object steps.
///
/// The procedure must be **deterministic** and **wait-free**: `pending` and
/// `resume` are pure functions, and every front-end operation must complete
/// in a bounded number of base steps regardless of interleaving.
pub trait AccessProcedure: Debug + Sync {
    /// Per-access bookkeeping state (program counter + scratch).
    type ProcState: Clone + Eq + Hash + Debug + Send + Sync;

    /// Starts executing `op`, invoked by `pid` on front-end object `front`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `op` is not part of the front-end
    /// object's interface — that is a bug in the calling protocol, akin to a
    /// type error.
    fn begin(&self, pid: Pid, front: ObjId, op: &Op) -> Self::ProcState;

    /// The next base step: an index into the front-end's base-object list
    /// (see [`FrontEnd::Derived`]) and the operation to apply there.
    fn pending(&self, pid: Pid, state: &Self::ProcState) -> (usize, Op);

    /// Consumes the base response: continue the access or return.
    fn resume(
        &self,
        pid: Pid,
        state: &Self::ProcState,
        response: Value,
    ) -> AccessStep<Self::ProcState>;
}

/// How one front-end object id is realized over the base system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrontEnd {
    /// The front-end object *is* a base object: operations pass through
    /// unchanged, one atomic step each.
    Native {
        /// The base object backing this front-end id.
        base: ObjId,
    },
    /// The front-end object is implemented by the access procedure over the
    /// listed base objects. The procedure addresses them by index into this
    /// list.
    Derived {
        /// Base objects available to the access procedure, in procedure
        /// index order.
        base: Vec<ObjId>,
    },
}

/// A front-end operation that completed during a run: the concurrent-history
/// record consumed by the linearizability checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompletedOp {
    /// The invoking process.
    pub pid: Pid,
    /// The front-end object.
    pub obj: ObjId,
    /// The front-end operation.
    pub op: Op,
    /// The front-end response.
    pub response: Value,
    /// Global step index of the access's first base step (invocation).
    pub invoked_at: usize,
    /// Global step index of the access's last base step (response).
    pub responded_at: usize,
}

/// Local state of a transformed process: the inner protocol's state plus the
/// in-progress access, if any.
///
/// `last_completed` and `completed_count` are *observational* fields used by
/// [`record_frontend_history`]; they are excluded from `Eq`/`Hash` so that
/// exhaustive exploration does not distinguish configurations by them.
#[derive(Clone, Debug)]
pub struct DerivedLocal<L, S> {
    /// The inner protocol's local state.
    pub inner: L,
    /// The in-progress access: (front-end object index, procedure state).
    pub access: Option<(usize, S)>,
    /// The most recently completed front-end operation (observational).
    pub last_completed: Option<(ObjId, Op, Value)>,
    /// Number of front-end operations completed so far (observational).
    pub completed_count: u64,
}

impl<L: PartialEq, S: PartialEq> PartialEq for DerivedLocal<L, S> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner && self.access == other.access
    }
}

impl<L: Eq, S: Eq> Eq for DerivedLocal<L, S> {}

impl<L: Hash, S: Hash> Hash for DerivedLocal<L, S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.hash(state);
        self.access.hash(state);
    }
}

/// A protocol transformer: runs `inner` (written against front-end objects)
/// over base objects, expanding derived front-end operations through an
/// [`AccessProcedure`].
///
/// See the crate docs of `lbsa-protocols` for the concrete access procedures
/// from the paper (Observation 5.1, Lemma 6.4).
#[derive(Debug)]
pub struct DerivedProtocol<'a, P, A> {
    inner: &'a P,
    procedure: &'a A,
    frontends: Vec<FrontEnd>,
}

impl<'a, P: Protocol, A: AccessProcedure> DerivedProtocol<'a, P, A> {
    /// Creates the transformed protocol.
    ///
    /// `frontends[i]` describes how the inner protocol's `ObjId(i)` is
    /// realized over the base system.
    #[must_use]
    pub fn new(inner: &'a P, procedure: &'a A, frontends: Vec<FrontEnd>) -> Self {
        DerivedProtocol {
            inner,
            procedure,
            frontends,
        }
    }

    /// The front-end layout.
    #[must_use]
    pub fn frontends(&self) -> &[FrontEnd] {
        &self.frontends
    }

    /// The wrapped inner protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        self.inner
    }

    /// The access procedure.
    #[must_use]
    pub fn procedure(&self) -> &A {
        self.procedure
    }

    fn frontend(&self, front: ObjId) -> &FrontEnd {
        self.frontends
            .get(front.index())
            .unwrap_or_else(|| panic!("inner protocol targeted unknown front-end object {front}"))
    }

    fn map_base(&self, front_idx: usize, base_idx: usize) -> ObjId {
        match &self.frontends[front_idx] {
            FrontEnd::Derived { base } => *base.get(base_idx).unwrap_or_else(|| {
                panic!("access procedure addressed base index {base_idx} of front-end obj{front_idx}, which has only {} base objects", base.len())
            }),
            FrontEnd::Native { .. } => {
                panic!("access state exists for native front-end obj{front_idx}")
            }
        }
    }
}

impl<'a, P: Protocol, A: AccessProcedure> Protocol for DerivedProtocol<'a, P, A> {
    type LocalState = DerivedLocal<P::LocalState, A::ProcState>;

    fn num_processes(&self) -> usize {
        self.inner.num_processes()
    }

    fn init(&self, pid: Pid) -> Self::LocalState {
        DerivedLocal {
            inner: self.inner.init(pid),
            access: None,
            last_completed: None,
            completed_count: 0,
        }
    }

    fn pending_op(&self, pid: Pid, state: &Self::LocalState) -> (ObjId, Op) {
        if let Some((front_idx, acc)) = &state.access {
            let (base_idx, op) = self.procedure.pending(pid, acc);
            return (self.map_base(*front_idx, base_idx), op);
        }
        let (front, op) = self.inner.pending_op(pid, &state.inner);
        match self.frontend(front) {
            FrontEnd::Native { base } => (*base, op),
            FrontEnd::Derived { .. } => {
                // The access has not started yet; compute its first base step
                // on the fly (begin is deterministic, so on_response will
                // recompute the same state).
                let acc = self.procedure.begin(pid, front, &op);
                let (base_idx, base_op) = self.procedure.pending(pid, &acc);
                (self.map_base(front.index(), base_idx), base_op)
            }
        }
    }

    fn on_response(
        &self,
        pid: Pid,
        state: &Self::LocalState,
        response: Value,
    ) -> Step<Self::LocalState> {
        // Determine the access state this response belongs to.
        let (front, acc) = match &state.access {
            Some((front_idx, acc)) => (ObjId(*front_idx), acc.clone()),
            None => {
                let (front, op) = self.inner.pending_op(pid, &state.inner);
                match self.frontend(front) {
                    FrontEnd::Native { .. } => {
                        // Single-step native op: complete immediately.
                        return self.complete(pid, state, front, response);
                    }
                    FrontEnd::Derived { .. } => (front, self.procedure.begin(pid, front, &op)),
                }
            }
        };
        match self.procedure.resume(pid, &acc, response) {
            AccessStep::Continue(next_acc) => Step::Continue(DerivedLocal {
                inner: state.inner.clone(),
                access: Some((front.index(), next_acc)),
                last_completed: state.last_completed,
                completed_count: state.completed_count,
            }),
            AccessStep::Return(v) => self.complete(pid, state, front, v),
        }
    }
}

impl<'a, P: Protocol, A: AccessProcedure> DerivedProtocol<'a, P, A> {
    fn complete(
        &self,
        pid: Pid,
        state: &DerivedLocal<P::LocalState, A::ProcState>,
        front: ObjId,
        response: Value,
    ) -> Step<DerivedLocal<P::LocalState, A::ProcState>> {
        let (_, op) = self.inner.pending_op(pid, &state.inner);
        match self.inner.on_response(pid, &state.inner, response) {
            Step::Continue(next_inner) => Step::Continue(DerivedLocal {
                inner: next_inner,
                access: None,
                last_completed: Some((front, op, response)),
                completed_count: state.completed_count + 1,
            }),
            Step::Decide(v) => Step::Decide(v),
            Step::Abort => Step::Abort,
            Step::Halt => Step::Halt,
        }
    }
}

/// Runs a derived protocol to completion, reconstructing the concurrent
/// front-end history.
///
/// Returns the completed front-end operations (with invocation/response step
/// indices) and the run result. Front-end operations still in progress when
/// the run ends are *pending* and are not reported; this is sound because a
/// truly pending operation has not returned to anyone. Operations whose
/// completion coincides with the process's final transition (the last
/// response drives a Decide/Abort/Halt) **are** recorded: their front-end
/// response is reconstructed by replaying the final base response through
/// the access procedure, since later operations of other processes may
/// depend on their effect.
///
/// # Errors
///
/// Propagates runtime errors from stepping the system.
pub fn record_frontend_history<P, A, S, R>(
    protocol: &DerivedProtocol<'_, P, A>,
    objects: &[AnyObject],
    scheduler: &mut S,
    resolver: &mut R,
    max_steps: usize,
) -> Result<(Vec<CompletedOp>, RunResult), RuntimeError>
where
    P: Protocol,
    A: AccessProcedure,
    S: Scheduler,
    R: OutcomeResolver,
{
    let mut sys = System::new(protocol, objects)?;
    let n = protocol.num_processes();
    let mut history: Vec<CompletedOp> = Vec::new();
    // Per-pid: invocation step of the in-progress access, and completions seen.
    let mut invoked_at: Vec<Option<usize>> = vec![None; n];
    let mut seen_count: Vec<u64> = vec![0; n];

    let end = loop {
        let enabled = sys.enabled_pids();
        if enabled.is_empty() {
            break RunEnd::Quiescent;
        }
        if sys.steps() >= max_steps {
            break RunEnd::MaxSteps;
        }
        let Some(pid) = scheduler.next_pid(enabled) else {
            break RunEnd::SchedulerStopped;
        };
        let i = pid.index();
        let pre_step_local = match &sys.statuses()[i] {
            ProcStatus::Running(local) => local.clone(),
            _ => unreachable!("scheduler only picks enabled pids"),
        };
        // Does this step begin a new front-end operation?
        let starting_fresh = pre_step_local.access.is_none();
        let step_index = sys.steps();
        if starting_fresh {
            invoked_at[i] = Some(step_index);
        }
        sys.step_pid(pid, resolver)?;
        // Did a front-end operation complete?
        match &sys.statuses()[i] {
            ProcStatus::Running(local) => {
                if local.completed_count > seen_count[i] {
                    seen_count[i] = local.completed_count;
                    let (obj, op, response) = local
                        .last_completed
                        .expect("completed_count implies last_completed");
                    history.push(CompletedOp {
                        pid,
                        obj,
                        op,
                        response,
                        invoked_at: invoked_at[i].expect("invocation recorded"),
                        responded_at: step_index,
                    });
                    invoked_at[i] = None;
                }
            }
            // The process ended (decided/aborted/halted): its final
            // front-end operation completed with the base response recorded
            // in the trace. Reconstruct the front-end response by replaying
            // that base response through the access procedure from the
            // pre-step access state.
            _ => {
                let base_resp = sys
                    .trace()
                    .iter()
                    .last()
                    .expect("a step was just executed")
                    .response;
                let (front, op) = protocol.inner().pending_op(pid, &pre_step_local.inner);
                let response = match protocol.frontends().get(front.index()) {
                    Some(FrontEnd::Native { .. }) => Some(base_resp),
                    Some(FrontEnd::Derived { .. }) => {
                        let acc = match &pre_step_local.access {
                            Some((_, acc)) => acc.clone(),
                            None => protocol.procedure().begin(pid, front, &op),
                        };
                        match protocol.procedure().resume(pid, &acc, base_resp) {
                            AccessStep::Return(v) => Some(v),
                            // Unreachable: the process only ends when the
                            // access returns and the inner protocol halts.
                            AccessStep::Continue(_) => None,
                        }
                    }
                    None => None,
                };
                if let Some(response) = response {
                    history.push(CompletedOp {
                        pid,
                        obj: front,
                        op,
                        response,
                        invoked_at: invoked_at[i].unwrap_or(step_index),
                        responded_at: step_index,
                    });
                }
                invoked_at[i] = None;
            }
        }
    };

    Ok((history, sys.result(end)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::FirstOutcome;
    use crate::scheduler::RoundRobin;
    use lbsa_core::value::int;

    /// A front-end "adder" object implemented over two base registers:
    /// WRITE(v) writes v to both registers (2 base steps); READ reads both
    /// and returns their sum (2 base steps).
    #[derive(Debug)]
    struct AdderProcedure;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum AdderState {
        WriteFirst(Value),
        WriteSecond(Value),
        ReadFirst,
        ReadSecond(i64),
    }

    impl AccessProcedure for AdderProcedure {
        type ProcState = AdderState;

        fn begin(&self, _pid: Pid, _front: ObjId, op: &Op) -> AdderState {
            match op {
                Op::Write(v) => AdderState::WriteFirst(*v),
                Op::Read => AdderState::ReadFirst,
                other => panic!("adder does not support {other}"),
            }
        }

        fn pending(&self, _pid: Pid, state: &AdderState) -> (usize, Op) {
            match state {
                AdderState::WriteFirst(v) => (0, Op::Write(*v)),
                AdderState::WriteSecond(v) => (1, Op::Write(*v)),
                AdderState::ReadFirst => (0, Op::Read),
                AdderState::ReadSecond(_) => (1, Op::Read),
            }
        }

        fn resume(&self, _pid: Pid, state: &AdderState, response: Value) -> AccessStep<AdderState> {
            match state {
                AdderState::WriteFirst(v) => AccessStep::Continue(AdderState::WriteSecond(*v)),
                AdderState::WriteSecond(_) => AccessStep::Return(Value::Done),
                AdderState::ReadFirst => {
                    AccessStep::Continue(AdderState::ReadSecond(response.as_int().unwrap_or(0)))
                }
                AdderState::ReadSecond(first) => {
                    AccessStep::Return(int(first + response.as_int().unwrap_or(0)))
                }
            }
        }
    }

    /// Inner protocol: p0 writes 5 to front-end obj0 (the adder) then halts;
    /// p1 proposes to front-end obj1 (native consensus), then reads the adder
    /// and decides the sum.
    #[derive(Debug)]
    struct Inner;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum InnerState {
        P0Write,
        P1Propose,
        P1Read,
    }

    impl Protocol for Inner {
        type LocalState = InnerState;

        fn num_processes(&self) -> usize {
            2
        }

        fn init(&self, pid: Pid) -> InnerState {
            if pid.index() == 0 {
                InnerState::P0Write
            } else {
                InnerState::P1Propose
            }
        }

        fn pending_op(&self, _pid: Pid, state: &InnerState) -> (ObjId, Op) {
            match state {
                InnerState::P0Write => (ObjId(0), Op::Write(int(5))),
                InnerState::P1Propose => (ObjId(1), Op::Propose(int(7))),
                InnerState::P1Read => (ObjId(0), Op::Read),
            }
        }

        fn on_response(&self, _pid: Pid, state: &InnerState, response: Value) -> Step<InnerState> {
            match state {
                InnerState::P0Write => Step::Halt,
                InnerState::P1Propose => Step::Continue(InnerState::P1Read),
                InnerState::P1Read => Step::Decide(response),
            }
        }
    }

    fn build() -> (Vec<AnyObject>, Vec<FrontEnd>) {
        // Base system: two registers (for the adder) + one native consensus.
        let objects = vec![
            AnyObject::register(),
            AnyObject::register(),
            AnyObject::consensus(2).unwrap(),
        ];
        let frontends = vec![
            FrontEnd::Derived {
                base: vec![ObjId(0), ObjId(1)],
            },
            FrontEnd::Native { base: ObjId(2) },
        ];
        (objects, frontends)
    }

    #[test]
    fn derived_ops_expand_to_base_steps() {
        let inner = Inner;
        let proc_ = AdderProcedure;
        let (objects, frontends) = build();
        let derived = DerivedProtocol::new(&inner, &proc_, frontends);
        let mut sys = System::new(&derived, &objects).unwrap();
        let res = sys
            .run(&mut RoundRobin::new(), &mut FirstOutcome, 100)
            .unwrap();
        assert!(res.is_quiescent());
        // p0's write = 2 base steps; p1's propose = 1, read = 2. Total 5.
        assert_eq!(res.steps, 5);
        // p1 read both registers after p0 wrote 5 to both (round-robin
        // interleaving: p0 w0, p1 propose, p0 w1, p1 r0, p1 r1): decides 10.
        assert_eq!(sys.decision(Pid(1)), Some(int(10)));
    }

    #[test]
    fn frontend_history_is_recorded_with_intervals() {
        let inner = Inner;
        let proc_ = AdderProcedure;
        let (objects, frontends) = build();
        let derived = DerivedProtocol::new(&inner, &proc_, frontends);
        let (history, res) = record_frontend_history(
            &derived,
            &objects,
            &mut RoundRobin::new(),
            &mut FirstOutcome,
            100,
        )
        .unwrap();
        assert!(res.is_quiescent());
        // All three front-end ops are recorded: p1's propose (native,
        // 1 step), p0's write (derived, ends in Halt), and p1's read
        // (derived, ends in Decide).
        assert_eq!(history.len(), 3);
        let propose = history
            .iter()
            .find(|c| c.pid == Pid(1) && c.obj == ObjId(1))
            .unwrap();
        assert_eq!(propose.response, int(7));
        assert_eq!(propose.invoked_at, propose.responded_at);
        let write = history.iter().find(|c| c.pid == Pid(0)).unwrap();
        assert_eq!(write.response, Value::Done);
        assert!(
            write.invoked_at < write.responded_at,
            "the write spans two base steps"
        );
        let read = history
            .iter()
            .find(|c| c.pid == Pid(1) && c.obj == ObjId(0))
            .unwrap();
        assert_eq!(read.response, int(10));
    }

    #[test]
    fn frontend_history_reports_aborted_processes() {
        // p0 proposes through the native front-end and aborts; p1 proposes
        // and decides.
        #[derive(Debug)]
        struct ProposeThenAbort;
        impl Protocol for ProposeThenAbort {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                2
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(1), Op::Propose(int(pid.index() as i64 + 1)))
            }
            fn on_response(&self, pid: Pid, _s: &(), resp: Value) -> Step<()> {
                if pid.index() == 0 {
                    Step::Abort
                } else {
                    Step::Decide(resp)
                }
            }
        }
        let inner = ProposeThenAbort;
        let proc_ = AdderProcedure;
        let (objects, frontends) = build();
        let derived = DerivedProtocol::new(&inner, &proc_, frontends);
        let (history, res) = record_frontend_history(
            &derived,
            &objects,
            &mut RoundRobin::new(),
            &mut FirstOutcome,
            100,
        )
        .unwrap();
        assert!(res.is_quiescent());
        assert_eq!(res.aborted, vec![Pid(0)]);
        assert!(res.crashed.is_empty());
        assert_eq!(res.decisions, vec![None, Some(int(1))]);
        assert_eq!(history.len(), 2, "the aborting propose still completed");
    }

    #[test]
    fn observational_fields_do_not_affect_identity() {
        let a: DerivedLocal<u8, u8> = DerivedLocal {
            inner: 1,
            access: None,
            last_completed: None,
            completed_count: 0,
        };
        let b: DerivedLocal<u8, u8> = DerivedLocal {
            inner: 1,
            access: None,
            last_completed: Some((ObjId(0), Op::Read, Value::Nil)),
            completed_count: 9,
        };
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let h = |x: &DerivedLocal<u8, u8>| {
            let mut hasher = DefaultHasher::new();
            x.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn native_frontend_passes_through() {
        // A protocol that uses only the native front-end behaves as if run
        // directly on the base object.
        #[derive(Debug)]
        struct ProposeOnly;
        impl Protocol for ProposeOnly {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                2
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(1), Op::Propose(int(pid.index() as i64 + 1)))
            }
            fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
                Step::Decide(resp)
            }
        }
        let inner = ProposeOnly;
        let proc_ = AdderProcedure;
        let (objects, frontends) = build();
        let derived = DerivedProtocol::new(&inner, &proc_, frontends);
        let mut sys = System::new(&derived, &objects).unwrap();
        let res = sys
            .run(&mut RoundRobin::new(), &mut FirstOutcome, 100)
            .unwrap();
        assert_eq!(res.distinct_decisions(), vec![int(1)]);
    }

    #[test]
    #[should_panic(expected = "unknown front-end")]
    fn unknown_frontend_panics() {
        #[derive(Debug)]
        struct Bad;
        impl Protocol for Bad {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                1
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(9), Op::Read)
            }
            fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
                Step::Halt
            }
        }
        let inner = Bad;
        let proc_ = AdderProcedure;
        let (objects, frontends) = build();
        let derived = DerivedProtocol::new(&inner, &proc_, frontends);
        let mut sys = System::new(&derived, &objects).unwrap();
        let _ = sys.run(&mut RoundRobin::new(), &mut FirstOutcome, 10);
    }

    #[test]
    fn initial_state_has_no_access() {
        let inner = Inner;
        let proc_ = AdderProcedure;
        let (_, frontends) = build();
        let derived = DerivedProtocol::new(&inner, &proc_, frontends);
        let s = derived.init(Pid(0));
        assert!(s.access.is_none());
        assert_eq!(s.completed_count, 0);
        assert_eq!(derived.num_processes(), 2);
        assert_eq!(derived.frontends().len(), 2);
    }
}
