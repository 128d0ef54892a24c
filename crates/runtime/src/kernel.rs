//! The step kernel: the one definition of an atomic step.
//!
//! In the paper's model a step is one rule: a process applies its pending
//! operation to one linearizable object, and the response drives its next
//! local state. [`StepKernel`] is that rule. `System`, both exploration
//! engines and witness replay step through it, so exhaustive search,
//! sampling and replay cannot disagree on what a step does.
//!
//! [`StepKernel::begin`] lists the admissible outcomes; the caller then
//! follows one ([`PendingStep::take`]) or all ([`PendingStep::for_each`]).

use crate::error::RuntimeError;
use crate::process::{ProcStatus, Protocol, Step};
use lbsa_core::spec::{ObjectSpec, Outcomes};
use lbsa_core::{AnyObject, AnyState, ObjId, Op, Pid, Value};

/// The step rule of one protocol over one object table.
#[derive(Debug)]
pub struct StepKernel<'a, P: Protocol> {
    protocol: &'a P,
    objects: &'a [AnyObject],
}

impl<'a, P: Protocol> StepKernel<'a, P> {
    /// The step rule of `protocol` over `objects`.
    #[must_use]
    pub fn new(protocol: &'a P, objects: &'a [AnyObject]) -> Self {
        StepKernel { protocol, objects }
    }

    /// The protocol whose steps this kernel takes.
    #[must_use]
    pub fn protocol(&self) -> &'a P {
        self.protocol
    }

    /// The object table.
    #[must_use]
    pub fn objects(&self) -> &'a [AnyObject] {
        self.objects
    }

    /// Begins a step of `pid` in the configuration `object_states` and
    /// `procs`: looks up its running local state, range-checks the target
    /// object and asks its specification for every admissible outcome.
    /// `pending` is `pid`'s pending operation if the caller already has it
    /// (the engines need it for their memo keys); `None` computes it.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::PidOutOfRange`] if `procs` has no slot for
    /// `pid`, [`RuntimeError::ProcessNotRunning`] if `pid` cannot step,
    /// [`RuntimeError::ObjIdOutOfRange`] if the target object lies outside
    /// the object table or outside `object_states`, and propagates
    /// specification errors.
    #[inline]
    pub fn begin<'c>(
        &self,
        object_states: &[AnyState],
        procs: &'c [ProcStatus<P::LocalState>],
        pid: Pid,
        pending: Option<(ObjId, Op)>,
    ) -> Result<PendingStep<'a, 'c, P>, RuntimeError> {
        let len = procs.len();
        let local = match procs.get(pid.index()) {
            None => return Err(RuntimeError::PidOutOfRange { pid, len }),
            Some(ProcStatus::Running(s)) => s,
            Some(_) => return Err(RuntimeError::ProcessNotRunning(pid)),
        };
        let (obj, op) = pending.unwrap_or_else(|| self.protocol.pending_op(pid, local));
        let Some(state) = object_states.get(obj.index()) else {
            let len = self.objects.len().min(object_states.len());
            return Err(RuntimeError::ObjIdOutOfRange { obj, len });
        };
        self.begin_at(pid, local, (obj, op), state)
    }

    /// The part of [`StepKernel::begin`] past the configuration lookups:
    /// `pid`, running in local state `local`, applies `op` to object `obj`,
    /// whose state is `state`. For callers that hold a configuration's
    /// parts rather than the configuration (the exploration engines keep
    /// interned ids).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ObjIdOutOfRange`] if `obj` lies outside the
    /// object table, and propagates specification errors.
    #[inline]
    pub fn begin_at<'c>(
        &self,
        pid: Pid,
        local: &'c P::LocalState,
        (obj, op): (ObjId, Op),
        state: &AnyState,
    ) -> Result<PendingStep<'a, 'c, P>, RuntimeError> {
        let Some(spec) = self.objects.get(obj.index()) else {
            let len = self.objects.len();
            return Err(RuntimeError::ObjIdOutOfRange { obj, len });
        };
        Ok(PendingStep {
            protocol: self.protocol,
            pid,
            local,
            obj,
            op,
            outcomes: spec.outcomes(state, &op)?,
        })
    }
}

/// A begun step: the object has listed its admissible outcomes and the
/// protocol has not yet seen a response.
#[derive(Debug)]
pub struct PendingStep<'a, 'c, P: Protocol> {
    protocol: &'a P,
    pid: Pid,
    local: &'c P::LocalState,
    obj: ObjId,
    op: Op,
    outcomes: Outcomes<AnyState>,
}

impl<P: Protocol> PendingStep<'_, '_, P> {
    /// The object the step applies its operation to, and the operation.
    #[must_use]
    pub fn pending_op(&self) -> (ObjId, Op) {
        (self.obj, self.op)
    }

    /// The number of admissible outcomes (1 for a deterministic step).
    #[must_use]
    pub fn outcome_count(&self) -> usize {
        self.outcomes.len()
    }

    /// Follows every admissible outcome, in outcome order, handing each
    /// resulting [`Transition`] to `visit`.
    pub fn for_each(self, mut visit: impl FnMut(Transition<P::LocalState>)) {
        for (outcome, (response, obj_state)) in self.outcomes.into_iter().enumerate() {
            let status = respond(self.protocol, self.pid, self.local, response);
            visit(Transition {
                outcome,
                response,
                obj_state,
                status,
            });
        }
    }

    /// Follows outcome `outcome` only.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::OutcomeOutOfRange`] if the object admits
    /// fewer than `outcome + 1` outcomes.
    #[inline]
    pub fn take(self, outcome: usize) -> Result<Transition<P::LocalState>, RuntimeError> {
        let (obj, len) = (self.obj, self.outcomes.len());
        let Some((response, obj_state)) = self.outcomes.into_iter().nth(outcome) else {
            return Err(RuntimeError::OutcomeOutOfRange { obj, outcome, len });
        };
        let status = respond(self.protocol, self.pid, self.local, response);
        Ok(Transition {
            outcome,
            response,
            obj_state,
            status,
        })
    }
}

/// Feeds `response` to `pid`'s protocol and maps the resulting [`Step`] to
/// the process's next status.
fn respond<P: Protocol>(
    protocol: &P,
    pid: Pid,
    local: &P::LocalState,
    response: Value,
) -> ProcStatus<P::LocalState> {
    match protocol.on_response(pid, local, response) {
        Step::Continue(s) => ProcStatus::Running(s),
        Step::Decide(v) => ProcStatus::Decided(v),
        Step::Abort => ProcStatus::Aborted,
        Step::Halt => ProcStatus::Halted,
    }
}

/// One followed outcome of a step: what the object returned, the state it
/// moved to, and the stepping process's status afterwards.
#[derive(Debug, PartialEq, Eq)]
pub struct Transition<L> {
    /// Index of the outcome among the object's admissible ones.
    pub outcome: usize,
    /// The response the object returned.
    pub response: Value,
    /// The object's next state.
    pub obj_state: AnyState,
    /// The process's status after consuming the response.
    pub status: ProcStatus<L>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One process writes its pid to register 0, then decides what it
    /// reads from it.
    #[derive(Debug)]
    struct WriteThenRead;

    impl Protocol for WriteThenRead {
        type LocalState = bool;
        fn num_processes(&self) -> usize {
            2
        }
        fn init(&self, _pid: Pid) -> bool {
            false
        }
        fn pending_op(&self, pid: Pid, wrote: &bool) -> (ObjId, Op) {
            if *wrote {
                (ObjId(0), Op::Read)
            } else {
                (ObjId(0), Op::Write(Value::Int(pid.index() as i64)))
            }
        }
        fn on_response(&self, _pid: Pid, wrote: &bool, resp: Value) -> Step<bool> {
            if *wrote {
                Step::Decide(resp)
            } else {
                Step::Continue(true)
            }
        }
    }

    fn running() -> Vec<ProcStatus<bool>> {
        vec![ProcStatus::Running(false), ProcStatus::Running(true)]
    }

    #[test]
    fn deterministic_step_follows_its_one_outcome() {
        let objects = [AnyObject::register()];
        let states = [objects[0].initial_state()];
        let procs = running();
        let kernel = StepKernel::new(&WriteThenRead, &objects);
        let step = kernel.begin(&states, &procs, Pid(1), None).unwrap();
        assert_eq!(step.pending_op(), (ObjId(0), Op::Read));
        assert_eq!(step.outcome_count(), 1);
        let t = step.take(0).unwrap();
        assert_eq!(t.outcome, 0);
        assert_eq!(t.response, Value::Nil);
        assert_eq!(t.status, ProcStatus::Decided(Value::Nil));

        let mut seen = Vec::new();
        kernel
            .begin(&states, &procs, Pid(0), None)
            .unwrap()
            .for_each(|t| seen.push(t));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].response, Value::Done);
        assert_eq!(seen[0].status, ProcStatus::Running(true));
    }

    #[test]
    fn precomputed_operation_is_used_as_given() {
        let objects = [AnyObject::register()];
        let states = [objects[0].initial_state()];
        let procs = running();
        let kernel = StepKernel::new(&WriteThenRead, &objects);
        let op = Op::Write(Value::Int(9));
        let step = kernel
            .begin(&states, &procs, Pid(0), Some((ObjId(0), op)))
            .unwrap();
        assert_eq!(step.pending_op(), (ObjId(0), op));
        let t = step.take(0).unwrap();
        assert_eq!(
            objects[0]
                .outcomes(&t.obj_state, &Op::Read)
                .unwrap()
                .iter()
                .next()
                .unwrap()
                .0,
            Value::Int(9)
        );
    }

    #[test]
    fn branching_step_lists_every_outcome_in_order() {
        let objects = [AnyObject::set_agreement(3, 2).unwrap()];
        let mut state = objects[0].initial_state();
        objects[0]
            .apply_deterministic(&mut state, &Op::Propose(Value::Int(5)))
            .unwrap();

        /// Proposes 7 and decides the response.
        #[derive(Debug)]
        struct Propose7;
        impl Protocol for Propose7 {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                1
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(0), Op::Propose(Value::Int(7)))
            }
            fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
                Step::Decide(resp)
            }
        }

        let procs = [ProcStatus::Running(())];
        let states = [state.clone()];
        let kernel = StepKernel::new(&Propose7, &objects);
        let expected = objects[0]
            .outcomes(&state, &Op::Propose(Value::Int(7)))
            .unwrap()
            .into_vec();
        assert!(expected.len() > 1, "the (3,2)-SA object must branch");
        let mut seen = Vec::new();
        kernel
            .begin(&states, &procs, Pid(0), None)
            .unwrap()
            .for_each(|t| seen.push(t));
        assert_eq!(seen.len(), expected.len());
        for (i, (t, (resp, next))) in seen.iter().zip(&expected).enumerate() {
            assert_eq!(t.outcome, i);
            assert_eq!(&t.response, resp);
            assert_eq!(&t.obj_state, next);
            assert_eq!(t.status, ProcStatus::Decided(*resp));
            let taken = kernel
                .begin(&states, &procs, Pid(0), None)
                .unwrap()
                .take(i)
                .unwrap();
            assert_eq!(&taken, t, "take({i}) must match the visit");
        }
        assert_eq!(
            kernel
                .begin(&states, &procs, Pid(0), None)
                .unwrap()
                .take(expected.len()),
            Err(RuntimeError::OutcomeOutOfRange {
                obj: ObjId(0),
                outcome: expected.len(),
                len: expected.len(),
            })
        );
    }

    #[test]
    fn malformed_steps_are_typed_errors() {
        let objects = [AnyObject::register()];
        let states = [objects[0].initial_state()];
        let kernel = StepKernel::new(&WriteThenRead, &objects);
        let procs = vec![ProcStatus::Running(false), ProcStatus::Halted];
        assert_eq!(
            kernel.begin(&states, &procs, Pid(2), None).unwrap_err(),
            RuntimeError::PidOutOfRange {
                pid: Pid(2),
                len: 2
            }
        );
        assert_eq!(
            kernel.begin(&states, &procs, Pid(1), None).unwrap_err(),
            RuntimeError::ProcessNotRunning(Pid(1))
        );
        // The object table has the object, the configuration does not.
        assert_eq!(
            kernel.begin(&[], &procs, Pid(0), None).unwrap_err(),
            RuntimeError::ObjIdOutOfRange {
                obj: ObjId(0),
                len: 0
            }
        );
        // The configuration has the object, the object table does not.
        assert_eq!(
            kernel
                .begin(&states, &procs, Pid(0), Some((ObjId(1), Op::Read)))
                .unwrap_err(),
            RuntimeError::ObjIdOutOfRange {
                obj: ObjId(1),
                len: 1
            }
        );
    }
}
