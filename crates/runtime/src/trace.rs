//! Execution traces: the sequence of atomic steps a run took.
//!
//! A trace is the linearization of the execution — because every object is
//! linearizable and every step is atomic, projecting a trace onto one object
//! yields that object's *sequential history* (a `Vec` of
//! [`lbsa_core::history::Event`]), which is what the legality and property
//! checkers of `lbsa-core` consume.

use lbsa_core::history::Event;
use lbsa_core::{ObjId, Op, Pid, Value};
use std::fmt;

/// One atomic step: a process applied an operation to an object and
/// received a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Global step index (0-based).
    pub step: usize,
    /// The process that took the step.
    pub pid: Pid,
    /// The object the operation was applied to.
    pub obj: ObjId,
    /// The operation.
    pub op: Op,
    /// The response returned.
    pub response: Value,
    /// Index of the object outcome the step followed, among the outcomes
    /// admissible in that state (0 for a deterministic object). With
    /// `pid`, it makes the event replayable on its own.
    pub outcome: usize,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<4} {} {}.{} -> {}",
            self.step, self.pid, self.obj, self.op, self.response
        )
    }
}

/// An execution trace: the ordered list of atomic steps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event (used by the system's step loop).
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The number of steps recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no step has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the recorded steps in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Projects the trace onto one object, yielding its sequential history.
    #[must_use]
    pub fn object_history(&self, obj: ObjId) -> Vec<Event> {
        self.events
            .iter()
            .filter(|e| e.obj == obj)
            .map(|e| Event {
                op: e.op,
                response: e.response,
            })
            .collect()
    }

    /// Projects the trace onto one process, yielding the steps it took.
    #[must_use]
    pub fn process_steps(&self, pid: Pid) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.pid == pid)
            .copied()
            .collect()
    }

    /// The schedule of this trace: the pid sequence, replayable via
    /// [`crate::scheduler::Scripted`].
    #[must_use]
    pub fn schedule(&self) -> Vec<Pid> {
        self.events.iter().map(|e| e.pid).collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "(empty trace)");
        }
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(step: usize, pid: usize, obj: usize, op: Op, response: Value) -> TraceEvent {
        TraceEvent {
            step,
            pid: Pid(pid),
            obj: ObjId(obj),
            op,
            response,
            outcome: 0,
        }
    }

    #[test]
    fn projections() {
        let t: Trace = vec![
            ev(0, 0, 0, Op::Write(Value::Int(1)), Value::Done),
            ev(1, 1, 1, Op::Propose(Value::Int(2)), Value::Int(2)),
            ev(2, 0, 0, Op::Read, Value::Int(1)),
        ]
        .into_iter()
        .collect();

        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());

        let h0 = t.object_history(ObjId(0));
        assert_eq!(h0.len(), 2);
        assert_eq!(h0[0].op, Op::Write(Value::Int(1)));
        assert_eq!(h0[1].response, Value::Int(1));

        let p1 = t.process_steps(Pid(1));
        assert_eq!(p1.len(), 1);
        assert_eq!(p1[0].obj, ObjId(1));

        assert_eq!(t.schedule(), vec![Pid(0), Pid(1), Pid(0)]);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Trace::new();
        assert_eq!(t.to_string(), "(empty trace)");
        let t: Trace = vec![ev(0, 0, 0, Op::Read, Value::Nil)]
            .into_iter()
            .collect();
        assert!(t.to_string().contains("p0"));
        assert!(t.to_string().contains("READ"));
    }
}
