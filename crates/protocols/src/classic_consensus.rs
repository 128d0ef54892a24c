//! Classic consensus protocols from the textbook primitives — situating the
//! paper's objects inside Herlihy's hierarchy.
//!
//! * [`ClassicConsensus`] (the *direct* variant) — the canonical 2-process
//!   consensus protocols from test-and-set, fetch-and-add, and a pre-loaded
//!   FIFO queue: write your input to your register, race on the primitive,
//!   the winner decides its own input and the loser reads **the other
//!   process's** register. Wait-free, exhaustively verified. The
//!   read-the-other trick is exactly what stops working at 3 processes —
//!   the loser no longer knows whom to read — which is why these objects
//!   live at level 2.
//! * [`ClassicConsensus::cas`] — consensus for **any** number of processes
//!   from one compare-and-swap cell: `CAS(nil -> input)`; the old value
//!   `nil` means you won, anything else *is* the winner's input. One step,
//!   wait-free: CAS sits above every finite level.
//! * [`AnnounceConsensus`] — the natural n-process generalization
//!   ("winner announces, losers spin"), which is **not wait-free** even for
//!   two processes: if the winner stalls between the primitive and the
//!   announcement, losers spin forever. The experiments refute it with a
//!   non-termination certificate — a textbook contrast with the direct
//!   variant.

use lbsa_core::{ObjId, Op, Pid, Value};
use lbsa_runtime::process::{Protocol, Step};

/// Which level-2 primitive the race runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RacePrimitive {
    /// Test-and-set: winner sees old value `0`.
    TestAndSet,
    /// Fetch-and-add(+1): winner sees old value `0`.
    FetchAdd,
    /// A queue pre-loaded with one token: winner dequeues it (non-`nil`).
    Queue,
}

impl RacePrimitive {
    fn op(self) -> Op {
        match self {
            RacePrimitive::TestAndSet => Op::TestAndSet,
            RacePrimitive::FetchAdd => Op::FetchAdd(1),
            RacePrimitive::Queue => Op::Dequeue,
        }
    }

    /// Did this response mean "you won the race"?
    fn won(self, response: Value) -> bool {
        match self {
            RacePrimitive::TestAndSet | RacePrimitive::FetchAdd => response == Value::Int(0),
            RacePrimitive::Queue => !response.is_nil(),
        }
    }
}

/// Local state of [`ClassicConsensus`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClassicPhase {
    /// Writing the input to the process's own register.
    WriteOwn,
    /// Racing on the primitive.
    Race,
    /// Lost: reading the other process's register.
    ReadOther,
}

/// The direct 2-process consensus protocols (and the n-process CAS one).
///
/// Object layout for the 2-process variants: `ObjId(0)` = the primitive,
/// `ObjId(1 + pid)` = process `pid`'s register. For the CAS variant:
/// `ObjId(0)` = the CAS cell, no registers needed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassicConsensus {
    inputs: Vec<Value>,
    primitive: Option<RacePrimitive>, // None = CAS variant
}

impl ClassicConsensus {
    /// The canonical 2-process protocol over `primitive`.
    ///
    /// # Errors
    ///
    /// Returns an error string unless exactly two inputs are given — the
    /// read-the-other step is only well-defined for two processes (that
    /// limitation *is* the point; see the module docs).
    pub fn two_process(primitive: RacePrimitive, inputs: Vec<Value>) -> Result<Self, String> {
        if inputs.len() != 2 {
            return Err(format!(
                "the direct {primitive:?} protocol is defined for exactly 2 processes, got {}",
                inputs.len()
            ));
        }
        Ok(ClassicConsensus {
            inputs,
            primitive: Some(primitive),
        })
    }

    /// The n-process CAS protocol (`CAS(nil -> input)`, decide the winner).
    #[must_use]
    pub fn cas(inputs: Vec<Value>) -> Self {
        ClassicConsensus {
            inputs,
            primitive: None,
        }
    }

    /// The base objects this protocol needs, in `ObjId` order.
    #[must_use]
    pub fn objects(&self) -> Vec<lbsa_core::AnyObject> {
        use lbsa_core::AnyObject;
        match self.primitive {
            None => vec![AnyObject::cas()],
            Some(p) => {
                let primitive = match p {
                    RacePrimitive::TestAndSet => AnyObject::test_and_set(),
                    RacePrimitive::FetchAdd => AnyObject::fetch_add(),
                    RacePrimitive::Queue => AnyObject::queue_with(vec![Value::Int(1)]),
                };
                let mut v = vec![primitive];
                v.extend((0..self.inputs.len()).map(|_| AnyObject::register()));
                v
            }
        }
    }
}

impl Protocol for ClassicConsensus {
    type LocalState = ClassicPhase;

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) -> ClassicPhase {
        if self.primitive.is_some() {
            ClassicPhase::WriteOwn
        } else {
            ClassicPhase::Race
        }
    }

    fn pending_op(&self, pid: Pid, state: &ClassicPhase) -> (ObjId, Op) {
        let input = self.inputs[pid.index()];
        match (state, self.primitive) {
            (ClassicPhase::WriteOwn, _) => (ObjId(1 + pid.index()), Op::Write(input)),
            (ClassicPhase::Race, Some(p)) => (ObjId(0), p.op()),
            (ClassicPhase::Race, None) => (ObjId(0), Op::CompareAndSwap(Value::Nil, input)),
            (ClassicPhase::ReadOther, _) => (ObjId(1 + (1 - pid.index())), Op::Read),
        }
    }

    fn on_response(&self, pid: Pid, state: &ClassicPhase, response: Value) -> Step<ClassicPhase> {
        match (state, self.primitive) {
            (ClassicPhase::WriteOwn, _) => Step::Continue(ClassicPhase::Race),
            (ClassicPhase::Race, Some(p)) => {
                if p.won(response) {
                    Step::Decide(self.inputs[pid.index()])
                } else {
                    Step::Continue(ClassicPhase::ReadOther)
                }
            }
            (ClassicPhase::Race, None) => {
                // CAS: old value nil means we installed our input.
                if response.is_nil() {
                    Step::Decide(self.inputs[pid.index()])
                } else {
                    Step::Decide(response)
                }
            }
            (ClassicPhase::ReadOther, _) => Step::Decide(response),
        }
    }
}

/// Local state of [`AnnounceConsensus`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnnouncePhase {
    /// Racing on the primitive.
    Race,
    /// Won: announcing the input.
    Announce,
    /// Lost: spinning on the announcement register.
    Spin,
}

/// The doomed "winner announces, losers spin" generalization — natural,
/// n-process, and **not wait-free**. Object layout: `ObjId(0)` = the
/// primitive, `ObjId(1)` = the announcement register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnnounceConsensus {
    inputs: Vec<Value>,
    primitive: RacePrimitive,
}

impl AnnounceConsensus {
    /// Creates the candidate for any number of processes.
    #[must_use]
    pub fn new(primitive: RacePrimitive, inputs: Vec<Value>) -> Self {
        AnnounceConsensus { inputs, primitive }
    }

    /// The base objects this protocol needs, in `ObjId` order.
    #[must_use]
    pub fn objects(&self) -> Vec<lbsa_core::AnyObject> {
        use lbsa_core::AnyObject;
        let primitive = match self.primitive {
            RacePrimitive::TestAndSet => AnyObject::test_and_set(),
            RacePrimitive::FetchAdd => AnyObject::fetch_add(),
            RacePrimitive::Queue => AnyObject::queue_with(vec![Value::Int(1)]),
        };
        vec![primitive, AnyObject::register()]
    }
}

impl Protocol for AnnounceConsensus {
    type LocalState = AnnouncePhase;

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) -> AnnouncePhase {
        AnnouncePhase::Race
    }

    fn pending_op(&self, pid: Pid, state: &AnnouncePhase) -> (ObjId, Op) {
        match state {
            AnnouncePhase::Race => (ObjId(0), self.primitive.op()),
            AnnouncePhase::Announce => (ObjId(1), Op::Write(self.inputs[pid.index()])),
            AnnouncePhase::Spin => (ObjId(1), Op::Read),
        }
    }

    fn on_response(&self, pid: Pid, state: &AnnouncePhase, response: Value) -> Step<AnnouncePhase> {
        match state {
            AnnouncePhase::Race => {
                if self.primitive.won(response) {
                    Step::Continue(AnnouncePhase::Announce)
                } else {
                    Step::Continue(AnnouncePhase::Spin)
                }
            }
            AnnouncePhase::Announce => Step::Decide(self.inputs[pid.index()]),
            AnnouncePhase::Spin => {
                if response.is_nil() {
                    Step::Continue(AnnouncePhase::Spin)
                } else {
                    Step::Decide(response)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::value::int;
    use lbsa_explorer::checker::Violation;
    use lbsa_explorer::verdict::Outcome;
    use lbsa_explorer::Explorer;

    const PRIMS: [RacePrimitive; 3] = [
        RacePrimitive::TestAndSet,
        RacePrimitive::FetchAdd,
        RacePrimitive::Queue,
    ];

    #[test]
    fn direct_two_process_protocols_are_wait_free_consensus() {
        for prim in PRIMS {
            for inputs in crate::dac::all_binary_inputs(2) {
                let p = ClassicConsensus::two_process(prim, inputs.clone()).unwrap();
                let objects = p.objects();
                let ex = Explorer::new(&p, &objects);
                let v = ex.exploration().check_consensus(&inputs);
                assert!(v.holds(), "{prim:?} consensus violated: {v}");
            }
        }
    }

    #[test]
    fn direct_protocol_rejects_wrong_process_count() {
        assert!(ClassicConsensus::two_process(RacePrimitive::TestAndSet, vec![int(0)]).is_err());
        assert!(
            ClassicConsensus::two_process(RacePrimitive::Queue, vec![int(0), int(1), int(0)])
                .is_err()
        );
    }

    #[test]
    fn cas_consensus_scales_to_many_processes() {
        for n in 2..=5usize {
            let inputs: Vec<Value> = (0..n).map(|i| int(i as i64 % 2)).collect();
            let p = ClassicConsensus::cas(inputs.clone());
            let objects = p.objects();
            let ex = Explorer::new(&p, &objects);
            let v = ex.exploration().check_consensus(&inputs);
            assert!(v.holds(), "CAS consensus violated at n = {n}: {v}");
        }
    }

    #[test]
    fn announce_variant_is_refuted_even_for_two_processes() {
        // The announce generalization is not wait-free at ANY process count:
        // the winner may stall between winning and announcing.
        for prim in PRIMS {
            for n in [2usize, 3] {
                let inputs: Vec<Value> = (0..n).map(|i| int(i as i64 % 2)).collect();
                let p = AnnounceConsensus::new(prim, inputs.clone());
                let objects = p.objects();
                let ex = Explorer::new(&p, &objects);
                let v = ex.exploration().check_consensus(&inputs);
                assert!(
                    matches!(
                        v.outcome,
                        Outcome::Violated(Violation::NonTermination { .. })
                    ),
                    "{prim:?}/{n}: expected non-termination, got {v}"
                );
            }
        }
    }

    #[test]
    fn loser_learns_the_winner_not_just_a_value() {
        // Validity check with distinct inputs: the loser must decide the
        // winner's input, exhaustively.
        for prim in PRIMS {
            let inputs = vec![int(10), int(20)];
            let p = ClassicConsensus::two_process(prim, inputs.clone()).unwrap();
            let objects = p.objects();
            let ex = Explorer::new(&p, &objects);
            let v = ex.exploration().check_consensus(&inputs);
            assert!(v.holds(), "{prim:?}: {v}");
        }
    }
}
