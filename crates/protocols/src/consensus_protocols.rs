//! Consensus protocols from the paper's objects.
//!
//! * [`ConsensusViaObject`] — the canonical protocol behind "the object
//!   solves consensus among `n` processes": each process proposes its input
//!   to one `n`-consensus object and decides the response.
//! * [`ConsensusViaObject::via_propose_c`] — the same through the `PROPOSEC`
//!   face of an (n,m)-PAC object: the executable content of Observation
//!   5.1(c) and the upper-bound half of Theorem 5.3 ((n,m)-PAC solves
//!   `m`-consensus).
//! * [`ConsensusViaObject::via_power_level_1`] — consensus through level 1 of a power
//!   object `O'ₙ` (its `(n₁, 1)-SA` component *is* consensus for `n₁`
//!   processes).
//!
//! Each protocol decides in exactly two steps per process, so the
//! exploration graphs are tiny and the exhaustive consensus checker covers
//! every execution.

use lbsa_core::{ObjId, Op, Pid, Value};
use lbsa_runtime::process::{classes_by_input, Protocol, Step, Symmetry};

/// Which propose operation carries the value to the shared object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProposeFace {
    /// `PROPOSE(v)` on an `n`-consensus object.
    Plain,
    /// `PROPOSEC(v)` on an (n,m)-PAC object.
    CombinedC,
    /// `PROPOSE(v, k)` on a power object.
    PowerLevel(usize),
}

/// A one-shot consensus protocol: propose the input, decide the response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusViaObject {
    inputs: Vec<Value>,
    obj: ObjId,
    face: ProposeFace,
}

impl ConsensusViaObject {
    /// Consensus via a plain `n`-consensus object at `obj`.
    ///
    /// The object must have arity at least `inputs.len()`, otherwise late
    /// proposers receive `⊥` and the run fails (which is itself the point of
    /// several refutation experiments).
    #[must_use]
    pub fn new(inputs: Vec<Value>, obj: ObjId) -> Self {
        ConsensusViaObject {
            inputs,
            obj,
            face: ProposeFace::Plain,
        }
    }

    /// Consensus via the `PROPOSEC` face of an (n,m)-PAC object at `obj`
    /// (Observation 5.1(c)).
    #[must_use]
    pub fn via_propose_c(inputs: Vec<Value>, obj: ObjId) -> Self {
        ConsensusViaObject {
            inputs,
            obj,
            face: ProposeFace::CombinedC,
        }
    }

    /// Consensus via level 1 of a power object at `obj`.
    #[must_use]
    pub fn via_power_level_1(inputs: Vec<Value>, obj: ObjId) -> Self {
        ConsensusViaObject {
            inputs,
            obj,
            face: ProposeFace::PowerLevel(1),
        }
    }

    /// The process inputs.
    #[must_use]
    pub fn inputs(&self) -> &[Value] {
        &self.inputs
    }
}

impl Protocol for ConsensusViaObject {
    type LocalState = ();

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) {}

    fn pending_op(&self, pid: Pid, _state: &()) -> (ObjId, Op) {
        let v = self.inputs[pid.index()];
        let op = match self.face {
            ProposeFace::Plain => Op::Propose(v),
            ProposeFace::CombinedC => Op::ProposeC(v),
            ProposeFace::PowerLevel(k) => Op::ProposeAt(v, k),
        };
        (self.obj, op)
    }

    fn on_response(&self, _pid: Pid, _state: &(), response: Value) -> Step<()> {
        Step::Decide(response)
    }
}

/// Processes with equal inputs are interchangeable: the op each process
/// performs mentions only its input value, and every object state this
/// protocol touches (consensus, (n,m)-PAC, power) is pid-free.
impl Symmetry for ConsensusViaObject {
    fn pid_classes(&self) -> Vec<u32> {
        classes_by_input(&self.inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::value::int;
    use lbsa_core::AnyObject;
    use lbsa_explorer::checker::Violation;
    use lbsa_explorer::verdict::Outcome;
    use lbsa_explorer::Explorer;

    fn binary_inputs(n: usize) -> Vec<Vec<Value>> {
        crate::dac::all_binary_inputs(n)
    }

    #[test]
    fn symmetry_reduction_preserves_consensus_verdicts() {
        for inputs in binary_inputs(3) {
            let p = ConsensusViaObject::new(inputs.clone(), ObjId(0));
            let objects = vec![AnyObject::consensus(3).unwrap()];
            let ex = Explorer::new(&p, &objects);
            let raw = ex.exploration().check_consensus(&[int(0), int(1)]);
            let reduced = ex
                .exploration()
                .symmetric()
                .check_consensus(&[int(0), int(1)]);
            assert_eq!(
                raw.outcome.tag(),
                reduced.outcome.tag(),
                "verdicts diverge on {inputs:?}"
            );
            assert!(reduced.stats.configs <= raw.stats.configs);
        }
    }

    #[test]
    fn consensus_via_consensus_object_verified_exhaustively() {
        for n in 2..=4usize {
            for inputs in binary_inputs(n) {
                let valid = inputs.clone();
                let p = ConsensusViaObject::new(inputs, ObjId(0));
                let objects = vec![AnyObject::consensus(n).unwrap()];
                let ex = Explorer::new(&p, &objects);
                let v = ex.exploration().check_consensus(&valid);
                assert!(v.holds(), "consensus violated for n = {n}: {v}");
            }
        }
    }

    #[test]
    fn n_consensus_object_fails_for_n_plus_1_processes() {
        // The defining failure: with n + 1 processes on an n-consensus
        // object, the last proposer receives ⊥ and "decides" it — a validity
        // violation found by the checker. (This is the executable content of
        // "the consensus number of n-consensus is exactly n".)
        let inputs = vec![int(0), int(1), int(0)];
        let p = ConsensusViaObject::new(inputs.clone(), ObjId(0));
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&inputs);
        // Depending on exploration order the first symptom is either the ⊥
        // "decision" itself (validity) or its disagreement with a real one.
        assert!(
            matches!(
                v.outcome,
                Outcome::Violated(
                    Violation::Validity {
                        value: Value::Bot,
                        ..
                    } | Violation::Agreement { .. }
                )
            ),
            "{v}"
        );
    }

    #[test]
    fn theorem_5_3_upper_bound_proposec_solves_m_consensus() {
        // (n,m)-PAC solves consensus among m processes through PROPOSEC,
        // regardless of n: here (4,2)-PAC and (2,3)-PAC.
        for (n, m) in [(4usize, 2usize), (2, 3)] {
            for inputs in binary_inputs(m) {
                let valid = inputs.clone();
                let p = ConsensusViaObject::via_propose_c(inputs, ObjId(0));
                let objects = vec![AnyObject::combined_pac(n, m).unwrap()];
                let ex = Explorer::new(&p, &objects);
                let v = ex.exploration().check_consensus(&valid);
                assert!(v.holds(), "({n},{m})-PAC failed m-consensus: {v}");
            }
        }
    }

    #[test]
    fn combined_pac_fails_m_plus_1_consensus_via_proposec() {
        // The canonical protocol breaks down for m + 1 processes — the
        // budget of the embedded m-consensus object is exhausted. (The full
        // impossibility — no protocol at all works — is Theorem 5.2; this
        // checks its canonical-protocol shadow.)
        let inputs = vec![int(0), int(1), int(1)];
        let p = ConsensusViaObject::via_propose_c(inputs.clone(), ObjId(0));
        let objects = vec![AnyObject::combined_pac(3, 2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        assert!(ex.exploration().check_consensus(&inputs).is_violated());
    }

    #[test]
    fn power_object_level_1_is_consensus_for_n_processes() {
        // O'_2's level-1 component is a (2,1)-SA object: consensus for 2.
        for inputs in binary_inputs(2) {
            let valid = inputs.clone();
            let p = ConsensusViaObject::via_power_level_1(inputs, ObjId(0));
            let objects = vec![AnyObject::o_prime_n(2, 3).unwrap()];
            let ex = Explorer::new(&p, &objects);
            let v = ex.exploration().check_consensus(&valid);
            assert!(v.holds(), "O'_2 level 1 failed consensus: {v}");
        }
    }

    #[test]
    fn power_object_level_1_fails_beyond_n_1() {
        // Three processes on O'_2's level 1 ((2,1)-SA): the third gets ⊥.
        let inputs = vec![int(0), int(1), int(0)];
        let p = ConsensusViaObject::via_power_level_1(inputs.clone(), ObjId(0));
        let objects = vec![AnyObject::o_prime_n(2, 3).unwrap()];
        let ex = Explorer::new(&p, &objects);
        assert!(ex.exploration().check_consensus(&inputs).is_violated());
    }

    #[test]
    fn accessors() {
        let p = ConsensusViaObject::new(vec![int(0), int(1)], ObjId(2));
        assert_eq!(p.inputs(), &[int(0), int(1)]);
        assert_eq!(p.num_processes(), 2);
        let (obj, op) = p.pending_op(Pid(1), &());
        assert_eq!(obj, ObjId(2));
        assert_eq!(op, Op::Propose(int(1)));
    }
}
