//! The deterministic `n`-consensus object.
//!
//! Footnote 6 of the paper fixes the precise linearizable specification
//! (after Jayanti \[12\] and Qadri \[13\]): *"for the first `n` propose
//! operations, the `n`-consensus object returns the value of the first
//! propose operation, and it returns a special value `⊥` to any subsequent
//! propose operation."*
//!
//! This "fuel-limited" flavour is essential for the paper's Theorem 4.2 /
//! Claim 4.2.9: once `n` operations have been performed, the object stops
//! carrying information — any further operation returns `⊥` regardless of
//! the state, which is exactly what the bivalency argument exploits.

use crate::error::SpecError;
use crate::op::Op;
use crate::spec::{check_proposable, ObjectSpec, Outcomes};
use crate::value::Value;

/// State of an [`ConsensusSpec`] object.
///
/// `used` saturates at `n`: once the object is exhausted, additional
/// operations neither change the state nor the response (`⊥`), which keeps
/// the reachable state space finite for the explorer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConsensusState {
    /// The value of the first propose operation (`NIL` before any propose).
    pub winner: Value,
    /// How many propose operations have been applied, saturating at `n`.
    pub used: usize,
}

/// Sequential specification of the `n`-consensus object.
///
/// # Examples
///
/// ```
/// use lbsa_core::consensus::ConsensusSpec;
/// use lbsa_core::spec::ObjectSpec;
/// use lbsa_core::op::Op;
/// use lbsa_core::value::Value;
///
/// # fn main() -> Result<(), lbsa_core::error::SpecError> {
/// let cons = ConsensusSpec::new(2)?;
/// let mut s = cons.initial_state();
/// // First two proposals both learn the first value…
/// assert_eq!(cons.apply_deterministic(&mut s, &Op::Propose(Value::Int(5)))?, Value::Int(5));
/// assert_eq!(cons.apply_deterministic(&mut s, &Op::Propose(Value::Int(9)))?, Value::Int(5));
/// // …and the third gets ⊥: a 2-consensus object cannot serve three.
/// assert_eq!(cons.apply_deterministic(&mut s, &Op::Propose(Value::Int(1)))?, Value::Bot);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsensusSpec {
    n: usize,
}

impl ConsensusSpec {
    /// Creates an `n`-consensus specification.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidArity`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, SpecError> {
        if n == 0 {
            return Err(SpecError::InvalidArity {
                what: "n",
                got: 0,
                min: 1,
            });
        }
        Ok(ConsensusSpec { n })
    }

    /// The consensus number `n` of this object.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns `true` if the object has served its full budget of `n`
    /// propose operations and now answers `⊥` unconditionally.
    #[must_use]
    pub fn is_exhausted(&self, state: &ConsensusState) -> bool {
        state.used >= self.n
    }
}

impl ObjectSpec for ConsensusSpec {
    type State = ConsensusState;

    fn name(&self) -> &'static str {
        "n-consensus"
    }

    fn initial_state(&self) -> ConsensusState {
        ConsensusState {
            winner: Value::Nil,
            used: 0,
        }
    }

    fn outcomes(
        &self,
        state: &ConsensusState,
        op: &Op,
    ) -> Result<Outcomes<ConsensusState>, SpecError> {
        match op {
            Op::Propose(v) => {
                check_proposable(*v)?;
                if state.used >= self.n {
                    // Exhausted: ⊥ forever, state frozen (finite state space).
                    Ok(Outcomes::single(Value::Bot, *state))
                } else {
                    let winner = if state.winner.is_nil() {
                        *v
                    } else {
                        state.winner
                    };
                    let next = ConsensusState {
                        winner,
                        used: state.used + 1,
                    };
                    Ok(Outcomes::single(winner, next))
                }
            }
            other => Err(SpecError::UnsupportedOp {
                object: "n-consensus",
                op: *other,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::int;

    fn propose(cons: &ConsensusSpec, s: &mut ConsensusState, v: i64) -> Value {
        cons.apply_deterministic(s, &Op::Propose(int(v))).unwrap()
    }

    #[test]
    fn rejects_zero_arity() {
        assert!(matches!(
            ConsensusSpec::new(0),
            Err(SpecError::InvalidArity {
                what: "n",
                got: 0,
                min: 1
            })
        ));
    }

    #[test]
    fn first_value_wins_for_first_n_ops() {
        for n in 1..=5 {
            let cons = ConsensusSpec::new(n).unwrap();
            let mut s = cons.initial_state();
            for i in 0..n {
                let resp = propose(&cons, &mut s, 100 + i as i64);
                assert_eq!(
                    resp,
                    int(100),
                    "op {i} of n = {n} must return the first value"
                );
            }
            // Every op past the budget returns ⊥.
            for _ in 0..3 {
                assert_eq!(propose(&cons, &mut s, 7), Value::Bot);
            }
        }
    }

    #[test]
    fn exhausted_state_is_frozen() {
        let cons = ConsensusSpec::new(1).unwrap();
        let mut s = cons.initial_state();
        propose(&cons, &mut s, 1);
        let frozen = s;
        propose(&cons, &mut s, 2);
        propose(&cons, &mut s, 3);
        assert_eq!(
            s, frozen,
            "post-exhaustion operations must not grow the state space"
        );
        assert!(cons.is_exhausted(&s));
    }

    #[test]
    fn exhaustion_boundary() {
        let cons = ConsensusSpec::new(3).unwrap();
        let mut s = cons.initial_state();
        assert!(!cons.is_exhausted(&s));
        propose(&cons, &mut s, 4);
        propose(&cons, &mut s, 5);
        assert!(!cons.is_exhausted(&s));
        propose(&cons, &mut s, 6);
        assert!(cons.is_exhausted(&s));
    }

    #[test]
    fn rejects_reserved_values() {
        let cons = ConsensusSpec::new(2).unwrap();
        let s = cons.initial_state();
        for v in [Value::Nil, Value::Bot, Value::Done] {
            assert_eq!(
                cons.outcomes(&s, &Op::Propose(v)).unwrap_err(),
                SpecError::ReservedValue(v)
            );
        }
    }

    #[test]
    fn rejects_foreign_operations() {
        let cons = ConsensusSpec::new(2).unwrap();
        let s = cons.initial_state();
        for op in [Op::Read, Op::Write(int(1)), Op::ProposeC(int(1))] {
            assert!(matches!(
                cons.outcomes(&s, &op),
                Err(SpecError::UnsupportedOp {
                    object: "n-consensus",
                    ..
                })
            ));
        }
    }

    #[test]
    fn agreement_and_validity_on_all_short_sequences() {
        // Exhaustive check of the consensus properties on every proposal
        // sequence of length <= 4 over {1, 2}: all non-⊥ responses agree and
        // equal the first proposal.
        let cons = ConsensusSpec::new(3).unwrap();
        let vals = [1i64, 2];
        for len in 0..=4usize {
            let mut seq = vec![0usize; len];
            loop {
                let ops: Vec<Op> = seq.iter().map(|&i| Op::Propose(int(vals[i]))).collect();
                let mut state = cons.initial_state();
                let responses: Vec<Value> = ops
                    .iter()
                    .map(|op| cons.apply_deterministic(&mut state, op).unwrap())
                    .collect();
                for (i, r) in responses.iter().enumerate() {
                    if i < 3 {
                        assert_eq!(*r, ops[0].proposed_value().unwrap());
                    } else {
                        assert_eq!(*r, Value::Bot);
                    }
                }
                // Advance the odometer.
                let mut k = 0;
                loop {
                    if k == len {
                        break;
                    }
                    seq[k] += 1;
                    if seq[k] < vals.len() {
                        break;
                    }
                    seq[k] = 0;
                    k += 1;
                }
                if k == len {
                    break;
                }
            }
        }
    }
}
