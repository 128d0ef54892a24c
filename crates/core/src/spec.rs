//! The sequential-specification trait implemented by every object family.
//!
//! Following Herlihy–Wing linearizability, a shared object is fully described
//! by a *sequential specification*: a set of states, an initial state, and a
//! transition relation `state × operation → {(response, state')}`. For a
//! deterministic object (registers, consensus objects, PAC objects, and every
//! combination thereof) the relation is a function — exactly one outcome. The
//! 2-SA and (n,k)-SA objects are **nondeterministic**: the spec returns every
//! admissible outcome and the environment (scheduler/adversary) chooses.

use crate::error::SpecError;
use crate::op::Op;
use crate::value::Value;
use std::fmt::Debug;
use std::hash::Hash;

/// The non-empty set of admissible `(response, next-state)` outcomes of one
/// operation.
///
/// The first outcome is stored inline: deterministic operations — nearly
/// every step of every run — build, re-tag and consume their one outcome
/// without touching the heap.
///
/// # Examples
///
/// ```
/// use lbsa_core::spec::Outcomes;
/// use lbsa_core::value::Value;
///
/// let outs = Outcomes::single(Value::Done, 42u32);
/// assert!(outs.is_deterministic());
/// assert_eq!(outs.iter().count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcomes<S> {
    first: (Value, S),
    rest: Vec<(Value, S)>,
}

impl<S> Outcomes<S> {
    /// Creates a deterministic outcome set with exactly one entry.
    #[must_use]
    pub fn single(response: Value, state: S) -> Self {
        Outcomes {
            first: (response, state),
            rest: Vec::new(),
        }
    }

    /// Creates an outcome set from a non-empty list of alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty: a sequential specification must be
    /// total, so every well-formed operation has at least one outcome.
    #[must_use]
    pub fn from_vec(mut outcomes: Vec<(Value, S)>) -> Self {
        assert!(
            !outcomes.is_empty(),
            "an operation must have at least one outcome"
        );
        let first = outcomes.remove(0);
        Outcomes {
            first,
            rest: outcomes,
        }
    }

    /// Returns `true` if exactly one outcome is admissible.
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        self.rest.is_empty()
    }

    /// The number of admissible outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// Outcome sets are never empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the admissible `(response, next-state)` pairs.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Rewrites every next-state with `f`, keeping responses and order. A
    /// deterministic set is rewritten without allocating.
    #[must_use]
    pub fn map<T>(self, mut f: impl FnMut(S) -> T) -> Outcomes<T> {
        let (response, state) = self.first;
        Outcomes {
            first: (response, f(state)),
            rest: self.rest.into_iter().map(|(r, s)| (r, f(s))).collect(),
        }
    }

    /// Consumes the set, returning the alternatives as a vector.
    #[must_use]
    pub fn into_vec(self) -> Vec<(Value, S)> {
        self.into_iter().collect()
    }

    /// Returns the unique outcome of a deterministic operation.
    ///
    /// # Panics
    ///
    /// Panics if more than one outcome is admissible; call sites that handle
    /// nondeterministic objects must use [`Outcomes::into_vec`] or
    /// [`Outcomes::iter`] instead.
    #[must_use]
    pub fn into_single(self) -> (Value, S) {
        assert!(
            self.rest.is_empty(),
            "into_single() called on a nondeterministic outcome set ({} alternatives)",
            self.len()
        );
        self.first
    }
}

impl<S> IntoIterator for Outcomes<S> {
    type Item = (Value, S);
    type IntoIter = std::iter::Chain<std::iter::Once<(Value, S)>, std::vec::IntoIter<(Value, S)>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.rest)
    }
}

impl<'a, S> IntoIterator for &'a Outcomes<S> {
    type Item = &'a (Value, S);
    type IntoIter =
        std::iter::Chain<std::iter::Once<&'a (Value, S)>, std::slice::Iter<'a, (Value, S)>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A sequential specification of a linearizable shared object.
///
/// Implementors define the state space, the initial state, and the
/// (possibly nondeterministic) transition relation. All higher layers —
/// the runtime, the explorer, the linearizability checker — are generic in
/// this trait.
///
/// # Examples
///
/// A trivial "sticky bit" object:
///
/// ```
/// use lbsa_core::spec::{ObjectSpec, Outcomes};
/// use lbsa_core::op::Op;
/// use lbsa_core::value::Value;
/// use lbsa_core::error::SpecError;
///
/// #[derive(Debug)]
/// struct StickyBit;
///
/// impl ObjectSpec for StickyBit {
///     type State = Value;
///     fn name(&self) -> &'static str { "sticky-bit" }
///     fn initial_state(&self) -> Value { Value::Nil }
///     fn outcomes(&self, s: &Value, op: &Op) -> Result<Outcomes<Value>, SpecError> {
///         match op {
///             Op::Propose(v) => {
///                 let winner = if s.is_nil() { *v } else { *s };
///                 Ok(Outcomes::single(winner, winner))
///             }
///             other => Err(SpecError::UnsupportedOp { object: "sticky-bit", op: *other }),
///         }
///     }
/// }
///
/// let obj = StickyBit;
/// let mut s = obj.initial_state();
/// assert_eq!(obj.apply_deterministic(&mut s, &Op::Propose(Value::Int(1))).unwrap(), Value::Int(1));
/// assert_eq!(obj.apply_deterministic(&mut s, &Op::Propose(Value::Int(2))).unwrap(), Value::Int(1));
/// ```
pub trait ObjectSpec: Debug {
    /// The object's state type. Must be hashable so that whole system
    /// configurations can be deduplicated during exhaustive exploration.
    type State: Clone + Eq + Hash + Debug;

    /// A short human-readable name of the object family (e.g. `"n-PAC"`).
    fn name(&self) -> &'static str;

    /// The object's initial state.
    fn initial_state(&self) -> Self::State;

    /// All admissible `(response, next-state)` outcomes of applying `op` in
    /// `state`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if `op` is not part of this object's
    /// interface, uses an out-of-range label, or proposes a reserved value.
    fn outcomes(&self, state: &Self::State, op: &Op) -> Result<Outcomes<Self::State>, SpecError>;

    /// Returns `true` if the object is deterministic *as a specification*,
    /// i.e. every operation in every state has exactly one outcome.
    ///
    /// The default implementation returns `true`; the 2-SA and (n,k)-SA
    /// objects override it.
    fn is_deterministic(&self) -> bool {
        true
    }

    /// Applies a deterministic operation in place and returns its response.
    ///
    /// This is the convenient entry point for driving deterministic objects
    /// (and for nondeterministic objects in states where the operation
    /// happens to have a unique outcome).
    ///
    /// # Errors
    ///
    /// Propagates any [`SpecError`] from [`ObjectSpec::outcomes`].
    ///
    /// # Panics
    ///
    /// Panics if the operation has more than one admissible outcome.
    fn apply_deterministic(&self, state: &mut Self::State, op: &Op) -> Result<Value, SpecError> {
        let (resp, next) = self.outcomes(state, op)?.into_single();
        *state = next;
        Ok(resp)
    }
}

/// Checks that a proposed value is admissible (not a reserved symbol).
///
/// # Errors
///
/// Returns [`SpecError::ReservedValue`] for `NIL`, `⊥`, and `done`.
pub fn check_proposable(v: Value) -> Result<(), SpecError> {
    if v.is_proposable() {
        Ok(())
    } else {
        Err(SpecError::ReservedValue(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::int;

    #[test]
    fn outcomes_single_is_deterministic() {
        let o = Outcomes::single(Value::Done, 0u8);
        assert!(o.is_deterministic());
        assert_eq!(o.len(), 1);
        assert_eq!(o.into_single(), (Value::Done, 0u8));
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn outcomes_from_empty_vec_panics() {
        let _ = Outcomes::<u8>::from_vec(vec![]);
    }

    #[test]
    #[should_panic(expected = "nondeterministic")]
    fn into_single_panics_on_branching() {
        let o = Outcomes::from_vec(vec![(int(1), 0u8), (int(2), 1u8)]);
        let _ = o.into_single();
    }

    #[test]
    fn outcomes_iteration() {
        let o = Outcomes::from_vec(vec![(int(1), 10u8), (int(2), 20u8)]);
        assert!(!o.is_deterministic());
        let responses: Vec<Value> = o.iter().map(|(r, _)| *r).collect();
        assert_eq!(responses, vec![int(1), int(2)]);
        let states: Vec<u8> = o.into_iter().map(|(_, s)| s).collect();
        assert_eq!(states, vec![10, 20]);
    }

    #[test]
    fn check_proposable_rejects_reserved() {
        assert!(check_proposable(int(3)).is_ok());
        assert_eq!(
            check_proposable(Value::Nil),
            Err(SpecError::ReservedValue(Value::Nil))
        );
        assert_eq!(
            check_proposable(Value::Bot),
            Err(SpecError::ReservedValue(Value::Bot))
        );
        assert_eq!(
            check_proposable(Value::Done),
            Err(SpecError::ReservedValue(Value::Done))
        );
    }
}
