//! [`AnyObject`] / [`AnyState`]: the closed sum over all object families.
//!
//! Systems in this workspace hold heterogeneous collections of objects — a
//! protocol might use two registers, an n-consensus object, and a 2-SA
//! object. Rather than boxing trait objects (whose states could not be
//! hashed or compared), the runtime and the explorer work over this enum
//! pair: every family in the paper is a variant, and a whole system
//! configuration is plain, hashable, first-order data.

use crate::combined::{CombinedPacSpec, CombinedPacState};
use crate::consensus::{ConsensusSpec, ConsensusState};
use crate::error::SpecError;
use crate::op::Op;
use crate::pac::{PacSpec, PacState};
use crate::power_object::{PowerObjectSpec, PowerObjectState, SetAgreementPower};
use crate::primitives::{CasSpec, FetchAddSpec, QueueSpec, TestAndSetSpec};
use crate::register::RegisterSpec;
use crate::set_agreement::{SetAgreementSpec, SetAgreementState};
use crate::spec::{ObjectSpec, Outcomes};
use crate::strong_sa::{StrongSaSpec, StrongSaState};
use crate::value::Value;
use std::fmt;

/// Any of the paper's object families, as a single spec type.
///
/// # Examples
///
/// ```
/// use lbsa_core::any::AnyObject;
/// use lbsa_core::spec::ObjectSpec;
/// use lbsa_core::op::Op;
/// use lbsa_core::value::Value;
///
/// # fn main() -> Result<(), lbsa_core::error::SpecError> {
/// let objects = vec![
///     AnyObject::register(),
///     AnyObject::consensus(2)?,
///     AnyObject::strong_sa(),
///     AnyObject::o_n(2)?,
/// ];
/// let mut states: Vec<_> = objects.iter().map(|o| o.initial_state()).collect();
/// let resp = objects[1].outcomes(&states[1], &Op::Propose(Value::Int(3)))?;
/// let (resp, next) = resp.into_single();
/// assert_eq!(resp, Value::Int(3));
/// states[1] = next;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AnyObject {
    /// An atomic read/write register.
    Register(RegisterSpec),
    /// An `n`-consensus object.
    Consensus(ConsensusSpec),
    /// An n-PAC object (Section 3).
    Pac(PacSpec),
    /// The strong 2-set agreement object (Section 4).
    StrongSa(StrongSaSpec),
    /// An (n,k)-SA object (Section 6).
    SetAgreement(SetAgreementSpec),
    /// An (n,m)-PAC object (Section 5); `Oₙ` is `CombinedPac(o_n(n))`.
    CombinedPac(CombinedPacSpec),
    /// A power object `O'` (Section 6).
    Power(PowerObjectSpec),
    /// A test-and-set bit (classic level-2 primitive).
    TestAndSet(TestAndSetSpec),
    /// A fetch-and-add counter (classic level-2 primitive).
    FetchAdd(FetchAddSpec),
    /// A compare-and-swap cell (classic level-∞ primitive).
    Cas(CasSpec),
    /// A FIFO queue (classic level-2 primitive).
    Queue(QueueSpec),
}

/// The state of an [`AnyObject`].
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AnyState {
    /// Register state.
    Register(Value),
    /// Consensus state.
    Consensus(ConsensusState),
    /// n-PAC state.
    Pac(PacState),
    /// 2-SA state.
    StrongSa(StrongSaState),
    /// (n,k)-SA state.
    SetAgreement(SetAgreementState),
    /// (n,m)-PAC state.
    CombinedPac(CombinedPacState),
    /// Power-object state.
    Power(PowerObjectState),
    /// Test-and-set state.
    TestAndSet(bool),
    /// Fetch-and-add state.
    FetchAdd(i64),
    /// Compare-and-swap state.
    Cas(Value),
    /// Queue state (front first).
    Queue(Vec<Value>),
}

impl AnyState {
    fn family(&self) -> &'static str {
        match self {
            AnyState::Register(_) => "register",
            AnyState::Consensus(_) => "n-consensus",
            AnyState::Pac(_) => "n-PAC",
            AnyState::StrongSa(_) => "2-SA",
            AnyState::SetAgreement(_) => "(n,k)-SA",
            AnyState::CombinedPac(_) => "(n,m)-PAC",
            AnyState::Power(_) => "O'_n",
            AnyState::TestAndSet(_) => "test-and-set",
            AnyState::FetchAdd(_) => "fetch-and-add",
            AnyState::Cas(_) => "compare-and-swap",
            AnyState::Queue(_) => "fifo-queue",
        }
    }
}

impl fmt::Display for AnyState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:?}", self.family(), self)
    }
}

impl AnyObject {
    /// A register.
    #[must_use]
    pub fn register() -> Self {
        AnyObject::Register(RegisterSpec::new())
    }

    /// An `n`-consensus object.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidArity`] if `n == 0`.
    pub fn consensus(n: usize) -> Result<Self, SpecError> {
        Ok(AnyObject::Consensus(ConsensusSpec::new(n)?))
    }

    /// An n-PAC object.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidArity`] if `n == 0`.
    pub fn pac(n: usize) -> Result<Self, SpecError> {
        Ok(AnyObject::Pac(PacSpec::new(n)?))
    }

    /// The strong 2-SA object.
    #[must_use]
    pub fn strong_sa() -> Self {
        AnyObject::StrongSa(StrongSaSpec::new())
    }

    /// An (n,k)-SA object.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidArity`] if `n == 0` or `k == 0`.
    pub fn set_agreement(n: usize, k: usize) -> Result<Self, SpecError> {
        Ok(AnyObject::SetAgreement(SetAgreementSpec::new(n, k)?))
    }

    /// An (n,m)-PAC object.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidArity`] if `n == 0` or `m == 0`.
    pub fn combined_pac(n: usize, m: usize) -> Result<Self, SpecError> {
        Ok(AnyObject::CombinedPac(CombinedPacSpec::new(n, m)?))
    }

    /// The paper's `Oₙ = (n+1, n)-PAC` (Definition 6.1).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidArity`] if `n < 2`.
    pub fn o_n(n: usize) -> Result<Self, SpecError> {
        Ok(AnyObject::CombinedPac(CombinedPacSpec::o_n(n)?))
    }

    /// The paper's `O'ₙ`, over the certified lower-bound power table
    /// truncated at `max_k`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidArity`] if `n < 2` or `max_k == 0`.
    pub fn o_prime_n(n: usize, max_k: usize) -> Result<Self, SpecError> {
        Ok(AnyObject::Power(PowerObjectSpec::o_prime_n(n, max_k)?))
    }

    /// A power object over an explicit [`SetAgreementPower`] table.
    ///
    /// # Errors
    ///
    /// Propagates component construction errors.
    pub fn power(power: SetAgreementPower) -> Result<Self, SpecError> {
        Ok(AnyObject::Power(PowerObjectSpec::new(power)?))
    }

    /// A test-and-set bit.
    #[must_use]
    pub fn test_and_set() -> Self {
        AnyObject::TestAndSet(TestAndSetSpec::new())
    }

    /// A fetch-and-add counter.
    #[must_use]
    pub fn fetch_add() -> Self {
        AnyObject::FetchAdd(FetchAddSpec::new())
    }

    /// A compare-and-swap cell.
    #[must_use]
    pub fn cas() -> Self {
        AnyObject::Cas(CasSpec::new())
    }

    /// An initially-empty FIFO queue.
    #[must_use]
    pub fn queue() -> Self {
        AnyObject::Queue(QueueSpec::new())
    }

    /// A FIFO queue pre-loaded with `items` (front first).
    #[must_use]
    pub fn queue_with(items: Vec<Value>) -> Self {
        AnyObject::Queue(QueueSpec::with_items(items))
    }

    fn mismatch(&self, state: &AnyState) -> SpecError {
        SpecError::StateMismatch {
            object: self.name(),
            state: state.family(),
        }
    }
}

impl ObjectSpec for AnyObject {
    type State = AnyState;

    fn name(&self) -> &'static str {
        match self {
            AnyObject::Register(o) => o.name(),
            AnyObject::Consensus(o) => o.name(),
            AnyObject::Pac(o) => o.name(),
            AnyObject::StrongSa(o) => o.name(),
            AnyObject::SetAgreement(o) => o.name(),
            AnyObject::CombinedPac(o) => o.name(),
            AnyObject::Power(o) => o.name(),
            AnyObject::TestAndSet(o) => o.name(),
            AnyObject::FetchAdd(o) => o.name(),
            AnyObject::Cas(o) => o.name(),
            AnyObject::Queue(o) => o.name(),
        }
    }

    fn initial_state(&self) -> AnyState {
        match self {
            AnyObject::Register(o) => AnyState::Register(o.initial_state()),
            AnyObject::Consensus(o) => AnyState::Consensus(o.initial_state()),
            AnyObject::Pac(o) => AnyState::Pac(o.initial_state()),
            AnyObject::StrongSa(o) => AnyState::StrongSa(o.initial_state()),
            AnyObject::SetAgreement(o) => AnyState::SetAgreement(o.initial_state()),
            AnyObject::CombinedPac(o) => AnyState::CombinedPac(o.initial_state()),
            AnyObject::Power(o) => AnyState::Power(o.initial_state()),
            AnyObject::TestAndSet(o) => AnyState::TestAndSet(o.initial_state()),
            AnyObject::FetchAdd(o) => AnyState::FetchAdd(o.initial_state()),
            AnyObject::Cas(o) => AnyState::Cas(o.initial_state()),
            AnyObject::Queue(o) => AnyState::Queue(o.initial_state()),
        }
    }

    fn outcomes(&self, state: &AnyState, op: &Op) -> Result<Outcomes<AnyState>, SpecError> {
        macro_rules! dispatch {
            ($obj:expr, $variant:ident, $state:expr) => {{
                let inner = match $state {
                    AnyState::$variant(s) => s,
                    other => return Err(self.mismatch(other)),
                };
                Ok($obj.outcomes(inner, op)?.map(AnyState::$variant))
            }};
        }
        match self {
            AnyObject::Register(o) => dispatch!(o, Register, state),
            AnyObject::Consensus(o) => dispatch!(o, Consensus, state),
            AnyObject::Pac(o) => dispatch!(o, Pac, state),
            AnyObject::StrongSa(o) => dispatch!(o, StrongSa, state),
            AnyObject::SetAgreement(o) => dispatch!(o, SetAgreement, state),
            AnyObject::CombinedPac(o) => dispatch!(o, CombinedPac, state),
            AnyObject::Power(o) => dispatch!(o, Power, state),
            AnyObject::TestAndSet(o) => dispatch!(o, TestAndSet, state),
            AnyObject::FetchAdd(o) => dispatch!(o, FetchAdd, state),
            AnyObject::Cas(o) => dispatch!(o, Cas, state),
            AnyObject::Queue(o) => dispatch!(o, Queue, state),
        }
    }

    fn is_deterministic(&self) -> bool {
        match self {
            AnyObject::Register(o) => o.is_deterministic(),
            AnyObject::Consensus(o) => o.is_deterministic(),
            AnyObject::Pac(o) => o.is_deterministic(),
            AnyObject::StrongSa(o) => o.is_deterministic(),
            AnyObject::SetAgreement(o) => o.is_deterministic(),
            AnyObject::CombinedPac(o) => o.is_deterministic(),
            AnyObject::Power(o) => o.is_deterministic(),
            AnyObject::TestAndSet(o) => o.is_deterministic(),
            AnyObject::FetchAdd(o) => o.is_deterministic(),
            AnyObject::Cas(o) => o.is_deterministic(),
            AnyObject::Queue(o) => o.is_deterministic(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Label;
    use crate::value::int;

    #[test]
    fn every_family_constructs_and_steps() {
        let l1 = Label::new(1).unwrap();
        let cases: Vec<(AnyObject, Op)> = vec![
            (AnyObject::register(), Op::Read),
            (AnyObject::consensus(2).unwrap(), Op::Propose(int(1))),
            (AnyObject::pac(2).unwrap(), Op::ProposePac(int(1), l1)),
            (AnyObject::strong_sa(), Op::Propose(int(1))),
            (AnyObject::set_agreement(3, 2).unwrap(), Op::Propose(int(1))),
            (AnyObject::combined_pac(2, 2).unwrap(), Op::ProposeC(int(1))),
            (AnyObject::o_n(2).unwrap(), Op::ProposeP(int(1), l1)),
            (
                AnyObject::o_prime_n(2, 2).unwrap(),
                Op::ProposeAt(int(1), 2),
            ),
            (AnyObject::test_and_set(), Op::TestAndSet),
            (AnyObject::fetch_add(), Op::FetchAdd(2)),
            (AnyObject::cas(), Op::CompareAndSwap(Value::Nil, int(1))),
            (AnyObject::queue_with(vec![int(5)]), Op::Dequeue),
        ];
        for (obj, op) in cases {
            let state = obj.initial_state();
            let outs = obj
                .outcomes(&state, &op)
                .unwrap_or_else(|e| panic!("{} rejected its own op {op}: {e}", obj.name()));
            assert!(!outs.is_empty());
        }
    }

    #[test]
    fn state_mismatch_is_detected() {
        let reg = AnyObject::register();
        let cons_state = AnyObject::consensus(2).unwrap().initial_state();
        let err = reg.outcomes(&cons_state, &Op::Read).unwrap_err();
        assert_eq!(
            err,
            SpecError::StateMismatch {
                object: "register",
                state: "n-consensus"
            }
        );
    }

    #[test]
    fn determinism_flags() {
        assert!(AnyObject::register().is_deterministic());
        assert!(AnyObject::consensus(2).unwrap().is_deterministic());
        assert!(AnyObject::pac(3).unwrap().is_deterministic());
        assert!(AnyObject::o_n(2).unwrap().is_deterministic());
        assert!(!AnyObject::strong_sa().is_deterministic());
        assert!(!AnyObject::set_agreement(2, 2).unwrap().is_deterministic());
        assert!(!AnyObject::o_prime_n(2, 2).unwrap().is_deterministic());
    }

    #[test]
    fn states_hash_and_compare() {
        use std::collections::HashSet;
        let obj = AnyObject::o_n(2).unwrap();
        let mut set = HashSet::new();
        set.insert(obj.initial_state());
        set.insert(obj.initial_state());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn constructor_errors_propagate() {
        assert!(AnyObject::consensus(0).is_err());
        assert!(AnyObject::pac(0).is_err());
        assert!(AnyObject::set_agreement(0, 1).is_err());
        assert!(AnyObject::combined_pac(1, 0).is_err());
        assert!(AnyObject::o_n(1).is_err());
        assert!(AnyObject::o_prime_n(2, 0).is_err());
    }

    #[test]
    fn display_of_state_names_family() {
        let s = AnyObject::register().initial_state();
        assert!(s.to_string().starts_with("register:"));
    }
}
