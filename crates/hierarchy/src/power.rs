//! Certified set agreement power tables.
//!
//! The set agreement power of `O` is `(n₁, n₂, …)` with `n_k` the largest
//! process count for which `O` + registers solve `k`-set agreement. Exact
//! values are a hard open combinatorial question in general; what this
//! module certifies — and what the paper's construction of `O'ₙ` actually
//! needs — are **machine-verified lower bounds** together with the
//! observation that `Oₙ` and `O'ₙ` certify to the *same* table:
//!
//! * `n_k(Oₙ) >= k·n`, by group-splitting `k·n` processes over the
//!   `PROPOSEC` faces of `k` instances of `Oₙ` ([`certify_power_table_o_n`]),
//!   with `n₁ = n` exact (Observation 6.2, certified in [`crate::certify`]);
//! * `n_k(O'ₙ) >= k·n`, by construction: level `k` of `O'ₙ` *is* an
//!   `(k·n, k)-SA` object ([`certify_power_table_o_prime`]).
//!
//! Every entry is verified by exhaustive exploration over all-distinct
//! inputs (the adversarial case for the agreement bound).

use crate::holds_or_violation;
use lbsa_core::power_object::SetAgreementPower;
use lbsa_core::{AnyObject, ObjId, SpecError, Value};
use lbsa_explorer::checker::Violation;
use lbsa_explorer::{Explorer, Limits};
use lbsa_protocols::set_agreement_protocols::{GroupSplitKSet, KSetViaPowerLevel};

/// An error from power-table certification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PowerError {
    /// A k-set agreement check failed at the given level.
    Violation {
        /// The level `k` that failed.
        k: usize,
        /// The violation.
        violation: Violation,
    },
    /// Object construction failed.
    Spec(SpecError),
    /// A protocol constructor rejected its arguments.
    Protocol(String),
}

impl std::fmt::Display for PowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerError::Violation { k, violation } => {
                write!(f, "level {k} failed certification: {violation}")
            }
            PowerError::Spec(e) => write!(f, "object construction failed: {e}"),
            PowerError::Protocol(e) => write!(f, "protocol construction failed: {e}"),
        }
    }
}

impl std::error::Error for PowerError {}

impl From<SpecError> for PowerError {
    fn from(e: SpecError) -> Self {
        PowerError::Spec(e)
    }
}

fn distinct_inputs(count: usize) -> Vec<Value> {
    (0..count).map(|i| Value::Int(i as i64)).collect()
}

/// Certifies the lower-bound power table of `Oₙ` for levels `1..=max_k`:
/// for each `k`, exhaustively verifies `k`-set agreement among `k·n`
/// processes using `k` instances of `Oₙ` (group-split over their
/// `PROPOSEC` faces).
///
/// # Errors
///
/// Returns a [`PowerError`] if any level fails.
pub fn certify_power_table_o_n(
    n: usize,
    max_k: usize,
    limits: Limits,
) -> Result<SetAgreementPower, PowerError> {
    let mut entries = Vec::with_capacity(max_k);
    for k in 1..=max_k {
        let processes = k * n;
        let inputs = distinct_inputs(processes);
        let protocol =
            GroupSplitKSet::via_combined(inputs.clone(), n).map_err(PowerError::Protocol)?;
        let objects: Vec<AnyObject> = (0..k)
            .map(|_| AnyObject::o_n(n))
            .collect::<Result<_, _>>()?;
        let explorer = Explorer::new(&protocol, &objects);
        let verdict = explorer
            .exploration()
            .limits(limits)
            .check_k_set_agreement(k, &inputs);
        holds_or_violation(verdict).map_err(|violation| PowerError::Violation { k, violation })?;
        entries.push(processes);
    }
    Ok(SetAgreementPower::new(entries)?)
}

/// Certifies the lower-bound power table of `O'ₙ` for levels `1..=max_k`:
/// for each `k`, exhaustively verifies `k`-set agreement among `n_k = k·n`
/// processes through level `k` of a single `O'ₙ`.
///
/// # Errors
///
/// Returns a [`PowerError`] if any level fails.
pub fn certify_power_table_o_prime(
    n: usize,
    max_k: usize,
    limits: Limits,
) -> Result<SetAgreementPower, PowerError> {
    let mut entries = Vec::with_capacity(max_k);
    for k in 1..=max_k {
        let processes = k * n;
        let inputs = distinct_inputs(processes);
        let protocol = KSetViaPowerLevel::new(inputs.clone(), ObjId(0), k);
        let objects = vec![AnyObject::o_prime_n(n, max_k)?];
        let explorer = Explorer::new(&protocol, &objects);
        let verdict = explorer
            .exploration()
            .limits(limits)
            .check_k_set_agreement(k, &inputs);
        holds_or_violation(verdict).map_err(|violation| PowerError::Violation { k, violation })?;
        entries.push(processes);
    }
    Ok(SetAgreementPower::new(entries)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn o_2_power_table_certifies() {
        let table = certify_power_table_o_n(2, 2, Limits::default()).unwrap();
        assert_eq!(table.n_k(1), Some(2));
        assert_eq!(table.n_k(2), Some(4));
    }

    #[test]
    fn o_prime_2_power_table_certifies() {
        let table = certify_power_table_o_prime(2, 2, Limits::default()).unwrap();
        assert_eq!(table.n_k(1), Some(2));
        assert_eq!(table.n_k(2), Some(4));
    }

    #[test]
    fn corollary_6_6_precondition_tables_agree() {
        // The heart of Corollary 6.6's setup: O_n and O'_n certify to the
        // same power table.
        let a = certify_power_table_o_n(2, 2, Limits::default()).unwrap();
        let b = certify_power_table_o_prime(2, 2, Limits::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn power_errors_display() {
        let e = PowerError::Protocol("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = PowerError::from(SpecError::ZeroLabel);
        assert!(e.to_string().contains("construction"));
    }
}
