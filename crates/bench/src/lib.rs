//! # lbsa-bench — benchmarks and experiment binaries
//!
//! This crate holds:
//!
//! * the **experiment report binaries** (`src/bin/exp_*.rs`), one per
//!   table/figure defined in the repository's `EXPERIMENTS.md`. Each prints
//!   the rows it regenerates, in markdown, to stdout;
//! * the **Criterion benchmarks** (`benches/*.rs`) measuring the machinery:
//!   object-spec throughput, exploration scaling, adversary synthesis,
//!   linearizability checking, certification, and the universal
//!   construction.
//!
//! The library itself provides the shared helpers used by both, and the
//! trace fold ([`trace_fold`]) the trace-reading binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod trace_fold;

use lbsa_core::Value;

/// `count` pairwise-distinct proposal values — the adversarial input choice
/// for agreement bounds.
#[must_use]
pub fn distinct_inputs(count: usize) -> Vec<Value> {
    (0..count).map(|i| Value::Int(i as i64)).collect()
}

/// A mixed binary input vector (process 0 gets `1`, everyone else `0`) —
/// the discriminating instance for consensus problems.
#[must_use]
pub fn mixed_binary_inputs(count: usize) -> Vec<Value> {
    let mut v = vec![Value::Int(0); count];
    if let Some(first) = v.first_mut() {
        *first = Value::Int(1);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(
            distinct_inputs(3),
            vec![Value::Int(0), Value::Int(1), Value::Int(2)]
        );
        assert_eq!(
            mixed_binary_inputs(3),
            vec![Value::Int(1), Value::Int(0), Value::Int(0)]
        );
        assert!(mixed_binary_inputs(0).is_empty());
    }
}
