//! # lbsa-hierarchy — the paper's results as a certification pipeline
//!
//! This crate assembles the machinery of the workspace into the paper's
//! actual program:
//!
//! * [`certify`] — **consensus-number certification**: exhaustively verify
//!   that the canonical protocol solves `n`-consensus with a given object
//!   (the upper bound), and collect refutation evidence for `n + 1`
//!   (Observation 6.2, Theorem 5.3).
//! * [`power`] — **set agreement power tables**: certified lower bounds
//!   `n_k` for `Oₙ` (via group-splitting over its consensus faces) and for
//!   `O'ₙ` (via its levels), and the equality check between them that
//!   Corollary 6.6 requires.
//! * [`separation`] — the **headline pipeline** (Section 6): for a given
//!   level `n`, certify that `Oₙ` and `O'ₙ` have the same (truncated) set
//!   agreement power, verify that `O'ₙ` is implementable from n-consensus +
//!   2-SA objects (Lemma 6.4, linearizability-checked), and refute the
//!   candidate implementations of `Oₙ` from `O'ₙ` + registers
//!   (Theorem 6.5).
//! * [`report`] — plain-text table rendering for the experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod power;
pub mod report;
pub mod separation;

pub use certify::{certified_consensus_number, CertifiedLevel, Face};
pub use power::{certify_power_table_o_n, certify_power_table_o_prime};
pub use separation::{run_separation, SeparationReport};

use lbsa_explorer::checker::{CheckStats, Violation};
use lbsa_explorer::verdict::{Outcome, Verdict};
use lbsa_explorer::CheckError;

/// The certification answer of an exhaustive check: its stats when the
/// property holds, otherwise the [`Violation`] — with a truncated
/// exploration as [`Violation::Truncated`] and a protocol fault as
/// [`Violation::Runtime`].
fn holds_or_violation(verdict: Verdict) -> Result<CheckStats, Violation> {
    match verdict.outcome {
        Outcome::Holds => Ok(verdict.stats),
        Outcome::Violated(violation) => Err(violation),
        Outcome::Truncated => Err(Violation::Truncated),
        Outcome::Error(CheckError::Runtime(e)) => Err(Violation::Runtime(e)),
        other => unreachable!("an exhaustive check concluded with {other:?}"),
    }
}
