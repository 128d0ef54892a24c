//! The unified error hierarchy of the checking layer.
//!
//! Checks can fail for reasons that are not counterexamples: a protocol can
//! hit a runtime fault (stepping a halted process, an out-of-range object),
//! a specification can reject an operation, a replayed witness schedule can
//! diverge from the graph it was extracted from, or a check can be asked of
//! a sampling sweep that has no sampled semantics. [`CheckError`] folds all
//! of these into one `thiserror`-style tree — `Display` + `Error::source` +
//! `From` conversions, hand-written because the workspace builds offline —
//! so a [`crate::verdict::Verdict`] carries a structured cause instead of a
//! string.

use lbsa_core::SpecError;
use lbsa_runtime::error::RuntimeError;
use std::error::Error;
use std::fmt;

/// Any failure of the checking machinery itself (as opposed to a property
/// violation, which is a successful check with a negative answer).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckError {
    /// The runtime/explorer failed to step the protocol.
    Runtime(RuntimeError),
    /// A witness replay did not reproduce the recorded violation: the
    /// schedule no longer describes this protocol/object combination.
    WitnessDiverged {
        /// Index of the schedule step where replay diverged, or the
        /// schedule length if the final predicate failed.
        step: usize,
        /// What went wrong at that step.
        reason: String,
    },
    /// The named check has no sampled semantics: only k-set agreement
    /// (and consensus) can be checked after
    /// [`Exploration::sample`](crate::Exploration::sample).
    SamplingUnsupported {
        /// The check that was asked for (`"dac"`, `"wait-free"`).
        check: &'static str,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Runtime(e) => write!(f, "runtime error: {e}"),
            CheckError::WitnessDiverged { step, reason } => {
                write!(f, "witness replay diverged at step {step}: {reason}")
            }
            CheckError::SamplingUnsupported { check } => {
                write!(f, "the {check} check cannot run on a sampling sweep")
            }
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::Runtime(e) => Some(e),
            CheckError::WitnessDiverged { .. } | CheckError::SamplingUnsupported { .. } => None,
        }
    }
}

impl From<RuntimeError> for CheckError {
    fn from(e: RuntimeError) -> Self {
        CheckError::Runtime(e)
    }
}

impl From<SpecError> for CheckError {
    fn from(e: SpecError) -> Self {
        CheckError::Runtime(RuntimeError::Spec(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::Pid;

    #[test]
    fn display_and_source_chain() {
        // Spec errors arrive through the runtime layer, and the chain
        // bottoms out at the SpecError itself.
        let e = CheckError::from(SpecError::ZeroLabel);
        assert!(e.to_string().contains("runtime error"));
        let source = Error::source(&e).expect("runtime source");
        assert!(Error::source(source).is_some(), "spec error underneath");

        let e = CheckError::from(RuntimeError::ProcessNotRunning(Pid(1)));
        assert!(e.to_string().contains("p1"));

        let e = CheckError::WitnessDiverged {
            step: 3,
            reason: "pid cannot step".to_string(),
        };
        assert!(e.to_string().contains("step 3"));
        assert!(Error::source(&e).is_none());

        let e = CheckError::SamplingUnsupported { check: "dac" };
        assert!(e.to_string().contains("dac"));
        assert!(Error::source(&e).is_none());
    }
}
