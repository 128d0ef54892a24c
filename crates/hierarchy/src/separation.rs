//! The headline pipeline: `Oₙ` vs `O'ₙ` (Section 6, Corollaries 6.6/6.7).
//!
//! For a level `n`, [`run_separation`] machine-checks every executable
//! ingredient of the paper's separation:
//!
//! 1. **Equal power** — `Oₙ` and `O'ₙ` certify to the same (truncated) set
//!    agreement power table (the precondition of Corollary 6.6).
//! 2. **`O'ₙ` is implementable** from n-consensus + 2-SA objects
//!    (Lemma 6.4): the derived implementation passes linearizability
//!    against the `O'ₙ` specification on randomized concurrent histories,
//!    and its levels pass the exhaustive k-set-agreement checks.
//! 3. **`Oₙ` resists implementation** from `O'ₙ` + registers
//!    (Theorem 6.5): each candidate implementation in the catalogue is
//!    refuted — running Algorithm 2 over the candidate's (n+1)-PAC face
//!    violates the (n+1)-DAC properties, which Theorem 4.1 forbids for a
//!    correct implementation.
//!
//! Together: two objects at the same hierarchy level, with the same set
//! agreement power, that are **not equivalent**.

use crate::holds_or_violation;
use crate::power::{certify_power_table_o_n, certify_power_table_o_prime, PowerError};
use lbsa_core::power_object::SetAgreementPower;
use lbsa_core::{AnyObject, ObjId, Pid, Value};
use lbsa_explorer::checker::{DacInstance, Violation};
use lbsa_explorer::linearizability::check_linearizable;
use lbsa_explorer::{Explorer, Limits};
use lbsa_protocols::candidates::{CandidatePacProcedure, ValAgreement};
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::derived_impls::PowerFromConsensusAndSa;
use lbsa_protocols::set_agreement_protocols::KSetViaPowerLevel;
use lbsa_runtime::derived::{record_frontend_history, DerivedProtocol};
use lbsa_runtime::outcome::RandomOutcome;
use lbsa_runtime::scheduler::RandomScheduler;

/// The refutation of one candidate implementation of `Oₙ`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateRefutation {
    /// Human-readable description of the candidate.
    pub candidate: String,
    /// The n-DAC property violation exhibited against it.
    pub violation: Violation,
}

/// The full output of the separation pipeline for one level `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeparationReport {
    /// The hierarchy level.
    pub n: usize,
    /// Truncation depth of the power tables.
    pub max_k: usize,
    /// Certified power table of `Oₙ`.
    pub o_n_power: SetAgreementPower,
    /// Certified power table of `O'ₙ`.
    pub o_prime_power: SetAgreementPower,
    /// Linearizable histories of the Lemma 6.4 implementation of `O'ₙ`
    /// checked (one per seed).
    pub lemma_6_4_histories_checked: usize,
    /// The refuted candidate implementations of `Oₙ` (Theorem 6.5).
    pub refutations: Vec<CandidateRefutation>,
}

impl SeparationReport {
    /// `true` if the two certified power tables coincide.
    #[must_use]
    pub fn powers_match(&self) -> bool {
        self.o_n_power == self.o_prime_power
    }

    /// `true` if the pipeline established every ingredient: equal power,
    /// `O'ₙ` implementable, every candidate implementation of `Oₙ` refuted.
    #[must_use]
    pub fn separation_established(&self) -> bool {
        self.powers_match() && self.lemma_6_4_histories_checked > 0 && !self.refutations.is_empty()
    }
}

/// An error from the separation pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeparationError {
    /// Power-table certification failed.
    Power(PowerError),
    /// The Lemma 6.4 implementation produced a non-linearizable history —
    /// which would contradict the lemma; report and stop.
    Lemma64NotLinearizable {
        /// Seed of the offending run.
        seed: u64,
        /// Checker message.
        message: String,
    },
    /// A candidate implementation of `Oₙ` was **not** refuted — it passed
    /// the (n+1)-DAC check, contradicting Theorem 4.2. (This would indicate
    /// a bug in the machinery, not a disproof of the paper.)
    CandidateSurvived {
        /// Description of the surviving candidate.
        candidate: String,
    },
}

impl std::fmt::Display for SeparationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeparationError::Power(e) => write!(f, "power certification failed: {e}"),
            SeparationError::Lemma64NotLinearizable { seed, message } => {
                write!(
                    f,
                    "lemma 6.4 implementation not linearizable (seed {seed}): {message}"
                )
            }
            SeparationError::CandidateSurvived { candidate } => {
                write!(
                    f,
                    "candidate implementation unexpectedly survived: {candidate}"
                )
            }
        }
    }
}

impl std::error::Error for SeparationError {}

impl From<PowerError> for SeparationError {
    fn from(e: PowerError) -> Self {
        SeparationError::Power(e)
    }
}

/// Checks the Lemma 6.4 implementation of `O'ₙ` on `seeds` randomized
/// concurrent histories; returns how many were checked.
fn check_lemma_6_4(n: usize, max_k: usize, seeds: u64) -> Result<usize, SeparationError> {
    let spec_objects =
        vec![AnyObject::o_prime_n(n, max_k).expect("n >= 2, max_k >= 1 validated upstream")];
    let procedure = PowerFromConsensusAndSa::new(max_k);
    // Workload: n_k processes exercise the deepest level (the most
    // nondeterministic component).
    let k = max_k;
    let inputs: Vec<Value> = (0..k * n).map(|i| Value::Int(i as i64)).collect();
    let inner = KSetViaPowerLevel::new(inputs, ObjId(0), k);
    let mut bases = vec![ObjId(0)];
    bases.extend((1..max_k).map(ObjId));
    let mut checked = 0usize;
    for seed in 0..seeds {
        let frontends = vec![PowerFromConsensusAndSa::frontend(bases.clone())];
        let derived = DerivedProtocol::new(&inner, &procedure, frontends);
        let mut objects = vec![AnyObject::consensus(n).expect("n >= 1")];
        objects.extend((2..=max_k).map(|_| AnyObject::strong_sa()));
        let (history, _) = record_frontend_history(
            &derived,
            &objects,
            &mut RandomScheduler::seeded(seed),
            &mut RandomOutcome::seeded(seed.wrapping_mul(0x9E37_79B9)),
            10_000,
        )
        .expect("runs are error-free");
        check_linearizable(&history, &spec_objects).map_err(|e| {
            SeparationError::Lemma64NotLinearizable {
                seed,
                message: e.to_string(),
            }
        })?;
        checked += 1;
    }
    Ok(checked)
}

/// Refutes one candidate implementation of `Oₙ`'s PAC face from `O'ₙ` +
/// registers by running Algorithm 2 over it and checking (n+1)-DAC.
fn refute_candidate(
    n: usize,
    max_k: usize,
    val_agreement: ValAgreement,
    description: &str,
    limits: Limits,
    solo_bound: usize,
) -> Result<CandidateRefutation, SeparationError> {
    let labels = n + 1;
    let mut inputs = vec![Value::Int(0); labels];
    inputs[0] = Value::Int(1);
    let inner = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).expect("n + 1 >= 2");
    let procedure = CandidatePacProcedure::new(labels, val_agreement);
    let v_registers: Vec<ObjId> = (2..2 + labels).map(ObjId).collect();
    let frontends = vec![CandidatePacProcedure::frontend(
        ObjId(0),
        ObjId(1),
        v_registers,
    )];
    let derived = DerivedProtocol::new(&inner, &procedure, frontends);
    let mut objects = vec![AnyObject::o_prime_n(n, max_k).expect("validated upstream")];
    objects.extend((0..=labels).map(|_| AnyObject::register()));
    let explorer = Explorer::new(&derived, &objects);
    let instance = DacInstance {
        distinguished: Pid(0),
        inputs,
    };
    let verdict = explorer
        .exploration()
        .limits(limits)
        .check_dac(&instance, solo_bound);
    match holds_or_violation(verdict) {
        Err(violation) => Ok(CandidateRefutation {
            candidate: description.to_string(),
            violation,
        }),
        Ok(_) => Err(SeparationError::CandidateSurvived {
            candidate: description.to_string(),
        }),
    }
}

/// Runs the full separation pipeline for level `n` with power tables
/// truncated at `max_k`, checking `lin_seeds` randomized histories for
/// Lemma 6.4.
///
/// # Errors
///
/// Returns a [`SeparationError`] if any pipeline stage fails — which would
/// indicate a machinery bug or an exceeded budget, never a normal outcome.
pub fn run_separation(
    n: usize,
    max_k: usize,
    limits: Limits,
    lin_seeds: u64,
) -> Result<SeparationReport, SeparationError> {
    let o_n_power = certify_power_table_o_n(n, max_k, limits)?;
    let o_prime_power = certify_power_table_o_prime(n, max_k, limits)?;
    let lemma_6_4_histories_checked = check_lemma_6_4(n, max_k, lin_seeds)?;

    let solo_bound = 20 * (n + 2);
    let mut refutations = Vec::new();
    refutations.push(refute_candidate(
        n,
        max_k,
        ValAgreement::PowerLevel(1),
        "PAC face over O'_n level 1 (consensus) + registers",
        limits,
        solo_bound,
    )?);
    if max_k >= 2 {
        refutations.push(refute_candidate(
            n,
            max_k,
            ValAgreement::PowerLevel(2),
            "PAC face over O'_n level 2 (2-set agreement) + registers",
            limits,
            solo_bound,
        )?);
    }

    Ok(SeparationReport {
        n,
        max_k,
        o_n_power,
        o_prime_power,
        lemma_6_4_histories_checked,
        refutations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corollary_6_6_separation_for_n_2() {
        let report = run_separation(2, 2, Limits::default(), 8).unwrap();
        assert!(report.powers_match());
        assert!(report.separation_established());
        assert_eq!(report.refutations.len(), 2);
        for r in &report.refutations {
            assert!(
                matches!(
                    r.violation,
                    Violation::Agreement { .. }
                        | Violation::Validity { .. }
                        | Violation::SoloNonTermination { .. }
                        | Violation::NonTermination { .. }
                ),
                "unexpected refutation shape for {}: {}",
                r.candidate,
                r.violation
            );
        }
    }

    #[test]
    fn error_display() {
        let e = SeparationError::CandidateSurvived {
            candidate: "x".into(),
        };
        assert!(e.to_string().contains("survived"));
        let e = SeparationError::Lemma64NotLinearizable {
            seed: 3,
            message: "m".into(),
        };
        assert!(e.to_string().contains("seed 3"));
    }
}
