//! Consensus-number certification.
//!
//! An object is *at level `n`* of the consensus hierarchy if it (with
//! registers) solves consensus among `n` but not `n + 1` processes. This
//! module certifies the two halves separately, with the honest epistemic
//! status of each:
//!
//! * **Upper bound (machine-verified)** — [`certify_consensus_upper`] runs
//!   the canonical protocol (propose the input through the object's
//!   consensus-bearing face, decide the response) and checks the consensus
//!   properties over *every* execution and every binary input vector.
//! * **Refutation evidence (canonical-protocol)** —
//!   [`refute_canonical_consensus`] shows the canonical protocol fails for
//!   `n + 1` processes. This is evidence, not a proof over all protocols;
//!   the full impossibility is the paper's Theorem 5.2 (whose adversary
//!   machinery lives in `lbsa-explorer` and is exercised on the candidate
//!   catalogue of `lbsa-protocols`).
//!
//! [`certified_consensus_number`] combines both into a [`CertifiedLevel`].

use crate::holds_or_violation;
use lbsa_core::{AnyObject, ObjId, Value};
use lbsa_explorer::checker::{CheckStats, Violation};
use lbsa_explorer::{Explorer, Limits};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_protocols::dac::all_binary_inputs;

/// Which operation face of an object carries consensus proposals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Face {
    /// `PROPOSE(v)` — consensus objects, 2-SA, (n,k)-SA.
    Propose,
    /// `PROPOSEC(v)` — (n,m)-PAC objects (including `Oₙ`).
    ProposeC,
    /// `PROPOSE(v, 1)` — level 1 of a power object `O'ₙ`.
    PowerLevel1,
}

impl Face {
    fn protocol(self, inputs: Vec<Value>) -> ConsensusViaObject {
        match self {
            Face::Propose => ConsensusViaObject::new(inputs, ObjId(0)),
            Face::ProposeC => ConsensusViaObject::via_propose_c(inputs, ObjId(0)),
            Face::PowerLevel1 => ConsensusViaObject::via_power_level_1(inputs, ObjId(0)),
        }
    }
}

/// Aggregate statistics of an exhaustive certification sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Input vectors checked (always `2^n` for binary inputs).
    pub input_vectors: usize,
    /// Total configurations across all sweeps.
    pub configs: usize,
    /// Total transitions across all sweeps.
    pub transitions: usize,
}

impl SweepStats {
    fn absorb(&mut self, s: CheckStats) {
        self.input_vectors += 1;
        self.configs += s.configs;
        self.transitions += s.transitions;
    }
}

/// Certifies (exhaustively) that one instance of `object`, accessed through
/// `face`, solves consensus among `n` processes for every binary input
/// vector.
///
/// # Errors
///
/// Returns the first [`Violation`] found — including
/// [`Violation::Truncated`] if `limits` are too small.
pub fn certify_consensus_upper(
    object: &AnyObject,
    face: Face,
    n: usize,
    limits: Limits,
) -> Result<SweepStats, Violation> {
    let mut stats = SweepStats::default();
    for inputs in all_binary_inputs(n) {
        let valid = inputs.clone();
        let protocol = face.protocol(inputs);
        let objects = std::slice::from_ref(object);
        let explorer = Explorer::new(&protocol, objects);
        let verdict = explorer
            .exploration()
            .limits(limits)
            .check_consensus(&valid);
        stats.absorb(holds_or_violation(verdict)?);
    }
    Ok(stats)
}

/// Shows that the canonical protocol fails consensus among `n + 1`
/// processes with one instance of `object`: returns the violation found, or
/// `None` if the canonical protocol unexpectedly works (in which case the
/// object's consensus number exceeds `n`).
#[must_use]
pub fn refute_canonical_consensus(
    object: &AnyObject,
    face: Face,
    n_plus_1: usize,
    limits: Limits,
) -> Option<Violation> {
    // A mixed input vector is the discriminating one (all-equal inputs
    // cannot violate agreement/validity).
    let mut inputs = vec![Value::Int(0); n_plus_1];
    inputs[0] = Value::Int(1);
    let valid = inputs.clone();
    let protocol = face.protocol(inputs);
    let objects = std::slice::from_ref(object);
    let explorer = Explorer::new(&protocol, objects);
    holds_or_violation(
        explorer
            .exploration()
            .limits(limits)
            .check_consensus(&valid),
    )
    .err()
}

/// The outcome of a consensus-number certification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifiedLevel {
    /// The certified level: consensus among `level` processes is
    /// machine-verified.
    pub level: usize,
    /// Statistics of the exhaustive upper-bound sweep at `level`.
    pub upper: SweepStats,
    /// The violation exhibited by the canonical protocol at `level + 1`
    /// (canonical-protocol refutation evidence).
    pub refutation: Violation,
}

/// Certifies the consensus number of `object` (through `face`) by searching
/// the largest `n <= cap` whose upper bound verifies, and recording the
/// canonical-protocol refutation at `n + 1`.
///
/// # Errors
///
/// Returns the violation if even `n = 1` fails to verify, or if the object
/// verifies all the way to `cap` (so no refutation exists below the cap —
/// raise the cap).
pub fn certified_consensus_number(
    object: &AnyObject,
    face: Face,
    cap: usize,
    limits: Limits,
) -> Result<CertifiedLevel, Violation> {
    let mut best: Option<(usize, SweepStats)> = None;
    for n in 1..=cap {
        match certify_consensus_upper(object, face, n, limits) {
            Ok(stats) => best = Some((n, stats)),
            Err(violation) => {
                let (level, upper) = best.ok_or(violation.clone())?;
                debug_assert_eq!(level + 1, n);
                return Ok(CertifiedLevel {
                    level,
                    upper,
                    refutation: violation,
                });
            }
        }
    }
    // Verified all the way to the cap: no refutation below it.
    Err(Violation::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits::default()
    }

    #[test]
    fn consensus_object_is_at_its_own_level() {
        for n in 1..=3usize {
            let obj = AnyObject::consensus(n).unwrap();
            let cert = certified_consensus_number(&obj, Face::Propose, 5, limits()).unwrap();
            assert_eq!(cert.level, n, "n-consensus must certify at level {n}");
            assert!(cert.upper.input_vectors == 1 << n);
            assert!(cert.upper.configs > 0);
        }
    }

    #[test]
    fn observation_6_2_o_n_is_at_level_n() {
        // O_n = (n+1, n)-PAC has consensus number n (through its PROPOSEC
        // face — the canonical consensus protocol for it).
        for n in 2..=3usize {
            let obj = AnyObject::o_n(n).unwrap();
            let cert = certified_consensus_number(&obj, Face::ProposeC, 5, limits()).unwrap();
            assert_eq!(cert.level, n, "O_{n} must certify at level {n}");
        }
    }

    #[test]
    fn o_prime_n_level_1_certifies_at_level_n() {
        for n in 2..=3usize {
            let obj = AnyObject::o_prime_n(n, 2).unwrap();
            let cert = certified_consensus_number(&obj, Face::PowerLevel1, 5, limits()).unwrap();
            assert_eq!(cert.level, n, "O'_{n} must certify at level {n}");
        }
    }

    #[test]
    fn theorem_5_3_combined_pac_level_is_m_not_n() {
        // (n,m)-PAC sits at level m regardless of the PAC arity n.
        for (n, m) in [(5usize, 2usize), (2, 3)] {
            let obj = AnyObject::combined_pac(n, m).unwrap();
            let cert = certified_consensus_number(&obj, Face::ProposeC, 5, limits()).unwrap();
            assert_eq!(cert.level, m, "({n},{m})-PAC must certify at level {m}");
        }
    }

    #[test]
    fn strong_sa_has_consensus_number_1() {
        let obj = AnyObject::strong_sa();
        let cert = certified_consensus_number(&obj, Face::Propose, 4, limits()).unwrap();
        assert_eq!(
            cert.level, 1,
            "2-SA solves consensus only for a single process"
        );
        assert!(matches!(cert.refutation, Violation::Agreement { .. }));
    }

    #[test]
    fn set_agreement_k1_certifies_at_its_port_count() {
        // An (n,1)-SA object is consensus for n processes.
        let obj = AnyObject::set_agreement(3, 1).unwrap();
        let cert = certified_consensus_number(&obj, Face::Propose, 5, limits()).unwrap();
        assert_eq!(cert.level, 3);
    }

    #[test]
    fn cap_too_low_is_reported() {
        let obj = AnyObject::consensus(4).unwrap();
        assert!(certified_consensus_number(&obj, Face::Propose, 3, limits()).is_err());
    }

    #[test]
    fn refutation_evidence_is_returned_directly() {
        let obj = AnyObject::consensus(2).unwrap();
        let v = refute_canonical_consensus(&obj, Face::Propose, 3, limits());
        assert!(v.is_some());
        let none = refute_canonical_consensus(&obj, Face::Propose, 2, limits());
        assert!(
            none.is_none(),
            "2 processes on 2-consensus must not be refutable"
        );
    }
}
