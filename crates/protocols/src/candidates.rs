//! **Refutation targets**: natural-but-doomed protocols and implementations.
//!
//! Theorems 4.2/4.3 and 6.5 of the paper are impossibility results: *no*
//! algorithm solves (n+1)-DAC (equivalently, implements (n+1)-PAC / `Oₙ`)
//! from n-consensus objects, registers, and 2-SA objects (equivalently, from
//! `O'ₙ` and registers). An executable reproduction cannot quantify over all
//! algorithms, but it can do the next best thing: take the *natural
//! candidate* algorithms a practitioner would write, and let the machinery
//! of `lbsa-explorer` find, for each one, a concrete machine-checkable
//! counterexample — an agreement/validity violation, or a non-termination
//! certificate, exactly the dichotomy the paper's proofs establish.
//!
//! This module is that catalogue:
//!
//! * [`WaitForWinner`] — (n+1)-consensus attempt: propose to the
//!   n-consensus object; losers spin on a register waiting for the winner's
//!   announcement. *Fails Termination* (the spinner can starve).
//! * [`SaThenConsensus`] — narrow to two values with the 2-SA object, then
//!   try to break the tie with the n-consensus object. *Fails Agreement*
//!   (the `⊥`-receiver keeps its own narrowed value).
//! * [`DacWaitForWinner`] — the DAC version of `WaitForWinner` where the
//!   distinguished process aborts on `⊥`. *Fails Termination (b)*.
//! * [`CandidatePacProcedure`] — an access-procedure implementation of an
//!   (n+1)-PAC front-end from {agreement object, registers}, mimicking
//!   Algorithm 1's state with registers and delegating the `val` agreement
//!   to either an n-consensus object (Theorem 4.3 target) or a level of
//!   `O'ₙ` (Theorem 6.5 target). Running **Algorithm 2** over this front-end
//!   violates the n-DAC properties — by port exhaustion (level 1 /
//!   consensus) or by double-answer (level 2). The experiments refute every
//!   variant.

use lbsa_core::{ObjId, Op, Pid, Value};
use lbsa_runtime::derived::{AccessProcedure, AccessStep, FrontEnd};
use lbsa_runtime::process::{Protocol, Step};

/// (n+1)-consensus attempt over an n-consensus object (base `ObjId(0)`) and
/// an announcement register (`ObjId(1)`): winners announce, losers spin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitForWinner {
    inputs: Vec<Value>,
}

/// Local state of [`WaitForWinner`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WfwState {
    /// About to propose to the consensus object.
    Propose,
    /// Got a value; about to announce it in the register.
    Announce(Value),
    /// Got `⊥`; spinning on the announcement register.
    Spin,
}

impl WaitForWinner {
    /// Creates the candidate with the given inputs (any number of
    /// processes; it is doomed as soon as there are more processes than the
    /// consensus object's arity).
    #[must_use]
    pub fn new(inputs: Vec<Value>) -> Self {
        WaitForWinner { inputs }
    }
}

impl Protocol for WaitForWinner {
    type LocalState = WfwState;

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) -> WfwState {
        WfwState::Propose
    }

    fn pending_op(&self, pid: Pid, state: &WfwState) -> (ObjId, Op) {
        match state {
            WfwState::Propose => (ObjId(0), Op::Propose(self.inputs[pid.index()])),
            WfwState::Announce(v) => (ObjId(1), Op::Write(*v)),
            WfwState::Spin => (ObjId(1), Op::Read),
        }
    }

    fn on_response(&self, _pid: Pid, state: &WfwState, response: Value) -> Step<WfwState> {
        match state {
            WfwState::Propose => {
                if response == Value::Bot {
                    Step::Continue(WfwState::Spin)
                } else {
                    Step::Continue(WfwState::Announce(response))
                }
            }
            WfwState::Announce(v) => Step::Decide(*v),
            WfwState::Spin => {
                if response.is_nil() {
                    Step::Continue(WfwState::Spin)
                } else {
                    Step::Decide(response)
                }
            }
        }
    }
}

/// (n+1)-consensus attempt: narrow to two values via the 2-SA object
/// (`ObjId(0)`), then tie-break on the n-consensus object (`ObjId(1)`);
/// a `⊥` from the tie-break falls back to the narrowed value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaThenConsensus {
    inputs: Vec<Value>,
}

/// Local state of [`SaThenConsensus`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StcState {
    /// About to propose to the 2-SA object.
    Narrow,
    /// Got a narrowed value; about to tie-break on the consensus object.
    TieBreak(Value),
}

impl SaThenConsensus {
    /// Creates the candidate.
    #[must_use]
    pub fn new(inputs: Vec<Value>) -> Self {
        SaThenConsensus { inputs }
    }
}

impl Protocol for SaThenConsensus {
    type LocalState = StcState;

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) -> StcState {
        StcState::Narrow
    }

    fn pending_op(&self, pid: Pid, state: &StcState) -> (ObjId, Op) {
        match state {
            StcState::Narrow => (ObjId(0), Op::Propose(self.inputs[pid.index()])),
            StcState::TieBreak(v) => (ObjId(1), Op::Propose(*v)),
        }
    }

    fn on_response(&self, _pid: Pid, state: &StcState, response: Value) -> Step<StcState> {
        match state {
            StcState::Narrow => Step::Continue(StcState::TieBreak(response)),
            StcState::TieBreak(narrowed) => {
                if response == Value::Bot {
                    // The consensus object is exhausted; fall back to the
                    // narrowed value — this is where agreement breaks.
                    Step::Decide(*narrowed)
                } else {
                    Step::Decide(response)
                }
            }
        }
    }
}

/// (n+1)-DAC attempt: like [`WaitForWinner`] but the distinguished process
/// aborts on `⊥` instead of spinning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DacWaitForWinner {
    inputs: Vec<Value>,
    distinguished: Pid,
}

impl DacWaitForWinner {
    /// Creates the candidate.
    #[must_use]
    pub fn new(inputs: Vec<Value>, distinguished: Pid) -> Self {
        DacWaitForWinner {
            inputs,
            distinguished,
        }
    }

    /// The distinguished process.
    #[must_use]
    pub fn distinguished(&self) -> Pid {
        self.distinguished
    }
}

impl Protocol for DacWaitForWinner {
    type LocalState = WfwState;

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) -> WfwState {
        WfwState::Propose
    }

    fn pending_op(&self, pid: Pid, state: &WfwState) -> (ObjId, Op) {
        match state {
            WfwState::Propose => (ObjId(0), Op::Propose(self.inputs[pid.index()])),
            WfwState::Announce(v) => (ObjId(1), Op::Write(*v)),
            WfwState::Spin => (ObjId(1), Op::Read),
        }
    }

    fn on_response(&self, pid: Pid, state: &WfwState, response: Value) -> Step<WfwState> {
        match state {
            WfwState::Propose => {
                if response == Value::Bot {
                    if pid == self.distinguished {
                        return Step::Abort;
                    }
                    Step::Continue(WfwState::Spin)
                } else {
                    Step::Continue(WfwState::Announce(response))
                }
            }
            WfwState::Announce(v) => Step::Decide(*v),
            WfwState::Spin => {
                if response.is_nil() {
                    Step::Continue(WfwState::Spin)
                } else {
                    Step::Decide(response)
                }
            }
        }
    }
}

/// How the candidate PAC implementation agrees on the `val` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValAgreement {
    /// Propose to a plain n-consensus object (the Theorem 4.3 setting:
    /// implement (n+1)-PAC from n-consensus + registers).
    ConsensusObject,
    /// Propose at level `k` of a power object `O'ₙ` (the Theorem 6.5
    /// setting: implement `Oₙ`'s PAC face from `O'ₙ` + registers).
    PowerLevel(usize),
}

/// A candidate implementation of an (n+1)-PAC front-end over base objects
/// `[0]` = agreement object (see [`ValAgreement`]), `[1]` = register `L`,
/// `[2 + i]` = register `V[i+1]`.
///
/// The procedure mirrors Algorithm 1 step by step, except that the `val`
/// field — the one place where genuine (n+1)-process agreement is needed —
/// is delegated to the base agreement object. That delegation is precisely
/// what the paper proves cannot work:
///
/// * with an n-consensus object or level 1 of `O'ₙ`, the agreement budget is
///   `n < n + 1` ports, so some simulated port eventually receives `⊥`
///   forever (Termination (b) of the n-DAC problem fails);
/// * with level `k >= 2` of `O'ₙ`, two ports can receive *different* values
///   (Agreement of the n-DAC problem fails).
///
/// Note the candidate is not even linearizable as a PAC object (its
/// register updates race); the refutation experiments do not rely on that —
/// they run Algorithm 2 over the front-end and exhibit an n-DAC property
/// violation, which refutes the implementation *as an implementation*
/// (Theorem 4.1 would otherwise make Algorithm 2 correct).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidatePacProcedure {
    labels: usize,
    val_agreement: ValAgreement,
}

/// Program counter of one access of [`CandidatePacProcedure`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CandidatePacState {
    /// `PROPOSE(v, i)`: writing `V[i] <- v`.
    ProposeWriteV {
        /// Proposed value.
        v: Value,
        /// 0-based label index.
        label: usize,
    },
    /// `PROPOSE(v, i)`: writing `L <- i`.
    ProposeWriteL {
        /// 0-based label index.
        label: usize,
    },
    /// `DECIDE(i)`: reading `L`.
    DecideReadL {
        /// 0-based label index.
        label: usize,
    },
    /// `DECIDE(i)`: reading `V[i]`.
    DecideReadV {
        /// 0-based label index.
        label: usize,
        /// Whether `L` matched the label.
        l_matches: bool,
    },
    /// `DECIDE(i)`: proposing `V[i]` to the agreement object.
    DecideAgree {
        /// 0-based label index.
        label: usize,
        /// The value read from `V[i]`, to propose.
        v: Value,
    },
    /// `DECIDE(i)`: clearing `V[i]`.
    DecideClearV {
        /// 0-based label index.
        label: usize,
        /// The response to eventually return.
        result: Value,
    },
    /// `DECIDE(i)`: clearing `L`.
    DecideClearL {
        /// The response to eventually return.
        result: Value,
    },
}

impl CandidatePacProcedure {
    /// Creates the candidate for an (labels)-PAC front-end.
    ///
    /// # Panics
    ///
    /// Panics if `labels == 0`.
    #[must_use]
    pub fn new(labels: usize, val_agreement: ValAgreement) -> Self {
        assert!(labels >= 1);
        CandidatePacProcedure {
            labels,
            val_agreement,
        }
    }

    /// Front-end layout: `agreement` first, then `l_register`, then one
    /// `V` register per label.
    #[must_use]
    pub fn frontend(agreement: ObjId, l_register: ObjId, v_registers: Vec<ObjId>) -> FrontEnd {
        let mut base = vec![agreement, l_register];
        base.extend(v_registers);
        FrontEnd::Derived { base }
    }

    fn agree_op(&self, v: Value) -> Op {
        match self.val_agreement {
            ValAgreement::ConsensusObject => Op::Propose(v),
            ValAgreement::PowerLevel(k) => Op::ProposeAt(v, k),
        }
    }
}

impl AccessProcedure for CandidatePacProcedure {
    type ProcState = CandidatePacState;

    fn begin(&self, _pid: Pid, _front: ObjId, op: &Op) -> CandidatePacState {
        match op {
            Op::ProposePac(v, i) if i.in_range(self.labels) => CandidatePacState::ProposeWriteV {
                v: *v,
                label: i.to_index(),
            },
            Op::DecidePac(i) if i.in_range(self.labels) => CandidatePacState::DecideReadL {
                label: i.to_index(),
            },
            other => panic!("candidate PAC front-end does not support {other}"),
        }
    }

    fn pending(&self, _pid: Pid, state: &CandidatePacState) -> (usize, Op) {
        match state {
            CandidatePacState::ProposeWriteV { v, label } => (2 + label, Op::Write(*v)),
            CandidatePacState::ProposeWriteL { label } => (1, Op::Write(Value::Int(*label as i64))),
            CandidatePacState::DecideReadL { .. } => (1, Op::Read),
            CandidatePacState::DecideReadV { label, .. } => (2 + label, Op::Read),
            CandidatePacState::DecideAgree { v, .. } => (0, self.agree_op(*v)),
            CandidatePacState::DecideClearV { label, .. } => (2 + label, Op::Write(Value::Nil)),
            CandidatePacState::DecideClearL { .. } => (1, Op::Write(Value::Nil)),
        }
    }

    fn resume(
        &self,
        _pid: Pid,
        state: &CandidatePacState,
        response: Value,
    ) -> AccessStep<CandidatePacState> {
        match state {
            CandidatePacState::ProposeWriteV { label, .. } => {
                AccessStep::Continue(CandidatePacState::ProposeWriteL { label: *label })
            }
            CandidatePacState::ProposeWriteL { .. } => AccessStep::Return(Value::Done),
            CandidatePacState::DecideReadL { label } => {
                let l_matches = response == Value::Int(*label as i64);
                AccessStep::Continue(CandidatePacState::DecideReadV {
                    label: *label,
                    l_matches,
                })
            }
            CandidatePacState::DecideReadV { label, l_matches } => {
                if *l_matches && !response.is_nil() {
                    AccessStep::Continue(CandidatePacState::DecideAgree {
                        label: *label,
                        v: response,
                    })
                } else {
                    AccessStep::Continue(CandidatePacState::DecideClearV {
                        label: *label,
                        result: Value::Bot,
                    })
                }
            }
            CandidatePacState::DecideAgree { label, .. } => {
                let result = if response == Value::Bot {
                    Value::Bot
                } else {
                    response
                };
                AccessStep::Continue(CandidatePacState::DecideClearV {
                    label: *label,
                    result,
                })
            }
            CandidatePacState::DecideClearV { result, .. } => {
                AccessStep::Continue(CandidatePacState::DecideClearL { result: *result })
            }
            CandidatePacState::DecideClearL { result } => AccessStep::Return(*result),
        }
    }
}

/// Candidate consensus from **PAC objects alone** (no distinguished
/// process): every process loops `PROPOSE(v, label)` / `DECIDE(label)` like
/// Algorithm 2's non-distinguished processes, hoping some decide returns a
/// value.
///
/// Theorem 5.2 with `m = 1` implies n-PAC objects plus registers cannot
/// solve consensus even among **two** processes — the PAC family sits at
/// level 1 of the hierarchy despite simulating the n-DAC object. This
/// candidate is the natural attempt, and the adversary refutes it with a
/// non-termination certificate: two retry loops can starve each other
/// forever (no process may abort, so nobody ever exits the loop).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacRetryConsensus {
    inputs: Vec<Value>,
    pac: ObjId,
}

/// Local state of [`PacRetryConsensus`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacRetryPhase {
    /// About to propose.
    Proposing,
    /// About to decide.
    Deciding,
}

impl PacRetryConsensus {
    /// Creates the candidate; `pac` must hold an n-PAC with
    /// `n >= inputs.len()`.
    #[must_use]
    pub fn new(inputs: Vec<Value>, pac: ObjId) -> Self {
        PacRetryConsensus { inputs, pac }
    }
}

impl Protocol for PacRetryConsensus {
    type LocalState = PacRetryPhase;

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) -> PacRetryPhase {
        PacRetryPhase::Proposing
    }

    fn pending_op(&self, pid: Pid, state: &PacRetryPhase) -> (ObjId, Op) {
        let label = lbsa_core::Label::new(pid.index() + 1).expect("pid + 1 >= 1");
        match state {
            PacRetryPhase::Proposing => (self.pac, Op::ProposePac(self.inputs[pid.index()], label)),
            PacRetryPhase::Deciding => (self.pac, Op::DecidePac(label)),
        }
    }

    fn on_response(
        &self,
        _pid: Pid,
        state: &PacRetryPhase,
        response: Value,
    ) -> Step<PacRetryPhase> {
        match state {
            PacRetryPhase::Proposing => Step::Continue(PacRetryPhase::Deciding),
            PacRetryPhase::Deciding => {
                if response == Value::Bot {
                    Step::Continue(PacRetryPhase::Proposing)
                } else {
                    Step::Decide(response)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dac::DacFromPac;
    use lbsa_core::value::int;
    use lbsa_core::AnyObject;
    use lbsa_explorer::checker::{DacInstance, Violation};
    use lbsa_explorer::verdict::Outcome;
    use lbsa_explorer::Explorer;
    use lbsa_runtime::derived::DerivedProtocol;

    #[test]
    fn wait_for_winner_works_within_budget() {
        // Control: with n processes on an n-consensus object the candidate
        // is correct — the machinery must NOT refute it.
        let inputs = vec![int(0), int(1)];
        let p = WaitForWinner::new(inputs.clone());
        let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&inputs);
        assert!(v.holds(), "control experiment failed: {v}");
    }

    #[test]
    fn theorem_4_2_wait_for_winner_refuted_by_nontermination() {
        // n + 1 = 3 processes on a 2-consensus object: the adversary finds a
        // cycle (the ⊥-receiver spins while the winners are starved).
        let inputs = vec![int(0), int(1), int(1)];
        let p = WaitForWinner::new(inputs.clone());
        let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&inputs);
        assert!(
            matches!(
                v.outcome,
                Outcome::Violated(Violation::NonTermination { .. })
            ),
            "{v}"
        );
        // And the certificate replays.
        let w = v.witness.expect("non-termination carries a witness");
        w.confirm(&ex).expect("the certificate replays");
    }

    #[test]
    fn theorem_4_2_sa_then_consensus_refuted_by_agreement() {
        // 3 processes, 2-consensus + 2-SA: the checker finds an execution
        // with two distinct decisions.
        let inputs = vec![int(0), int(1), int(1)];
        let p = SaThenConsensus::new(inputs.clone());
        let objects = vec![AnyObject::strong_sa(), AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&inputs);
        assert!(
            matches!(v.outcome, Outcome::Violated(Violation::Agreement { .. })),
            "{v}"
        );
    }

    #[test]
    fn theorem_4_2_dac_wait_for_winner_refuted() {
        // The DAC variant: some non-distinguished process can end up
        // spinning forever even solo — Termination (b) fails.
        let inputs = vec![int(1), int(0), int(0)];
        let p = DacWaitForWinner::new(inputs.clone(), Pid(0));
        let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let instance = DacInstance {
            distinguished: Pid(0),
            inputs,
        };
        let v = ex.exploration().check_dac(&instance, 12);
        assert!(
            matches!(
                v.outcome,
                Outcome::Violated(
                    Violation::SoloNonTermination { .. } | Violation::NonTermination { .. }
                )
            ),
            "{v}"
        );
    }

    fn refute_candidate_pac(val_agreement: ValAgreement, objects: Vec<AnyObject>) -> Violation {
        // Run Algorithm 2 for 3-DAC over the candidate (3)-PAC front-end.
        // If the candidate implementation were correct, Theorem 4.1 says the
        // check would pass; the returned violation refutes it.
        let inputs = vec![int(1), int(0), int(0)];
        let inner = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).unwrap();
        let procedure = CandidatePacProcedure::new(3, val_agreement);
        let frontends = vec![CandidatePacProcedure::frontend(
            ObjId(0),
            ObjId(1),
            vec![ObjId(2), ObjId(3), ObjId(4)],
        )];
        let derived = DerivedProtocol::new(&inner, &procedure, frontends);
        let ex = Explorer::new(&derived, &objects);
        let instance = DacInstance {
            distinguished: Pid(0),
            inputs,
        };
        match ex.exploration().check_dac(&instance, 60).outcome {
            Outcome::Violated(v) => v,
            other => panic!("the candidate PAC implementation must be refuted: {other:?}"),
        }
    }

    fn registers(n: usize) -> Vec<AnyObject> {
        (0..n).map(|_| AnyObject::register()).collect()
    }

    #[test]
    fn theorem_4_3_candidate_pac_from_consensus_refuted() {
        let mut objects = vec![AnyObject::consensus(2).unwrap()];
        objects.extend(registers(4));
        let v = refute_candidate_pac(ValAgreement::ConsensusObject, objects);
        assert!(
            matches!(
                v,
                Violation::SoloNonTermination { .. } | Violation::NonTermination { .. }
            ),
            "expected a termination failure from port exhaustion, got {v}"
        );
    }

    #[test]
    fn theorem_6_5_candidate_pac_from_o_prime_level_1_refuted() {
        let mut objects = vec![AnyObject::o_prime_n(2, 2).unwrap()];
        objects.extend(registers(4));
        let v = refute_candidate_pac(ValAgreement::PowerLevel(1), objects);
        assert!(
            matches!(
                v,
                Violation::SoloNonTermination { .. } | Violation::NonTermination { .. }
            ),
            "expected a termination failure from port exhaustion, got {v}"
        );
    }

    #[test]
    fn theorem_6_5_candidate_pac_from_o_prime_level_2_refuted() {
        let mut objects = vec![AnyObject::o_prime_n(2, 2).unwrap()];
        objects.extend(registers(4));
        let v = refute_candidate_pac(ValAgreement::PowerLevel(2), objects);
        assert!(
            matches!(
                v,
                Violation::Agreement { .. }
                    | Violation::SoloNonTermination { .. }
                    | Violation::NonTermination { .. }
            ),
            "expected an agreement or termination failure, got {v}"
        );
    }

    #[test]
    fn theorem_5_2_m1_pac_alone_cannot_solve_2_consensus() {
        // The m = 1 shadow of Theorem 5.2: PAC objects (of ANY arity) plus
        // registers sit at level 1. The natural retry candidate is refuted
        // by a non-termination certificate for 2 processes...
        let inputs = vec![int(1), int(0)];
        let p = PacRetryConsensus::new(inputs.clone(), ObjId(0));
        let objects = vec![AnyObject::pac(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&inputs);
        assert!(
            matches!(
                v.outcome,
                Outcome::Violated(Violation::NonTermination { .. })
            ),
            "{v}"
        );

        // ...while a single process succeeds (level >= 1): solo, the pair
        // is always clean.
        let p = PacRetryConsensus::new(vec![int(1)], ObjId(0));
        let objects = vec![AnyObject::pac(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&[int(1)]);
        assert!(v.holds(), "solo PAC consensus must work: {v}");
    }
}
