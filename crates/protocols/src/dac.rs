//! The **n-DAC problem** and **Algorithm 2** (Section 4 of the paper).
//!
//! The n-DAC problem (Hadzilacos & Toueg, PODC 2013): `n >= 2` processes
//! with binary inputs must decide a common value; one distinguished process
//! `p` may *abort* instead of deciding. The required properties —
//! Agreement, Validity, Termination (a)/(b), Nontriviality — are checked
//! exhaustively by [`lbsa_explorer::Exploration::check_dac`].
//!
//! [`DacFromPac`] is Algorithm 2 verbatim: the distinguished process
//! performs one `PROPOSE(v_p, p)` / `DECIDE(p)` pair on a single n-PAC
//! object `D` and aborts on `⊥`; every other process retries its pair until
//! its decide returns a non-`⊥` value. Theorem 4.1: this solves n-DAC.

use lbsa_core::pac::PacState;
use lbsa_core::{AnyState, Label, ObjId, Op, Pid, Value};
use lbsa_explorer::checker::DacInstance;
use lbsa_runtime::process::{classes_by_input, Protocol, Step, Symmetry};

/// Local state of a process running Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DacPhase {
    /// About to perform `PROPOSE(v, label)` (line 1 / line 7).
    Proposing,
    /// About to perform `DECIDE(label)` (line 2 / line 8).
    Deciding,
}

/// Algorithm 2: solving the n-DAC problem with a single n-PAC object.
///
/// Process `Pid(i)` uses label `i + 1` on the PAC object (the paper numbers
/// processes `1..n`, we number pids from 0).
///
/// # Examples
///
/// ```
/// use lbsa_protocols::dac::DacFromPac;
/// use lbsa_core::{AnyObject, ObjId, Pid, Value};
/// use lbsa_runtime::system::System;
/// use lbsa_runtime::scheduler::RoundRobin;
/// use lbsa_runtime::outcome::FirstOutcome;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let protocol = DacFromPac::new(
///     vec![Value::Int(1), Value::Int(0)],
///     Pid(0),
///     ObjId(0),
/// )?;
/// let objects = vec![AnyObject::pac(2)?];
/// let mut sys = System::new(&protocol, &objects)?;
/// let result = sys.run(&mut RoundRobin::new(), &mut FirstOutcome, 1000)?;
/// // Under round-robin the distinguished process's decide sees concurrency
/// // and p aborts, while the other process retries and decides.
/// assert_eq!(result.aborted, vec![Pid(0)]);
/// assert_eq!(result.distinct_decisions().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DacFromPac {
    inputs: Vec<Value>,
    distinguished: Pid,
    pac: ObjId,
}

impl DacFromPac {
    /// Creates an instance of Algorithm 2.
    ///
    /// `inputs[i]` is the input of `Pid(i)`; `distinguished` is the process
    /// allowed to abort; `pac` is the object id of the n-PAC object `D`
    /// (which must have arity at least `inputs.len()`).
    ///
    /// # Errors
    ///
    /// Returns an error string if fewer than two processes are given or the
    /// distinguished pid is out of range.
    pub fn new(inputs: Vec<Value>, distinguished: Pid, pac: ObjId) -> Result<Self, String> {
        if inputs.len() < 2 {
            return Err(format!(
                "the n-DAC problem requires n >= 2 processes, got {}",
                inputs.len()
            ));
        }
        if distinguished.index() >= inputs.len() {
            return Err(format!(
                "distinguished process {distinguished} out of range for {} processes",
                inputs.len()
            ));
        }
        Ok(DacFromPac {
            inputs,
            distinguished,
            pac,
        })
    }

    /// The distinguished process `p`.
    #[must_use]
    pub fn distinguished(&self) -> Pid {
        self.distinguished
    }

    /// The process inputs.
    #[must_use]
    pub fn inputs(&self) -> &[Value] {
        &self.inputs
    }

    /// The problem instance for [`lbsa_explorer::Exploration::check_dac`].
    #[must_use]
    pub fn instance(&self) -> DacInstance {
        DacInstance {
            distinguished: self.distinguished,
            inputs: self.inputs.clone(),
        }
    }

    fn label(&self, pid: Pid) -> Label {
        Label::new(pid.index() + 1).expect("pid + 1 >= 1")
    }
}

impl Protocol for DacFromPac {
    type LocalState = DacPhase;

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) -> DacPhase {
        DacPhase::Proposing
    }

    fn pending_op(&self, pid: Pid, state: &DacPhase) -> (ObjId, Op) {
        let label = self.label(pid);
        match state {
            DacPhase::Proposing => (self.pac, Op::ProposePac(self.inputs[pid.index()], label)),
            DacPhase::Deciding => (self.pac, Op::DecidePac(label)),
        }
    }

    fn on_response(&self, pid: Pid, state: &DacPhase, response: Value) -> Step<DacPhase> {
        match state {
            DacPhase::Proposing => Step::Continue(DacPhase::Deciding),
            DacPhase::Deciding => {
                if response != Value::Bot {
                    Step::Decide(response)
                } else if pid == self.distinguished {
                    // Line 5: the distinguished process aborts on ⊥.
                    Step::Abort
                } else {
                    // Lines 6-11: everyone else retries.
                    Step::Continue(DacPhase::Proposing)
                }
            }
        }
    }
}

/// Non-distinguished processes with equal inputs are interchangeable: they
/// run identical retry loops, differing only in the PAC port they drive. The
/// distinguished process is alone in its class, as the [`Symmetry`] contract
/// requires for a role that pid-specific predicates (Nontriviality, solo
/// Termination (a)) name explicitly.
impl Symmetry for DacFromPac {
    fn pid_classes(&self) -> Vec<u32> {
        let mut classes = classes_by_input(&self.inputs);
        // Force the distinguished process into a singleton class: no other
        // pid can carry the class label `n` (labels from `classes_by_input`
        // are positions, all `< n`).
        let n = u32::try_from(self.inputs.len()).expect("process count fits in u32");
        classes[self.distinguished.index()] = n;
        classes
    }

    fn permute_object_state(&self, obj: ObjId, state: &AnyState, perm: &[usize]) -> AnyState {
        // Pid `i` drives port `i + 1` of the PAC object (see
        // `DacFromPac::label`), so `V` is pid-indexed and `L` names a pid:
        // both permute along with the processes.
        match state {
            AnyState::Pac(s) if obj == self.pac => {
                // Ports beyond the process count (over-provisioned arity)
                // are driven by no process and stay where they are.
                let mut v = s.v.clone();
                for (i, &val) in s.v.iter().enumerate().take(perm.len()) {
                    v[perm[i]] = val;
                }
                AnyState::Pac(PacState {
                    upset: s.upset,
                    v,
                    l: s.l.map(|i| if i < perm.len() { perm[i] } else { i }),
                    val: s.val,
                })
            }
            other => other.clone(),
        }
    }
}

/// Enumerates all binary input vectors for `n` processes — the initial
/// configurations over which the exhaustive DAC experiments quantify.
#[must_use]
pub fn all_binary_inputs(n: usize) -> Vec<Vec<Value>> {
    (0..(1usize << n))
        .map(|mask| {
            (0..n)
                .map(|i| Value::Int(i64::from(mask >> i & 1 == 1)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::value::int;
    use lbsa_core::AnyObject;
    use lbsa_explorer::checker::Violation;
    use lbsa_explorer::verdict::Outcome;
    use lbsa_explorer::Explorer;
    use lbsa_runtime::outcome::FirstOutcome;
    use lbsa_runtime::scheduler::{RoundRobin, Scripted, Solo};
    use lbsa_runtime::system::System;

    fn pac_objects(n: usize) -> Vec<AnyObject> {
        vec![AnyObject::pac(n).unwrap()]
    }

    #[test]
    fn constructor_validation() {
        assert!(DacFromPac::new(vec![int(0)], Pid(0), ObjId(0)).is_err());
        assert!(DacFromPac::new(vec![int(0), int(1)], Pid(2), ObjId(0)).is_err());
        assert!(DacFromPac::new(vec![int(0), int(1)], Pid(1), ObjId(0)).is_ok());
    }

    #[test]
    fn solo_distinguished_decides_own_input() {
        // Claim 4.2.4's first half: p running solo does not abort and
        // decides its own input.
        let p = DacFromPac::new(vec![int(1), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
        let objects = pac_objects(3);
        let mut sys = System::new(&p, &objects).unwrap();
        sys.run(&mut Solo::new(Pid(0)), &mut FirstOutcome, 100)
            .unwrap();
        assert_eq!(sys.decision(Pid(0)), Some(int(1)));
    }

    #[test]
    fn solo_other_decides_own_input() {
        // Claim 4.2.4's second half: q != p running solo decides its input.
        let p = DacFromPac::new(vec![int(1), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
        let objects = pac_objects(3);
        let mut sys = System::new(&p, &objects).unwrap();
        sys.run(&mut Solo::new(Pid(1)), &mut FirstOutcome, 100)
            .unwrap();
        assert_eq!(sys.decision(Pid(1)), Some(int(0)));
    }

    #[test]
    fn concurrent_run_p_aborts_and_others_agree() {
        let p = DacFromPac::new(vec![int(1), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
        let objects = pac_objects(3);
        let mut sys = System::new(&p, &objects).unwrap();
        // Phase 1: round-robin. All three proposes land before any decide,
        // so every first decide returns ⊥ and p aborts. The two remaining
        // processes then starve each other's retry loops indefinitely —
        // round-robin is exactly the adversarial schedule here, which is WHY
        // the DAC Termination property only speaks about solo runs.
        let res = sys
            .run(&mut RoundRobin::new(), &mut FirstOutcome, 60)
            .unwrap();
        assert_eq!(res.aborted, vec![Pid(0)]);
        assert!(
            res.distinct_decisions().is_empty(),
            "the retry loops starve each other"
        );
        // Phase 2: let q1 run solo — it must decide (Termination (b))…
        sys.run(&mut Solo::new(Pid(1)), &mut FirstOutcome, 100)
            .unwrap();
        let d1 = sys.decision(Pid(1)).expect("q1 decides when run solo");
        // …and then q2 solo must agree.
        sys.run(&mut Solo::new(Pid(2)), &mut FirstOutcome, 100)
            .unwrap();
        assert_eq!(sys.decision(Pid(2)), Some(d1));
        assert_eq!(d1, int(0), "only non-aborted inputs may be decided");
    }

    #[test]
    fn scripted_clean_pair_lets_p_decide() {
        let p = DacFromPac::new(vec![int(1), int(0)], Pid(0), ObjId(0)).unwrap();
        let objects = pac_objects(2);
        let mut sys = System::new(&p, &objects).unwrap();
        // p runs its pair cleanly first, then q.
        let mut sched = Scripted::new([Pid(0), Pid(0), Pid(1), Pid(1)]);
        sys.run(&mut sched, &mut FirstOutcome, 100).unwrap();
        assert_eq!(sys.decision(Pid(0)), Some(int(1)));
        assert_eq!(
            sys.decision(Pid(1)),
            Some(int(1)),
            "q adopts the consensus value"
        );
    }

    #[test]
    fn theorem_4_1_exhaustive_n2() {
        // Theorem 4.1 for n = 2: Algorithm 2 solves 2-DAC on every binary
        // input vector, over every interleaving.
        for inputs in all_binary_inputs(2) {
            let p = DacFromPac::new(inputs, Pid(0), ObjId(0)).unwrap();
            let objects = pac_objects(2);
            let ex = Explorer::new(&p, &objects);
            let v = ex.exploration().check_dac(&p.instance(), 8);
            assert!(v.holds(), "2-DAC violated on {:?}: {v}", p.inputs());
            assert!(v.stats.configs > 4);
        }
    }

    #[test]
    fn theorem_4_1_exhaustive_n3() {
        for inputs in all_binary_inputs(3) {
            let p = DacFromPac::new(inputs, Pid(1), ObjId(0)).unwrap();
            let objects = pac_objects(3);
            let ex = Explorer::new(&p, &objects);
            let v = ex.exploration().check_dac(&p.instance(), 10);
            assert!(v.holds(), "3-DAC violated on {:?}: {v}", p.inputs());
        }
    }

    #[test]
    fn dac_has_nonterminating_schedules_but_passes_dac_termination() {
        // The n-DAC Termination property is weaker than wait-freedom: a
        // non-distinguished process may loop forever when interleaved
        // adversarially. The execution graph therefore HAS cycles — yet
        // check_dac passes, because Termination (a)/(b) only constrain solo
        // runs. This distinction is the crux of why DAC is solvable at all.
        // Two non-distinguished processes are needed for a cycle: they can
        // starve each other's retry loops forever (with a single one, the
        // distinguished process stops after two steps and the survivor runs
        // effectively solo).
        let p = DacFromPac::new(vec![int(1), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
        let objects = pac_objects(3);
        let ex = Explorer::new(&p, &objects);
        let g = ex.exploration().run().unwrap();
        assert!(g.complete);
        assert!(
            g.has_cycle(),
            "adversarial interleavings starve the retry loops"
        );
        assert!(ex.exploration().check_dac(&p.instance(), 10).holds());
    }

    #[test]
    fn wrong_distinguished_process_fails_nontriviality_check() {
        // Sanity check that the checker notices a mis-declared instance: if
        // we claim Pid(1) is distinguished but Pid(0) is the one that aborts,
        // the run violates the declared problem (abort by a non-distinguished
        // process shows up as an undecided/aborted terminal or solo failure).
        let p = DacFromPac::new(vec![int(1), int(0)], Pid(0), ObjId(0)).unwrap();
        let objects = pac_objects(2);
        let ex = Explorer::new(&p, &objects);
        let wrong = DacInstance {
            distinguished: Pid(1),
            inputs: vec![int(1), int(0)],
        };
        let v = ex.exploration().check_dac(&wrong, 8);
        // Pid(0) can abort; under the wrong instance Pid(0) must always
        // decide solo, which fails.
        assert!(
            matches!(
                v.outcome,
                Outcome::Violated(Violation::SoloNonTermination { pid: Pid(0), .. })
            ),
            "expected a solo-termination complaint about Pid(0), got {v}"
        );
    }

    #[test]
    fn symmetry_reduction_preserves_dac_verdicts() {
        // Every binary input vector for n = 3: the reduced check must reach
        // the same conclusion as the raw one (and never examine more).
        for inputs in all_binary_inputs(3) {
            let p = DacFromPac::new(inputs, Pid(0), ObjId(0)).unwrap();
            let objects = pac_objects(3);
            let ex = Explorer::new(&p, &objects);
            let raw = ex.exploration().check_dac(&p.instance(), 10);
            let reduced = ex.exploration().symmetric().check_dac(&p.instance(), 10);
            assert_eq!(
                raw.outcome.tag(),
                reduced.outcome.tag(),
                "verdicts diverge on {:?}: raw {raw}, reduced {reduced}",
                p.inputs()
            );
            assert!(reduced.stats.configs <= raw.stats.configs);
        }
    }

    #[test]
    fn symmetric_instance_explores_far_fewer_configs() {
        // All non-distinguished processes share input 0, so the group is
        // S_3 (order 6) and the orbit graph should be several times smaller.
        let p = DacFromPac::new(vec![int(1), int(0), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
        let objects = pac_objects(4);
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().run().unwrap();
        let reduced = ex.exploration().symmetric().run().unwrap();
        assert!(reduced.stats.reduced);
        assert!(
            reduced.configs.len() * 2 < raw.configs.len(),
            "expected a substantial reduction: {} orbits vs {} configs",
            reduced.configs.len(),
            raw.configs.len()
        );
    }

    #[test]
    fn binary_input_enumeration() {
        let all = all_binary_inputs(3);
        assert_eq!(all.len(), 8);
        assert!(all.contains(&vec![int(0), int(0), int(0)]));
        assert!(all.contains(&vec![int(1), int(1), int(1)]));
        assert!(all.contains(&vec![int(1), int(0), int(1)]));
    }
}
