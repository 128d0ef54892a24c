//! **Commit–adopt** from registers: the classic register-only agreement
//! primitive (Gafni's two-phase construction), in the lineage of the
//! Borowsky–Gafni simulation the paper builds on \[2, 6\].
//!
//! Commit–adopt is the strongest agreement-flavoured object implementable
//! from registers alone — a useful calibration point *below* everything in
//! the paper's hierarchy. Each of `n` processes proposes a value and
//! outputs a graded value `(grade, v)` with `grade ∈ {commit, adopt}`:
//!
//! * **Validity** — the output value was proposed by someone;
//! * **Convergence** — if all proposals are `v`, everyone outputs
//!   `(commit, v)`;
//! * **Agreement** — if anyone outputs `(commit, v)`, every output carries
//!   the value `v`;
//! * **Wait-freedom** — `2n + 2` register steps, unconditionally.
//!
//! Like the paper's n-DAC object (and unlike consensus), commit–adopt is a
//! *concurrency-sensitive* task: concurrent proposals of different values
//! may all merely adopt, which no linearizable sequential specification can
//! express — so, exactly as with the DAC problem, the experiments verify
//! its four properties over every execution instead of checking
//! linearizability.
//!
//! Outputs are encoded into the single [`Value`] channel as
//! `Int(2·v + grade)` (grade bit `1` = commit); see [`GradedValue`].

use lbsa_core::{ObjId, Op, Pid, Value};
use lbsa_runtime::process::{Protocol, Step};

/// A decoded commit–adopt output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GradedValue {
    /// `true` = commit, `false` = adopt.
    pub commit: bool,
    /// The carried value (a non-negative application integer).
    pub value: i64,
}

impl GradedValue {
    /// Encodes into the single-value channel: `Int(2·value + commit)`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative (the encoding needs the sign bit free).
    #[must_use]
    pub fn encode(self) -> Value {
        assert!(
            self.value >= 0,
            "commit-adopt encoding requires non-negative values"
        );
        Value::Int(2 * self.value + i64::from(self.commit))
    }

    /// Decodes an encoded output.
    ///
    /// Returns `None` if `v` is not a non-negative integer.
    #[must_use]
    pub fn decode(v: Value) -> Option<GradedValue> {
        match v {
            Value::Int(i) if i >= 0 => Some(GradedValue {
                commit: i % 2 == 1,
                value: i / 2,
            }),
            _ => None,
        }
    }
}

/// Phase of the two-round commit–adopt protocol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CaPhase {
    /// Round 1: writing the proposal to `A[pid]`.
    WriteA,
    /// Round 1: collecting `A[j]`, `j` = the inner index.
    CollectA {
        /// Next index to read.
        next: usize,
        /// Values read so far.
        seen: Vec<Value>,
    },
    /// Round 2: writing the graded proposal to `B[pid]`.
    WriteB {
        /// Whether round 1 was unanimous for our value.
        strong: bool,
    },
    /// Round 2: collecting `B[j]`.
    CollectB {
        /// Next index to read.
        next: usize,
        /// Values read so far (encoded graded values or `nil`).
        seen: Vec<Value>,
    },
}

/// The two-phase commit–adopt protocol over `2n` registers:
/// `ObjId(0..n)` = round-1 array `A`, `ObjId(n..2n)` = round-2 array `B`.
///
/// Each process proposes `inputs[pid]` (a non-negative integer) and decides
/// the encoded graded output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitAdopt {
    inputs: Vec<Value>,
}

impl CommitAdopt {
    /// Creates the protocol.
    ///
    /// # Errors
    ///
    /// Returns an error string if fewer than one input is given or any
    /// input is not a non-negative integer (required by the encoding).
    pub fn new(inputs: Vec<Value>) -> Result<Self, String> {
        if inputs.is_empty() {
            return Err("commit-adopt needs at least one process".into());
        }
        for v in &inputs {
            match v.as_int() {
                Some(i) if i >= 0 => {}
                _ => return Err(format!("input {v} is not a non-negative integer")),
            }
        }
        Ok(CommitAdopt { inputs })
    }

    /// The `2n` registers this protocol needs.
    #[must_use]
    pub fn objects(&self) -> Vec<lbsa_core::AnyObject> {
        (0..2 * self.inputs.len())
            .map(|_| lbsa_core::AnyObject::register())
            .collect()
    }

    fn n(&self) -> usize {
        self.inputs.len()
    }

    fn input(&self, pid: Pid) -> i64 {
        self.inputs[pid.index()]
            .as_int()
            .expect("validated at construction")
    }
}

impl Protocol for CommitAdopt {
    type LocalState = CaPhase;

    fn num_processes(&self) -> usize {
        self.n()
    }

    fn init(&self, _pid: Pid) -> CaPhase {
        CaPhase::WriteA
    }

    fn pending_op(&self, pid: Pid, state: &CaPhase) -> (ObjId, Op) {
        let n = self.n();
        match state {
            CaPhase::WriteA => (ObjId(pid.index()), Op::Write(self.inputs[pid.index()])),
            CaPhase::CollectA { next, .. } => (ObjId(*next), Op::Read),
            CaPhase::WriteB { strong } => {
                let graded = GradedValue {
                    commit: *strong,
                    value: self.input(pid),
                };
                (ObjId(n + pid.index()), Op::Write(graded.encode()))
            }
            CaPhase::CollectB { next, .. } => (ObjId(n + *next), Op::Read),
        }
    }

    fn on_response(&self, pid: Pid, state: &CaPhase, response: Value) -> Step<CaPhase> {
        let n = self.n();
        match state {
            CaPhase::WriteA => Step::Continue(CaPhase::CollectA {
                next: 0,
                seen: vec![],
            }),
            CaPhase::CollectA { next, seen } => {
                let mut seen = seen.clone();
                seen.push(response);
                if next + 1 < n {
                    return Step::Continue(CaPhase::CollectA {
                        next: next + 1,
                        seen,
                    });
                }
                // Round 1 verdict: unanimous for our value?
                let mine = self.inputs[pid.index()];
                let strong = seen.iter().all(|v| v.is_nil() || *v == mine);
                Step::Continue(CaPhase::WriteB { strong })
            }
            CaPhase::WriteB { .. } => Step::Continue(CaPhase::CollectB {
                next: 0,
                seen: vec![],
            }),
            CaPhase::CollectB { next, seen } => {
                let mut seen = seen.clone();
                seen.push(response);
                if next + 1 < n {
                    return Step::Continue(CaPhase::CollectB {
                        next: next + 1,
                        seen,
                    });
                }
                // Round 2 verdict.
                let graded: Vec<GradedValue> = seen
                    .iter()
                    .filter_map(|v| GradedValue::decode(*v))
                    .collect();
                let mine = self.input(pid);
                let all_strong_mine =
                    graded.iter().all(|g| g.commit && g.value == mine) && !graded.is_empty();
                let output = if all_strong_mine {
                    GradedValue {
                        commit: true,
                        value: mine,
                    }
                } else if let Some(strong) = graded.iter().find(|g| g.commit) {
                    GradedValue {
                        commit: false,
                        value: strong.value,
                    }
                } else {
                    GradedValue {
                        commit: false,
                        value: mine,
                    }
                };
                Step::Decide(output.encode())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::value::int;
    use lbsa_explorer::{Explorer, Limits};

    fn decode_outputs(config: &lbsa_explorer::Configuration<CaPhase>) -> Vec<GradedValue> {
        config
            .procs
            .iter()
            .filter_map(|s| s.decision())
            .map(|v| GradedValue::decode(v).expect("outputs are encoded graded values"))
            .collect()
    }

    /// Exhaustively checks the four commit–adopt properties for the given
    /// inputs.
    fn check_exhaustively(inputs: Vec<Value>) {
        let proposed: Vec<i64> = inputs.iter().map(|v| v.as_int().unwrap()).collect();
        let all_equal = proposed.windows(2).all(|w| w[0] == w[1]);
        let p = CommitAdopt::new(inputs).unwrap();
        let objects = p.objects();
        let g = Explorer::new(&p, &objects)
            .exploration()
            .limits(Limits::new(2_000_000))
            .run()
            .unwrap();
        assert!(g.complete, "commit-adopt must be finite-state");
        assert!(!g.has_cycle(), "commit-adopt is wait-free: no cycles");
        for idx in 0..g.configs.len() {
            let outputs = decode_outputs(&g.configs[idx]);
            // Validity.
            for o in &outputs {
                assert!(proposed.contains(&o.value), "validity violated: {o:?}");
            }
            // Agreement: a commit pins every value.
            if let Some(committed) = outputs.iter().find(|o| o.commit) {
                for o in &outputs {
                    assert_eq!(
                        o.value, committed.value,
                        "agreement violated in config {idx}: {outputs:?}"
                    );
                }
            }
        }
        // Convergence + termination at the leaves.
        for t in g.terminal_indices() {
            let config = &g.configs[t];
            assert!(config.all_decided(), "wait-freedom: every process outputs");
            let outputs = decode_outputs(config);
            if all_equal {
                for o in &outputs {
                    assert!(
                        o.commit && o.value == proposed[0],
                        "convergence violated: {outputs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_processes_mixed_inputs() {
        check_exhaustively(vec![int(0), int(1)]);
    }

    #[test]
    fn two_processes_equal_inputs_converge() {
        check_exhaustively(vec![int(3), int(3)]);
    }

    #[test]
    fn three_processes_mixed_inputs() {
        check_exhaustively(vec![int(0), int(1), int(0)]);
    }

    #[test]
    fn three_processes_equal_inputs_converge() {
        check_exhaustively(vec![int(2), int(2), int(2)]);
    }

    #[test]
    fn solo_run_commits_own_value() {
        use lbsa_runtime::outcome::FirstOutcome;
        use lbsa_runtime::scheduler::Solo;
        use lbsa_runtime::system::System;
        let p = CommitAdopt::new(vec![int(4), int(9)]).unwrap();
        let objects = p.objects();
        let mut sys = System::new(&p, &objects).unwrap();
        sys.run(&mut Solo::new(Pid(0)), &mut FirstOutcome, 100)
            .unwrap();
        let out = GradedValue::decode(sys.decision(Pid(0)).unwrap()).unwrap();
        assert!(out.commit, "an uncontended propose must commit");
        assert_eq!(out.value, 4);
    }

    #[test]
    fn adopt_happens_under_contention() {
        // Some interleaving of mixed inputs must produce at least one adopt
        // (both committing different values would violate agreement, and
        // commit-adopt from registers cannot always commit — that would be
        // register consensus).
        let p = CommitAdopt::new(vec![int(0), int(1)]).unwrap();
        let objects = p.objects();
        let g = Explorer::new(&p, &objects)
            .exploration()
            .limits(Limits::new(2_000_000))
            .run()
            .unwrap();
        let mut saw_adopt = false;
        for t in g.terminal_indices() {
            for v in g.configs[t].procs.iter().filter_map(|s| s.decision()) {
                if !GradedValue::decode(v).unwrap().commit {
                    saw_adopt = true;
                }
            }
        }
        assert!(saw_adopt, "contention must sometimes force adoption");
    }

    #[test]
    fn encoding_roundtrip() {
        for commit in [false, true] {
            for value in [0i64, 1, 7, 100] {
                let g = GradedValue { commit, value };
                assert_eq!(GradedValue::decode(g.encode()), Some(g));
            }
        }
        assert_eq!(GradedValue::decode(Value::Nil), None);
        assert_eq!(GradedValue::decode(Value::Bot), None);
        assert_eq!(GradedValue::decode(int(-3)), None);
    }

    #[test]
    fn constructor_validation() {
        assert!(CommitAdopt::new(vec![]).is_err());
        assert!(CommitAdopt::new(vec![int(-1)]).is_err());
        assert!(CommitAdopt::new(vec![Value::Bot]).is_err());
        assert!(CommitAdopt::new(vec![int(0), int(5)]).is_ok());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn encoding_rejects_negative_values() {
        let _ = GradedValue {
            commit: true,
            value: -1,
        }
        .encode();
    }
}
