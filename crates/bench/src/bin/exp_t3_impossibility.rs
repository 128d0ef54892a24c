//! **Experiment T3** — Theorems 4.2/4.3: refuting the candidate catalogue.
//!
//! The paper proves no algorithm solves (n+1)-DAC (equivalently implements
//! (n+1)-PAC) from n-consensus objects, registers, and 2-SA objects. This
//! experiment takes each natural candidate from
//! `lbsa_protocols::candidates` and produces a concrete machine-checked
//! counterexample — plus two *soundness controls*: the same machinery must
//! not refute Algorithm 2 itself, nor a candidate operating within its
//! budget.
//!
//! Run with `cargo run --release -p lbsa-bench --bin exp_t3_impossibility`.

use lbsa_bench::harness::run_experiment;
use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::checker::{DacInstance, Violation};
use lbsa_explorer::{Explorer, Limits, Outcome, Verdict};
use lbsa_hierarchy::report::Table;
use lbsa_protocols::candidates::{
    CandidatePacProcedure, DacWaitForWinner, SaThenConsensus, ValAgreement, WaitForWinner,
};
use lbsa_protocols::dac::DacFromPac;
use lbsa_runtime::derived::DerivedProtocol;

/// The table cell of a control, which must hold.
fn control(v: &Verdict) -> String {
    if v.holds() {
        format!("correct (control): {} configs checked", v.stats.configs)
    } else {
        format!("UNEXPECTEDLY REFUTED: {v}")
    }
}

/// The table cell of a candidate, which must be refuted.
fn refutation(v: &Verdict) -> String {
    match &v.outcome {
        Outcome::Violated(Violation::Agreement { .. }) => "agreement violation".to_string(),
        Outcome::Violated(Violation::Validity { .. }) => "validity violation".to_string(),
        Outcome::Violated(Violation::NonTermination { cycle, .. }) => {
            format!("non-termination (cycle len {})", cycle.len())
        }
        Outcome::Violated(Violation::SoloNonTermination { pid, .. }) => {
            format!("solo non-termination ({pid})")
        }
        Outcome::Violated(other) => format!("{other}"),
        _ => format!("NOT REFUTED (machinery bug): {v}"),
    }
}

fn main() {
    run_experiment(
        "exp_t3_impossibility",
        "T3 — Theorem 4.2/4.3 refutations (n = 2, targets use 3 processes)",
        |exp| {
            let limits = Limits::new(2_000_000);
            exp.param("max_configs", limits.max_configs);
            body(exp, limits);
        },
    );
}

fn body(exp: &mut lbsa_bench::harness::Experiment, limits: Limits) {
    let mut table = Table::new(
        "T3 — Theorem 4.2/4.3 refutations (n = 2, targets use 3 processes)",
        vec!["candidate", "base objects", "verdict"],
    );

    // Control 1: Algorithm 2 itself passes (3-DAC from a 3-PAC).
    {
        let inputs = mixed_binary_inputs(3);
        let protocol = DacFromPac::new(inputs, Pid(0), ObjId(0)).expect("3 >= 2");
        let objects = vec![AnyObject::pac(3).expect("valid")];
        let explorer = Explorer::new(&protocol, &objects).with_trace(exp.tracer());
        let verdict = control(
            &explorer
                .exploration()
                .limits(limits)
                .check_dac(&protocol.instance(), 18),
        );
        table.row(vec![
            "Algorithm 2 (3-DAC)".into(),
            "one 3-PAC".into(),
            verdict,
        ]);
    }

    // Control 2: wait-for-winner within budget (2 processes, 2-consensus).
    {
        let inputs = mixed_binary_inputs(2);
        let p = WaitForWinner::new(inputs.clone());
        let objects = vec![
            AnyObject::consensus(2).expect("valid"),
            AnyObject::register(),
        ];
        let ex = Explorer::new(&p, &objects).with_trace(exp.tracer());
        let verdict = control(&ex.exploration().limits(limits).check_consensus(&inputs));
        table.row(vec![
            "wait-for-winner, 2 procs".into(),
            "2-consensus + register".into(),
            verdict,
        ]);
    }

    // Candidate 1: wait-for-winner with 3 processes.
    {
        let inputs = mixed_binary_inputs(3);
        let p = WaitForWinner::new(inputs.clone());
        let objects = vec![
            AnyObject::consensus(2).expect("valid"),
            AnyObject::register(),
        ];
        let ex = Explorer::new(&p, &objects).with_trace(exp.tracer());
        let v = ex.exploration().limits(limits).check_consensus(&inputs);
        let verdict = if v.is_violated() {
            // Confirm the certificate replays.
            let replayed = v.witness.as_ref().is_some_and(|w| w.confirm(&ex).is_ok());
            format!("{} — certificate replays: {replayed}", refutation(&v))
        } else {
            refutation(&v)
        };
        table.row(vec![
            "wait-for-winner, 3 procs".into(),
            "2-consensus + register".into(),
            verdict,
        ]);
    }

    // Candidate 2: 2-SA narrowing then consensus tie-break.
    {
        let inputs = mixed_binary_inputs(3);
        let p = SaThenConsensus::new(inputs.clone());
        let objects = vec![
            AnyObject::strong_sa(),
            AnyObject::consensus(2).expect("valid"),
        ];
        let ex = Explorer::new(&p, &objects).with_trace(exp.tracer());
        let verdict = refutation(&ex.exploration().limits(limits).check_consensus(&inputs));
        table.row(vec![
            "2-SA narrow + tie-break".into(),
            "2-SA + 2-consensus".into(),
            verdict,
        ]);
    }

    // Candidate 3: the DAC variant of wait-for-winner.
    {
        let inputs = mixed_binary_inputs(3);
        let p = DacWaitForWinner::new(inputs.clone(), Pid(0));
        let objects = vec![
            AnyObject::consensus(2).expect("valid"),
            AnyObject::register(),
        ];
        let ex = Explorer::new(&p, &objects).with_trace(exp.tracer());
        let instance = DacInstance {
            distinguished: Pid(0),
            inputs,
        };
        let verdict = refutation(&ex.exploration().limits(limits).check_dac(&instance, 18));
        table.row(vec![
            "DAC wait-for-winner".into(),
            "2-consensus + register".into(),
            verdict,
        ]);
    }

    // Candidate 4: the register-based 3-PAC implementation with consensus
    // val-agreement, attacked through Algorithm 2 (Theorem 4.3 shape).
    {
        let inputs = mixed_binary_inputs(3);
        let inner = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).expect("3 >= 2");
        let procedure = CandidatePacProcedure::new(3, ValAgreement::ConsensusObject);
        let frontends = vec![CandidatePacProcedure::frontend(
            ObjId(0),
            ObjId(1),
            vec![ObjId(2), ObjId(3), ObjId(4)],
        )];
        let derived = DerivedProtocol::new(&inner, &procedure, frontends);
        let mut objects = vec![AnyObject::consensus(2).expect("valid")];
        objects.extend((0..4).map(|_| AnyObject::register()));
        let ex = Explorer::new(&derived, &objects).with_trace(exp.tracer());
        let instance = DacInstance {
            distinguished: Pid(0),
            inputs,
        };
        let verdict = refutation(&ex.exploration().limits(limits).check_dac(&instance, 60));
        table.row(vec![
            "register 3-PAC impl (Alg. 2 on top)".into(),
            "2-consensus + 4 registers".into(),
            verdict,
        ]);
    }

    exp.table(table);
    exp.note("Controls must read 'correct'; every candidate must be refuted.");
}
