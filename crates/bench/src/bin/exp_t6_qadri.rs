//! **Experiment T6** — Section 7, Theorem 7.1 (Qadri's question).
//!
//! Qadri asked: can (m+1)-consensus objects and registers implement every
//! deterministic object at level `m` of the consensus hierarchy? The paper
//! answers **no**, more generally: for `m >= 2` and `n >= m + 1`, the
//! deterministic (n+1, m)-PAC object is at level `m` yet cannot be
//! implemented from n-consensus objects and registers.
//!
//! Executable instance (`m = 2`, `n = 3`): the (4,2)-PAC.
//!
//! 1. Certify that the (4,2)-PAC is at level 2 (Theorem 5.3).
//! 2. Certify that 3-consensus is at level 3 — a *strictly higher* level.
//! 3. Refute the candidate implementation of the 4-PAC face from one
//!    3-consensus object + registers, by running Algorithm 2 for 4-DAC over
//!    it (Theorem 4.1 makes a violation a refutation of the implementation).
//!
//! Run with `cargo run --release -p lbsa-bench --bin exp_t6_qadri`.

use lbsa_bench::harness::run_experiment;
use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::checker::DacInstance;
use lbsa_explorer::{Explorer, Limits, Outcome};
use lbsa_hierarchy::certify::{certified_consensus_number, Face};
use lbsa_hierarchy::report::Table;
use lbsa_protocols::candidates::{CandidatePacProcedure, ValAgreement};
use lbsa_protocols::dac::DacFromPac;
use lbsa_runtime::derived::DerivedProtocol;

fn main() {
    run_experiment(
        "exp_t6_qadri",
        "T6 — Theorem 7.1 (m = 2, n = 3): Qadri's question",
        |exp| {
            let limits = Limits::new(5_000_000);
            exp.param("max_configs", limits.max_configs);
            body(exp, limits);
        },
    );
}

fn body(exp: &mut lbsa_bench::harness::Experiment, limits: Limits) {
    let mut table = Table::new(
        "T6 — Theorem 7.1 (m = 2, n = 3): level-2 object vs level-3 consensus",
        vec!["step", "result"],
    );

    // Step 1: (4,2)-PAC is at level 2.
    let target = AnyObject::combined_pac(4, 2).expect("valid");
    let cert = certified_consensus_number(&target, Face::ProposeC, 4, limits)
        .expect("certification must succeed");
    exp.metric("cert.pac_4_2.level", cert.level);
    exp.metric("cert.pac_4_2.upper_configs", cert.upper.configs);
    table.row(vec![
        "(4,2)-PAC consensus number".into(),
        format!(
            "level {} (upper bound exhaustive over {} configs)",
            cert.level, cert.upper.configs
        ),
    ]);

    // Step 2: 3-consensus is at level 3.
    let base = AnyObject::consensus(3).expect("valid");
    let cert = certified_consensus_number(&base, Face::Propose, 4, limits)
        .expect("certification must succeed");
    table.row(vec![
        "3-consensus consensus number".into(),
        format!("level {}", cert.level),
    ]);

    // Step 3: refute the candidate implementation of the 4-PAC face from
    // one 3-consensus + registers, via 4-DAC over Algorithm 2.
    let labels = 4usize;
    let inputs = mixed_binary_inputs(labels);
    let inner = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).expect("4 >= 2");
    let procedure = CandidatePacProcedure::new(labels, ValAgreement::ConsensusObject);
    let v_registers: Vec<ObjId> = (2..2 + labels).map(ObjId).collect();
    let frontends = vec![CandidatePacProcedure::frontend(
        ObjId(0),
        ObjId(1),
        v_registers,
    )];
    let derived = DerivedProtocol::new(&inner, &procedure, frontends);
    let mut objects = vec![AnyObject::consensus(3).expect("valid")];
    objects.extend((0..=labels).map(|_| AnyObject::register()));
    let explorer = Explorer::new(&derived, &objects).with_trace(exp.tracer());
    let instance = DacInstance {
        distinguished: Pid(0),
        inputs,
    };
    let v = explorer
        .exploration()
        .limits(limits)
        .check_dac(&instance, 80);
    let verdict = match &v.outcome {
        Outcome::Violated(violation) => format!("refuted: {violation}"),
        _ => format!("NOT REFUTED (machinery bug): {v}"),
    };
    table.row(vec![
        "4-PAC face from 3-consensus + registers".into(),
        verdict,
    ]);

    exp.table(table);
    exp.note("Reading: a deterministic object at level 2 resists implementation even");
    exp.note("from consensus objects one level HIGHER — Qadri's question answered 'no'.");
}
