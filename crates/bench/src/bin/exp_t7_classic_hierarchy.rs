//! **Experiment T7 (extension)** — the paper's objects among the classics.
//!
//! Certifies the familiar consensus-hierarchy inhabitants with the same
//! machinery used for the paper's objects: test-and-set / fetch-and-add /
//! queue at level 2 (direct 2-process protocols verified exhaustively;
//! the natural announce-style n-process generalizations refuted with
//! non-termination certificates), compare-and-swap above every level
//! checked, and — for contrast — `Oₙ` / `O'ₙ` at level `n`.
//!
//! Run with `cargo run --release -p lbsa-bench --bin exp_t7_classic_hierarchy`.

use lbsa_bench::harness::run_experiment;
use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, Value};
use lbsa_explorer::checker::Violation;
use lbsa_explorer::{Explorer, Limits, Outcome, Verdict};
use lbsa_hierarchy::certify::{certified_consensus_number, Face};
use lbsa_hierarchy::report::Table;
use lbsa_protocols::classic_consensus::{AnnounceConsensus, ClassicConsensus, RacePrimitive};

/// The table cell of a protocol that must solve consensus.
fn verified(v: &Verdict) -> String {
    if v.holds() {
        format!("consensus verified ({} configs)", v.stats.configs)
    } else {
        format!("UNEXPECTED: {v}")
    }
}

fn main() {
    run_experiment(
        "exp_t7_classic_hierarchy",
        "T7 — classic primitives vs the paper's objects (one machinery)",
        |exp| {
            let limits = Limits::new(2_000_000);
            exp.param("max_configs", limits.max_configs);
            body(exp, limits);
        },
    );
}

fn body(exp: &mut lbsa_bench::harness::Experiment, limits: Limits) {
    let mut table = Table::new(
        "T7 — classic primitives vs the paper's objects (one machinery)",
        vec!["object", "protocol", "processes", "verdict"],
    );

    let prims = [
        (RacePrimitive::TestAndSet, "test-and-set"),
        (RacePrimitive::FetchAdd, "fetch-and-add"),
        (RacePrimitive::Queue, "queue (pre-loaded)"),
    ];

    for (prim, name) in prims {
        // Direct 2-process protocol: exhaustive pass.
        let inputs = mixed_binary_inputs(2);
        let p = ClassicConsensus::two_process(prim, inputs.clone()).expect("2 inputs");
        let objects = p.objects();
        let ex = Explorer::new(&p, &objects).with_trace(exp.tracer());
        let verdict = verified(&ex.exploration().limits(limits).check_consensus(&inputs));
        table.row(vec![
            name.into(),
            "direct (read-the-other)".into(),
            "2".into(),
            verdict,
        ]);

        // Announce generalization: refuted at 2 and 3.
        for n in [2usize, 3] {
            let inputs = mixed_binary_inputs(n);
            let p = AnnounceConsensus::new(prim, inputs.clone());
            let objects = p.objects();
            let ex = Explorer::new(&p, &objects).with_trace(exp.tracer());
            let v = ex.exploration().limits(limits).check_consensus(&inputs);
            let verdict = match &v.outcome {
                Outcome::Violated(Violation::NonTermination { cycle, .. }) => {
                    format!("refuted: non-termination (cycle len {})", cycle.len())
                }
                Outcome::Violated(violation) => format!("refuted: {violation}"),
                _ => format!("NOT REFUTED (machinery bug): {v}"),
            };
            table.row(vec![
                name.into(),
                "announce-and-spin".into(),
                n.to_string(),
                verdict,
            ]);
        }
    }

    // CAS: consensus for every process count checked.
    for n in [2usize, 3, 4, 5] {
        let inputs: Vec<Value> = mixed_binary_inputs(n);
        let p = ClassicConsensus::cas(inputs.clone());
        let objects = p.objects();
        let ex = Explorer::new(&p, &objects).with_trace(exp.tracer());
        let verdict = verified(&ex.exploration().limits(limits).check_consensus(&inputs));
        table.row(vec![
            "compare-and-swap".into(),
            "CAS(nil -> input)".into(),
            n.to_string(),
            verdict,
        ]);
    }

    // The paper's objects, for contrast (same certification machinery).
    for (name, obj, face) in [
        ("O_2", AnyObject::o_n(2).expect("valid"), Face::ProposeC),
        (
            "O'_2",
            AnyObject::o_prime_n(2, 2).expect("valid"),
            Face::PowerLevel1,
        ),
        ("O_3", AnyObject::o_n(3).expect("valid"), Face::ProposeC),
    ] {
        let cert = certified_consensus_number(&obj, face, 5, limits).expect("certifies");
        table.row(vec![
            name.into(),
            "canonical propose".into(),
            format!("level {}", cert.level),
            format!("certified; n+1 refuted: {}", cert.refutation),
        ]);
    }

    exp.table(table);
    exp.note("The read-the-other trick makes the level-2 primitives wait-free for two");
    exp.note("processes; its absence at three is the hierarchy boundary. CAS has no");
    exp.note("such boundary. The paper's O_n / O'_n slot in at level n — and T5 shows");
    exp.note("that level alone (even with set agreement power) does not equate them.");
}
