//! **Experiment F2** — the bivalency adversary at work.
//!
//! For each target, reports (i) how long the greedy bivalency-preserving
//! adversary keeps the outcome open, and (ii) the size of the
//! non-termination certificate (prefix + cycle) when one exists: the
//! witness of the wait-freedom check. The
//! contrast reproduces the mechanics of the paper's impossibility proofs:
//! against *solvable* instances the adversary gets stuck immediately (some
//! step seals the outcome — the critical configuration); against the doomed
//! candidates it loops forever.
//!
//! Run with `cargo run --release -p lbsa-bench --bin exp_f2_adversary_survival`.

use lbsa_bench::harness::run_experiment;
use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, ObjId};
use lbsa_explorer::adversary::bivalent_survival;
use lbsa_explorer::checker::Violation;
use lbsa_explorer::valency::ValencyAnalysis;
use lbsa_explorer::{Explorer, Limits, Outcome, Tracer};
use lbsa_hierarchy::report::Table;
use lbsa_protocols::candidates::{SaThenConsensus, WaitForWinner};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_runtime::process::Protocol;

fn analyze<P: Protocol>(
    name: &str,
    protocol: &P,
    objects: &[AnyObject],
    tracer: Tracer,
    table: &mut Table,
) {
    let ex = Explorer::new(protocol, objects).with_trace(tracer);
    let limits = Limits::new(5_000_000);
    let g = ex.exploration().limits(limits).run().expect("explorable");
    let va = ValencyAnalysis::analyze(&g);
    let (barren, univalent, multivalent) = va.census();
    let survival = bivalent_survival(&g, &va, 100_000);
    let wait_free = ex.exploration().limits(limits).check_wait_free();
    let crit = va.critical_configurations(&g).len();
    table.row(vec![
        name.to_string(),
        g.configs.len().to_string(),
        format!("{barren}/{univalent}/{multivalent}"),
        crit.to_string(),
        if survival.looped {
            "unbounded (loops)".to_string()
        } else if survival.stuck {
            format!("stuck after {}", survival.steps)
        } else {
            format!(">= {}", survival.steps)
        },
        match (&wait_free.outcome, &wait_free.witness) {
            (Outcome::Violated(Violation::NonTermination { .. }), Some(w)) => {
                format!("prefix {} + cycle {}", w.schedule.len(), w.cycle.len())
            }
            _ => "none (wait-free)".to_string(),
        },
    ]);
}

fn main() {
    run_experiment(
        "exp_f2_adversary_survival",
        "F2 — bivalency adversary: survival and certificates",
        |exp| {
            body(exp);
        },
    );
}

fn body(exp: &mut lbsa_bench::harness::Experiment) {
    let mut table = Table::new(
        "F2 — bivalency adversary: survival and certificates",
        vec![
            "target",
            "configs",
            "barren/uni/multi",
            "critical configs",
            "adversary survival",
            "non-termination certificate",
        ],
    );

    // Solvable: consensus race on a real consensus object.
    let p = ConsensusViaObject::new(mixed_binary_inputs(2), ObjId(0));
    let objects = vec![AnyObject::consensus(2).expect("valid")];
    analyze(
        "2-consensus race (solvable)",
        &p,
        &objects,
        exp.tracer(),
        &mut table,
    );

    let p = ConsensusViaObject::new(mixed_binary_inputs(3), ObjId(0));
    let objects = vec![AnyObject::consensus(3).expect("valid")];
    analyze(
        "3-consensus race (solvable)",
        &p,
        &objects,
        exp.tracer(),
        &mut table,
    );

    // Doomed: wait-for-winner with one process too many.
    let p = WaitForWinner::new(mixed_binary_inputs(3));
    let objects = vec![
        AnyObject::consensus(2).expect("valid"),
        AnyObject::register(),
    ];
    analyze(
        "wait-for-winner, 3 procs (doomed)",
        &p,
        &objects,
        exp.tracer(),
        &mut table,
    );

    // Doomed: the 2-SA narrowing attempt.
    let p = SaThenConsensus::new(mixed_binary_inputs(3));
    let objects = vec![
        AnyObject::strong_sa(),
        AnyObject::consensus(2).expect("valid"),
    ];
    analyze(
        "2-SA narrow + tie-break (doomed)",
        &p,
        &objects,
        exp.tracer(),
        &mut table,
    );

    exp.table(table);
    exp.note("Reading: solvable targets leave the adversary stuck at a critical");
    exp.note("configuration almost immediately; doomed candidates let it survive");
    exp.note("forever (a loop) or exhibit an outright non-termination certificate.");
}
