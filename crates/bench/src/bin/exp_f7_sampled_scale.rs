//! **Experiment F7 (extension)** — sampled checking above the exhaustive
//! frontier.
//!
//! Exhaustive exploration certifies everything up to ~6 processes; this
//! experiment pushes the same *safety* properties to larger instances with
//! seeded random sampling (violations would come back with a reproducing
//! seed). Termination is reported as quiescent-vs-budget counts: n-DAC's
//! retry loops legitimately starve under adversarial randomness, and the
//! table shows exactly how often. Every check goes through the builder's
//! `.sample(..).check_k_set_agreement(..)`.
//!
//! Run with `cargo run --release -p lbsa-bench --bin exp_f7_sampled_scale`.

use lbsa_bench::harness::{run_experiment, Experiment};
use lbsa_bench::{distinct_inputs, mixed_binary_inputs};
use lbsa_core::{AnyObject, ObjId, Pid, Value};
use lbsa_explorer::{Explorer, Outcome, SampleConfig};
use lbsa_hierarchy::report::Table;
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::{GroupSplitKSet, KSetViaPowerLevel};
use lbsa_runtime::process::Protocol;

fn main() {
    run_experiment(
        "exp_f7_sampled_scale",
        "F7 — sampled safety checks beyond the exhaustive frontier",
        |exp| {
            body(exp);
        },
    );
}

fn body(exp: &mut Experiment) {
    let mut table = Table::new(
        "F7 — sampled safety checks beyond the exhaustive frontier",
        vec![
            "workload",
            "processes",
            "k",
            "runs",
            "quiescent",
            "budget-stopped",
            "distinct outcomes",
            "verdict",
        ],
    );
    // Algorithm 2 at n = 6, 8, 10: agreement/validity hold on every sampled
    // run; some runs hit the budget (retry-loop starvation — expected).
    for n in [6usize, 8, 10] {
        let inputs = mixed_binary_inputs(n);
        let protocol = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).expect("n >= 2");
        let objects = vec![AnyObject::pac(n).expect("valid")];
        let key = format!("dac.n{n}");
        let workload = ("Algorithm 2 (n-DAC)", key.as_str());
        sample_row(exp, &mut table, workload, &protocol, &objects, 1, &inputs);
    }

    // Group-split k-set agreement at k·n = 12 (k = 3 groups of 4).
    let inputs = distinct_inputs(12);
    let protocol = GroupSplitKSet::via_combined(inputs.clone(), 4).expect("group size 4");
    let objects: Vec<AnyObject> = (0..3).map(|_| AnyObject::o_n(4).expect("valid")).collect();
    let workload = ("group-split over O_4", "group_split");
    sample_row(exp, &mut table, workload, &protocol, &objects, 3, &inputs);

    // O'_4 level 3 among n_3 = 12 processes.
    let protocol = KSetViaPowerLevel::new(inputs.clone(), ObjId(0), 3);
    let objects = vec![AnyObject::o_prime_n(4, 3).expect("valid")];
    let workload = ("O'_4 level 3", "power_level");
    sample_row(exp, &mut table, workload, &protocol, &objects, 3, &inputs);

    exp.table(table);
    exp.note("Sampling checks safety only; a pass is evidence, not proof (seeds make");
    exp.note("any violation reproducible). Exhaustive certification lives in T1-T6.");
}

/// Samples `k`-set agreement on one workload — `(row label, metric key)` —
/// with 500 seeded runs of at most 50k steps, and appends its table row.
fn sample_row<P: Protocol>(
    exp: &mut Experiment,
    table: &mut Table,
    (label, key): (&str, &str),
    protocol: &P,
    objects: &[AnyObject],
    k: usize,
    inputs: &[Value],
) {
    let config = SampleConfig {
        runs: 500,
        seed0: 0,
        max_steps: 50_000,
        ..SampleConfig::default()
    };
    let verdict = Explorer::new(protocol, objects)
        .with_trace(exp.tracer())
        .exploration()
        .sample(config)
        .check_k_set_agreement(k, inputs);
    let mut row = vec![label.to_string(), inputs.len().to_string(), k.to_string()];
    match &verdict.outcome {
        Outcome::HoldsSampled {
            runs,
            quiescent,
            distinct_outcomes,
            ..
        } => {
            // `RandomScheduler` never declines to pick a process, so every
            // run that did not reach quiescence was stopped by the budget.
            let budget_hit = runs - quiescent;
            exp.metric(&format!("sampled.{key}.quiescent"), *quiescent);
            exp.metric(&format!("sampled.{key}.budget_hit"), budget_hit);
            row.extend([
                runs.to_string(),
                quiescent.to_string(),
                budget_hit.to_string(),
                distinct_outcomes.to_string(),
                "safety holds".into(),
            ]);
        }
        outcome => {
            row.extend([String::new(), String::new(), String::new(), String::new()]);
            row.push(match outcome {
                Outcome::Violated(v) => format!("VIOLATED: {v}"),
                _ => format!("ERROR: {verdict}"),
            });
        }
    }
    table.row(row);
}
