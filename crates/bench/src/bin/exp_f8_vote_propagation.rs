//! **Experiment F8** — vote propagation: the first sampling-only workload
//! family.
//!
//! A commitment-cascade model over a random partially-connected network
//! (see [`lbsa_protocols::vote_propagation`]): nodes accumulate `+1`
//! votes in shared mailboxes and commit once their balance crosses a
//! threshold. Its state space explodes with the node count (every mailbox
//! counter is configuration state), so — unlike T1–T6 — no cell of this
//! sweep is exhaustively checkable at the sizes used here. Each cell runs
//! the parallel sampling engine through the builder's checking terminal
//! (`exploration().sample(..).check_consensus(..)`) and reports the
//! sampled verdict with its confidence bound.
//!
//! The sweep crosses **connectivity** (outgoing edges per node) with the
//! **starting-set size** and the **bidirectional-edge probability**,
//! showing how quiescence and cascade behaviour respond to topology.
//!
//! Run with `cargo run --release -p lbsa-bench --bin
//! exp_f8_vote_propagation` (`--n`, `--runs`, and `--max-rounds` shrink
//! the sweep for CI smoke runs).

use lbsa_bench::harness::run_experiment;
use lbsa_core::value::int;
use lbsa_explorer::{Explorer, Outcome, SampleConfig};
use lbsa_hierarchy::report::Table;
use lbsa_protocols::vote_propagation::VotePropagation;

fn main() {
    run_experiment(
        "exp_f8_vote_propagation",
        "F8 — vote propagation under sampled checking",
        |exp| {
            body(exp);
        },
    );
}

fn body(exp: &mut lbsa_bench::harness::Experiment) {
    let n = exp.arg_usize("n", 10);
    let runs = u64::try_from(exp.arg_usize("runs", 300)).expect("runs fits u64");
    let max_rounds = u32::try_from(exp.arg_usize("max-rounds", 8)).expect("rounds fit u32");
    exp.param("n", n);
    exp.param("runs", runs);
    exp.param("max_rounds", max_rounds);

    let mut table = Table::new(
        "F8 — vote propagation under sampled checking",
        vec![
            "connectivity",
            "starters",
            "bidi p",
            "runs",
            "quiescent",
            "steps",
            "violation rate <",
            "verdict",
        ],
    );

    let starters = [1usize, (n / 3).max(2)];
    let bidi = [(0u64, 2u64, "0"), (1, 2, "1/2"), (2, 2, "1")];
    let mut cell = 0u64;
    for connectivity in [1usize, 2, 3] {
        for &start_count in &starters {
            for &(num, den, p_label) in &bidi {
                cell += 1;
                let label = format!("f8.c{connectivity}.s{start_count}.p{num}of{den}");
                let protocol = VotePropagation::random(
                    n,
                    connectivity,
                    start_count,
                    num,
                    den,
                    0xF8_0000 + cell,
                )
                .expect("sweep parameters are valid")
                .with_max_rounds(max_rounds);
                let mailboxes = protocol.mailboxes();
                let verdict = Explorer::new(&protocol, &mailboxes)
                    .with_trace(exp.tracer())
                    .exploration()
                    .sample(SampleConfig {
                        runs,
                        seed0: cell * 1_000_000,
                        max_steps: 100_000,
                        ..SampleConfig::default()
                    })
                    .check_consensus(&[int(1)]);
                let row_tail = match &verdict.outcome {
                    Outcome::HoldsSampled {
                        runs,
                        quiescent,
                        confidence,
                        ..
                    } => {
                        exp.metric(&format!("{label}.quiescent"), *quiescent);
                        exp.metric(&format!("{label}.steps"), verdict.stats.transitions);
                        vec![
                            runs.to_string(),
                            quiescent.to_string(),
                            verdict.stats.transitions.to_string(),
                            format!("{:.2e}", 1.0 - confidence),
                            "holds (sampled)".into(),
                        ]
                    }
                    _ => vec![
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        verdict.describe(),
                    ],
                };
                let mut row = vec![
                    connectivity.to_string(),
                    start_count.to_string(),
                    p_label.to_string(),
                ];
                row.extend(row_tail);
                table.row(row);
                exp.verdict(&label, &verdict);
            }
        }
    }

    exp.table(table);
    exp.note("Every cell is beyond the exhaustive frontier: verdicts are sampled, with a");
    exp.note("Clopper-Pearson 95% upper bound on the per-run violation rate. The only");
    exp.note("decidable value is 1, so agreement/validity hold by construction; the sweep");
    exp.note("measures quiescence and cascade behaviour across topologies.");
}
