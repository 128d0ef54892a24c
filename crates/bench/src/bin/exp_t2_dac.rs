//! **Experiment T2** — Theorem 4.1: Algorithm 2 solves the n-DAC problem.
//!
//! For each `n` and every binary input vector, exhaustively explores every
//! execution of Algorithm 2 over a single n-PAC object and checks the four
//! n-DAC properties (Agreement, Validity, Termination (a)/(b) via solo-run
//! re-exploration, Nontriviality). Per-`n` verdicts (with witnesses, were
//! any violation ever found) land in `reports/exp_t2_dac.json`, and the
//! engine's span trace in `reports/exp_t2_dac.trace.jsonl`.
//!
//! Run with `cargo run --release -p lbsa-bench --bin exp_t2_dac`.
//! `--max-n N` caps the largest instance (default 4; CI smoke uses 2).

use lbsa_bench::harness::run_experiment;
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::checker::CheckStats;
use lbsa_explorer::verdict::{Outcome, Verdict};
use lbsa_explorer::{Explorer, Limits};
use lbsa_hierarchy::report::Table;
use lbsa_protocols::dac::{all_binary_inputs, DacFromPac};

fn main() {
    run_experiment(
        "exp_t2_dac",
        "T2 — Algorithm 2 solves n-DAC (Theorem 4.1), exhaustive",
        |exp| {
            let max_n = exp.arg_usize("max-n", 4);
            let max_configs = 2_000_000usize;
            exp.param("max_n", max_n);
            exp.param("max_configs", max_configs);
            let mut table = Table::new(
                "T2 — Algorithm 2 solves n-DAC (Theorem 4.1), exhaustive",
                vec![
                    "n",
                    "input vectors",
                    "configs (total)",
                    "transitions (total)",
                    "verdict",
                ],
            );
            for n in 2..=max_n {
                let limits = Limits::new(max_configs);
                let solo_bound = 6 * n;
                let mut configs = 0usize;
                let mut transitions = 0usize;
                let mut verdict = "all properties hold".to_string();
                let inputs_list = all_binary_inputs(n);
                let vectors = inputs_list.len();
                let mut summary = None;
                for inputs in inputs_list {
                    let protocol = DacFromPac::new(inputs, Pid(0), ObjId(0)).expect("n >= 2");
                    let objects = vec![AnyObject::pac(n).expect("n >= 1")];
                    let explorer = Explorer::new(&protocol, &objects)
                        .with_trace(exp.tracer())
                        .with_registry(exp.registry());
                    let v = explorer
                        .exploration()
                        .limits(limits)
                        .check_dac(&protocol.instance(), solo_bound);
                    match &v.outcome {
                        Outcome::Holds => {
                            configs += v.stats.configs;
                            transitions += v.stats.transitions;
                        }
                        Outcome::Truncated => {
                            verdict = "TRUNCATED (raise limits)".to_string();
                            summary = Some(v);
                            break;
                        }
                        _ => {
                            verdict = format!("VIOLATED: {v}");
                            summary = Some(v);
                            break;
                        }
                    }
                }
                let summary = summary.unwrap_or(Verdict {
                    outcome: Outcome::Holds,
                    stats: CheckStats {
                        configs,
                        transitions,
                    },
                    witness: None,
                });
                exp.verdict(&format!("n={n}"), &summary);
                exp.metric(&format!("dac.n{n}.vectors"), vectors);
                exp.metric(&format!("dac.n{n}.configs"), configs);
                exp.metric(&format!("dac.n{n}.transitions"), transitions);
                table.row(vec![
                    n.to_string(),
                    vectors.to_string(),
                    configs.to_string(),
                    transitions.to_string(),
                    verdict,
                ]);
            }
            exp.table(table);
            exp.note("Termination here is the n-DAC clause (solo runs), not wait-freedom:");
            exp.note("the execution graphs above contain retry cycles by design.");
        },
    );
}
