//! **Experiment F1** — state-space scaling of exhaustive exploration.
//!
//! Measures how the execution-graph size grows with the number of
//! processes, for the two workhorse workloads of the experiments: the
//! one-shot consensus race and Algorithm 2 (whose retry loops make the
//! graph cyclic and denser). Each row also reports the exploration
//! engine's own metrics — throughput (configs/sec), dedup hit rate, and
//! the worker thread count — taken from [`lbsa_explorer::ExploreStats`].
//!
//! A second table reruns the symmetric instances with symmetry reduction
//! enabled and reports orbit counts next to the raw config counts: the
//! T2 workload gives process 0 input 1 and everyone else input 0, so the
//! non-distinguished processes form one interchangeability class and the
//! quotient graph shrinks by up to |S_{n-1}| = (n-1)!. It runs to n = 8
//! (|S_7| = 5,040) with the raw and reduced exploration times side by side.
//!
//! Run with `cargo run --release -p lbsa-bench --bin exp_f1_statespace`.

use lbsa_bench::harness::run_experiment;
use lbsa_bench::{distinct_inputs, mixed_binary_inputs};
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::{ExplorationGraph, Explorer, Limits};
use lbsa_hierarchy::report::Table;
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::KSetViaStrongSa;

fn record_metrics<L>(
    exp: &mut lbsa_bench::harness::Experiment,
    workload: &str,
    n: usize,
    g: &ExplorationGraph<L>,
) where
    L: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    exp.metric(&format!("{workload}.n{n}.configs"), g.configs.len());
    exp.metric(&format!("{workload}.n{n}.transitions"), g.transitions);
    exp.metric(
        &format!("{workload}.n{n}.elapsed_us"),
        g.stats.elapsed.as_micros() as u64,
    );
}

fn stats_row<L>(workload: &str, n: usize, g: &ExplorationGraph<L>) -> Vec<String>
where
    L: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    vec![
        workload.into(),
        n.to_string(),
        g.configs.len().to_string(),
        g.transitions.to_string(),
        g.has_cycle().to_string(),
        format!("{:.1}", g.stats.elapsed.as_secs_f64() * 1e3),
        format!("{:.0}", g.stats.configs_per_sec()),
        format!("{:.1}", 100.0 * g.stats.dedup_rate()),
        g.stats.peak_frontier.to_string(),
        g.stats.threads.to_string(),
    ]
}

fn main() {
    run_experiment(
        "exp_f1_statespace",
        "F1 — execution-graph size vs processes (exhaustive exploration)",
        |exp| {
            let limits = Limits::new(5_000_000);
            exp.param("max_configs", limits.max_configs);
            body(exp, limits);
        },
    );
}

fn body(exp: &mut lbsa_bench::harness::Experiment, limits: Limits) {
    let mut table = Table::new(
        "F1 — execution-graph size vs processes (exhaustive exploration)",
        vec![
            "workload",
            "processes",
            "configs",
            "transitions",
            "cyclic",
            "time (ms)",
            "configs/s",
            "dedup %",
            "peak frontier",
            "threads",
        ],
    );

    for n in 2..=7usize {
        let inputs = mixed_binary_inputs(n);
        let p = ConsensusViaObject::new(inputs, ObjId(0));
        let objects = vec![AnyObject::consensus(n).expect("valid")];
        let g = Explorer::new(&p, &objects)
            .with_trace(exp.tracer())
            .exploration()
            .limits(limits)
            .run()
            .expect("explorable");
        record_metrics(exp, "consensus_race", n, &g);
        table.row(stats_row("consensus race", n, &g));
    }

    for n in 2..=5usize {
        let inputs = mixed_binary_inputs(n);
        let p = DacFromPac::new(inputs, Pid(0), ObjId(0)).expect("n >= 2");
        let objects = vec![AnyObject::pac(n).expect("valid")];
        let g = Explorer::new(&p, &objects)
            .with_trace(exp.tracer())
            .exploration()
            .limits(limits)
            .run()
            .expect("explorable");
        record_metrics(exp, "dac", n, &g);
        table.row(stats_row("Algorithm 2 (n-DAC)", n, &g));
    }

    for n in 2..=6usize {
        let inputs = distinct_inputs(n);
        let p = KSetViaStrongSa::new(inputs, ObjId(0));
        let objects = vec![AnyObject::strong_sa()];
        let g = Explorer::new(&p, &objects)
            .with_trace(exp.tracer())
            .exploration()
            .limits(limits)
            .run()
            .expect("explorable");
        record_metrics(exp, "sa_race", n, &g);
        table.row(stats_row("2-SA race (nondet branching)", n, &g));
    }

    exp.table(table);

    let mut reduced_table = Table::new(
        "F1b — symmetry reduction on symmetric instances (raw vs orbits)",
        vec![
            "workload",
            "processes",
            "group order",
            "raw configs",
            "orbit configs",
            "reduction",
            "raw ms",
            "reduced ms",
        ],
    );

    for n in 2..=8usize {
        let inputs = mixed_binary_inputs(n);
        let p = DacFromPac::new(inputs, Pid(0), ObjId(0)).expect("n >= 2");
        let objects = vec![AnyObject::pac(n).expect("valid")];
        let ex = Explorer::new(&p, &objects).with_trace(exp.tracer());
        let raw = ex.exploration().limits(limits).run().expect("explorable");
        let reduced = ex
            .exploration()
            .limits(limits)
            .symmetric()
            .run()
            .expect("explorable");
        let group_order: usize = (1..n).product(); // |S_{n-1}|
        reduced_table.row(vec![
            "Algorithm 2 (n-DAC)".into(),
            n.to_string(),
            group_order.to_string(),
            raw.configs.len().to_string(),
            reduced.configs.len().to_string(),
            format!(
                "{:.2}x",
                raw.configs.len() as f64 / reduced.configs.len() as f64
            ),
            format!("{:.1}", raw.stats.elapsed.as_secs_f64() * 1e3),
            format!("{:.1}", reduced.stats.elapsed.as_secs_f64() * 1e3),
        ]);
    }

    exp.table(reduced_table);
}
