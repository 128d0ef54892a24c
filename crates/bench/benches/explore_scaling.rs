//! **F1 (bench)** — exhaustive exploration throughput as the process count
//! grows, and work-stealing speedup on the T2 and k-set workloads.
//!
//! The `t2_dac/...` benchmarks explore Algorithm 2 (n-DAC from an n-PAC
//! object) for n = 4 — once with the deterministic engine against the seed
//! baseline algorithm, and once with symmetry reduction (the
//! non-distinguished processes share the input 0, so the instance is
//! symmetric under S_{n-1}); the `t2_dac/5/...` pair measures the same
//! raw-vs-reduced split at n = 5, and `t2_dac/6/...` adds the regime the
//! work-stealing frontier and sort-and-tie canonicalization are for: the
//! `seq`/`ws` pair gates parallel speedup without inter-depth barriers,
//! and the `reduced` row gates that orbit reduction now *wins wall clock*
//! against raw exploration; `t2_dac/8/reduced` times the 339-orbit
//! quotient under |S_7| = 5,040. The `kset/9/...` pair measures the same
//! seq-vs-work-stealing split on a large k-set-agreement instance
//! (≥ 10⁵ raw configurations), where frontier widths dwarf any barrier
//! cost. Besides the usual per-group JSON report, this bench writes
//! `BENCH_explore.json` at the repository root recording configs/sec for
//! the engines, the work-stealing speedups, the
//! orbit-reduction ratios, and the new steal/canonicalization counters,
//! so the perf trajectory is tracked in-tree.

use lbsa_bench::{distinct_inputs, mixed_binary_inputs};
use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::{
    Configuration, ExploreOptions, Explorer, Frontier, Limits, Outcome, SampleConfig,
};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::KSetViaStrongSa;
use lbsa_protocols::vote_propagation::VotePropagation;
use lbsa_runtime::process::Protocol;
use lbsa_support::bench::{BenchmarkId, Criterion};
use lbsa_support::json::Json;
use lbsa_support::{criterion_group, criterion_main};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;

/// Process count of the committed large k-set-agreement workload: the
/// KSetViaStrongSa race over a strong 2-SA object at n = 9 reaches ≈ 236k
/// raw configurations — past the 10⁵ mark where exploration time is pure
/// frontier throughput.
const KSET_N: usize = 9;

/// Seeded runs per iteration of the sampling-throughput benchmark: the F8
/// vote-propagation workload at n = 10 swept by the sampling engine. The
/// committed `schedules_per_sec` derived from it is the advisory floor
/// `perf_smoke` warns on.
const SAMPLING_RUNS: u64 = 200;

/// The seed exploration algorithm, kept verbatim as the perf baseline: a
/// FIFO BFS deduplicating through a `HashMap` keyed by whole (deeply
/// hashed, SipHash) configurations, storing every configuration twice —
/// once in the graph, once as a map key.
fn baseline_explore<P: Protocol>(explorer: &Explorer<'_, P>, max_configs: usize) -> (usize, usize) {
    let initial = explorer.initial_config();
    let mut configs = vec![initial.clone()];
    let mut index: HashMap<Configuration<P::LocalState>, usize> =
        HashMap::from([(initial, 0usize)]);
    let mut transitions = 0usize;
    let mut queue = VecDeque::from([0usize]);
    while let Some(node) = queue.pop_front() {
        if node >= max_configs {
            continue;
        }
        let config = configs[node].clone();
        for pid in config.enabled_pids() {
            for succ in explorer.successors_of(&config, pid).unwrap() {
                transitions += 1;
                if !index.contains_key(&succ) {
                    let t = configs.len();
                    index.insert(succ.clone(), t);
                    configs.push(succ);
                    queue.push_back(t);
                }
            }
        }
    }
    (configs.len(), transitions)
}

fn bench_explore(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore_scaling");
    group.sample_size(10);

    for n in [2usize, 3, 4, 5] {
        group.bench_with_input(BenchmarkId::new("consensus_race", n), &n, |b, &n| {
            let p = ConsensusViaObject::new(mixed_binary_inputs(n), ObjId(0));
            let objects = vec![AnyObject::consensus(n).unwrap()];
            b.iter(|| {
                let g = Explorer::new(&p, &objects).exploration().run().unwrap();
                black_box(g.configs.len())
            });
        });
    }

    for n in [2usize, 3, 4] {
        group.bench_with_input(BenchmarkId::new("strong_sa_race", n), &n, |b, &n| {
            let p = KSetViaStrongSa::new(distinct_inputs(n), ObjId(0));
            let objects = vec![AnyObject::strong_sa()];
            b.iter(|| {
                let g = Explorer::new(&p, &objects).exploration().run().unwrap();
                black_box(g.transitions)
            });
        });
    }

    // The engine acceptance workload: T2, Algorithm 2 for n = 4. These
    // feed the gated speedups in `BENCH_explore.json`, so they get a larger
    // sample than the scaling sweeps above.
    group.sample_size(20);
    let n = 4usize;
    let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).unwrap();
    let objects = vec![AnyObject::pac(n).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    let threads = ExploreOptions::default().resolved_threads();

    group.bench_function("t2_dac/4/baseline", |b| {
        b.iter(|| black_box(baseline_explore(&explorer, Limits::default().max_configs)));
    });
    group.bench_function("t2_dac/4/seq", |b| {
        b.iter(|| {
            let g = explorer.exploration().threads(1).run().unwrap();
            black_box(g.configs.len())
        });
    });
    group.bench_function("t2_dac/4/reduced", |b| {
        b.iter(|| {
            let g = explorer.exploration().threads(1).symmetric().run().unwrap();
            black_box(g.configs.len())
        });
    });

    // Raw-vs-reduced at n = 5: the scale the reduction is for. Exhaustive
    // raw exploration is still feasible here (≈ 1k configs), which is what
    // lets the report cross-check the orbit count against ground truth.
    let p5 = DacFromPac::new(mixed_binary_inputs(5), Pid(0), ObjId(0)).unwrap();
    let objects5 = vec![AnyObject::pac(5).unwrap()];
    let explorer5 = Explorer::new(&p5, &objects5);
    group.bench_function("t2_dac/5/baseline", |b| {
        b.iter(|| black_box(baseline_explore(&explorer5, Limits::default().max_configs)));
    });
    group.bench_function("t2_dac/5/raw", |b| {
        b.iter(|| {
            let g = explorer5.exploration().threads(1).run().unwrap();
            black_box(g.configs.len())
        });
    });
    group.bench_function("t2_dac/5/reduced", |b| {
        b.iter(|| {
            let g = explorer5
                .exploration()
                .threads(1)
                .symmetric()
                .run()
                .unwrap();
            black_box(g.configs.len())
        });
    });

    // n = 6: the committed workload where the work-stealing frontier and
    // the sort-and-tie canonicalization must both *win* (see `perf_smoke`).
    let p6 = DacFromPac::new(mixed_binary_inputs(6), Pid(0), ObjId(0)).unwrap();
    let objects6 = vec![AnyObject::pac(6).unwrap()];
    let explorer6 = Explorer::new(&p6, &objects6);
    group.bench_function("t2_dac/6/seq", |b| {
        b.iter(|| {
            let g = explorer6.exploration().threads(1).run().unwrap();
            black_box(g.configs.len())
        });
    });
    group.bench_function(format!("t2_dac/6/ws{threads}"), |b| {
        b.iter(|| {
            let g = explorer6
                .exploration()
                .frontier(Frontier::WorkStealing)
                .run()
                .unwrap();
            black_box(g.configs.len())
        });
    });
    group.bench_function("t2_dac/6/reduced", |b| {
        b.iter(|| {
            let g = explorer6
                .exploration()
                .threads(1)
                .symmetric()
                .run()
                .unwrap();
            black_box(g.configs.len())
        });
    });

    // n = 8 reduced: the committed time-to-verdict workload, |S_7| = 5,040.
    // Canonicalization sorts statuses instead of enumerating the group, so
    // the 339-orbit quotient costs milliseconds; perf_smoke gates its
    // orbit count exactly and reports its time advisorily.
    let p8 = DacFromPac::new(mixed_binary_inputs(8), Pid(0), ObjId(0)).unwrap();
    let objects8 = vec![AnyObject::pac(8).unwrap()];
    let explorer8 = Explorer::new(&p8, &objects8);
    group.bench_function("t2_dac/8/reduced", |b| {
        b.iter(|| {
            let g = explorer8
                .exploration()
                .threads(1)
                .symmetric()
                .run()
                .unwrap();
            black_box(g.configs.len())
        });
    });

    // The large k-set-agreement instance: ≥ 10⁵ raw configurations, the
    // regime where frontier throughput is everything. Runs take a quarter
    // second each, so the sample drops back to the sweep size.
    group.sample_size(10);
    let pk = KSetViaStrongSa::new(distinct_inputs(KSET_N), ObjId(0));
    let objectsk = vec![AnyObject::strong_sa()];
    let explorerk = Explorer::new(&pk, &objectsk);
    group.bench_function(format!("kset/{KSET_N}/seq"), |b| {
        b.iter(|| {
            let g = explorerk.exploration().threads(1).run().unwrap();
            black_box(g.configs.len())
        });
    });
    group.bench_function(format!("kset/{KSET_N}/ws{threads}"), |b| {
        b.iter(|| {
            let g = explorerk
                .exploration()
                .frontier(Frontier::WorkStealing)
                .run()
                .unwrap();
            black_box(g.configs.len())
        });
    });
    // Sampling-engine throughput: the F8 vote-propagation workload at
    // n = 10, one worker (per-run cost, not parallel scaling — the
    // thread-independence contract is covered by tests).
    let pv = VotePropagation::random(10, 2, 3, 1, 2, 42).unwrap();
    let mailboxes = pv.mailboxes();
    let sample_cfg = SampleConfig {
        runs: SAMPLING_RUNS,
        seed0: 0,
        max_steps: 100_000,
        threads: 1,
        ..SampleConfig::default()
    };
    let valid = [int(1)];
    group.bench_function(format!("sampling/vote_prop/{SAMPLING_RUNS}"), |b| {
        b.iter(|| {
            let verdict = Explorer::new(&pv, &mailboxes)
                .exploration()
                .sample(sample_cfg)
                .check_consensus(&valid);
            assert!(
                matches!(verdict.outcome, Outcome::HoldsSampled { .. }),
                "{verdict}"
            );
            black_box(verdict.stats.configs)
        });
    });
    group.finish();

    write_speedup_report(
        c, threads, &explorer, &explorer5, &explorer6, &explorer8, &explorerk,
    );
}

/// Rounds to two decimals — the report is read by humans and diffed in
/// review, so ratios keep the precision they are gated at.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Writes `BENCH_explore.json` at the repository root: configs/sec on T2
/// n=4 for the seed baseline algorithm and the deterministic engine, plus
/// the resulting speedup of the engine over the baseline — and, for the
/// symmetry layer, the
/// raw-vs-reduced config counts and reduction ratios at n = 4, 5, and 6
/// (the n = 4 group is only S_3, so its ratio is Burnside-capped at 6;
/// n = 5 is where the ≥ 5× reduction target is met), and the n = 8
/// reduced orbit count and time. The n = 6 and
/// `kset` blocks additionally record the work-stealing frontier: its
/// seq-vs-ws speedup, the steal counters, and the incremental
/// canonicalization split (patches vs full recomputations), plus
/// `effective_cores` so the gates can scale expectations to the host.
///
/// The n = 4 graph is small enough (275 configs) that per-run setup
/// compresses the measured engine-vs-baseline ratio and couples it to the
/// host's thermal state; `n5_speedup_vs_baseline` is the stable, absolute
/// perf gate (see `perf_smoke`), while the n = 4 speedup is gated only
/// relative to its committed value.
fn write_speedup_report(
    c: &Criterion,
    threads: usize,
    explorer: &Explorer<'_, DacFromPac>,
    explorer5: &Explorer<'_, DacFromPac>,
    explorer6: &Explorer<'_, DacFromPac>,
    explorer8: &Explorer<'_, DacFromPac>,
    explorerk: &Explorer<'_, KSetViaStrongSa>,
) {
    // Gated speedups are computed from per-benchmark *minimum* times, not
    // medians: scheduler noise and co-tenant load only ever inflate a
    // sample, so the min is the robust estimator of the true cost on a
    // shared box. Medians are still recorded for context.
    let times = |suffix: &str| {
        c.results()
            .iter()
            .find(|r| r.id.ends_with(suffix))
            .map(|r| (r.min_nanos(), r.median_nanos()))
    };
    let (Some(baseline), Some(seq)) = (times("t2_dac/4/baseline"), times("t2_dac/4/seq")) else {
        return;
    };
    let (Some(reduced_t), Some(baseline5_t), Some(raw5_t), Some(reduced5_t)) = (
        times("t2_dac/4/reduced"),
        times("t2_dac/5/baseline"),
        times("t2_dac/5/raw"),
        times("t2_dac/5/reduced"),
    ) else {
        return;
    };
    let (Some(seq6_t), Some(ws6_t), Some(reduced6_t), Some(kseq_t), Some(kws_t)) = (
        times("t2_dac/6/seq"),
        times(&format!("t2_dac/6/ws{threads}")),
        times("t2_dac/6/reduced"),
        times(&format!("kset/{KSET_N}/seq")),
        times(&format!("kset/{KSET_N}/ws{threads}")),
    ) else {
        return;
    };
    let Some((reduced8_min, reduced8_ns)) = times("t2_dac/8/reduced") else {
        return;
    };
    let (baseline_min, baseline_ns) = baseline;
    let (seq_min, seq_ns) = seq;
    let (reduced_min, reduced_ns) = reduced_t;
    let (baseline5_min, _baseline5_ns) = baseline5_t;
    let (raw5_min, raw5_ns) = raw5_t;
    let (reduced5_min, reduced5_ns) = reduced5_t;
    let (seq6_min, seq6_ns) = seq6_t;
    let (ws6_min, ws6_ns) = ws6_t;
    let (reduced6_min, reduced6_ns) = reduced6_t;
    let (kseq_min, kseq_ns) = kseq_t;
    let (kws_min, kws_ns) = kws_t;
    let g = explorer.exploration().run().unwrap();
    let reduced = explorer.exploration().threads(1).symmetric().run().unwrap();
    let raw5 = explorer5.exploration().threads(1).run().unwrap();
    let reduced5 = explorer5
        .exploration()
        .threads(1)
        .symmetric()
        .run()
        .unwrap();
    let raw6 = explorer6.exploration().threads(1).run().unwrap();
    let reduced6 = explorer6
        .exploration()
        .threads(1)
        .symmetric()
        .run()
        .unwrap();
    let reduced8 = explorer8
        .exploration()
        .threads(1)
        .symmetric()
        .run()
        .unwrap();
    let ws6 = explorer6
        .exploration()
        .frontier(Frontier::WorkStealing)
        .run()
        .unwrap();
    let ksetg = explorerk
        .exploration()
        .frontier(Frontier::WorkStealing)
        .run()
        .unwrap();
    assert_eq!(
        ws6.configs.len(),
        raw6.configs.len(),
        "work-stealing must reach the same state space"
    );
    assert_eq!(KSET_N, explorerk.initial_config().procs.len());
    let expanded = g.stats.expanded;
    let per_sec = |ns: f64| expanded as f64 / (ns / 1e9);
    let ratio = |raw: usize, red: usize| round2(raw as f64 / red as f64);
    // The deterministic engine is single-threaded at every thread count, so
    // the shipped default *is* the `seq` run.
    let speedup = round2(baseline_min / seq_min);
    let effective_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json = Json::object()
        .set("workload", "t2_dac_n4")
        .set("configs", g.configs.len())
        .set("transitions", g.transitions)
        .set("threads", threads)
        .set("effective_cores", effective_cores)
        .set("baseline_min_ns", baseline_min.round())
        .set("seq_min_ns", seq_min.round())
        .set("baseline_median_ns", baseline_ns.round())
        .set("seq_median_ns", seq_ns.round())
        .set("baseline_configs_per_sec", per_sec(baseline_min).round())
        .set("seq_configs_per_sec", per_sec(seq_min).round())
        .set("speedup_vs_baseline", speedup)
        .set("reduced_configs", reduced.configs.len())
        .set("reduced_min_ns", reduced_min.round())
        .set("reduced_median_ns", reduced_ns.round())
        .set(
            "reduction_ratio",
            ratio(g.configs.len(), reduced.configs.len()),
        )
        .set("speedup_reduced_vs_raw", round2(seq_min / reduced_min))
        .set("n5_raw_configs", raw5.configs.len())
        .set("n5_reduced_configs", reduced5.configs.len())
        .set("n5_baseline_min_ns", baseline5_min.round())
        .set("n5_raw_min_ns", raw5_min.round())
        .set("n5_reduced_min_ns", reduced5_min.round())
        .set("n5_raw_median_ns", raw5_ns.round())
        .set("n5_reduced_median_ns", reduced5_ns.round())
        .set("n5_speedup_vs_baseline", round2(baseline5_min / raw5_min))
        .set(
            "n5_reduction_ratio",
            ratio(raw5.configs.len(), reduced5.configs.len()),
        )
        .set("n5_speedup_reduced_vs_raw", round2(raw5_min / reduced5_min))
        .set("n6_raw_configs", raw6.configs.len())
        .set("n6_reduced_configs", reduced6.configs.len())
        .set("n6_seq_min_ns", seq6_min.round())
        .set("n6_ws_min_ns", ws6_min.round())
        .set("n6_reduced_min_ns", reduced6_min.round())
        .set("n6_seq_median_ns", seq6_ns.round())
        .set("n6_ws_median_ns", ws6_ns.round())
        .set("n6_reduced_median_ns", reduced6_ns.round())
        .set("n6_speedup_par_vs_seq", round2(seq6_min / ws6_min))
        .set(
            "n6_reduction_ratio",
            ratio(raw6.configs.len(), reduced6.configs.len()),
        )
        .set("n6_speedup_reduced_vs_raw", round2(seq6_min / reduced6_min))
        .set("n6_ws_steals", ws6.stats.steals)
        .set("n6_ws_steal_fails", ws6.stats.steal_fails)
        .set("n6_ws_local_hits", ws6.stats.local_hits)
        .set("n6_ws_park_count", ws6.stats.park_count)
        .set("n6_ws_index_batch_hits", ws6.stats.index_batch_hits)
        // Level-expand latency quantiles from the always-on histograms of
        // the sequential n = 6 run (octave resolution — see HistogramNs).
        // They ride into `BENCH_history.jsonl` via perf_smoke, giving the
        // regression tracker a latency *distribution*, not just minima.
        .set("n6_level_expand_p50_ns", raw6.stats.hist.level_expand.p50())
        .set("n6_level_expand_p95_ns", raw6.stats.hist.level_expand.p95())
        .set("n6_level_expand_p99_ns", raw6.stats.hist.level_expand.p99())
        .set("n6_canon_patches", reduced6.stats.canon_patches)
        .set("n6_canon_full", reduced6.stats.canon_full)
        .set("n8_reduced_configs", reduced8.configs.len())
        .set("n8_reduced_min_ns", reduced8_min.round())
        .set("n8_reduced_median_ns", reduced8_ns.round())
        // Memory accounting (structural estimates, see `ExploreStats`):
        // the interner footprint after the full n = 6 run, and the total
        // retained bytes (interner + index + graph) per reachable state.
        // Both feed advisory warn-only ceilings in `perf_smoke` and ride
        // into `BENCH_history.jsonl`.
        .set("n6_peak_interner_bytes", raw6.stats.interner_bytes)
        .set("n6_index_bytes", raw6.stats.index_bytes)
        .set(
            "bytes_per_state",
            round2(
                (raw6.stats.interner_bytes + raw6.stats.index_bytes + raw6.approx_bytes()) as f64
                    / raw6.configs.len().max(1) as f64,
            ),
        )
        .set("kset_n", KSET_N)
        .set("kset_raw_configs", ksetg.configs.len())
        .set("kset_seq_min_ns", kseq_min.round())
        .set("kset_ws_min_ns", kws_min.round())
        .set("kset_seq_median_ns", kseq_ns.round())
        .set("kset_ws_median_ns", kws_ns.round())
        .set("kset_speedup_par_vs_seq", round2(kseq_min / kws_min))
        .set("kset_ws_steals", ksetg.stats.steals)
        .set("kset_ws_steal_fails", ksetg.stats.steal_fails)
        .set("kset_ws_local_hits", ksetg.stats.local_hits)
        .set("kset_ws_park_count", ksetg.stats.park_count)
        .set("kset_ws_index_batch_hits", ksetg.stats.index_batch_hits);
    // Sampling-engine throughput (schedules/sec on the F8 workload): an
    // advisory floor in perf_smoke, and a BENCH_history.jsonl column.
    if let Some((sampling_min, sampling_med)) =
        times(&format!("sampling/vote_prop/{SAMPLING_RUNS}"))
    {
        json = json
            .set("sampling_runs", SAMPLING_RUNS)
            .set("sampling_min_ns", sampling_min.round())
            .set("sampling_median_ns", sampling_med.round())
            .set(
                "schedules_per_sec",
                (SAMPLING_RUNS as f64 / (sampling_min / 1e9)).round(),
            );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    if std::fs::write(path, json.pretty() + "\n").is_ok() {
        println!("\nT2 n=4 engine speedup vs seed baseline: {speedup:.2}x");
        println!(
            "T2 n=5 engine speedup vs seed baseline: {:.2}x",
            baseline5_min / raw5_min
        );
        println!(
            "T2 n=6 work-stealing vs seq: {:.2}x; reduced vs raw wall clock: {:.2}x",
            seq6_min / ws6_min,
            reduced6_min / seq6_min,
        );
        println!(
            "T2 n=8 reduced ({} orbits, |G| = 5040): {:.2} ms min",
            reduced8.configs.len(),
            reduced8_min / 1e6,
        );
        println!(
            "kset n={KSET_N} ({} configs) work-stealing vs seq: {:.2}x",
            ksetg.configs.len(),
            kseq_min / kws_min,
        );
        println!(
            "symmetry reduction: n=4 {}->{} configs ({:.2}x), n=5 {}->{} configs ({:.2}x), \
             n=6 {}->{} configs ({:.2}x)",
            g.configs.len(),
            reduced.configs.len(),
            ratio(g.configs.len(), reduced.configs.len()),
            raw5.configs.len(),
            reduced5.configs.len(),
            ratio(raw5.configs.len(), reduced5.configs.len()),
            raw6.configs.len(),
            reduced6.configs.len(),
            ratio(raw6.configs.len(), reduced6.configs.len()),
        );
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
