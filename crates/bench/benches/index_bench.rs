//! Microbenchmark — the dedup indexes, one layer of the explorer.
//!
//! The input is what the engines actually index on k-set agreement at
//! n = 9 (`KSetViaStrongSa` over one strong 2-SA object, 236,206
//! configurations, 1,102,401 transitions): every configuration's key row,
//! interned the way the engines intern them, and every node's successor
//! rows in edge order. Four loops, each building a fresh index per
//! iteration (its drop is timed too):
//!
//! * `sharded_insert` — `ShardedIndex::insert` of every row in node order,
//!   the level-sync engine's numbering;
//! * `sharded_probe` — `ShardedIndex::probe` of every edge's target row
//!   against the full index, the level-sync engine's dedup lookups;
//! * `concurrent_batch_t1` / `concurrent_batch_t2` — one
//!   `ConcurrentIndex::get_or_insert_batch` per node over its successor
//!   rows, the nodes walked by one thread, or split between two threads in
//!   interleaved chunks of 64 nodes against one shared index.
//!
//! The summary prints ns per operation: per row inserted, per probe, per
//! key batched.
//!
//! Run with `cargo bench -p lbsa-bench --bench index_bench`.

use lbsa_bench::distinct_inputs;
use lbsa_core::{AnyObject, ObjId};
use lbsa_explorer::intern::{CompactConfig, ConcurrentIndex, Interner, ShardedIndex};
use lbsa_explorer::Explorer;
use lbsa_protocols::set_agreement_protocols::KSetViaStrongSa;
use lbsa_support::bench::Criterion;
use lbsa_support::{criterion_group, criterion_main};
use std::hint::black_box;

/// Nodes per chunk a thread takes in turn in the two-thread batch loop.
const CHUNK: usize = 64;

/// The k-set n = 9 key rows, in node order, and each node's successor
/// rows in edge order.
struct Rows {
    rows: Vec<CompactConfig>,
    succs: Vec<Vec<CompactConfig>>,
}

fn kset_rows() -> Rows {
    let p = KSetViaStrongSa::new(distinct_inputs(9), ObjId(0));
    let objects = vec![AnyObject::strong_sa()];
    let graph = Explorer::new(&p, &objects)
        .exploration()
        .run()
        .expect("explorable");
    let states = Interner::new();
    let procs = Interner::new();
    let rows: Vec<CompactConfig> = graph
        .configs
        .iter()
        .map(|c| {
            c.object_states
                .iter()
                .map(|s| states.intern(s))
                .chain(c.procs.iter().map(|s| procs.intern(s)))
                .collect()
        })
        .collect();
    let succs = graph
        .edges
        .iter()
        .map(|edges| edges.iter().map(|e| rows[e.target].clone()).collect())
        .collect();
    Rows { rows, succs }
}

fn sharded(rows: &[CompactConfig]) -> ShardedIndex {
    let mut index = ShardedIndex::new();
    for (i, row) in rows.iter().enumerate() {
        index.insert(CompactConfig::clone(row), i as u32);
    }
    index
}

/// One batch per node of `nodes`, against `index`; returns the hits.
fn batches(index: &ConcurrentIndex, succs: &[Vec<CompactConfig>], nodes: &[usize]) -> u64 {
    let mut results = Vec::new();
    nodes
        .iter()
        .map(|&n| index.get_or_insert_batch(&succs[n], &mut results))
        .sum()
}

fn bench_indexes(c: &mut Criterion) {
    let Rows { rows, succs } = kset_rows();
    let keys: usize = succs.iter().map(Vec::len).sum();
    let nodes: Vec<usize> = (0..rows.len()).collect();
    let full = sharded(&rows);
    let mut group = c.benchmark_group("index");
    group.sample_size(10);
    group.bench_function(format!("sharded_insert/{}", rows.len()), |b| {
        b.iter(|| sharded(&rows).len());
    });
    group.bench_function(format!("sharded_probe/{keys}"), |b| {
        b.iter(|| {
            succs
                .iter()
                .flatten()
                .filter_map(|row| full.probe(row))
                .count()
        });
    });
    group.bench_function(format!("concurrent_batch_t1/{keys}"), |b| {
        b.iter(|| {
            let index = ConcurrentIndex::new();
            black_box(batches(&index, &succs, &nodes));
            index.len()
        });
    });
    let halves: [Vec<usize>; 2] = std::array::from_fn(|t| {
        nodes
            .chunks(CHUNK)
            .skip(t)
            .step_by(2)
            .flatten()
            .copied()
            .collect()
    });
    group.bench_function(format!("concurrent_batch_t2/{keys}"), |b| {
        b.iter(|| {
            let index = ConcurrentIndex::new();
            std::thread::scope(|s| {
                for half in &halves {
                    let (index, succs) = (&index, &succs);
                    s.spawn(move || black_box(batches(index, succs, half)));
                }
            });
            index.len()
        });
    });
    group.finish();
}

/// Prints ns per operation (min and median over samples).
fn report_per_op(c: &mut Criterion) {
    for r in c.results() {
        let Some(ops) = r.id.rsplit('/').next().and_then(|s| s.parse::<f64>().ok()) else {
            continue;
        };
        println!(
            "{}: {:.1} ns/op min, {:.1} ns/op median ({ops} ops per iteration)",
            r.id,
            r.min_nanos() / ops,
            r.median_nanos() / ops
        );
    }
}

criterion_group!(benches, bench_indexes, report_per_op);
criterion_main!(benches);
