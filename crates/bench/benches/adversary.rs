//! **F2 (bench)** — adversary machinery cost over a doomed candidate:
//! valency analysis, the wait-freedom check that yields the
//! non-termination certificate, and bivalent survival.

use lbsa_bench::mixed_binary_inputs;
use lbsa_core::AnyObject;
use lbsa_explorer::adversary::bivalent_survival;
use lbsa_explorer::valency::ValencyAnalysis;
use lbsa_explorer::Explorer;
use lbsa_protocols::candidates::WaitForWinner;
use lbsa_support::bench::Criterion;
use lbsa_support::{criterion_group, criterion_main};
use std::hint::black_box;

fn bench_adversary(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversary");
    group.sample_size(20);

    let p = WaitForWinner::new(mixed_binary_inputs(3));
    let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::register()];
    let graph = Explorer::new(&p, &objects).exploration().run().unwrap();

    group.bench_function("valency_analysis", |b| {
        b.iter(|| black_box(ValencyAnalysis::analyze(&graph).census()));
    });

    group.bench_function("check_wait_free", |b| {
        b.iter(|| black_box(Explorer::new(&p, &objects).exploration().check_wait_free()));
    });

    let analysis = ValencyAnalysis::analyze(&graph);
    group.bench_function("bivalent_survival", |b| {
        b.iter(|| black_box(bivalent_survival(&graph, &analysis, 10_000)));
    });

    group.finish();
}

criterion_group!(benches, bench_adversary);
criterion_main!(benches);
