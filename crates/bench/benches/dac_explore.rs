//! **T2 (bench)** — full n-DAC verification cost: exploring Algorithm 2 and
//! running all four DAC property checks (including solo-run re-exploration).

use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::Explorer;
use lbsa_protocols::dac::DacFromPac;
use lbsa_support::bench::{BenchmarkId, Criterion};
use lbsa_support::{criterion_group, criterion_main};
use std::hint::black_box;

fn bench_dac(c: &mut Criterion) {
    let mut group = c.benchmark_group("dac_explore");
    group.sample_size(10);

    for n in [2usize, 3] {
        group.bench_with_input(BenchmarkId::new("check_dac", n), &n, |b, &n| {
            let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).unwrap();
            let objects = vec![AnyObject::pac(n).unwrap()];
            b.iter(|| {
                let ex = Explorer::new(&p, &objects);
                let verdict = ex.exploration().check_dac(&p.instance(), 6 * n);
                assert!(verdict.holds(), "{verdict}");
                black_box(verdict.stats.configs)
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_dac);
criterion_main!(benches);
