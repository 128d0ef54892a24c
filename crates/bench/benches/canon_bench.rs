//! Microbenchmark — orbit canonicalization, one layer of the explorer.
//!
//! The input is what the engine actually canonicalizes under symmetry
//! reduction: every raw successor of every node of the reduced T2 graph
//! (Algorithm 2, process 0 distinguished with input 1, the others input 0,
//! so the group is `S_{n-1}`). One iteration canonicalizes all of them;
//! the summary divides by the successor count and prints ns per call at
//! n = 6 (|G| = 120) and n = 8 (|G| = 5,040).
//!
//! Run with `cargo bench -p lbsa-bench --bench canon_bench`.

use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::{ConfigSymmetry, Configuration, Explorer};
use lbsa_protocols::dac::{DacFromPac, DacPhase};
use lbsa_support::bench::Criterion;
use lbsa_support::{criterion_group, criterion_main};
use std::hint::black_box;

const SIZES: [usize; 2] = [6, 8];

/// Every raw successor of every node of the reduced graph at `n`.
fn raw_successors(explorer: &Explorer<'_, DacFromPac>) -> Vec<Configuration<DacPhase>> {
    let reduced = explorer
        .exploration()
        .symmetric()
        .run()
        .expect("explorable");
    let mut out = Vec::new();
    for config in &reduced.configs {
        for pid in config.enabled_pids() {
            out.extend(explorer.successors_of(config, pid).expect("step"));
        }
    }
    out
}

fn bench_canonicalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon");
    group.sample_size(20);
    for n in SIZES {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).expect("n >= 2");
        let objects = vec![AnyObject::pac(n).expect("valid")];
        let explorer = Explorer::new(&p, &objects);
        let succs = raw_successors(&explorer);
        let sym = ConfigSymmetry::of(&p);
        group.bench_function(format!("dac_n{n}/{}", succs.len()), |b| {
            b.iter(|| {
                for s in &succs {
                    black_box(sym.canonicalize(s));
                }
            });
        });
    }
    group.finish();
}

/// Prints ns per canonicalization (min and median over samples).
fn report_per_call(c: &mut Criterion) {
    for r in c.results() {
        let Some(calls) = r.id.rsplit('/').next().and_then(|s| s.parse::<f64>().ok()) else {
            continue;
        };
        println!(
            "{}: {:.0} ns/call min, {:.0} ns/call median ({calls} calls per iteration)",
            r.id,
            r.min_nanos() / calls,
            r.median_nanos() / calls
        );
    }
}

criterion_group!(benches, bench_canonicalize, report_per_call);
criterion_main!(benches);
