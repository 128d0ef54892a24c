//! **F3** — object-specification throughput: ns per operation for each
//! object family (the inner loop of every simulation and exploration), plus
//! one whole process step through the step kernel.

use lbsa_core::ids::Label;
use lbsa_core::spec::ObjectSpec;
use lbsa_core::value::int;
use lbsa_core::{AnyObject, Op, Pid};
use lbsa_protocols::vote_propagation::VotePropagation;
use lbsa_runtime::kernel::StepKernel;
use lbsa_runtime::process::{ProcStatus, Protocol};
use lbsa_support::bench::{BatchSize, Criterion};
use lbsa_support::{criterion_group, criterion_main};
use std::hint::black_box;

fn bench_objects(c: &mut Criterion) {
    let mut group = c.benchmark_group("objects");

    group.bench_function("register_write_read", |b| {
        let obj = AnyObject::register();
        b.iter_batched(
            || obj.initial_state(),
            |mut s| {
                obj.apply_deterministic(&mut s, &Op::Write(int(7))).unwrap();
                obj.apply_deterministic(&mut s, &Op::Read).unwrap();
                black_box(s)
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("consensus_propose", |b| {
        let obj = AnyObject::consensus(4).unwrap();
        b.iter_batched(
            || obj.initial_state(),
            |mut s| {
                for i in 0..4 {
                    obj.apply_deterministic(&mut s, &Op::Propose(int(i)))
                        .unwrap();
                }
                black_box(s)
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("pac_pair", |b| {
        let obj = AnyObject::pac(4).unwrap();
        let l1 = Label::new(1).unwrap();
        b.iter_batched(
            || obj.initial_state(),
            |mut s| {
                obj.apply_deterministic(&mut s, &Op::ProposePac(int(3), l1))
                    .unwrap();
                obj.apply_deterministic(&mut s, &Op::DecidePac(l1)).unwrap();
                black_box(s)
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("strong_sa_propose_branching", |b| {
        let obj = AnyObject::strong_sa();
        b.iter_batched(
            || obj.initial_state(),
            |s| {
                let outs = obj.outcomes(&s, &Op::Propose(int(1))).unwrap();
                black_box(outs.into_vec())
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("set_agreement_propose_branching", |b| {
        let obj = AnyObject::set_agreement(6, 2).unwrap();
        b.iter_batched(
            || {
                let mut s = obj.initial_state();
                for i in 0..3 {
                    let outs = obj.outcomes(&s, &Op::Propose(int(i))).unwrap();
                    s = outs.into_vec().pop().unwrap().1;
                }
                s
            },
            |s| {
                let outs = obj.outcomes(&s, &Op::Propose(int(9))).unwrap();
                black_box(outs.into_vec())
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("combined_pac_mixed", |b| {
        let obj = AnyObject::o_n(2).unwrap();
        let l1 = Label::new(1).unwrap();
        b.iter_batched(
            || obj.initial_state(),
            |mut s| {
                obj.apply_deterministic(&mut s, &Op::ProposeC(int(1)))
                    .unwrap();
                obj.apply_deterministic(&mut s, &Op::ProposeP(int(2), l1))
                    .unwrap();
                obj.apply_deterministic(&mut s, &Op::DecideP(l1)).unwrap();
                black_box(s)
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("power_object_propose", |b| {
        let obj = AnyObject::o_prime_n(2, 3).unwrap();
        b.iter_batched(
            || obj.initial_state(),
            |s| {
                let outs = obj.outcomes(&s, &Op::ProposeAt(int(1), 2)).unwrap();
                black_box(outs.into_vec())
            },
            BatchSize::SmallInput,
        );
    });

    // One atomic step of a vote-propagation process through the step
    // kernel: pending op, register outcome, protocol response and status
    // mapping — the step layer every run and exploration pays per step.
    group.bench_function("kernel_vote_step", |b| {
        let protocol = VotePropagation::random(10, 2, 3, 1, 2, 7).unwrap();
        let objects = protocol.mailboxes();
        let kernel = StepKernel::new(&protocol, &objects);
        let states: Vec<_> = objects.iter().map(ObjectSpec::initial_state).collect();
        let procs: Vec<_> = (0..protocol.n())
            .map(|i| ProcStatus::Running(protocol.init(Pid(i))))
            .collect();
        b.iter(|| {
            let step = kernel.begin(&states, &procs, Pid(0), None).unwrap();
            black_box(step.take(0).unwrap())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_objects);
criterion_main!(benches);
