//! Microbenchmark — the step layer: what `System` adds on top of the step
//! kernel.
//!
//! Two loops walk the same seeded schedules of the F8 vote-propagation
//! instance (n = 10, degree 2, 3 starters, bidirectional edges with
//! probability 1/2 — the shape the time-to-verdict benchmark samples):
//!
//! * `system` — `System::run` with trace recording off, exactly what each
//!   sampled-checking run does;
//! * `kernel` — a bare loop of `StepKernel` steps over plain vectors, with
//!   the same scheduler, resolver and seeds and a hand-kept enabled list.
//!
//! Both loops present the scheduler with the same enabled slice, so they
//! draw the same random numbers and take the same steps; the bench
//! asserts that their step totals agree before it measures. The summary
//! prints ns per step for each loop, and their difference: the cost of
//! `System`'s own bookkeeping per step.
//!
//! Run with `cargo bench -p lbsa-bench --bench step_bench`.

use lbsa_core::spec::ObjectSpec;
use lbsa_core::{AnyObject, AnyState, Pid};
use lbsa_explorer::OUTCOME_SEED_XOR;
use lbsa_protocols::vote_propagation::VotePropagation;
use lbsa_runtime::kernel::StepKernel;
use lbsa_runtime::outcome::{OutcomeResolver, RandomOutcome};
use lbsa_runtime::process::Protocol;
use lbsa_runtime::scheduler::{RandomScheduler, Scheduler};
use lbsa_runtime::{ProcStatus, System};
use lbsa_support::bench::Criterion;
use lbsa_support::{criterion_group, criterion_main};
use std::hint::black_box;

/// Topologies walked per iteration, and seeded schedules per topology.
const TOPOLOGIES: u64 = 5;
const SEEDS: u64 = 20;

/// The sampling budget of the F8 sweeps; these runs quiesce well inside it.
const MAX_STEPS: usize = 100_000;

/// One F8 topology, its mailboxes, and the first of its schedule seeds.
struct Instance {
    protocol: VotePropagation,
    objects: Vec<AnyObject>,
    seed0: u64,
}

fn instances() -> Vec<Instance> {
    (0..TOPOLOGIES)
        .map(|j| {
            let topology = 2100 + j;
            let protocol =
                VotePropagation::random(10, 2, 3, 1, 2, topology).expect("valid vote shape");
            Instance {
                objects: protocol.mailboxes(),
                protocol,
                seed0: topology * 100,
            }
        })
        .collect()
}

/// One seeded run through `System::run`; returns its step count.
fn system_run(inst: &Instance, seed: u64) -> usize {
    let mut sys = System::new(&inst.protocol, &inst.objects).expect("processes");
    sys.set_record_trace(false);
    sys.run(
        &mut RandomScheduler::seeded(seed),
        &mut RandomOutcome::seeded(seed ^ OUTCOME_SEED_XOR),
        MAX_STEPS,
    )
    .expect("vote propagation runs cleanly")
    .steps
}

/// The same run as [`system_run`] as a bare loop of kernel steps; returns
/// its step count.
fn kernel_run(inst: &Instance, seed: u64) -> usize {
    let p = &inst.protocol;
    let kernel = StepKernel::new(p, &inst.objects);
    let mut states: Vec<AnyState> = inst.objects.iter().map(ObjectSpec::initial_state).collect();
    let n = p.num_processes();
    let mut procs: Vec<_> = (0..n)
        .map(|i| ProcStatus::Running(p.init(Pid(i))))
        .collect();
    let mut enabled: Vec<Pid> = (0..n).map(Pid).collect();
    let mut scheduler = RandomScheduler::seeded(seed);
    let mut resolver = RandomOutcome::seeded(seed ^ OUTCOME_SEED_XOR);
    let mut steps = 0;
    while !enabled.is_empty() && steps < MAX_STEPS {
        let pid = scheduler
            .next_pid(&enabled)
            .expect("random scheduler picks");
        let step = kernel
            .begin(&states, &procs, pid, None)
            .expect("enabled pid steps");
        let (obj, _) = step.pending_op();
        let count = step.outcome_count();
        let chosen = if count == 1 {
            0
        } else {
            resolver.choose(pid, obj, count).min(count - 1)
        };
        let t = step.take(chosen).expect("outcome in range");
        states[obj.index()] = t.obj_state;
        if !t.status.is_running() {
            enabled.retain(|&q| q != pid);
        }
        procs[pid.index()] = t.status;
        steps += 1;
    }
    steps
}

/// Total steps of one loop over every instance and seed.
fn sweep(insts: &[Instance], run: fn(&Instance, u64) -> usize) -> usize {
    insts
        .iter()
        .flat_map(|inst| (inst.seed0..inst.seed0 + SEEDS).map(move |seed| run(inst, seed)))
        .sum()
}

fn bench_step_loops(c: &mut Criterion) {
    let insts = instances();
    let steps = sweep(&insts, system_run);
    assert_eq!(
        steps,
        sweep(&insts, kernel_run),
        "System::run and the bare kernel loop must take the same steps"
    );
    let mut group = c.benchmark_group("step");
    group.sample_size(30);
    for (name, run) in [
        ("system", system_run as fn(&Instance, u64) -> usize),
        ("kernel", kernel_run),
    ] {
        group.bench_function(format!("{name}/{steps}"), |b| {
            b.iter(|| black_box(sweep(&insts, run)));
        });
    }
    group.finish();
}

/// Prints ns per step for each loop (min and median over samples) and
/// `System`'s overhead per step over the bare loop.
fn report_per_step(c: &mut Criterion) {
    let per_step = |name: &str| {
        c.results().iter().find_map(|r| {
            let rest = r.id.strip_prefix(&format!("step/{name}/"))?;
            let steps: f64 = rest.parse().ok()?;
            Some((r.min_nanos() / steps, r.median_nanos() / steps))
        })
    };
    let (Some(system), Some(kernel)) = (per_step("system"), per_step("kernel")) else {
        return;
    };
    for (name, (min, median)) in [("system", system), ("kernel", kernel)] {
        println!("step {name}: {min:.1} ns/step min, {median:.1} ns/step median");
    }
    println!(
        "System overhead: {:.1} ns/step min, {:.1} ns/step median",
        system.0 - kernel.0,
        system.1 - kernel.1
    );
}

criterion_group!(benches, bench_step_loops, report_per_step);
criterion_main!(benches);
