//! End-to-end contract of sampled checking through the builder
//! (`exploration().sample(..)` plus a `check_*` terminal): sampling must agree
//! with exhaustive checking wherever both apply, its verdicts must be
//! thread-count independent, and its violations must come back as real,
//! `confirm()`-passing witnesses.

use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use lbsa_explorer::checker::Violation;
use lbsa_explorer::verdict::Outcome;
use lbsa_explorer::{Explorer, SampleConfig, Verdict, OUTCOME_SEED_XOR};
use lbsa_protocols::commit_adopt::CommitAdopt;
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_runtime::outcome::RandomOutcome;
use lbsa_runtime::process::{Protocol, Step};
use lbsa_runtime::scheduler::RandomScheduler;
use lbsa_runtime::system::System;

/// Consensus with a broken adopt rule (a loser decides its own input):
/// the standard injected-bug protocol for violation-path tests.
#[derive(Debug)]
struct BrokenAdoptConsensus {
    inputs: Vec<Value>,
}

impl Protocol for BrokenAdoptConsensus {
    type LocalState = ();
    fn num_processes(&self) -> usize {
        self.inputs.len()
    }
    fn init(&self, _pid: Pid) {}
    fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
        (ObjId(0), Op::Propose(self.inputs[pid.index()]))
    }
    fn on_response(&self, pid: Pid, _s: &(), resp: Value) -> Step<()> {
        let own = self.inputs[pid.index()];
        if resp == own {
            Step::Decide(resp)
        } else {
            Step::Decide(own)
        }
    }
}

fn sample_config(runs: u64, seed0: u64, threads: usize) -> SampleConfig {
    SampleConfig {
        runs,
        seed0,
        max_steps: 10_000,
        threads,
        ..SampleConfig::default()
    }
}

/// Where exhaustive checking proves `Holds` (n <= 3), sampling must never
/// report `Violated` — at any seed base and any thread count.
#[test]
fn sampling_never_contradicts_an_exhaustive_holds() {
    // Instance 1: correct consensus via a 3-consensus object.
    let inputs = vec![int(0), int(1), int(2)];
    let consensus = ConsensusViaObject::new(inputs.clone(), ObjId(0));
    let consensus_objs = vec![AnyObject::consensus(3).expect("valid")];

    // Instance 2: consensus via level 1 of the power object O'_3 — one
    // shot, so exhaustively `Holds`.
    let power_inputs = vec![int(0), int(1), int(0)];
    let power = ConsensusViaObject::via_power_level_1(power_inputs.clone(), ObjId(0));
    let power_objs = vec![AnyObject::o_prime_n(3, 2).expect("valid")];

    let exhaustive = Explorer::new(&consensus, &consensus_objs)
        .exploration()
        .check_consensus(&inputs);
    assert!(exhaustive.holds(), "precondition: {exhaustive}");
    let exhaustive_power = Explorer::new(&power, &power_objs)
        .exploration()
        .check_consensus(&power_inputs);
    assert!(exhaustive_power.holds(), "precondition: {exhaustive_power}");

    for seed0 in [0u64, 17, 1 << 40] {
        for threads in [1usize, 4] {
            let v = Explorer::new(&consensus, &consensus_objs)
                .exploration()
                .sample(sample_config(300, seed0, threads))
                .check_consensus(&inputs);
            assert!(
                matches!(v.outcome, Outcome::HoldsSampled { runs: 300, .. }),
                "consensus, seed0={seed0}, threads={threads}: {v}"
            );
            let v = Explorer::new(&power, &power_objs)
                .exploration()
                .sample(sample_config(300, seed0, threads))
                .check_consensus(&power_inputs);
            assert!(
                matches!(v.outcome, Outcome::HoldsSampled { runs: 300, .. }),
                "power, seed0={seed0}, threads={threads}: {v}"
            );
        }
    }
}

/// Commit-adopt at n = 2, checked as 2-set agreement (its outputs take at
/// most two distinct encoded values): exhaustive `Holds` at k = 2 must
/// never be contradicted by sampling.
#[test]
fn sampling_never_contradicts_exhaustive_k_set_holds() {
    let inputs = vec![int(0), int(1)];
    let p = CommitAdopt::new(inputs.clone()).expect("valid");
    let objects = p.objects();
    // Every encoded graded output: (commit|adopt) x (0|1).
    let encodable = vec![int(0), int(1), int(2), int(3)];

    let exhaustive = Explorer::new(&p, &objects)
        .exploration()
        .check_k_set_agreement(2, &encodable);
    assert!(exhaustive.holds(), "precondition: {exhaustive}");

    for seed0 in [0u64, 99] {
        let v = Explorer::new(&p, &objects)
            .exploration()
            .sample(sample_config(400, seed0, 2))
            .check_k_set_agreement(2, &encodable);
        assert!(
            matches!(v.outcome, Outcome::HoldsSampled { runs: 400, .. }),
            "seed0={seed0}: {v}"
        );
    }
}

/// A sampled violation must be bit-identical across thread counts: same
/// outcome, same reproducing seed, same witness.
#[test]
fn sampled_violations_are_thread_count_independent() {
    let p = BrokenAdoptConsensus {
        inputs: vec![int(0), int(1), int(2)],
    };
    let inputs = p.inputs.clone();
    let objects = vec![AnyObject::consensus(3).expect("valid")];

    let baseline = Explorer::new(&p, &objects)
        .exploration()
        .sample(sample_config(400, 7, 1))
        .check_consensus(&inputs);
    let Outcome::Violated(Violation::Sampled(violation)) = &baseline.outcome else {
        panic!("expected a sampled violation, got {baseline}");
    };
    let baseline_seed = violation.seed();
    assert!(baseline.witness.is_some(), "violation carries a witness");

    for threads in [2usize, 4, 8] {
        let v = Explorer::new(&p, &objects)
            .exploration()
            .sample(sample_config(400, 7, threads))
            .check_consensus(&inputs);
        assert_eq!(v, baseline, "threads={threads} diverged from threads=1");
        let Outcome::Violated(Violation::Sampled(violation)) = &v.outcome else {
            panic!("expected a sampled violation, got {v}");
        };
        assert_eq!(violation.seed(), baseline_seed);
    }
}

/// The witness of a sampled violation is the sweep's own run: re-running
/// the reported seed the way the sweep does, its trace read as `(pid,
/// outcome)` pairs is the witness schedule, cut where the violation first
/// shows, and the verdict counts every step of it.
fn assert_witness_is_the_sweep_run<P: Protocol>(
    p: &P,
    objects: &[AnyObject],
    verdict: &Verdict,
) -> Vec<(Pid, usize)> {
    let Outcome::Violated(Violation::Sampled(violation)) = &verdict.outcome else {
        panic!("expected a sampled violation, got {verdict}");
    };
    let seed = violation.seed();
    let mut sys = System::new(p, objects).expect("system builds");
    sys.run(
        &mut RandomScheduler::seeded(seed),
        &mut RandomOutcome::seeded(seed ^ OUTCOME_SEED_XOR),
        sample_config(1, 0, 1).max_steps,
    )
    .expect("the violating run replays");
    let run: Vec<(Pid, usize)> = sys.trace().iter().map(|e| (e.pid, e.outcome)).collect();
    let witness = verdict.witness.as_ref().expect("witness extracted");
    let schedule: Vec<(Pid, usize)> = witness
        .schedule
        .iter()
        .map(|s| (s.pid, s.outcome))
        .collect();
    assert_eq!(verdict.stats.transitions, run.len());
    assert!(!schedule.is_empty());
    assert_eq!(schedule, run[..schedule.len()]);
    schedule
}

/// A sampled violation seed must replay deterministically into a
/// delta-minimized, `confirm()`-passing witness, exactly as exhaustive
/// violations do.
#[test]
fn sampled_violations_yield_confirming_witnesses() {
    let p = BrokenAdoptConsensus {
        inputs: vec![int(0), int(1), int(2)],
    };
    let inputs = p.inputs.clone();
    let objects = vec![AnyObject::consensus(3).expect("valid")];
    let ex = Explorer::new(&p, &objects);

    let verdict = ex
        .exploration()
        .sample(sample_config(200, 0, 1))
        .check_consensus(&inputs);
    assert!(verdict.is_violated(), "expected a violation: {verdict}");
    let witness = verdict.witness.as_ref().expect("witness extracted");
    assert!(witness.minimized);

    witness.confirm(&ex).expect("witness must confirm");
    let (end, trace) = witness.replay(&ex).expect("replayable");
    assert!(end.distinct_decisions().len() > 1);
    assert_eq!(trace.len(), witness.schedule.len());
    assert_witness_is_the_sweep_run(&p, &objects, &verdict);

    // On a branching object the seeded outcome resolver shapes the run too:
    // deciding what a (3,2)-set-agreement object returns breaks consensus.
    let sa = ConsensusViaObject::new(inputs.clone(), ObjId(0));
    let sa_objects = vec![AnyObject::set_agreement(3, 2).expect("valid")];
    let sa_verdict = Explorer::new(&sa, &sa_objects)
        .exploration()
        .sample(sample_config(200, 0, 1))
        .check_consensus(&inputs);
    assert!(
        sa_verdict.is_violated(),
        "expected a violation: {sa_verdict}"
    );
    let schedule = assert_witness_is_the_sweep_run(&sa, &sa_objects, &sa_verdict);
    assert!(
        schedule.iter().any(|&(_, outcome)| outcome > 0),
        "the witness must follow a resolver-chosen branch: {schedule:?}"
    );

    // Re-sampling the same configuration reproduces the identical verdict,
    // witness included.
    let again = ex
        .exploration()
        .sample(sample_config(200, 0, 1))
        .check_consensus(&inputs);
    assert_eq!(again, verdict);
}
