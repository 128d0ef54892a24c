//! Seeded `System` runs, pinned bit for bit.
//!
//! Sampled checking and witness replay trust that a seed names one run:
//! the same `RandomScheduler`/`RandomOutcome` seeds must take the same
//! steps, draw the same outcomes and end the same way. These pins hold
//! `System::run`/`run_with_crashes` to the runs of the loop that rebuilt
//! its enabled set every step and scanned the crash plan per process: a
//! digest of each run's `RunResult` and its recorded `Trace`, over
//!
//! * the F8 vote-propagation instance (n = 10, degree 2, 3 starters,
//!   bidirectional edges with probability 1/2), including budget-cut runs;
//! * k-set agreement over strong 2-SA (`KSetViaStrongSa`), whose 2-SA
//!   object branches, so the outcome resolver draws;
//! * Algorithm 2 (n-DAC from PAC(4)), whose distinguished process may
//!   abort;
//! * `CrashPlan`s: a crash at `after = 0`, a crash mid-run, a crash of an
//!   already-decided pid, two pids crashing at the same step, one pid
//!   planned twice, a pid outside the system, and a plan applied to a
//!   system that has already stepped.

use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Pid, Value};
use lbsa_explorer::OUTCOME_SEED_XOR;
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::KSetViaStrongSa;
use lbsa_protocols::vote_propagation::VotePropagation;
use lbsa_runtime::outcome::RandomOutcome;
use lbsa_runtime::process::Protocol;
use lbsa_runtime::scheduler::{CrashPlan, RandomScheduler};
use lbsa_runtime::system::{RunResult, System};
use lbsa_runtime::trace::Trace;
use lbsa_support::hash::FxHasher;
use std::hash::{Hash, Hasher};

/// A digest of a run's result and its full trace.
fn digest(result: &RunResult, trace: &Trace) -> u64 {
    let mut h = FxHasher::default();
    result.steps.hash(&mut h);
    result.end.tag().hash(&mut h);
    result.decisions.hash(&mut h);
    result.aborted.hash(&mut h);
    result.crashed.hash(&mut h);
    for event in trace.iter() {
        event.hash(&mut h);
    }
    h.finish()
}

/// One seeded run of `protocol` from its initial configuration, seeded the
/// way sampled checking seeds it, after `prefix` hand-picked steps.
fn seeded_run<P: Protocol>(
    protocol: &P,
    objects: &[AnyObject],
    seed: u64,
    crashes: &CrashPlan,
    prefix: &[Pid],
    max_steps: usize,
) -> (RunResult, Trace) {
    let mut sys = System::new(protocol, objects).expect("at least one process");
    let mut resolver = RandomOutcome::seeded(seed ^ OUTCOME_SEED_XOR);
    for &pid in prefix {
        sys.step_pid(pid, &mut resolver)
            .expect("prefix pid can step");
    }
    let result = sys
        .run_with_crashes(
            &mut RandomScheduler::seeded(seed),
            &mut resolver,
            crashes,
            max_steps,
        )
        .expect("protocol runs cleanly");
    (result, sys.trace().clone())
}

/// Digests of the seeded runs of `protocol` over `seeds`, without crashes.
fn digests<P: Protocol>(
    protocol: &P,
    objects: &[AnyObject],
    seeds: std::ops::Range<u64>,
    max_steps: usize,
) -> Vec<u64> {
    seeds
        .map(|seed| {
            let (result, trace) =
                seeded_run(protocol, objects, seed, &CrashPlan::new(), &[], max_steps);
            digest(&result, &trace)
        })
        .collect()
}

fn inputs(n: usize) -> Vec<Value> {
    (0..n as i64).map(int).collect()
}

fn kset5() -> (KSetViaStrongSa, Vec<AnyObject>) {
    (
        KSetViaStrongSa::new(inputs(5), ObjId(0)),
        vec![AnyObject::strong_sa()],
    )
}

/// Algorithm 2 at n = 4: p0 is distinguished (input 1) and may abort.
fn dac4() -> (DacFromPac, Vec<AnyObject>) {
    let mut inputs = vec![int(0); 4];
    inputs[0] = int(1);
    (
        DacFromPac::new(inputs, Pid(0), ObjId(0)).expect("4-DAC"),
        vec![AnyObject::pac(4).expect("PAC(4)")],
    )
}

#[test]
fn vote_propagation_runs_are_pinned() {
    let mut seen = Vec::new();
    for topology in [2100u64, 2101, 2149] {
        let protocol = VotePropagation::random(10, 2, 3, 1, 2, topology).expect("valid vote shape");
        let objects = protocol.mailboxes();
        let seed0 = topology * 100;
        seen.extend(digests(&protocol, &objects, seed0..seed0 + 4, 100_000));
        // A budget the cascade outlives: the run ends at `MaxSteps`.
        seen.extend(digests(&protocol, &objects, seed0..seed0 + 2, 7));
    }
    assert_eq!(seen, PINS_VOTE, "vote-propagation seeded runs moved");
}

#[test]
fn kset_over_strong_2sa_runs_are_pinned() {
    let (protocol, objects) = kset5();
    assert_eq!(
        digests(&protocol, &objects, 0..8, 10_000),
        PINS_KSET,
        "k-set seeded runs moved"
    );
}

#[test]
fn dac_runs_are_pinned() {
    let (protocol, objects) = dac4();
    let seen = digests(&protocol, &objects, 0..8, 10_000);
    assert_eq!(seen, PINS_DAC, "DAC seeded runs moved");
}

#[test]
fn crash_plan_runs_are_pinned() {
    let (protocol, objects) = dac4();
    let plan = |entries: &[(usize, usize)]| {
        let mut plan = CrashPlan::new();
        for &(pid, after) in entries {
            plan.crash(Pid(pid), after);
        }
        plan
    };
    // (name, plan, hand-picked prefix, step budget)
    let cases: [(&str, CrashPlan, &[Pid], usize); 8] = [
        ("at start", plan(&[(1, 0)]), &[], 10_000),
        ("mid-run", plan(&[(2, 3)]), &[], 10_000),
        (
            "already decided",
            plan(&[(DECIDED_PID, DECIDED_AFTER)]),
            &[Pid(DECIDED_PID), Pid(DECIDED_PID)],
            10_000,
        ),
        ("two at one step", plan(&[(1, 4), (3, 4)]), &[], 10_000),
        (
            "one pid twice",
            plan(&[(2, 6), (2, 2), (3, 5)]),
            &[],
            10_000,
        ),
        (
            "pid outside the system",
            plan(&[(99, 0), (0, 1)]),
            &[],
            10_000,
        ),
        (
            "after a stepped prefix",
            plan(&[(1, 1), (0, 3), (3, 9)]),
            &[Pid(0), Pid(1), Pid(1)],
            10_000,
        ),
        // Crashes due at the step the budget runs out still apply.
        ("at the budget", plan(&[(1, 5), (3, 5)]), &[], 5),
    ];
    let mut seen = Vec::new();
    for (name, crashes, prefix, max_steps) in &cases {
        for seed in 0..3 {
            let (result, trace) =
                seeded_run(&protocol, &objects, seed, crashes, prefix, *max_steps);
            if *name == "already decided" {
                let last = trace.process_steps(Pid(DECIDED_PID)).last().map(|e| e.step);
                assert!(
                    result.decisions[DECIDED_PID].is_some()
                        && last.is_some_and(|s| s < DECIDED_AFTER)
                        && result.steps > DECIDED_AFTER
                        && !result.crashed.contains(&Pid(DECIDED_PID)),
                    "seed {seed}: p{DECIDED_PID} must decide before its crash step"
                );
            }
            if *name == "at the budget" {
                assert!(
                    !result.crashed.is_empty(),
                    "seed {seed}: a crash due at the budget must apply"
                );
            }
            seen.push(digest(&result, &trace));
        }
    }
    assert_eq!(seen, PINS_CRASH, "crash-plan seeded runs moved");
}

/// The pid and step of the "already decided" crash: two solo steps from
/// the initial configuration decide p`DECIDED_PID`, and the run is still
/// going when `DECIDED_AFTER` steps have run.
const DECIDED_PID: usize = 2;
const DECIDED_AFTER: usize = 4;

/// Per topology: four full runs, then two runs cut at seven steps.
const PINS_VOTE: [u64; 18] = [
    8050501522668864098,
    18364728031223676028,
    13661660936188474913,
    11945685081083507135,
    1749110453181176466,
    7985011296846256184,
    283665723059383784,
    12831231820960861573,
    3565907503699434910,
    9233635237012550285,
    12815424092818471684,
    884503247801304836,
    6323639069525601283,
    5163886627480480781,
    858606141595394241,
    165778109218670217,
    7318334639043316234,
    976051503420257691,
];
const PINS_KSET: [u64; 8] = [
    18150780030160470173,
    17641815477763844002,
    16821542046284000352,
    4323060042622070872,
    1394957725078509247,
    14958817713421145543,
    14501234293812637064,
    2634072326340192735,
];
const PINS_DAC: [u64; 8] = [
    10872254318905741319,
    7474570021313611105,
    7185065179502249599,
    11734103211844217914,
    5539759116143915325,
    15774868359826411564,
    12558735933207613780,
    946710295345756343,
];
/// Per case, in the order of `crash_plan_runs_are_pinned`: seeds 0, 1, 2.
const PINS_CRASH: [u64; 24] = [
    13981158554739426468,
    1128996409288117048,
    14068043989749573829,
    10872254318905741319,
    7474570021313611105,
    734042553094127018,
    12903106597918674703,
    1438791020619076648,
    16271499117357226624,
    2894341084357923415,
    13823729878139295557,
    5226395897233577263,
    7711559589782035683,
    7531430481570615911,
    734042553094127018,
    7995133108673957212,
    13721420227640373306,
    1645703159913048203,
    4896455407139770807,
    4896455407139770807,
    6162810622811298723,
    2208323154587005924,
    6086500508148883450,
    4790409244854733859,
];
