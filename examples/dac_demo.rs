//! The n-DAC problem end to end: schedules, crashes, and exhaustive
//! verification of Theorem 4.1.
//!
//! Run with `cargo run --release --example dac_demo`.

use life_beyond_set_agreement::core::{AnyObject, ObjId, Pid, Value};
use life_beyond_set_agreement::explorer::Explorer;
use life_beyond_set_agreement::protocols::dac::{all_binary_inputs, DacFromPac};
use life_beyond_set_agreement::runtime::outcome::FirstOutcome;
use life_beyond_set_agreement::runtime::scheduler::{CrashPlan, RandomScheduler, RoundRobin, Solo};
use life_beyond_set_agreement::runtime::system::System;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let inputs = vec![Value::Int(1), Value::Int(0), Value::Int(0)];
    let protocol = DacFromPac::new(inputs, Pid(0), ObjId(0))?;
    let objects = vec![AnyObject::pac(3)?];

    // --- Solo runs: the Termination clauses in action -------------------
    println!("== Solo runs (Termination (a) and (b)) ==");
    for pid in [Pid(0), Pid(1), Pid(2)] {
        let mut sys = System::new(&protocol, &objects)?;
        sys.run(&mut Solo::new(pid), &mut FirstOutcome, 100)?;
        println!("{pid} solo: decision = {:?}", sys.decision(pid));
    }

    // --- Random schedules: whoever wins, everyone agrees ----------------
    println!("\n== 10 random schedules ==");
    for seed in 0..10u64 {
        let mut sys = System::new(&protocol, &objects)?;
        let result = sys.run(
            &mut RandomScheduler::seeded(seed),
            &mut FirstOutcome,
            10_000,
        )?;
        let decisions = result.distinct_decisions();
        println!(
            "seed {seed:>2}: steps = {:>4}, decided = {decisions:?}, aborted = {:?}",
            result.steps, result.aborted
        );
        assert!(
            decisions.len() <= 1,
            "Agreement must hold on every schedule"
        );
    }

    // --- Crash injection: wait-freedom w.r.t. the PAC object ------------
    println!("\n== Crashing the distinguished process after 1 step ==");
    let mut sys = System::new(&protocol, &objects)?;
    let mut crashes = CrashPlan::new();
    crashes.crash(Pid(0), 1);
    let result =
        sys.run_with_crashes(&mut RoundRobin::new(), &mut FirstOutcome, &crashes, 10_000)?;
    println!(
        "crashed = {:?}, survivors' decisions = {:?} {:?}",
        result.crashed,
        sys.decision(Pid(1)),
        sys.decision(Pid(2)),
    );

    // --- Exhaustive verification of Theorem 4.1 -------------------------
    println!("\n== Theorem 4.1, machine-checked (every execution, every input) ==");
    for n in [2usize, 3] {
        let mut configs = 0usize;
        for inputs in all_binary_inputs(n) {
            let p = DacFromPac::new(inputs, Pid(0), ObjId(0))?;
            let objs = vec![AnyObject::pac(n)?];
            let ex = Explorer::new(&p, &objs);
            let verdict = ex.exploration().check_dac(&p.instance(), 6 * n);
            if !verdict.holds() {
                return Err(format!("{n}-DAC check failed: {verdict}").into());
            }
            configs += verdict.stats.configs;
        }
        println!("n = {n}: all four n-DAC properties hold ({configs} configurations checked)");
    }
    Ok(())
}
