//! The bivalency adversary in action: refuting a doomed consensus protocol
//! with a machine-checkable certificate, then replaying the certificate in
//! a live system.
//!
//! Run with `cargo run --release --example adversary_flp`.

use life_beyond_set_agreement::core::{AnyObject, Pid, Value};
use life_beyond_set_agreement::explorer::adversary::bivalent_survival;
use life_beyond_set_agreement::explorer::valency::ValencyAnalysis;
use life_beyond_set_agreement::explorer::verdict::WitnessKind;
use life_beyond_set_agreement::explorer::Explorer;
use life_beyond_set_agreement::protocols::candidates::WaitForWinner;
use life_beyond_set_agreement::runtime::outcome::FirstOutcome;
use life_beyond_set_agreement::runtime::scheduler::Scripted;
use life_beyond_set_agreement::runtime::system::System;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three processes try to reach consensus with a 2-consensus object and
    // an announcement register — one process too many (the Theorem 4.2
    // situation, in miniature).
    let inputs = vec![Value::Int(1), Value::Int(0), Value::Int(0)];
    let protocol = WaitForWinner::new(inputs);
    let objects = vec![AnyObject::consensus(2)?, AnyObject::register()];

    println!("Target: 3-process consensus from a 2-consensus object + a register.\n");

    // 1. Exhaustive exploration.
    let explorer = Explorer::new(&protocol, &objects);
    let graph = explorer.exploration().run().map_err(|e| e.to_string())?;
    println!(
        "Explored every execution: {} configurations, {} transitions.",
        graph.configs.len(),
        graph.transitions
    );

    // 2. Valency analysis (the FLP lens).
    let analysis = ValencyAnalysis::analyze(&graph);
    let (barren, univalent, multivalent) = analysis.census();
    println!("Valency census: {barren} barren, {univalent} univalent, {multivalent} multivalent.");
    let survival = bivalent_survival(&graph, &analysis, 10_000);
    println!("Greedy bivalency preservation: {survival:?}");

    // 3. The certificate: the witness of the wait-freedom check.
    let witness = explorer
        .exploration()
        .check_wait_free()
        .witness
        .ok_or("expected a non-termination certificate against this candidate")?;
    let WitnessKind::NonTermination { victims } = &witness.kind else {
        return Err(format!(
            "expected a non-termination certificate, got {}",
            witness.kind
        )
        .into());
    };
    println!(
        "\nNon-termination certificate found: prefix of {} steps, cycle of {} step(s),",
        witness.schedule.len(),
        witness.cycle.len()
    );
    println!("victims (step forever, never decide): {victims:?}");
    witness.confirm(&explorer)?;
    println!("Certificate confirmed by replaying it step by step.");

    // 4. Replay the certificate in a live system: pump the cycle 50 times
    //    and observe the victims still undecided after hundreds of steps.
    //    `FirstOutcome` resolves every step with outcome 0, so it follows
    //    the certificate only if that is the outcome each step chose.
    let pumps = 50;
    let steps: Vec<_> = witness
        .schedule
        .iter()
        .chain(&witness.cycle.repeat(pumps))
        .copied()
        .collect();
    assert!(
        steps.iter().all(|s| s.outcome == 0),
        "FirstOutcome must follow the certificate"
    );
    let schedule: Vec<Pid> = steps.iter().map(|s| s.pid).collect();
    let total = schedule.len();
    let mut sys = System::new(&protocol, &objects)?;
    let result = sys.run(&mut Scripted::new(schedule), &mut FirstOutcome, 10 * total)?;
    println!(
        "\nReplayed prefix + {pumps} cycle pumps in a live system: {} steps executed.",
        result.steps
    );
    for victim in victims {
        assert_eq!(
            sys.decision(*victim),
            None,
            "{victim} must still be undecided after pumping the cycle"
        );
        println!("{victim}: still undecided — wait-free termination is violated.");
    }

    println!("\nThis is the executable shape of the paper's impossibility arguments:");
    println!("an adversary schedule under which some process runs forever undecided.");
    Ok(())
}
