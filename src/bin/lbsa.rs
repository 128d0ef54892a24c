//! `lbsa` — command-line driver for the Life Beyond Set Agreement
//! laboratory.
//!
//! ```text
//! lbsa levels                    certified consensus numbers of the paper's objects
//! lbsa separation [n] [max_k]    run the O_n vs O'_n pipeline (default 2 2)
//! lbsa dac <n>                   verify Algorithm 2 solves n-DAC, exhaustively
//! lbsa adversary                 refute wait-for-winner with a replayable certificate
//! lbsa dot <workload> <n>        print the execution graph in Graphviz DOT
//!                                (workloads: race, dac, sa)
//! ```

use life_beyond_set_agreement::core::{AnyObject, ObjId, Pid, Value};
use life_beyond_set_agreement::explorer::verdict::WitnessKind;
use life_beyond_set_agreement::explorer::{Explorer, Limits, Outcome};
use life_beyond_set_agreement::hierarchy::certify::{certified_consensus_number, Face};
use life_beyond_set_agreement::hierarchy::report::Table;
use life_beyond_set_agreement::hierarchy::separation::run_separation;
use life_beyond_set_agreement::protocols::candidates::WaitForWinner;
use life_beyond_set_agreement::protocols::consensus_protocols::ConsensusViaObject;
use life_beyond_set_agreement::protocols::dac::{all_binary_inputs, DacFromPac};
use life_beyond_set_agreement::protocols::set_agreement_protocols::KSetViaStrongSa;
use std::process::ExitCode;

const USAGE: &str = "usage: lbsa <command>

commands:
  levels                    certified consensus numbers of the paper's objects
  separation [n] [max_k]    run the O_n vs O'_n pipeline (default: 2 2)
  dac <n>                   verify Algorithm 2 solves n-DAC (n in 2..=4)
  adversary                 refute wait-for-winner with a replayable certificate
  dot <workload> <n>        print the execution graph in DOT (race | dac | sa)
";

fn mixed_inputs(n: usize) -> Vec<Value> {
    let mut v = vec![Value::Int(0); n];
    if let Some(first) = v.first_mut() {
        *first = Value::Int(1);
    }
    v
}

fn cmd_levels() -> Result<(), String> {
    let limits = Limits::default();
    let mut table = Table::new(
        "certified consensus numbers",
        vec!["object", "level", "refutation at n+1"],
    );
    let cases: Vec<(&str, AnyObject, Face)> = vec![
        (
            "2-consensus",
            AnyObject::consensus(2).map_err(|e| e.to_string())?,
            Face::Propose,
        ),
        (
            "3-consensus",
            AnyObject::consensus(3).map_err(|e| e.to_string())?,
            Face::Propose,
        ),
        ("2-SA", AnyObject::strong_sa(), Face::Propose),
        (
            "O_2",
            AnyObject::o_n(2).map_err(|e| e.to_string())?,
            Face::ProposeC,
        ),
        (
            "O_3",
            AnyObject::o_n(3).map_err(|e| e.to_string())?,
            Face::ProposeC,
        ),
        (
            "O'_2",
            AnyObject::o_prime_n(2, 2).map_err(|e| e.to_string())?,
            Face::PowerLevel1,
        ),
        (
            "O'_3",
            AnyObject::o_prime_n(3, 2).map_err(|e| e.to_string())?,
            Face::PowerLevel1,
        ),
    ];
    for (name, obj, face) in cases {
        let cert = certified_consensus_number(&obj, face, 5, limits)
            .map_err(|v| format!("{name}: certification failed: {v}"))?;
        table.row(vec![
            name.into(),
            cert.level.to_string(),
            cert.refutation.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_separation(n: usize, max_k: usize) -> Result<(), String> {
    let report = run_separation(n, max_k, Limits::default(), 8).map_err(|e| e.to_string())?;
    println!("O_{n} vs O'_{n} (power tables truncated at K = {max_k})");
    for (k, a) in report.o_n_power.iter() {
        let b = report.o_prime_power.n_k(k).expect("same depth");
        println!("  k = {k}: n_k(O_{n}) = {a}, n_k(O'_{n}) = {b}");
    }
    println!("powers match: {}", report.powers_match());
    println!(
        "Lemma 6.4 histories checked: {}",
        report.lemma_6_4_histories_checked
    );
    for r in &report.refutations {
        println!("refuted: {} — {}", r.candidate, r.violation);
    }
    println!(
        "separation established: {}",
        report.separation_established()
    );
    Ok(())
}

fn cmd_dac(n: usize) -> Result<(), String> {
    if !(2..=4).contains(&n) {
        return Err("n must be in 2..=4 (state spaces beyond are large)".into());
    }
    let mut configs = 0usize;
    for inputs in all_binary_inputs(n) {
        let protocol = DacFromPac::new(inputs, Pid(0), ObjId(0))?;
        let objects = vec![AnyObject::pac(n).map_err(|e| e.to_string())?];
        let explorer = Explorer::new(&protocol, &objects);
        let verdict = explorer
            .exploration()
            .limits(Limits::new(2_000_000))
            .check_dac(&protocol.instance(), 6 * n);
        if !verdict.holds() {
            return Err(format!("{n}-DAC check failed: {verdict}"));
        }
        configs += verdict.stats.configs;
    }
    println!("Theorem 4.1 verified for n = {n}: all four n-DAC properties hold");
    println!(
        "({configs} configurations across {} input vectors)",
        1usize << n
    );
    Ok(())
}

fn cmd_adversary() -> Result<(), String> {
    let inputs = mixed_inputs(3);
    let protocol = WaitForWinner::new(inputs);
    let objects = vec![
        AnyObject::consensus(2).map_err(|e| e.to_string())?,
        AnyObject::register(),
    ];
    let explorer = Explorer::new(&protocol, &objects);
    let verdict = explorer.exploration().check_consensus(&mixed_inputs(3));
    match &verdict.outcome {
        Outcome::Violated(v) => println!("candidate refuted: {v}"),
        other => return Err(format!("candidate not refuted: {other:?}")),
    }
    let witness = verdict
        .witness
        .ok_or("expected a non-termination certificate")?;
    let WitnessKind::NonTermination { victims } = &witness.kind else {
        return Err(format!(
            "expected a non-termination certificate, got {}",
            witness.kind
        ));
    };
    println!(
        "certificate: prefix {} step(s), cycle {} step(s), victims {victims:?}",
        witness.schedule.len(),
        witness.cycle.len()
    );
    println!(
        "certificate verifies: {}",
        witness.confirm(&explorer).is_ok()
    );
    let pumped: Vec<Pid> = witness
        .schedule
        .iter()
        .chain(&witness.cycle.repeat(3))
        .map(|s| s.pid)
        .collect();
    println!("schedule (3 pumps): {pumped:?}");
    Ok(())
}

fn cmd_dot(workload: &str, n: usize) -> Result<(), String> {
    if !(2..=5).contains(&n) {
        return Err("n must be in 2..=5".into());
    }
    let limits = Limits::new(100_000);
    let dot = match workload {
        "race" => {
            let p = ConsensusViaObject::new(mixed_inputs(n), ObjId(0));
            let objects = vec![AnyObject::consensus(n).map_err(|e| e.to_string())?];
            let g = Explorer::new(&p, &objects)
                .exploration()
                .limits(limits)
                .run()
                .map_err(|e| e.to_string())?;
            g.to_dot(|i, c| format!("{i}:{:?}", c.distinct_decisions()))
        }
        "dac" => {
            let p = DacFromPac::new(mixed_inputs(n), Pid(0), ObjId(0))?;
            let objects = vec![AnyObject::pac(n).map_err(|e| e.to_string())?];
            let g = Explorer::new(&p, &objects)
                .exploration()
                .limits(limits)
                .run()
                .map_err(|e| e.to_string())?;
            g.to_dot(|i, c| format!("{i}:{:?}", c.distinct_decisions()))
        }
        "sa" => {
            let inputs: Vec<Value> = (0..n).map(|i| Value::Int(i as i64)).collect();
            let p = KSetViaStrongSa::new(inputs, ObjId(0));
            let objects = vec![AnyObject::strong_sa()];
            let g = Explorer::new(&p, &objects)
                .exploration()
                .limits(limits)
                .run()
                .map_err(|e| e.to_string())?;
            g.to_dot(|i, c| format!("{i}:{:?}", c.distinct_decisions()))
        }
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected race | dac | sa)"
            ))
        }
    };
    println!("{dot}");
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse = |s: &String| s.parse::<usize>().map_err(|_| format!("not a number: {s}"));
    match args.first().map(String::as_str) {
        Some("levels") => cmd_levels(),
        Some("separation") => {
            let n = args.get(1).map(parse).transpose()?.unwrap_or(2);
            let max_k = args.get(2).map(parse).transpose()?.unwrap_or(2);
            cmd_separation(n, max_k)
        }
        Some("dac") => {
            let n = args.get(1).map(parse).transpose()?.ok_or("dac needs <n>")?;
            cmd_dac(n)
        }
        Some("adversary") => cmd_adversary(),
        Some("dot") => {
            let workload = args.get(1).ok_or("dot needs <workload> <n>")?.clone();
            let n = args.get(2).map(parse).transpose()?.ok_or("dot needs <n>")?;
            cmd_dot(&workload, n)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
