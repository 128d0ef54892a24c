//! **Experiment F6 (extension)** — the anatomy of critical configurations.
//!
//! The engine room of the paper's impossibility proofs is a sequence of
//! claims about *critical configurations* (bivalent, every successor
//! univalent): all processes must be poised on the **same object**
//! (Claims 4.2.7 / 5.2.3) and that object **cannot be a register**
//! (Claims 4.2.8 / 5.2.4). This experiment extracts exactly that anatomy
//! from concrete solvable protocols and watches the proof's skeleton appear:
//! every critical configuration converges on the one consensus-bearing
//! object in the system.
//!
//! Run with `cargo run --release -p lbsa-bench --bin exp_f6_critical_anatomy`.

use lbsa_bench::harness::run_experiment;
use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use lbsa_explorer::valency::{critical_anatomy, ValencyAnalysis};
use lbsa_explorer::{Explorer, Limits, Tracer};
use lbsa_hierarchy::report::Table;
use lbsa_protocols::classic_consensus::{ClassicConsensus, RacePrimitive};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_runtime::process::{Protocol, Step};

/// Each process writes to its register, then proposes to the consensus
/// object — a protocol with register noise around the decision step.
#[derive(Debug)]
struct WriteThenPropose {
    inputs: Vec<Value>,
}

impl Protocol for WriteThenPropose {
    type LocalState = bool;
    fn num_processes(&self) -> usize {
        self.inputs.len()
    }
    fn init(&self, _pid: Pid) -> bool {
        false
    }
    fn pending_op(&self, pid: Pid, s: &bool) -> (ObjId, Op) {
        if *s {
            (ObjId(0), Op::Propose(self.inputs[pid.index()]))
        } else {
            (ObjId(1 + pid.index()), Op::Write(self.inputs[pid.index()]))
        }
    }
    fn on_response(&self, _pid: Pid, s: &bool, resp: Value) -> Step<bool> {
        if *s {
            Step::Decide(resp)
        } else {
            Step::Continue(true)
        }
    }
}

fn analyze<P: Protocol>(
    name: &str,
    protocol: &P,
    objects: &[AnyObject],
    tracer: Tracer,
    table: &mut Table,
) {
    let ex = Explorer::new(protocol, objects).with_trace(tracer);
    let g = ex
        .exploration()
        .limits(Limits::new(2_000_000))
        .run()
        .expect("explorable");
    let va = ValencyAnalysis::analyze(&g);
    let anatomy = critical_anatomy(&ex, &g, &va).expect("anatomy computable");
    if anatomy.is_empty() {
        table.row(vec![
            name.into(),
            "0".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        return;
    }
    let all_same = anatomy.iter().all(|i| i.same_object.is_some());
    let kinds: std::collections::BTreeSet<&str> =
        anatomy.iter().filter_map(|i| i.object_kind).collect();
    let register_free = !kinds.contains("register");
    table.row(vec![
        name.into(),
        anatomy.len().to_string(),
        if all_same {
            "yes (claim 4.2.7 shape)".into()
        } else {
            "NO".into()
        },
        kinds.into_iter().collect::<Vec<_>>().join(", "),
        if register_free {
            "yes (claim 4.2.8 shape)".into()
        } else {
            "NO".into()
        },
    ]);
}

fn main() {
    run_experiment(
        "exp_f6_critical_anatomy",
        "F6 — critical configurations: all poised on one (non-register) object",
        |exp| {
            body(exp);
        },
    );
}

fn body(exp: &mut lbsa_bench::harness::Experiment) {
    let mut table = Table::new(
        "F6 — critical configurations: all poised on one (non-register) object",
        vec![
            "protocol",
            "critical configs",
            "same object?",
            "object kind(s)",
            "register-free?",
        ],
    );

    let p = ConsensusViaObject::new(mixed_binary_inputs(2), ObjId(0));
    let objects = vec![AnyObject::consensus(2).expect("valid")];
    analyze("2-consensus race", &p, &objects, exp.tracer(), &mut table);

    let p = ConsensusViaObject::new(mixed_binary_inputs(3), ObjId(0));
    let objects = vec![AnyObject::consensus(3).expect("valid")];
    analyze("3-consensus race", &p, &objects, exp.tracer(), &mut table);

    let p = WriteThenPropose {
        inputs: mixed_binary_inputs(2),
    };
    let objects = vec![
        AnyObject::consensus(2).expect("valid"),
        AnyObject::register(),
        AnyObject::register(),
    ];
    analyze(
        "write registers, then propose",
        &p,
        &objects,
        exp.tracer(),
        &mut table,
    );

    let p = WriteThenPropose {
        inputs: mixed_binary_inputs(3),
    };
    let objects = vec![
        AnyObject::consensus(3).expect("valid"),
        AnyObject::register(),
        AnyObject::register(),
        AnyObject::register(),
    ];
    analyze(
        "write registers, then propose (3p)",
        &p,
        &objects,
        exp.tracer(),
        &mut table,
    );

    for (prim, name) in [
        (RacePrimitive::TestAndSet, "test-and-set consensus"),
        (RacePrimitive::FetchAdd, "fetch-and-add consensus"),
        (RacePrimitive::Queue, "queue consensus"),
    ] {
        let p = ClassicConsensus::two_process(prim, mixed_binary_inputs(2)).expect("2 inputs");
        let objects = p.objects();
        analyze(name, &p, &objects, exp.tracer(), &mut table);
    }

    let p = ClassicConsensus::cas(mixed_binary_inputs(3));
    let objects = p.objects();
    analyze("CAS consensus (3p)", &p, &objects, exp.tracer(), &mut table);

    exp.table(table);
    exp.note("Every solvable protocol funnels its critical configurations onto the one");
    exp.note("consensus-bearing object, never a register — the executable shape of the");
    exp.note("case analysis in the proofs of Theorems 4.2 and 5.2.");
}
