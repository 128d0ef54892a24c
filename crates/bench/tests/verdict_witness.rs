//! End-to-end demo of the verdict/witness layer on an intentionally buggy
//! protocol, plus the round-trip test for the `reports/*.json` schema.
//!
//! The protocol is consensus with a **broken adopt rule**: every process
//! proposes to a real consensus object, but a loser ignores the winner's
//! value and decides its own input anyway. The checker must return
//! [`Outcome::Violated`] with a witness whose deterministic replay
//! reproduces the agreement violation, and whose minimized schedule is no
//! longer than the original counterexample path.

use lbsa_bench::harness::{table_to_json, validate_report, REPORT_SCHEMA};
use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use lbsa_explorer::checker::Violation;
use lbsa_explorer::verdict::{Outcome, WitnessKind};
use lbsa_explorer::Explorer;
use lbsa_hierarchy::report::Table;
use lbsa_runtime::process::{Protocol, Step};
use lbsa_support::json::Json;

/// Consensus with a broken adopt rule: propose to a consensus object, then
/// decide own input even after losing (the adopt step is the bug).
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
            // BUG: a loser must adopt the winner's value; deciding its own
            // input violates Agreement.
            Step::Decide(own)
        }
    }
}

fn setup() -> (BrokenAdoptConsensus, Vec<AnyObject>) {
    let p = BrokenAdoptConsensus {
        inputs: vec![int(0), int(1), int(2)],
    };
    let objects = vec![AnyObject::consensus(3).expect("valid")];
    (p, objects)
}

#[test]
fn broken_adopt_rule_yields_replayable_minimized_witness() {
    let (p, objects) = setup();
    let inputs = p.inputs.clone();
    let ex = Explorer::new(&p, &objects);
    let verdict = ex.exploration().check_consensus(&inputs);

    assert!(
        matches!(
            &verdict.outcome,
            Outcome::Violated(Violation::Agreement { .. })
        ),
        "expected an agreement violation, got: {verdict}"
    );
    let witness = verdict.witness.as_ref().expect("witness extracted");
    assert_eq!(witness.kind, WitnessKind::Agreement { k: 1 });
    assert!(witness.minimized);

    // The minimized schedule is no longer than the BFS-shortest path to
    // the violating configuration (here both are the 4-step minimum: the
    // winner's propose+decide, a loser's propose+buggy decide).
    let graph = ex.exploration().run().expect("explorable");
    let violating = graph
        .configs
        .iter()
        .position(|c| c.distinct_decisions().len() > 1)
        .expect("violation is reachable");
    let shortest = graph.path_to(violating).expect("reachable").len();
    assert!(
        witness.schedule.len() <= shortest,
        "minimized witness ({}) longer than the original path ({shortest})",
        witness.schedule.len()
    );

    // Deterministic replay reproduces the violation...
    witness.confirm(&ex).expect("witness must confirm");
    let (end, trace) = witness.replay(&ex).expect("replayable");
    assert!(end.distinct_decisions().len() > 1);
    assert_eq!(trace.len(), witness.schedule.len());

    // ...and is reproducible: two replays agree step for step.
    let (end2, trace2) = witness.replay(&ex).expect("replayable");
    assert_eq!(end, end2);
    assert_eq!(trace, trace2);
}

#[test]
fn witness_survives_the_report_schema_round_trip() {
    let (p, objects) = setup();
    let inputs = p.inputs.clone();
    let ex = Explorer::new(&p, &objects);
    let verdict = ex.exploration().check_consensus(&inputs);
    assert!(verdict.is_violated());

    // Assemble a full lbsa-report/v2 envelope, exactly the shape the
    // harness writes to reports/<exp_id>.json.
    let mut table = Table::new("demo — broken adopt rule", vec!["n", "verdict"]);
    table.row(vec!["3".into(), verdict.describe()]);
    let report = Json::object()
        .set("schema", REPORT_SCHEMA)
        .set("id", "exp_demo_broken_adopt")
        .set("title", "injected-bug demo")
        .set("parameters", Json::object().set("n", 3usize))
        .set("tables", Json::Arr(vec![table_to_json(&table)]))
        .set(
            "verdicts",
            Json::Arr(vec![Json::object()
                .set("label", "broken-adopt")
                .set("verdict", verdict.to_json())]),
        )
        .set("notes", Json::Arr(vec![]))
        .set("metrics", Json::object().set("trace_events", 0usize))
        .set("wall_clock_ms", 0.25);

    validate_report(&report).expect("schema-valid");
    let parsed = Json::parse(&report.pretty()).expect("parses back");
    assert_eq!(parsed, report, "pretty-print/parse round trip is lossless");
    validate_report(&parsed).expect("still schema-valid after round trip");

    // The witness schedule survives serialization intact.
    let witness = verdict.witness.expect("witness");
    let steps = parsed
        .get("verdicts")
        .and_then(Json::as_arr)
        .and_then(|vs| vs[0].get("verdict"))
        .and_then(|v| v.get("witness"))
        .and_then(|w| w.get("schedule"))
        .and_then(Json::as_arr)
        .expect("schedule present");
    assert_eq!(steps.len(), witness.schedule.len());
    for (json, step) in steps.iter().zip(&witness.schedule) {
        assert_eq!(
            json.get("pid").and_then(Json::as_i64),
            Some(step.pid.index() as i64)
        );
        assert_eq!(
            json.get("outcome").and_then(Json::as_i64),
            Some(step.outcome as i64)
        );
    }
}
