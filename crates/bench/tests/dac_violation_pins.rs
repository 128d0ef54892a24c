//! Every n-DAC case of `common/catalog.rs`, pinned to the detail: the
//! outcome, the `Violation` with its configuration index and pid, and the
//! witness schedule, raw and symmetry-reduced, on the deterministic
//! frontier (the only one that numbers configurations reproducibly). The
//! catalogue's own pins stop at the outcome, the counts and the witness
//! kind; these hold the n-DAC checker to the exact violation it reports and
//! the exact schedule its witness replays.

#[path = "common/catalog.rs"]
mod catalog;

use catalog::{terminal, Check, Visit};
use lbsa_explorer::checker::Violation;
use lbsa_explorer::verdict::Outcome;
use lbsa_explorer::{Exploration, Explorer};
use lbsa_runtime::process::{Protocol, Symmetry};

/// The pinned line of each n-DAC case, in catalogue order.
const PINS: &[&str] = &[
    "Algorithm 2, n=3 [raw]: holds []",
    "Algorithm 2, n=3 [sym]: holds []",
    "Algorithm 2, n=4 [raw]: holds []",
    "Algorithm 2, n=4 [sym]: holds []",
    "wrong distinguished [raw]: solo-non-termination config 4 p0 [0/0 1/0]",
    "wrong distinguished [sym]: solo-non-termination config 4 p0 [0/0 1/0]",
    // The first abort of pid 0 in breadth-first order along its own edges:
    // the object answered 1 three times (outputs {1}). The witness replays
    // the same path.
    "aborts alone [raw]: nontriviality config 9 [0/0 0/0 0/0]",
    "aborts alone [sym]: nontriviality config 7 [0/0 0/0 0/0]",
    "DAC wait-for-winner [raw]: solo-non-termination config 5 p2 [0/0 1/0]",
    "candidate PAC from 2-consensus [raw]: solo-non-termination config 593 p2 \
     [0/0 0/0 0/0 0/0 0/0 1/0 1/0 1/0 1/0 1/0]",
    "candidate PAC from O'_2 level 1 [raw]: solo-non-termination config 593 p2 \
     [0/0 0/0 0/0 0/0 0/0 1/0 1/0 1/0 1/0 1/0]",
    "candidate PAC from O'_2 level 2 [raw]: agreement config 1927 values [Int(0), Int(1)] \
     [0/0 0/0 0/0 0/0 0/0 0/0 0/0 1/0 1/0 1/0 1/0 1/0 1/0 1/0]",
];

/// `verdict`'s outcome, violation and witness schedule as one line.
fn describe(verdict: &lbsa_explorer::Verdict) -> String {
    let outcome = match &verdict.outcome {
        Outcome::Violated(Violation::Agreement { config, values }) => {
            format!("agreement config {config} values {values:?}")
        }
        Outcome::Violated(Violation::Validity { config, value }) => {
            format!("validity config {config} value {value}")
        }
        Outcome::Violated(Violation::SoloNonTermination { config, pid }) => {
            format!("solo-non-termination config {config} {pid}")
        }
        Outcome::Violated(Violation::Nontriviality { config }) => {
            format!("nontriviality config {config}")
        }
        other => other.tag().to_string(),
    };
    let schedule: Vec<String> = verdict
        .witness
        .iter()
        .flat_map(|w| &w.schedule)
        .map(|s| format!("{}/{}", s.pid.index(), s.outcome))
        .collect();
    format!("{outcome} [{}]", schedule.join(" "))
}

/// Collects the line of every n-DAC case, confirming each witness.
#[derive(Default)]
struct Lines(Vec<String>);

impl Lines {
    fn push<P: Protocol>(
        &mut self,
        what: String,
        ex: &Explorer<'_, P>,
        builder: Exploration<'_, '_, P>,
        check: Check<'_>,
    ) {
        let verdict = terminal(builder, check);
        if let Some(w) = &verdict.witness {
            w.confirm(ex)
                .unwrap_or_else(|e| panic!("{what}: witness does not confirm: {e}"));
        }
        self.0.push(format!("{what}: {}", describe(&verdict)));
    }
}

impl Visit for Lines {
    fn raw<P: Protocol>(&mut self, label: &str, ex: &Explorer<'_, P>, check: Check<'_>, _: &str) {
        if matches!(check, Check::Dac(..)) {
            self.push(format!("{label} [raw]"), ex, ex.exploration(), check);
        }
    }

    fn both<P>(&mut self, label: &str, ex: &Explorer<'_, P>, check: Check<'_>, pins: &str)
    where
        P: Symmetry,
        P::LocalState: Ord,
    {
        self.raw(label, ex, check, pins);
        if matches!(check, Check::Dac(..)) {
            let builder = ex.exploration().symmetric();
            self.push(format!("{label} [sym]"), ex, builder, check);
        }
    }
}

#[test]
fn dac_violations_and_witnesses_are_pinned() {
    let mut lines = Lines::default();
    catalog::consensus_protocols(&mut lines);
    catalog::dac(&mut lines);
    catalog::set_agreement_protocols(&mut lines);
    catalog::candidates(&mut lines);
    assert_eq!(lines.0, PINS);
}
