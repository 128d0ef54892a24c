//! The one checking surface, pinned. Every protocol catalogued in
//! `common/catalog.rs` is checked at small n through the `check_*`
//! terminals of the `Exploration` builder: raw and — where the protocol
//! implements `Symmetry` — after `.symmetric()`, each on the deterministic
//! frontier and on work stealing at two threads. Every verdict must match
//! its pin, and every violation must carry a witness that `confirm()`s on
//! the raw system. The witness kind is pinned on the deterministic frontier
//! only: which violation work stealing meets first depends on discovery
//! order.
//!
//! The pins are the verdicts of the per-option entry points the terminals
//! replaced (`verdict_*`, their `_reduced` and `_graph` forms, and the
//! `checker::check_*` functions), so they also pin that the terminals
//! reproduce them.

#[path = "common/catalog.rs"]
mod catalog;

use catalog::{terminal, Check, Visit};
use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId};
use lbsa_explorer::{Explorer, Frontier, Limits, Verdict};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_runtime::process::{Protocol, Symmetry};

/// Asserts `verdict` against `pin` (without its witness kind unless
/// `deterministic`) and confirms its witness on the raw system.
fn assert_pin<P: Protocol>(
    what: &str,
    ex: &Explorer<'_, P>,
    verdict: &Verdict,
    pin: &str,
    deterministic: bool,
) {
    let mut seen = format!(
        "{} {}/{}",
        verdict.outcome.tag(),
        verdict.stats.configs,
        verdict.stats.transitions
    );
    let mut want: Vec<&str> = pin.split(' ').collect();
    match &verdict.witness {
        Some(w) if deterministic => seen = format!("{seen} {}", w.kind.tag()),
        _ => want.truncate(2),
    }
    assert_eq!(seen, want.join(" "), "{what}: {verdict}");
    match &verdict.witness {
        Some(w) => w
            .confirm(ex)
            .unwrap_or_else(|e| panic!("{what}: witness does not confirm: {e}")),
        None => assert!(!verdict.is_violated(), "{what}: no witness"),
    }
}

/// Checks each catalogued case on both frontiers against its pin.
struct Pins;

impl Visit for Pins {
    fn raw<P: Protocol>(&mut self, label: &str, ex: &Explorer<'_, P>, check: Check<'_>, pin: &str) {
        let det = terminal(ex.exploration(), check);
        assert_pin(&format!("{label} [raw]"), ex, &det, pin, true);
        let builder = ex.exploration().frontier(Frontier::WorkStealing);
        let ws = terminal(builder.threads(2), check);
        assert_pin(&format!("{label} [raw, ws2]"), ex, &ws, pin, false);
    }

    fn both<P>(&mut self, label: &str, ex: &Explorer<'_, P>, check: Check<'_>, pins: &str)
    where
        P: Symmetry,
        P::LocalState: Ord,
    {
        let (raw_pin, sym_pin) = pins.split_once(" | ").expect("raw and reduced pins");
        self.raw(label, ex, check, raw_pin);
        let det = terminal(ex.exploration().symmetric(), check);
        assert_pin(&format!("{label} [sym]"), ex, &det, sym_pin, true);
        let builder = ex.exploration().symmetric();
        let ws = terminal(builder.frontier(Frontier::WorkStealing).threads(2), check);
        assert_pin(&format!("{label} [sym, ws2]"), ex, &ws, sym_pin, false);
    }
}

#[test]
fn consensus_protocols() {
    catalog::consensus_protocols(&mut Pins);
}

#[test]
fn truncated_exploration_is_inconclusive() {
    // Work stealing cuts a truncated run at a scheduling-dependent
    // boundary, so only the deterministic frontier has pinnable counts.
    let objects = [AnyObject::consensus(3).unwrap()];
    let i = vec![int(0), int(1), int(1)];
    let p = ConsensusViaObject::new(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let v = ex.exploration().limits(Limits::new(1)).check_consensus(&i);
    assert_pin("3-consensus, 1 config", &ex, &v, "truncated 4/3", true);
}

#[test]
fn dac() {
    catalog::dac(&mut Pins);
}

#[test]
fn set_agreement_protocols() {
    catalog::set_agreement_protocols(&mut Pins);
}

#[test]
fn candidates() {
    catalog::candidates(&mut Pins);
}
