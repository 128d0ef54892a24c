//! The one checking surface, pinned. Every protocol catalogued in
//! `lbsa_protocols::{candidates, consensus_protocols, dac,
//! set_agreement_protocols}` is checked at small n through the `check_*`
//! terminals of the `Exploration` builder: raw and — where the protocol
//! implements `Symmetry` — after `.symmetric()`, each on the deterministic
//! frontier and on work stealing at two threads. Every verdict must match
//! its pin, `"<outcome> <configs>/<transitions> [<witness kind>]"` (raw and
//! reduced pins are written `"<raw> | <reduced>"`), and every violation
//! must carry a witness that `confirm()`s on the raw system. The witness kind is pinned on the deterministic frontier only:
//! which violation work stealing meets first depends on discovery order.
//!
//! The pins are the verdicts of the per-option entry points the terminals
//! replaced (`verdict_*`, their `_reduced` and `_graph` forms, and the
//! `checker::check_*` functions), so they also pin that the terminals
//! reproduce them.

use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Pid, Value};
use lbsa_explorer::checker::DacInstance;
use lbsa_explorer::{Exploration, Explorer, Frontier, Limits, Verdict};
use lbsa_protocols::candidates::{
    CandidatePacProcedure, DacWaitForWinner, PacRetryConsensus, SaThenConsensus, ValAgreement,
    WaitForWinner,
};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::{GroupSplitKSet, KSetViaPowerLevel, KSetViaStrongSa};
use lbsa_runtime::derived::DerivedProtocol;
use lbsa_runtime::process::{Protocol, Symmetry};

/// The property a case checks, one per terminal.
#[derive(Clone, Copy)]
enum Check<'c> {
    KSet(usize, &'c [Value]),
    Dac(&'c DacInstance, usize),
    WaitFree,
}

fn terminal<P: Protocol>(builder: Exploration<'_, '_, P>, check: Check<'_>) -> Verdict {
    match check {
        Check::KSet(1, valid) => builder.check_consensus(valid),
        Check::KSet(k, valid) => builder.check_k_set_agreement(k, valid),
        Check::Dac(instance, solo_bound) => builder.check_dac(instance, solo_bound),
        Check::WaitFree => builder.check_wait_free(),
    }
}

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

/// Checks `ex`'s protocol unreduced, on both frontiers, against `pin`.
fn raw<P: Protocol>(label: &str, ex: &Explorer<'_, P>, check: Check<'_>, pin: &str) {
    let det = terminal(ex.exploration(), check);
    assert_pin(&format!("{label} [raw]"), ex, &det, pin, true);
    let builder = ex.exploration().frontier(Frontier::WorkStealing);
    let ws = terminal(builder.threads(2), check);
    assert_pin(&format!("{label} [raw, ws2]"), ex, &ws, pin, false);
}

/// Checks `ex`'s protocol unreduced and symmetry-reduced, each on both
/// frontiers, against `pins`: `"<raw pin> | <reduced pin>"`.
fn both<P>(label: &str, ex: &Explorer<'_, P>, check: Check<'_>, pins: &str)
where
    P: Symmetry,
    P::LocalState: Ord,
{
    let (raw_pin, sym_pin) = pins.split_once(" | ").expect("raw and reduced pins");
    raw(label, ex, check, raw_pin);
    let det = terminal(ex.exploration().symmetric(), check);
    assert_pin(&format!("{label} [sym]"), ex, &det, sym_pin, true);
    let builder = ex.exploration().symmetric();
    let ws = terminal(builder.frontier(Frontier::WorkStealing).threads(2), check);
    assert_pin(&format!("{label} [sym, ws2]"), ex, &ws, sym_pin, false);
}

fn distinct(n: usize) -> Vec<Value> {
    (0..n).map(|i| int(i as i64)).collect()
}

#[test]
fn consensus_protocols() {
    let objects = [AnyObject::consensus(3).unwrap()];
    let i = vec![int(0), int(1), int(1)];
    let p = ConsensusViaObject::new(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 11/14 | holds 8/10";
    both("3-consensus", &ex, Check::KSet(1, &i), pins);

    let objects = [AnyObject::consensus(2).unwrap()];
    let i = vec![int(0), int(1), int(0)];
    let p = ConsensusViaObject::new(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "violated 14/14 agreement | violated 9/10 agreement";
    both("2-consensus, n=3", &ex, Check::KSet(1, &i), pins);

    let objects = [AnyObject::combined_pac(3, 2).unwrap()];
    let i = vec![int(0), int(1), int(1)];
    let p = ConsensusViaObject::via_propose_c(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    both("(3,2)-PAC", &ex, Check::KSet(1, &i), pins);

    let objects = [AnyObject::o_prime_n(2, 3).unwrap()];
    let i = vec![int(0), int(1)];
    let p = ConsensusViaObject::via_power_level_1(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 5/4 | holds 5/4";
    both("O'_2 level 1", &ex, Check::KSet(1, &i), pins);
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
    let objects = [AnyObject::pac(3).unwrap()];
    let p = DacFromPac::new(vec![int(1), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
    let ex = Explorer::new(&p, &objects);
    let instance = p.instance();
    let check = Check::Dac(&instance, 10);
    both("Algorithm 2, n=3", &ex, check, "holds 74/139 | holds 44/81");
    // n-DAC termination is weaker than wait-freedom: retry loops can cycle.
    let pins = "violated 74/139 non-termination | violated 44/81 non-termination";
    both("Algorithm 2, wait-free", &ex, Check::WaitFree, pins);

    let objects = [AnyObject::pac(4).unwrap()];
    let p = DacFromPac::new(vec![int(1), int(0), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
    let ex = Explorer::new(&p, &objects);
    let instance = p.instance();
    let check = Check::Dac(&instance, 12);
    let pins = "holds 275/706 | holds 81/203";
    both("Algorithm 2, n=4", &ex, check, pins);

    let objects = [AnyObject::pac(2).unwrap()];
    let p = DacFromPac::new(vec![int(1), int(0)], Pid(0), ObjId(0)).unwrap();
    let ex = Explorer::new(&p, &objects);
    let wrong = DacInstance {
        distinguished: Pid(1),
        inputs: vec![int(1), int(0)],
    };
    let pin = "violated 18/21 solo-non-termination";
    let pins = format!("{pin} | {pin}");
    both("wrong distinguished", &ex, Check::Dac(&wrong, 8), &pins);
}

#[test]
fn set_agreement_protocols() {
    let objects = [AnyObject::strong_sa()];
    let i = distinct(4);
    let p = KSetViaStrongSa::new(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 167/244 | holds 167/244";
    both("2-SA, k=2", &ex, Check::KSet(2, &i), pins);
    let pins = "violated 167/244 agreement | violated 167/244 agreement";
    both("2-SA, k=1", &ex, Check::KSet(1, &i), pins);

    let equal = vec![int(7); 4];
    let p = KSetViaStrongSa::new(equal.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 16/32 | holds 5/10";
    both("2-SA, equal inputs", &ex, Check::KSet(2, &equal), pins);

    let objects = [
        AnyObject::consensus(2).unwrap(),
        AnyObject::consensus(2).unwrap(),
    ];
    let p = GroupSplitKSet::new(i.clone(), 2).unwrap();
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 25/40 | holds 25/40";
    both("group split, k=2", &ex, Check::KSet(2, &i), pins);
    let pins = "violated 25/40 agreement | violated 25/40 agreement";
    both("group split, k=1", &ex, Check::KSet(1, &i), pins);

    let objects = [AnyObject::o_n(2).unwrap(), AnyObject::o_n(2).unwrap()];
    let pairs = vec![int(0), int(0), int(1), int(1)];
    let p = GroupSplitKSet::via_combined(pairs.clone(), 2).unwrap();
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 16/32 | holds 9/18";
    both("split over O_2", &ex, Check::KSet(2, &pairs), pins);

    let objects = [AnyObject::o_prime_n(2, 2).unwrap()];
    let p = KSetViaPowerLevel::new(i.clone(), ObjId(0), 2);
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 147/268 | holds 147/268";
    both("O'_2 level 2", &ex, Check::KSet(2, &i), pins);
    let i = distinct(5);
    let p = KSetViaPowerLevel::new(i.clone(), ObjId(0), 2);
    let ex = Explorer::new(&p, &objects);
    let pins = "violated 826/1325 validity | violated 826/1325 validity";
    both("O'_2 level 2, n=5", &ex, Check::KSet(2, &i), pins);
}

#[test]
fn candidates() {
    let objects = [AnyObject::consensus(2).unwrap(), AnyObject::register()];
    let i = vec![int(0), int(1)];
    let p = WaitForWinner::new(i.clone());
    let ex = Explorer::new(&p, &objects);
    raw("wait-for-winner", &ex, Check::KSet(1, &i), "holds 13/16");
    let pin = "holds 13/16";
    raw("wait-for-winner, wait-free", &ex, Check::WaitFree, pin);

    let i = vec![int(0), int(1), int(1)];
    let p = WaitForWinner::new(i.clone());
    let ex = Explorer::new(&p, &objects);
    let pin = "violated 55/104 non-termination";
    raw("wait-for-winner, n=3", &ex, Check::KSet(1, &i), pin);
    raw("wait-for-winner, n=3, wait-free", &ex, Check::WaitFree, pin);

    let i = vec![int(1), int(0), int(0)];
    let instance = DacInstance {
        distinguished: Pid(0),
        inputs: i.clone(),
    };
    let p = DacWaitForWinner::new(i.clone(), Pid(0));
    let ex = Explorer::new(&p, &objects);
    let pin = "violated 55/100 solo-non-termination";
    raw("DAC wait-for-winner", &ex, Check::Dac(&instance, 12), pin);

    let i = vec![int(0), int(1), int(1)];
    let objects = [AnyObject::strong_sa(), AnyObject::consensus(2).unwrap()];
    let p = SaThenConsensus::new(i.clone());
    let ex = Explorer::new(&p, &objects);
    let pin = "violated 81/181 agreement";
    raw("2-SA then consensus", &ex, Check::KSet(1, &i), pin);

    // Algorithm 2 over the candidate 3-PAC implementations (Theorems 4.3
    // and 6.5).
    let inner = DacFromPac::new(instance.inputs.clone(), Pid(0), ObjId(0)).unwrap();
    let solo_fails = "violated 3032/8011 solo-non-termination";
    for (label, val_agreement, first, pin) in [
        (
            "2-consensus",
            ValAgreement::ConsensusObject,
            AnyObject::consensus(2),
            solo_fails,
        ),
        (
            "O'_2 level 1",
            ValAgreement::PowerLevel(1),
            AnyObject::o_prime_n(2, 2),
            solo_fails,
        ),
        (
            "O'_2 level 2",
            ValAgreement::PowerLevel(2),
            AnyObject::o_prime_n(2, 2),
            "violated 3741/10047 agreement",
        ),
    ] {
        let procedure = CandidatePacProcedure::new(3, val_agreement);
        let registers = vec![ObjId(2), ObjId(3), ObjId(4)];
        let frontends = vec![CandidatePacProcedure::frontend(
            ObjId(0),
            ObjId(1),
            registers,
        )];
        let derived = DerivedProtocol::new(&inner, &procedure, frontends);
        let mut objects = vec![first.unwrap()];
        objects.extend((0..4).map(|_| AnyObject::register()));
        let ex = Explorer::new(&derived, &objects);
        let label = format!("candidate PAC from {label}");
        raw(&label, &ex, Check::Dac(&instance, 60), pin);
    }

    let objects = [AnyObject::pac(4).unwrap()];
    let i = vec![int(1), int(0)];
    let p = PacRetryConsensus::new(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pin = "violated 15/20 non-termination";
    raw("PAC retry, n=2", &ex, Check::KSet(1, &i), pin);
    let p = PacRetryConsensus::new(vec![int(1)], ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pin = "holds 3/2";
    raw("PAC retry, n=1", &ex, Check::KSet(1, &[int(1)]), pin);
}
