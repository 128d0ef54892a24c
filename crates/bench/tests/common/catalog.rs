//! The protocol catalogue the checking tests share: every protocol of
//! `lbsa_protocols::{candidates, consensus_protocols, dac,
//! set_agreement_protocols}` at small n, each with the property checked on
//! it and its pinned verdict, `"<outcome> <configs>/<transitions> [<witness
//! kind>]"` (raw and reduced pins are written `"<raw> | <reduced>"`).
//! Protocols that implement `Symmetry` are handed to [`Visit::both`], the
//! rest to [`Visit::raw`]; what is done with a case is up to the visitor.

use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use lbsa_explorer::checker::DacInstance;
use lbsa_explorer::{Exploration, Explorer, Verdict};
use lbsa_protocols::candidates::{
    CandidatePacProcedure, DacWaitForWinner, PacRetryConsensus, SaThenConsensus, ValAgreement,
    WaitForWinner,
};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::{GroupSplitKSet, KSetViaPowerLevel, KSetViaStrongSa};
use lbsa_runtime::derived::DerivedProtocol;
use lbsa_runtime::process::{classes_by_input, Protocol, Step, Symmetry};

/// The property a case checks, one per terminal.
#[derive(Clone, Copy)]
pub enum Check<'c> {
    KSet(usize, &'c [Value]),
    Dac(&'c DacInstance, usize),
    WaitFree,
}

/// Finishes `builder` with the terminal that checks `check`.
pub fn terminal<P: Protocol>(builder: Exploration<'_, '_, P>, check: Check<'_>) -> Verdict {
    match check {
        Check::KSet(1, valid) => builder.check_consensus(valid),
        Check::KSet(k, valid) => builder.check_k_set_agreement(k, valid),
        Check::Dac(instance, solo_bound) => builder.check_dac(instance, solo_bound),
        Check::WaitFree => builder.check_wait_free(),
    }
}

/// What a test does with each catalogued case.
pub trait Visit {
    /// A case checked unreduced only, pinned by `pin`.
    fn raw<P: Protocol>(&mut self, label: &str, ex: &Explorer<'_, P>, check: Check<'_>, pin: &str);

    /// A case checked unreduced and symmetry-reduced, pinned by `pins`:
    /// `"<raw pin> | <reduced pin>"`.
    fn both<P>(&mut self, label: &str, ex: &Explorer<'_, P>, check: Check<'_>, pins: &str)
    where
        P: Symmetry,
        P::LocalState: Ord;
}

fn distinct(n: usize) -> Vec<Value> {
    (0..n).map(|i| int(i as i64)).collect()
}

pub fn consensus_protocols(v: &mut impl Visit) {
    let objects = [AnyObject::consensus(3).unwrap()];
    let i = vec![int(0), int(1), int(1)];
    let p = ConsensusViaObject::new(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 11/14 | holds 8/10";
    v.both("3-consensus", &ex, Check::KSet(1, &i), pins);

    let objects = [AnyObject::consensus(2).unwrap()];
    let i = vec![int(0), int(1), int(0)];
    let p = ConsensusViaObject::new(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "violated 14/14 agreement | violated 9/10 agreement";
    v.both("2-consensus, n=3", &ex, Check::KSet(1, &i), pins);

    let objects = [AnyObject::combined_pac(3, 2).unwrap()];
    let i = vec![int(0), int(1), int(1)];
    let p = ConsensusViaObject::via_propose_c(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    v.both("(3,2)-PAC", &ex, Check::KSet(1, &i), pins);

    let objects = [AnyObject::o_prime_n(2, 3).unwrap()];
    let i = vec![int(0), int(1)];
    let p = ConsensusViaObject::via_power_level_1(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 5/4 | holds 5/4";
    v.both("O'_2 level 1", &ex, Check::KSet(1, &i), pins);
}

pub fn dac(v: &mut impl Visit) {
    let objects = [AnyObject::pac(3).unwrap()];
    let p = DacFromPac::new(vec![int(1), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
    let ex = Explorer::new(&p, &objects);
    let instance = p.instance();
    let check = Check::Dac(&instance, 10);
    v.both("Algorithm 2, n=3", &ex, check, "holds 74/139 | holds 44/81");
    // n-DAC termination is weaker than wait-freedom: retry loops can cycle.
    let pins = "violated 74/139 non-termination | violated 44/81 non-termination";
    v.both("Algorithm 2, wait-free", &ex, Check::WaitFree, pins);

    let objects = [AnyObject::pac(4).unwrap()];
    let p = DacFromPac::new(vec![int(1), int(0), int(0), int(0)], Pid(0), ObjId(0)).unwrap();
    let ex = Explorer::new(&p, &objects);
    let instance = p.instance();
    let check = Check::Dac(&instance, 12);
    let pins = "holds 275/706 | holds 81/203";
    v.both("Algorithm 2, n=4", &ex, check, pins);

    let objects = [AnyObject::pac(2).unwrap()];
    let p = DacFromPac::new(vec![int(1), int(0)], Pid(0), ObjId(0)).unwrap();
    let ex = Explorer::new(&p, &objects);
    let wrong = DacInstance {
        distinguished: Pid(1),
        inputs: vec![int(1), int(0)],
    };
    let pin = "violated 18/21 solo-non-termination";
    let pins = format!("{pin} | {pin}");
    v.both("wrong distinguished", &ex, Check::Dac(&wrong, 8), &pins);

    let objects = [
        AnyObject::set_agreement(4, 2).unwrap(),
        AnyObject::consensus(3).unwrap(),
    ];
    let p = AbortsAlone {
        inputs: vec![int(1), int(0), int(0)],
    };
    let ex = Explorer::new(&p, &objects);
    let instance = p.instance();
    let pins = "violated 28/60 nontriviality | violated 21/45 nontriviality";
    v.both("aborts alone", &ex, Check::Dac(&instance, 6), pins);
}

/// An n-DAC protocol that breaks Nontriviality and nothing else. The
/// distinguished process (pid 0) proposes 1, 2, 3 to a (4, 2)-SA object,
/// ignores the answers and aborts, so it can abort before anyone else
/// steps; the object's choices give it several such aborts. Every other
/// process proposes its input to a consensus object and decides the
/// answer. With equal inputs for the others, Agreement, Validity and both
/// Termination clauses hold.
#[derive(Debug)]
pub struct AbortsAlone {
    pub inputs: Vec<Value>,
}

impl AbortsAlone {
    pub fn instance(&self) -> DacInstance {
        DacInstance {
            distinguished: Pid(0),
            inputs: self.inputs.clone(),
        }
    }
}

impl Protocol for AbortsAlone {
    /// Steps taken so far.
    type LocalState = u8;
    fn num_processes(&self) -> usize {
        self.inputs.len()
    }
    fn init(&self, _pid: Pid) -> u8 {
        0
    }
    fn pending_op(&self, pid: Pid, steps: &u8) -> (ObjId, Op) {
        match pid.index() {
            0 => (ObjId(0), Op::Propose(int(i64::from(*steps) + 1))),
            q => (ObjId(1), Op::Propose(self.inputs[q])),
        }
    }
    fn on_response(&self, pid: Pid, steps: &u8, resp: Value) -> Step<u8> {
        match (pid.index(), steps) {
            (0, 2) => Step::Abort,
            (0, _) => Step::Continue(steps + 1),
            _ => Step::Decide(resp),
        }
    }
}

/// Processes with equal inputs are interchangeable; pid 0's input differs
/// from the others', so it is alone in its class.
impl Symmetry for AbortsAlone {
    fn pid_classes(&self) -> Vec<u32> {
        classes_by_input(&self.inputs)
    }
}

pub fn set_agreement_protocols(v: &mut impl Visit) {
    let objects = [AnyObject::strong_sa()];
    let i = distinct(4);
    let p = KSetViaStrongSa::new(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 167/244 | holds 167/244";
    v.both("2-SA, k=2", &ex, Check::KSet(2, &i), pins);
    let pins = "violated 167/244 agreement | violated 167/244 agreement";
    v.both("2-SA, k=1", &ex, Check::KSet(1, &i), pins);

    let equal = vec![int(7); 4];
    let p = KSetViaStrongSa::new(equal.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 16/32 | holds 5/10";
    v.both("2-SA, equal inputs", &ex, Check::KSet(2, &equal), pins);

    let objects = [
        AnyObject::consensus(2).unwrap(),
        AnyObject::consensus(2).unwrap(),
    ];
    let p = GroupSplitKSet::new(i.clone(), 2).unwrap();
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 25/40 | holds 25/40";
    v.both("group split, k=2", &ex, Check::KSet(2, &i), pins);
    let pins = "violated 25/40 agreement | violated 25/40 agreement";
    v.both("group split, k=1", &ex, Check::KSet(1, &i), pins);

    let objects = [AnyObject::o_n(2).unwrap(), AnyObject::o_n(2).unwrap()];
    let pairs = vec![int(0), int(0), int(1), int(1)];
    let p = GroupSplitKSet::via_combined(pairs.clone(), 2).unwrap();
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 16/32 | holds 9/18";
    v.both("split over O_2", &ex, Check::KSet(2, &pairs), pins);

    let objects = [AnyObject::o_prime_n(2, 2).unwrap()];
    let p = KSetViaPowerLevel::new(i.clone(), ObjId(0), 2);
    let ex = Explorer::new(&p, &objects);
    let pins = "holds 147/268 | holds 147/268";
    v.both("O'_2 level 2", &ex, Check::KSet(2, &i), pins);
    let i = distinct(5);
    let p = KSetViaPowerLevel::new(i.clone(), ObjId(0), 2);
    let ex = Explorer::new(&p, &objects);
    let pins = "violated 826/1325 validity | violated 826/1325 validity";
    v.both("O'_2 level 2, n=5", &ex, Check::KSet(2, &i), pins);
}

pub fn candidates(v: &mut impl Visit) {
    let objects = [AnyObject::consensus(2).unwrap(), AnyObject::register()];
    let i = vec![int(0), int(1)];
    let p = WaitForWinner::new(i.clone());
    let ex = Explorer::new(&p, &objects);
    v.raw("wait-for-winner", &ex, Check::KSet(1, &i), "holds 13/16");
    let pin = "holds 13/16";
    v.raw("wait-for-winner, wait-free", &ex, Check::WaitFree, pin);

    let i = vec![int(0), int(1), int(1)];
    let p = WaitForWinner::new(i.clone());
    let ex = Explorer::new(&p, &objects);
    let pin = "violated 55/104 non-termination";
    v.raw("wait-for-winner, n=3", &ex, Check::KSet(1, &i), pin);
    v.raw("wait-for-winner, n=3, wait-free", &ex, Check::WaitFree, pin);

    let i = vec![int(1), int(0), int(0)];
    let instance = DacInstance {
        distinguished: Pid(0),
        inputs: i.clone(),
    };
    let p = DacWaitForWinner::new(i.clone(), Pid(0));
    let ex = Explorer::new(&p, &objects);
    let pin = "violated 55/100 solo-non-termination";
    v.raw("DAC wait-for-winner", &ex, Check::Dac(&instance, 12), pin);

    let i = vec![int(0), int(1), int(1)];
    let objects = [AnyObject::strong_sa(), AnyObject::consensus(2).unwrap()];
    let p = SaThenConsensus::new(i.clone());
    let ex = Explorer::new(&p, &objects);
    let pin = "violated 81/181 agreement";
    v.raw("2-SA then consensus", &ex, Check::KSet(1, &i), pin);

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
        v.raw(&label, &ex, Check::Dac(&instance, 60), pin);
    }

    let objects = [AnyObject::pac(4).unwrap()];
    let i = vec![int(1), int(0)];
    let p = PacRetryConsensus::new(i.clone(), ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pin = "violated 15/20 non-termination";
    v.raw("PAC retry, n=2", &ex, Check::KSet(1, &i), pin);
    let p = PacRetryConsensus::new(vec![int(1)], ObjId(0));
    let ex = Explorer::new(&p, &objects);
    let pin = "holds 3/2";
    v.raw("PAC retry, n=1", &ex, Check::KSet(1, &[int(1)]), pin);
}
