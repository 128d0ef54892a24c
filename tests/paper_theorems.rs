//! End-to-end integration tests: every theorem, lemma, and observation of
//! *Life Beyond Set Agreement* that has an executable statement, checked
//! through the public API of the facade crate.

use life_beyond_set_agreement::core::history::{
    check_pac_properties, for_each_op_sequence, is_legal_pac_history, pac_op_alphabet, run_pac,
};
use life_beyond_set_agreement::core::pac::PacSpec;
use life_beyond_set_agreement::core::spec::ObjectSpec;
use life_beyond_set_agreement::core::value::int;
use life_beyond_set_agreement::core::{AnyObject, ObjId, Pid, Value};
use life_beyond_set_agreement::explorer::checker::{DacInstance, Violation};
use life_beyond_set_agreement::explorer::{Explorer, Limits, Outcome};
use life_beyond_set_agreement::hierarchy::certify::{certified_consensus_number, Face};
use life_beyond_set_agreement::hierarchy::power::{
    certify_power_table_o_n, certify_power_table_o_prime,
};
use life_beyond_set_agreement::hierarchy::separation::run_separation;
use life_beyond_set_agreement::protocols::candidates::{
    CandidatePacProcedure, SaThenConsensus, ValAgreement, WaitForWinner,
};
use life_beyond_set_agreement::protocols::consensus_protocols::ConsensusViaObject;
use life_beyond_set_agreement::protocols::dac::{all_binary_inputs, DacFromPac};
use life_beyond_set_agreement::protocols::set_agreement_protocols::GroupSplitKSet;
use life_beyond_set_agreement::runtime::derived::DerivedProtocol;

/// Section 3 / Theorem 3.5: the PAC object's three properties hold on every
/// operation sequence (exhaustive sweep, n = 2).
#[test]
fn section_3_pac_properties_exhaustive() {
    let spec = PacSpec::new(2).unwrap();
    let alphabet = pac_op_alphabet(2, &[int(1), int(2)]);
    let mut sequences = 0usize;
    for_each_op_sequence(&alphabet, 5, |ops| {
        sequences += 1;
        let history = run_pac(&spec, ops).unwrap();
        check_pac_properties(&history)
            .unwrap_or_else(|v| panic!("theorem 3.5 violated on {ops:?}: {v}"));
        // Lemma 3.2 on the full sequence.
        let mut state = spec.initial_state();
        for op in ops {
            spec.apply_deterministic(&mut state, op).unwrap();
        }
        assert_eq!(spec.is_upset(&state), !is_legal_pac_history(ops));
    });
    assert!(sequences > 9000, "sweep unexpectedly small: {sequences}");
}

/// Theorem 4.1: Algorithm 2 solves n-DAC, n = 2 and 3, all binary inputs,
/// all distinguished-process choices.
#[test]
fn theorem_4_1_algorithm_2_solves_dac() {
    for n in [2usize, 3] {
        for inputs in all_binary_inputs(n) {
            for p in 0..n {
                let protocol = DacFromPac::new(inputs.clone(), Pid(p), ObjId(0)).unwrap();
                let objects = vec![AnyObject::pac(n).unwrap()];
                let explorer = Explorer::new(&protocol, &objects);
                let v = explorer
                    .exploration()
                    .check_dac(&protocol.instance(), 6 * n);
                assert!(
                    v.holds(),
                    "{n}-DAC violated (p = {p}, inputs {inputs:?}): {v}"
                );
            }
        }
    }
}

/// Theorem 4.2 (executable form): the candidate (n+1)-consensus/DAC
/// protocols over {n-consensus, registers, 2-SA} are all refuted.
#[test]
fn theorem_4_2_candidates_refuted() {
    let inputs = vec![int(1), int(0), int(0)];

    let p = WaitForWinner::new(inputs.clone());
    let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::register()];
    let ex = Explorer::new(&p, &objects);
    assert!(matches!(
        ex.exploration().check_consensus(&inputs).outcome,
        Outcome::Violated(Violation::NonTermination { .. })
    ));

    let p = SaThenConsensus::new(inputs.clone());
    let objects = vec![AnyObject::strong_sa(), AnyObject::consensus(2).unwrap()];
    let ex = Explorer::new(&p, &objects);
    assert!(matches!(
        ex.exploration().check_consensus(&inputs).outcome,
        Outcome::Violated(Violation::Agreement { .. })
    ));
}

/// Theorem 4.3 (executable form): the candidate (n+1)-PAC implementation
/// from n-consensus + registers is refuted by running Algorithm 2 over it.
#[test]
fn theorem_4_3_candidate_pac_implementation_refuted() {
    let inputs = vec![int(1), int(0), int(0)];
    let inner = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).unwrap();
    let procedure = CandidatePacProcedure::new(3, ValAgreement::ConsensusObject);
    let frontends = vec![CandidatePacProcedure::frontend(
        ObjId(0),
        ObjId(1),
        vec![ObjId(2), ObjId(3), ObjId(4)],
    )];
    let derived = DerivedProtocol::new(&inner, &procedure, frontends);
    let mut objects = vec![AnyObject::consensus(2).unwrap()];
    objects.extend((0..4).map(|_| AnyObject::register()));
    let ex = Explorer::new(&derived, &objects);
    let instance = DacInstance {
        distinguished: Pid(0),
        inputs,
    };
    assert!(ex.exploration().check_dac(&instance, 60).is_violated());
}

/// Theorem 5.3 / Observation 6.2: (n,m)-PAC certifies at level m; O_n at
/// level n; O'_n at level n.
#[test]
fn theorem_5_3_certified_levels() {
    let limits = Limits::default();
    let cases: Vec<(AnyObject, Face, usize)> = vec![
        (AnyObject::combined_pac(5, 2).unwrap(), Face::ProposeC, 2),
        (AnyObject::combined_pac(2, 3).unwrap(), Face::ProposeC, 3),
        (AnyObject::o_n(2).unwrap(), Face::ProposeC, 2),
        (AnyObject::o_n(3).unwrap(), Face::ProposeC, 3),
        (AnyObject::o_prime_n(2, 2).unwrap(), Face::PowerLevel1, 2),
        (AnyObject::o_prime_n(3, 2).unwrap(), Face::PowerLevel1, 3),
    ];
    for (object, face, expected) in cases {
        let cert = certified_consensus_number(&object, face, 5, limits).unwrap();
        assert_eq!(cert.level, expected, "{} misplaced", object.name());
    }
}

/// Section 6: the certified power tables of O_n and O'_n agree, for n = 2
/// and 3.
#[test]
fn corollary_6_6_power_tables_agree() {
    for n in [2usize, 3] {
        let a = certify_power_table_o_n(n, 2, Limits::default()).unwrap();
        let b = certify_power_table_o_prime(n, 2, Limits::default()).unwrap();
        assert_eq!(a, b, "power tables differ at n = {n}");
        assert_eq!(a.n_k(1), Some(n));
        assert_eq!(a.n_k(2), Some(2 * n));
    }
}

/// The full separation pipeline (Corollaries 6.6/6.7) at n = 2.
#[test]
fn corollary_6_6_separation_pipeline() {
    let report = run_separation(2, 2, Limits::default(), 6).unwrap();
    assert!(report.powers_match());
    assert!(report.separation_established());
    assert_eq!(report.refutations.len(), 2);
}

/// The group-split protocol behind the power tables: k-set agreement among
/// k·n processes via k instances of O_n, exhaustively (n = 2, k = 2).
#[test]
fn group_split_over_o_n_certifies_lower_bound() {
    let inputs: Vec<Value> = (0..4).map(int).collect();
    let protocol = GroupSplitKSet::via_combined(inputs.clone(), 2).unwrap();
    let objects = vec![AnyObject::o_n(2).unwrap(), AnyObject::o_n(2).unwrap()];
    let explorer = Explorer::new(&protocol, &objects);
    let v = explorer.exploration().check_k_set_agreement(2, &inputs);
    assert!(v.holds(), "{v}");
    // And the same protocol does NOT achieve consensus.
    assert!(explorer
        .exploration()
        .check_k_set_agreement(1, &inputs)
        .is_violated());
}

/// Footnote 6's consensus object semantics drive the hierarchy: n processes
/// succeed, n+1 fail, across faces.
#[test]
fn consensus_object_budget_consistency_across_faces() {
    for n in [2usize, 3] {
        // Native face.
        let inputs: Vec<Value> = (0..n).map(|i| int(i as i64 % 2)).collect();
        let p = ConsensusViaObject::new(inputs.clone(), ObjId(0));
        let objects = vec![AnyObject::consensus(n).unwrap()];
        let ex = Explorer::new(&p, &objects);
        assert!(ex.exploration().check_consensus(&inputs).holds());

        // The same budget shows through O_n's consensus face.
        let mut more = inputs.clone();
        more.push(int(1));
        let p = ConsensusViaObject::via_propose_c(more.clone(), ObjId(0));
        let objects = vec![AnyObject::o_n(n).unwrap()];
        let ex = Explorer::new(&p, &objects);
        assert!(ex.exploration().check_consensus(&more).is_violated());
    }
}

/// Section 7 / Theorem 7.1 (m = 2, n = 3): the (4,2)-PAC is at level 2 but
/// its PAC face resists implementation from a 3-consensus object (level 3!)
/// plus registers.
#[test]
fn theorem_7_1_qadri_instance() {
    // Level placements.
    let target = AnyObject::combined_pac(4, 2).unwrap();
    let cert = certified_consensus_number(&target, Face::ProposeC, 4, Limits::default()).unwrap();
    assert_eq!(cert.level, 2);
    let base = AnyObject::consensus(3).unwrap();
    let cert = certified_consensus_number(&base, Face::Propose, 4, Limits::default()).unwrap();
    assert_eq!(cert.level, 3);

    // Refute the candidate implementation of the 4-PAC face.
    let inputs = vec![int(1), int(0), int(0), int(0)];
    let inner = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).unwrap();
    let procedure = CandidatePacProcedure::new(4, ValAgreement::ConsensusObject);
    let frontends = vec![CandidatePacProcedure::frontend(
        ObjId(0),
        ObjId(1),
        vec![ObjId(2), ObjId(3), ObjId(4), ObjId(5)],
    )];
    let derived = DerivedProtocol::new(&inner, &procedure, frontends);
    let mut objects = vec![AnyObject::consensus(3).unwrap()];
    objects.extend((0..5).map(|_| AnyObject::register()));
    let ex = Explorer::new(&derived, &objects);
    let instance = DacInstance {
        distinguished: Pid(0),
        inputs,
    };
    assert!(ex
        .exploration()
        .limits(Limits::new(5_000_000))
        .check_dac(&instance, 80)
        .is_violated());
}
