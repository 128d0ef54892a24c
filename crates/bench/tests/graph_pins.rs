//! The graph `Exploration::run` returns, pinned bit for bit.
//!
//! The engines keep nodes as interned key rows and edges as a compressed
//! adjacency array, and `run()` builds the public `ExplorationGraph` from
//! them once, at the end. These pins hold that graph to exactly what the
//! engines produced when they still built one `Configuration` per node:
//! the deterministic frontier's `structural_digest()` (configurations,
//! indices, edge order, expansion set) and, for work stealing, a digest
//! of the graph's index-free content (sorted configurations and sorted
//! labelled edges), on k-set agreement over strong 2-SA at n = 4 and 6 and
//! on Algorithm 2 (n-DAC from PAC(4)), each raw and symmetry-reduced.

use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::{ExplorationGraph, Explorer, Frontier};
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::KSetViaStrongSa;
use lbsa_runtime::process::Symmetry;
use lbsa_support::hash::FxHasher;
use std::hash::{Hash, Hasher};

/// A digest of `g`'s content independent of node numbering: the sorted
/// configurations, then the sorted `(source, pid, outcome, target)` edges
/// with both endpoints written as configurations.
fn content_digest<L: Clone + Ord + Hash>(g: &ExplorationGraph<L>) -> u64 {
    let mut nodes = g.configs.clone();
    nodes.sort();
    let mut edges: Vec<_> = g
        .edges
        .iter()
        .enumerate()
        .flat_map(|(src, es)| {
            es.iter().map(move |e| {
                (
                    &g.configs[src],
                    e.pid.index(),
                    e.outcome,
                    &g.configs[e.target],
                )
            })
        })
        .collect();
    edges.sort();
    let mut h = FxHasher::default();
    nodes.hash(&mut h);
    edges.hash(&mut h);
    g.complete.hash(&mut h);
    h.finish()
}

/// `(deterministic structural digest, work-stealing content digest)` of
/// `ex`'s graph, raw or symmetry-reduced, after checking that the two
/// frontiers agree on content.
fn digests<P>(ex: &Explorer<'_, P>, symmetric: bool) -> (u64, u64)
where
    P: Symmetry,
    P::LocalState: Ord,
{
    let build = || {
        let b = ex.exploration();
        if symmetric {
            b.symmetric()
        } else {
            b
        }
    };
    let det = build().run().expect("explorable");
    assert!(det.complete);
    let ws = build()
        .frontier(Frontier::WorkStealing)
        .threads(2)
        .run()
        .expect("explorable");
    assert_eq!(content_digest(&det), content_digest(&ws));
    (det.structural_digest(), content_digest(&ws))
}

/// Asserts the raw and symmetry-reduced digests of `ex`'s graph against
/// `pins`: `[raw structural, raw content, reduced structural, reduced
/// content]`.
fn assert_digests<P>(what: &str, ex: &Explorer<'_, P>, pins: [u64; 4])
where
    P: Symmetry,
    P::LocalState: Ord,
{
    let (raw, raw_ws) = digests(ex, false);
    let (sym, sym_ws) = digests(ex, true);
    let seen = [raw, raw_ws, sym, sym_ws];
    assert_eq!(seen, pins, "{what}: {seen:#x?}");
}

#[test]
fn k_set_agreement_graphs_are_pinned() {
    let objects = [AnyObject::strong_sa()];
    for (n, pins) in [
        (
            4,
            [
                0x2eb4_4171_f218_79d8,
                0x7b18_68b7_b409_0ce7,
                0x2eb4_4171_f218_79d8,
                0x7b18_68b7_b409_0ce7,
            ],
        ),
        (
            6,
            [
                0xd4eb_26f0_e8e0_b0a1,
                0x4535_d1ea_a440_338c,
                0xd4eb_26f0_e8e0_b0a1,
                0x4535_d1ea_a440_338c,
            ],
        ),
    ] {
        let inputs = (0..n).map(int).collect();
        let p = KSetViaStrongSa::new(inputs, ObjId(0));
        let ex = Explorer::new(&p, &objects);
        assert_digests(&format!("k-set n={n}"), &ex, pins);
    }
    // Distinct inputs leave every pid in its own class, so the reduced
    // graph is the raw one; equal inputs make the group S_4.
    let p = KSetViaStrongSa::new(vec![int(7); 4], ObjId(0));
    let ex = Explorer::new(&p, &objects);
    assert_digests(
        "k-set n=4, equal inputs",
        &ex,
        [
            0x5355_0a76_2d70_b119,
            0x1a75_8d64_6c3f_1a8e,
            0x8102_7494_0c82_0a50,
            0x4826_5184_6bf6_9401,
        ],
    );
}

#[test]
fn dac_graphs_are_pinned() {
    let objects = [AnyObject::pac(4).expect("PAC(4)")];
    let p =
        DacFromPac::new(vec![int(1), int(0), int(0), int(0)], Pid(0), ObjId(0)).expect("n >= 2");
    let ex = Explorer::new(&p, &objects);
    assert_digests(
        "T2 DAC n=4",
        &ex,
        [
            0xce26_97e9_727d_f90a,
            0x7b56_c287_44fb_fc16,
            0x9edd_49b9_98ed_5068,
            0x0fb5_877b_e859_fe80,
        ],
    );
}
