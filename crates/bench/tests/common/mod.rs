//! Test oracle for symmetry reduction: the symmetry group enumerated in
//! full, and the brute-force orbit minimum it defines. The explorer never
//! enumerates the group (it sorts statuses and searches only tie blocks);
//! these tests check it against the enumeration on small instances.

use lbsa_explorer::{ConfigSymmetry, Configuration, Explorer};
use lbsa_runtime::process::Symmetry;
use std::collections::BTreeSet;

/// Every permutation of `0..classes.len()` that maps each pid class onto
/// itself: the direct product, over the classes, of the full symmetric
/// group on that class's positions. The identity is first.
pub fn class_preserving_perms(classes: &[u32]) -> Vec<Vec<usize>> {
    let n = classes.len();
    let mut perms: Vec<Vec<usize>> = vec![(0..n).collect()];
    let mut done: Vec<u32> = Vec::new();
    for &class in classes {
        if done.contains(&class) {
            continue;
        }
        done.push(class);
        let positions: Vec<usize> = (0..n).filter(|&i| classes[i] == class).collect();
        let mut next = Vec::new();
        for base in &perms {
            for arrangement in permutations_of(&positions) {
                let mut perm = base.clone();
                for (&slot, &target) in positions.iter().zip(&arrangement) {
                    perm[slot] = target;
                }
                next.push(perm);
            }
        }
        perms = next;
    }
    perms
}

/// All orderings of `items`, the original order first.
fn permutations_of(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations_of(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// Checks, over the whole raw reachable graph of `explorer`, that
/// canonicalization is an orbit function:
///
/// * for every reachable `C` and every group element `π`,
///   `canon(π · C) == canon(C)`, and the permutation `σ` returned with it
///   satisfies `σ · (π · C) == canon(C)`;
/// * `canon(C)` is the brute-force orbit minimum under the procs-first
///   order (statuses, then object states);
/// * the symmetry-reduced exploration reaches exactly the distinct
///   brute-force orbit minima.
pub fn assert_canon_is_orbit_function<P>(explorer: &Explorer<'_, P>, what: &str)
where
    P: Symmetry,
    P::LocalState: Ord,
{
    let protocol = explorer.protocol();
    let sym = ConfigSymmetry::of(protocol);
    let perms = class_preserving_perms(&protocol.pid_classes());
    assert_eq!(perms.len(), sym.group_order(), "{what}: group order");
    let raw = explorer.exploration().run().expect("raw exploration");
    assert!(raw.complete, "{what}: raw graph must be complete");
    let mut minima: BTreeSet<Configuration<P::LocalState>> = BTreeSet::new();
    for c in &raw.configs {
        let (canon, sigma) = sym.canonicalize_with_perm(c);
        assert_eq!(sym.apply(c, &sigma), canon, "{what}: σ·C != canon(C)");
        let mut least: Option<Configuration<P::LocalState>> = None;
        for perm in &perms {
            let moved = sym.apply(c, perm);
            let (via, sigma) = sym.canonicalize_with_perm(&moved);
            assert_eq!(
                via, canon,
                "{what}: canon(π·C) != canon(C) for π = {perm:?}"
            );
            assert_eq!(
                sym.apply(&moved, &sigma),
                canon,
                "{what}: σ·(π·C) != canon(C)"
            );
            let smaller = match &least {
                Some(l) => (&moved.procs, &moved.object_states) < (&l.procs, &l.object_states),
                None => true,
            };
            if smaller {
                least = Some(moved);
            }
        }
        let least = least.expect("the group has an identity");
        assert_eq!(canon, least, "{what}: canon(C) is not the orbit minimum");
        minima.insert(least);
    }
    let reduced = explorer
        .exploration()
        .symmetric()
        .run()
        .expect("reduced exploration");
    let reached: BTreeSet<_> = reduced.configs.iter().cloned().collect();
    assert_eq!(
        reduced.configs.len(),
        reached.len(),
        "{what}: duplicate orbits"
    );
    assert_eq!(
        reached, minima,
        "{what}: reduced graph != brute-force orbits"
    );
}
