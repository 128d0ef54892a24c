//! Symmetry reduction: canonical orbit representatives under pid permutation.
//!
//! Every protocol the paper checks exhaustively — Algorithm 2 for n-DAC, the
//! PAC/strong-SA constructions behind Theorem 6.5 — is symmetric under
//! permutation of (some of) its process ids: processes in one role run the
//! same code on the same inputs, so permuting them maps executions to
//! executions. The explorer can therefore quotient the configuration graph
//! by that group action and search one representative per **orbit** instead
//! of every permuted copy; for a workload whose symmetry group has order
//! `g`, that divides the reachable state space by up to `g`.
//!
//! The groups are products of symmetric groups over the pid classes, so
//! they grow factorially: the committed T2 n = 8 instance has order
//! 7! = 5,040. Nothing here enumerates them.
//!
//! * a protocol opts in by implementing [`lbsa_runtime::process::Symmetry`],
//!   declaring which pids are interchangeable and how pid-derived structure
//!   inside object states permutes (local states are pid-free by contract);
//! * [`ConfigSymmetry::of`] records the pid classes (O(n)) and type-erases
//!   the protocol behind one closure (permute the object states) and one
//!   status comparison, so the exploration engine needs no `Ord` bound on
//!   local states in its own signatures;
//! * [`ConfigSymmetry::canonicalize`] maps a configuration to the minimum of
//!   its orbit under the *procs-first* content order (process statuses,
//!   then object states) — a canonical representative that is stable across
//!   runs and thread counts, unlike anything derived from interned ids;
//! * [`Concretizer`] walks a schedule expressed over the *quotient* graph
//!   and incrementally rebuilds a real (un-permuted) execution, which is how
//!   witnesses extracted from a reduced graph are de-canonicalized before
//!   [`crate::verdict::Witness::confirm`] replays them.
//!
//! # Sort-and-tie canonicalization
//!
//! This is the scalarset normalisation of Murφ (Ip & Dill): because local
//! states are pid-free, `(π · C).procs[π(i)] = C.procs[i]`, so the minimal
//! status vector over the orbit is `C`'s statuses sorted within each pid
//! class — one sort per class, yielding `D = σ₀ · C`. The permutations that
//! keep that vector are exactly those that shuffle *tie blocks* (runs of
//! equal statuses inside a class), so the orbit minimum is the least object
//! state vector over the tie-block orbit of `D`. That orbit is the closure
//! of `D` under adjacent transpositions inside the tie blocks, searched with
//! a seen-set while tracking the permutation. It costs the orbit size times
//! the number of tie transpositions; for the n-PAC state, where only `L`
//! names a pid beyond what the statuses pin down, that is a handful of
//! object-state rewrites rather than the `|G|` of a group enumeration.
//!
//! # Soundness
//!
//! Let `G` be the declared group and write `π · C` for the action of
//! permutation `π` on configuration `C`. The [`Symmetry`] contract is the
//! equivariance law `step(π · C, π(p), o) ≃ π · step(C, p, o)` (equality up
//! to outcome order). It follows by induction that `C` is reachable iff
//! `π · C` is, and that the quotient graph — nodes are orbits, edges are
//! orbits of edges — is reachability- and cycle-equivalent to the full
//! graph. Every checker predicate we evaluate is orbit-invariant: agreement,
//! validity and undecided-terminal predicates only inspect the *multiset* of
//! decisions and statuses, which `π` preserves; predicates naming a specific
//! pid (n-DAC's distinguished process, solo runs) stay invariant because the
//! [`Symmetry`] contract requires distinguished roles to be singleton
//! classes, which every `π ∈ G` fixes. Hence a property holds on the
//! quotient iff it holds on the full graph, and a quotient counterexample
//! concretizes (via [`Concretizer`]) to a real counterexample.
//!
//! Every representative returned is `π · C` for some `π ∈ G` (the sort and
//! each transposition preserve the classes), so distinct orbits never
//! merge; and it is the unique orbit minimum, so each orbit has exactly one
//! representative.

use crate::config::Configuration;
use crate::error::CheckError;
use crate::explore::Explorer;
use lbsa_core::{AnyState, ObjId, Pid};
use lbsa_runtime::process::{ProcStatus, Protocol, Symmetry};
use lbsa_support::hash::FxBuildHasher;
use lbsa_support::obs::Counter;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;

/// A pid permutation: `perm[i]` is the new pid of process `i`.
pub type PidPerm = Vec<usize>;

/// The symmetry group of a concrete protocol instance, type-erased so the
/// exploration engine can canonicalize configurations without knowing the
/// protocol type or requiring `Ord` bounds of its own.
///
/// Built with [`ConfigSymmetry::of`]. The group is never materialized: it is
/// kept as its pid classes.
pub struct ConfigSymmetry<'p, L> {
    /// The positions of every pid class with two or more members, each in
    /// ascending order. Singleton classes are fixed by every group element.
    classes: Vec<Vec<usize>>,
    group_order: usize,
    cmp_status: fn(&ProcStatus<L>, &ProcStatus<L>) -> Ordering,
    /// Rewrites every object state through
    /// [`Symmetry::permute_object_state`] under one permutation.
    #[allow(clippy::type_complexity)]
    permute_objects: Box<dyn Fn(&[AnyState], &[usize]) -> Vec<AnyState> + Sync + 'p>,
    canon_calls: Counter,
    canon_fast: Counter,
    canon_full: Counter,
}

impl<L> fmt::Debug for ConfigSymmetry<'_, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConfigSymmetry")
            .field("classes", &self.classes)
            .field("group_order", &self.group_order)
            .finish_non_exhaustive()
    }
}

impl<'p, L: Clone> ConfigSymmetry<'p, L> {
    /// The symmetry group of `protocol`: all pid permutations preserving its
    /// [`Symmetry::pid_classes`] partition (the direct product of symmetric
    /// groups over the classes), recorded as the classes themselves.
    ///
    /// The `Ord` bound on the local state is consumed *here*, into the
    /// status comparison — callers downstream (the engine, the verdict
    /// layer) work with the erased struct.
    pub fn of<P>(protocol: &'p P) -> Self
    where
        P: Symmetry<LocalState = L>,
        L: Ord,
    {
        let pid_classes = protocol.pid_classes();
        assert_eq!(
            pid_classes.len(),
            protocol.num_processes(),
            "pid_classes() must return one class per process"
        );
        // Positions grouped by class, in first-appearance order.
        let mut classes: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, &c) in pid_classes.iter().enumerate() {
            match classes.iter_mut().find(|(label, _)| *label == c) {
                Some((_, positions)) => positions.push(i),
                None => classes.push((c, vec![i])),
            }
        }
        let classes: Vec<Vec<usize>> = classes
            .into_iter()
            .map(|(_, positions)| positions)
            .filter(|positions| positions.len() > 1)
            .collect();
        let group_order = classes
            .iter()
            .map(|positions| (1..=positions.len()).product::<usize>())
            .product();
        let permute_objects = move |objects: &[AnyState], perm: &[usize]| {
            objects
                .iter()
                .enumerate()
                .map(|(o, s)| protocol.permute_object_state(ObjId(o), s, perm))
                .collect()
        };
        ConfigSymmetry {
            classes,
            group_order,
            cmp_status: Ord::cmp,
            permute_objects: Box::new(permute_objects),
            canon_calls: Counter::new(),
            canon_fast: Counter::new(),
            canon_full: Counter::new(),
        }
    }

    /// Number of group elements: the product of the class-size factorials.
    /// Reduction divides the state space by at most this factor.
    #[must_use]
    pub fn group_order(&self) -> usize {
        self.group_order
    }

    /// `true` if the group is just the identity — canonicalization would be
    /// a no-op, so callers should skip reduction entirely.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.classes.is_empty()
    }

    /// Number of canonicalizations performed through this group so far
    /// (feeds [`crate::ExploreStats::canon_calls`]).
    #[must_use]
    pub fn canon_calls(&self) -> u64 {
        self.canon_calls.get()
    }

    /// Canonicalizations whose input was already canonical: the statuses
    /// were sorted and no tie shuffle lowered the object states (feeds
    /// [`crate::ExploreStats::canon_patches`]).
    #[must_use]
    pub fn canon_fast_hits(&self) -> u64 {
        self.canon_fast.get()
    }

    /// Canonicalizations whose input was *not* canonical, so the returned
    /// representative is a different member of its orbit (feeds
    /// [`crate::ExploreStats::canon_full`]).
    #[must_use]
    pub fn canon_full_calls(&self) -> u64 {
        self.canon_full.get()
    }

    /// Applies one group element to a configuration: process `i`'s status
    /// moves to slot `perm[i]` and every object state is rewritten through
    /// [`Symmetry::permute_object_state`].
    #[must_use]
    pub fn apply(&self, config: &Configuration<L>, perm: &[usize]) -> Configuration<L> {
        let mut procs = config.procs.clone();
        for (i, status) in config.procs.iter().enumerate() {
            procs[perm[i]] = status.clone();
        }
        Configuration {
            object_states: (self.permute_objects)(&config.object_states, perm),
            procs,
        }
    }

    /// The canonical representative of `config`'s orbit: the minimum of
    /// `{π · config : π ∈ G}` under the procs-first content order.
    #[must_use]
    pub fn canonicalize(&self, config: &Configuration<L>) -> Configuration<L> {
        self.canonicalize_with_perm(config).0
    }

    /// The same function as [`Self::canonicalize`], under the name the
    /// `ttvbench` per-layer replay calls.
    #[must_use]
    pub fn canonicalize_incremental(&self, config: &Configuration<L>) -> Configuration<L> {
        self.canonicalize(config)
    }

    /// Canonicalizes and also returns the permutation `σ` that realizes it:
    /// `σ · config == canonical`. When several group elements yield the
    /// minimum (the configuration has a nontrivial stabilizer), the one the
    /// deterministic sort and breadth-first tie search reach first wins.
    #[must_use]
    pub fn canonicalize_with_perm(&self, config: &Configuration<L>) -> (Configuration<L>, PidPerm) {
        self.canon_calls.bump();
        let n = config.procs.len();
        // Sort each class's statuses into its positions. The sort is stable,
        // so equal statuses keep their pid order and an already-sorted
        // class yields the identity.
        let mut sigma: PidPerm = (0..n).collect();
        let mut order: Vec<usize> = Vec::new();
        for positions in &self.classes {
            order.clone_from(positions);
            order.sort_by(|&a, &b| (self.cmp_status)(&config.procs[a], &config.procs[b]));
            for (&slot, &pid) in positions.iter().zip(&order) {
                sigma[pid] = slot;
            }
        }
        let sorted_already = sigma.iter().enumerate().all(|(i, &v)| i == v);
        let sorted = if sorted_already {
            config.clone()
        } else {
            self.apply(config, &sigma)
        };
        // Adjacent transpositions inside the tie blocks generate every
        // permutation that keeps the sorted status vector.
        let ties: Vec<(usize, usize)> = self
            .classes
            .iter()
            .flat_map(|positions| positions.windows(2))
            .filter(|w| (self.cmp_status)(&sorted.procs[w[0]], &sorted.procs[w[1]]).is_eq())
            .map(|w| (w[0], w[1]))
            .collect();
        let (canonical, tau) = self.tie_min(sorted, &ties);
        if sorted_already && tau.is_none() {
            self.canon_fast.bump();
        } else {
            self.canon_full.bump();
        }
        if let Some(tau) = tau {
            for v in &mut sigma {
                *v = tau[*v];
            }
        }
        (canonical, sigma)
    }

    /// The least member, by object states, of the orbit of `sorted` under
    /// the permutations generated by `ties`, with the permutation `τ` that
    /// reaches it from `sorted` (`None` when `sorted` itself is least).
    /// Breadth-first closure under the generators with a seen-set; every
    /// member shares `sorted`'s status vector, so only object states move.
    fn tie_min(
        &self,
        sorted: Configuration<L>,
        ties: &[(usize, usize)],
    ) -> (Configuration<L>, Option<PidPerm>) {
        if ties.is_empty() {
            return (sorted, None);
        }
        let n = sorted.procs.len();
        let Configuration {
            object_states,
            procs,
        } = sorted;
        let mut seen: HashSet<Vec<AnyState>, FxBuildHasher> = HashSet::default();
        seen.insert(object_states.clone());
        let mut orbit: Vec<(Vec<AnyState>, PidPerm)> = vec![(object_states, (0..n).collect())];
        let mut swap: PidPerm = (0..n).collect();
        let mut best = 0;
        let mut next = 0;
        while next < orbit.len() {
            for &(a, b) in ties {
                swap.swap(a, b);
                let objects = (self.permute_objects)(&orbit[next].0, &swap);
                if !seen.contains(&objects) {
                    let tau = orbit[next].1.iter().map(|&v| swap[v]).collect();
                    seen.insert(objects.clone());
                    if objects < orbit[best].0 {
                        best = orbit.len();
                    }
                    orbit.push((objects, tau));
                }
                swap.swap(a, b);
            }
            next += 1;
        }
        let (object_states, tau) = orbit.swap_remove(best);
        let config = Configuration {
            object_states,
            procs,
        };
        (config, (best != 0).then_some(tau))
    }
}

/// Incremental de-canonicalization: walks a schedule expressed over the
/// **quotient** graph (whose nodes are canonical representatives) and
/// rebuilds a real execution of the protocol, step by step.
///
/// The walker maintains a real configuration `R`, its canonical form `Q`,
/// and the permutation `σ` with `σ · R == Q`. Feeding it a quotient step
/// `(p, o)` — "process `p` takes outcome `o` *in the quotient*" — it:
///
/// 1. translates the pid: the real process is `σ⁻¹(p)`;
/// 2. computes the quotient target `Q' = canon(successors(Q, p)[o])`;
/// 3. finds the real outcome `j` with `canon(successors(R, σ⁻¹(p))[j]) ==
///    Q'`, which exists by equivariance. Successors are matched by
///    *canonical content*, never by outcome index, because outcome order
///    need not be equivariant (e.g. an object state holding a sorted set).
///
/// The real schedule it emits replays through [`crate::explore::Explorer`]
/// on the raw (unreduced) system, which is exactly what
/// [`crate::verdict::Witness::confirm`] does.
pub struct Concretizer<'e, 'a, 'p, P: Protocol> {
    explorer: &'e Explorer<'a, P>,
    sym: &'e ConfigSymmetry<'p, P::LocalState>,
    real: Configuration<P::LocalState>,
    quotient: Configuration<P::LocalState>,
    sigma: PidPerm,
    steps_taken: usize,
}

impl<'e, 'a, 'p, P: Protocol> Concretizer<'e, 'a, 'p, P> {
    /// Starts a walk at the protocol's initial configuration.
    #[must_use]
    pub fn new(explorer: &'e Explorer<'a, P>, sym: &'e ConfigSymmetry<'p, P::LocalState>) -> Self {
        let real = explorer.initial_config();
        let (quotient, sigma) = sym.canonicalize_with_perm(&real);
        Concretizer {
            explorer,
            sym,
            real,
            quotient,
            sigma,
            steps_taken: 0,
        }
    }

    /// The current real configuration `R`.
    #[must_use]
    pub fn real(&self) -> &Configuration<P::LocalState> {
        &self.real
    }

    /// The current canonical representative `Q = σ · R`.
    #[must_use]
    pub fn quotient(&self) -> &Configuration<P::LocalState> {
        &self.quotient
    }

    /// Maps a quotient-side pid to the real process it denotes: `σ⁻¹(p)`.
    #[must_use]
    pub fn real_pid(&self, quotient_pid: Pid) -> Pid {
        Pid(self
            .sigma
            .iter()
            .position(|&v| v == quotient_pid.index())
            .expect("sigma is a bijection on 0..n"))
    }

    /// Advances by one quotient step and returns the real `(pid, outcome)`
    /// that realizes it.
    ///
    /// # Errors
    ///
    /// Propagates step errors, and returns [`CheckError::WitnessDiverged`]
    /// if no real outcome lands in the demanded orbit — which would mean the
    /// protocol's [`Symmetry`] declaration violates the equivariance law.
    pub fn advance(&mut self, pid: Pid, outcome: usize) -> Result<(Pid, usize), CheckError> {
        let quot_next = self.explorer.step(&self.quotient, pid, outcome)?.config;
        let target = self.sym.canonicalize(&quot_next);

        let real_pid = self.real_pid(pid);
        let real_succs = self.explorer.successors_of(&self.real, real_pid)?;
        let (j, real_next) = real_succs
            .into_iter()
            .enumerate()
            .find(|(_, s)| self.sym.canonicalize(s) == target)
            .ok_or_else(|| CheckError::WitnessDiverged {
                step: self.steps_taken,
                reason: format!(
                    "no outcome of p{} reaches the demanded orbit: the protocol's \
                     Symmetry declaration breaks equivariance",
                    real_pid.index()
                ),
            })?;
        self.real = real_next;
        let (q, sigma) = self.sym.canonicalize_with_perm(&self.real);
        self.quotient = q;
        self.sigma = sigma;
        self.steps_taken += 1;
        Ok((real_pid, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::{AnyObject, Op, Value};
    use lbsa_runtime::process::Step;

    /// A toy symmetric protocol: every process writes its (identical) input
    /// to a shared register, reads it back, and decides what it read.
    #[derive(Debug)]
    struct WriteRead {
        n: usize,
        inputs: Vec<i64>,
    }

    impl Protocol for WriteRead {
        type LocalState = u8; // 0 = about to write, 1 = about to read

        fn num_processes(&self) -> usize {
            self.n
        }
        fn init(&self, _pid: Pid) -> u8 {
            0
        }
        fn pending_op(&self, pid: Pid, state: &u8) -> (ObjId, Op) {
            match state {
                0 => (ObjId(0), Op::Write(Value::Int(self.inputs[pid.index()]))),
                _ => (ObjId(0), Op::Read),
            }
        }
        fn on_response(&self, _pid: Pid, state: &u8, response: Value) -> Step<u8> {
            match state {
                0 => Step::Continue(1),
                _ => Step::Decide(response),
            }
        }
    }

    impl Symmetry for WriteRead {
        fn pid_classes(&self) -> Vec<u32> {
            // Processes with equal inputs are interchangeable.
            self.inputs
                .iter()
                .map(|&v| u32::try_from(v).unwrap())
                .collect()
        }
    }

    #[test]
    fn group_order_is_the_product_of_class_factorials() {
        let p = WriteRead {
            n: 4,
            inputs: vec![0, 0, 0, 0],
        };
        let sym = ConfigSymmetry::of(&p);
        assert_eq!(sym.group_order(), 24); // S_4
        assert!(!sym.is_trivial());

        let p = WriteRead {
            n: 4,
            inputs: vec![0, 1, 0, 1],
        };
        let sym = ConfigSymmetry::of(&p);
        assert_eq!(sym.group_order(), 4); // S_2 × S_2

        let p = WriteRead {
            n: 3,
            inputs: vec![0, 1, 2],
        };
        let sym = ConfigSymmetry::of(&p);
        assert_eq!(sym.group_order(), 1);
        assert!(sym.is_trivial());

        // S_1 × S_7: the group is counted, never built.
        let p = WriteRead {
            n: 8,
            inputs: vec![1, 0, 0, 0, 0, 0, 0, 0],
        };
        assert_eq!(ConfigSymmetry::of(&p).group_order(), 5_040);
    }

    #[test]
    fn statuses_sort_within_their_class_only() {
        // Classes {0, 2} and {1, 3} interleave.
        let p = WriteRead {
            n: 4,
            inputs: vec![0, 1, 0, 1],
        };
        let objects = vec![AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let sym = ConfigSymmetry::of(&p);
        // p0 writes: its status (1) now sorts after p2's (0).
        let c = ex.step(&ex.initial_config(), Pid(0), 0).unwrap().config;
        let (canon, sigma) = sym.canonicalize_with_perm(&c);
        assert_eq!(sigma, vec![2, 1, 0, 3]);
        assert_eq!(sym.apply(&c, &sigma), canon);
        let statuses: Vec<_> = canon.procs.iter().map(|s| *s.local().unwrap()).collect();
        assert_eq!(statuses, vec![0, 0, 1, 0]);
        // p1 steps too: class {1, 3} sorts independently of class {0, 2}.
        let c = ex.step(&c, Pid(1), 0).unwrap().config;
        let canon = sym.canonicalize(&c);
        let statuses: Vec<_> = canon.procs.iter().map(|s| *s.local().unwrap()).collect();
        assert_eq!(statuses, vec![0, 0, 1, 1]);
    }

    #[test]
    fn canonical_forms_agree_across_an_orbit() {
        let p = WriteRead {
            n: 3,
            inputs: vec![0, 0, 0],
        };
        let objects = vec![AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let sym = ConfigSymmetry::of(&p);
        let c = ex.initial_config();
        // Step p0 twice to break symmetry, then check that permuted copies
        // canonicalize to the same representative.
        let c = ex.step(&c, Pid(0), 0).unwrap().config;
        let c = ex.step(&c, Pid(0), 0).unwrap().config;
        let canon = sym.canonicalize(&c);
        for perm in [[0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]] {
            let moved = sym.apply(&c, &perm);
            let (via_moved, sigma) = sym.canonicalize_with_perm(&moved);
            assert_eq!(via_moved, canon);
            assert_eq!(sym.apply(&moved, &sigma), canon);
        }
        // The canonical form is a member of its own orbit and idempotent.
        assert_eq!(sym.canonicalize(&canon), canon);
        assert_eq!(sym.canon_calls(), 7);
    }

    #[test]
    fn incremental_fast_path_confirms_canonical_forms() {
        let p = WriteRead {
            n: 3,
            inputs: vec![0, 0, 0],
        };
        let objects = vec![AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let sym = ConfigSymmetry::of(&p);
        let c = ex.step(&ex.initial_config(), Pid(1), 0).unwrap().config;
        let canon = sym.canonicalize(&c);
        assert_ne!(canon, c);
        assert_eq!((sym.canon_fast_hits(), sym.canon_full_calls()), (0, 1));
        assert_eq!(sym.canonicalize_incremental(&canon), canon);
        assert_eq!((sym.canon_fast_hits(), sym.canon_full_calls()), (1, 1));
        assert_eq!(sym.canon_calls(), 2);
    }

    #[test]
    fn concretizer_realizes_quotient_schedules() {
        let p = WriteRead {
            n: 3,
            inputs: vec![0, 0, 0],
        };
        let objects = vec![AnyObject::register()];
        let ex = Explorer::new(&p, &objects);
        let sym = ConfigSymmetry::of(&p);

        // Drive the quotient to termination, always stepping its first
        // enabled pid (canonicalization may relocate processes after every
        // step, so a quotient schedule must be read off the quotient).
        let mut walker = Concretizer::new(&ex, &sym);
        let mut real = ex.initial_config();
        while !walker.quotient().is_terminal() {
            let qpid = walker.quotient().enabled_pids()[0];
            let (rpid, routcome) = walker.advance(qpid, 0).unwrap();
            real = ex.step(&real, rpid, routcome).unwrap().config;
            // The walker's real configuration replays consistently.
            assert_eq!(&real, walker.real());
            // And its quotient is exactly the canonicalized real config.
            assert_eq!(walker.quotient(), &sym.canonicalize(&real));
        }
        assert!(real.all_decided());
    }
}
