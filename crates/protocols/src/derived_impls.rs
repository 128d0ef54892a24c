//! The paper's object constructions as executable access procedures.
//!
//! * [`CombinedFromComponents`] — an (n,m)-PAC front-end over an n-PAC and
//!   an m-consensus base object: **Observation 5.1(a)**.
//! * [`ComponentsFromCombined`] — n-PAC and m-consensus front-ends over one
//!   (n,m)-PAC base object: **Observations 5.1(b) and 5.1(c)**.
//! * [`PowerFromConsensusAndSa`] — an `O'ₙ` front-end over one `n`-consensus
//!   object (serving level 1, since `n₁ = n`) and one 2-SA object per level
//!   `k >= 2`: **Lemma 6.4**. Note the port discipline: the front-end is
//!   only linearizable against the `O'ₙ` specification while each level `k`
//!   is used by at most `n_k` processes — exactly the usage the paper's
//!   set-agreement-power definition permits. (The 2-SA object itself would
//!   happily serve more, but then it would be implementing something
//!   *stronger* than the `(n_k, k)-SA` component.)
//!
//! All three constructions are *one base step per front-end operation*:
//! plain redirection, exactly as the paper defines them. The interesting
//! direction — that **no** redirection (or anything else) implements `Oₙ`
//! from `O'ₙ` — is the subject of the [`crate::candidates`] refutations.

use lbsa_core::{ObjId, Op, Pid, Value};
use lbsa_runtime::derived::{AccessProcedure, AccessStep, FrontEnd};

/// Observation 5.1(a): (n,m)-PAC implemented from an n-PAC (base 0) and an
/// m-consensus object (base 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombinedFromComponents;

impl CombinedFromComponents {
    /// Creates the procedure.
    #[must_use]
    pub fn new() -> Self {
        CombinedFromComponents
    }

    /// The front-end layout for a single implemented (n,m)-PAC whose base
    /// objects are `pac` and `consensus`.
    #[must_use]
    pub fn frontend(pac: ObjId, consensus: ObjId) -> FrontEnd {
        FrontEnd::Derived {
            base: vec![pac, consensus],
        }
    }
}

impl AccessProcedure for CombinedFromComponents {
    type ProcState = Op;

    fn begin(&self, _pid: Pid, _front: ObjId, op: &Op) -> Op {
        match op {
            Op::ProposeC(_) | Op::ProposeP(..) | Op::DecideP(_) => *op,
            other => panic!("(n,m)-PAC front-end does not support {other}"),
        }
    }

    fn pending(&self, _pid: Pid, state: &Op) -> (usize, Op) {
        match state {
            Op::ProposeC(v) => (1, Op::Propose(*v)),
            Op::ProposeP(v, i) => (0, Op::ProposePac(*v, *i)),
            Op::DecideP(i) => (0, Op::DecidePac(*i)),
            other => unreachable!("begin() admits only combined ops, got {other}"),
        }
    }

    fn resume(&self, _pid: Pid, _state: &Op, response: Value) -> AccessStep<Op> {
        AccessStep::Return(response)
    }
}

/// Observations 5.1(b)/(c): an n-PAC front-end and an m-consensus front-end,
/// both implemented over a single (n,m)-PAC base object (base 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentsFromCombined;

impl ComponentsFromCombined {
    /// Creates the procedure.
    #[must_use]
    pub fn new() -> Self {
        ComponentsFromCombined
    }

    /// Front-end layout for an implemented object backed by the (n,m)-PAC
    /// at `combined`. The same layout serves both the n-PAC face (send PAC
    /// ops) and the m-consensus face (send `Propose`).
    #[must_use]
    pub fn frontend(combined: ObjId) -> FrontEnd {
        FrontEnd::Derived {
            base: vec![combined],
        }
    }
}

impl AccessProcedure for ComponentsFromCombined {
    type ProcState = Op;

    fn begin(&self, _pid: Pid, _front: ObjId, op: &Op) -> Op {
        match op {
            Op::Propose(_) | Op::ProposePac(..) | Op::DecidePac(_) => *op,
            other => panic!("component front-end does not support {other}"),
        }
    }

    fn pending(&self, _pid: Pid, state: &Op) -> (usize, Op) {
        match state {
            // Observation 5.1(c): the m-consensus face.
            Op::Propose(v) => (0, Op::ProposeC(*v)),
            // Observation 5.1(b): the n-PAC face.
            Op::ProposePac(v, i) => (0, Op::ProposeP(*v, *i)),
            Op::DecidePac(i) => (0, Op::DecideP(*i)),
            other => unreachable!("begin() admits only component ops, got {other}"),
        }
    }

    fn resume(&self, _pid: Pid, _state: &Op, response: Value) -> AccessStep<Op> {
        AccessStep::Return(response)
    }
}

/// Lemma 6.4: an `O'ₙ` front-end implemented from an `n`-consensus object
/// (base 0, serving level 1) and one 2-SA object per level `k = 2..=max_k`
/// (base `k - 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerFromConsensusAndSa {
    max_k: usize,
}

impl PowerFromConsensusAndSa {
    /// Creates the procedure for levels `1..=max_k`.
    ///
    /// # Panics
    ///
    /// Panics if `max_k == 0`.
    #[must_use]
    pub fn new(max_k: usize) -> Self {
        assert!(max_k >= 1, "a power object has at least level 1");
        PowerFromConsensusAndSa { max_k }
    }

    /// The materialized depth.
    #[must_use]
    pub fn max_k(&self) -> usize {
        self.max_k
    }

    /// Front-end layout: `bases[0]` must be the n-consensus object,
    /// `bases[k-1]` the 2-SA object for level `k >= 2`.
    #[must_use]
    pub fn frontend(bases: Vec<ObjId>) -> FrontEnd {
        FrontEnd::Derived { base: bases }
    }
}

impl AccessProcedure for PowerFromConsensusAndSa {
    type ProcState = (Value, usize);

    fn begin(&self, _pid: Pid, _front: ObjId, op: &Op) -> (Value, usize) {
        match op {
            Op::ProposeAt(v, k) if *k >= 1 && *k <= self.max_k => (*v, *k),
            other => panic!(
                "O'_n front-end (max_k = {}) does not support {other}",
                self.max_k
            ),
        }
    }

    fn pending(&self, _pid: Pid, state: &(Value, usize)) -> (usize, Op) {
        let (v, k) = *state;
        // Level 1 -> the consensus object; level k >= 2 -> its 2-SA object.
        (k - 1, Op::Propose(v))
    }

    fn resume(
        &self,
        _pid: Pid,
        _state: &(Value, usize),
        response: Value,
    ) -> AccessStep<(Value, usize)> {
        AccessStep::Return(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus_protocols::ConsensusViaObject;
    use crate::set_agreement_protocols::KSetViaPowerLevel;
    use lbsa_core::ids::Label;
    use lbsa_core::value::int;
    use lbsa_core::AnyObject;
    use lbsa_explorer::linearizability::check_linearizable;
    use lbsa_explorer::Explorer;
    use lbsa_runtime::derived::{record_frontend_history, DerivedProtocol};
    use lbsa_runtime::outcome::{FirstOutcome, RandomOutcome};
    use lbsa_runtime::process::{Protocol, Step};
    use lbsa_runtime::scheduler::{RandomScheduler, RoundRobin};
    use lbsa_runtime::system::System;

    #[test]
    fn observation_5_1_a_consensus_face_works_when_derived() {
        // m-consensus through the PROPOSEC face of a DERIVED (n,m)-PAC
        // (built from an n-PAC and an m-consensus object): exhaustive
        // consensus check for m = 2.
        let inner = ConsensusViaObject::via_propose_c(vec![int(0), int(1)], ObjId(0));
        let procedure = CombinedFromComponents::new();
        let frontends = vec![CombinedFromComponents::frontend(ObjId(0), ObjId(1))];
        let derived = DerivedProtocol::new(&inner, &procedure, frontends);
        let objects = vec![AnyObject::pac(3).unwrap(), AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&derived, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        assert!(v.holds(), "derived (3,2)-PAC failed consensus: {v}");
    }

    /// A tiny inner protocol driving PAC ops on front-end object 0: each
    /// process performs PROPOSE(v, label) then DECIDE(label) then halts.
    #[derive(Debug)]
    struct PacPairs {
        inputs: Vec<Value>,
    }

    impl Protocol for PacPairs {
        type LocalState = u8; // 0 = propose, 1 = decide
        fn num_processes(&self) -> usize {
            self.inputs.len()
        }
        fn init(&self, _pid: Pid) -> u8 {
            0
        }
        fn pending_op(&self, pid: Pid, s: &u8) -> (ObjId, Op) {
            let label = Label::new(pid.index() + 1).unwrap();
            match s {
                0 => (ObjId(0), Op::ProposePac(self.inputs[pid.index()], label)),
                _ => (ObjId(0), Op::DecidePac(label)),
            }
        }
        fn on_response(&self, _pid: Pid, s: &u8, resp: Value) -> Step<u8> {
            match s {
                0 => Step::Continue(1),
                _ => Step::Decide(resp),
            }
        }
    }

    #[test]
    fn observation_5_1_b_pac_face_matches_native() {
        // Run the same PAC workload against (i) a native 2-PAC and (ii) the
        // PAC face of a (2,3)-PAC: identical decisions on every interleaving.
        let inner = PacPairs {
            inputs: vec![int(4), int(6)],
        };

        let native_objects = vec![AnyObject::pac(2).unwrap()];
        let native_graph = Explorer::new(&inner, &native_objects)
            .exploration()
            .run()
            .unwrap();

        let procedure = ComponentsFromCombined::new();
        let frontends = vec![ComponentsFromCombined::frontend(ObjId(0))];
        let derived = DerivedProtocol::new(&inner, &procedure, frontends);
        let derived_objects = vec![AnyObject::combined_pac(2, 3).unwrap()];
        let derived_graph = Explorer::new(&derived, &derived_objects)
            .exploration()
            .run()
            .unwrap();

        let outcomes = |g: &lbsa_explorer::ExplorationGraph<_>| -> std::collections::BTreeSet<Vec<Option<Value>>> {
            g.terminal_indices().map(|t| g.configs[t].decisions()).collect()
        };
        // Configuration types differ; compare terminal decision sets.
        let native: std::collections::BTreeSet<Vec<Option<Value>>> = native_graph
            .terminal_indices()
            .map(|t| native_graph.configs[t].decisions())
            .collect();
        assert_eq!(native, outcomes(&derived_graph));
    }

    #[test]
    fn lemma_6_4_derived_power_object_solves_its_levels() {
        // O'_2 implemented from a 2-consensus + 2-SA (Lemma 6.4): level 1
        // solves consensus among 2; level 2 solves 2-set agreement among 4.
        let procedure = PowerFromConsensusAndSa::new(2);

        // Level 1 = consensus among 2.
        let inner = ConsensusViaObject::via_power_level_1(vec![int(0), int(1)], ObjId(0));
        let frontends = vec![PowerFromConsensusAndSa::frontend(vec![ObjId(0), ObjId(1)])];
        let derived = DerivedProtocol::new(&inner, &procedure, frontends.clone());
        let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::strong_sa()];
        let ex = Explorer::new(&derived, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        assert!(v.holds(), "derived O'_2 level 1 failed: {v}");

        // Level 2 = 2-set agreement among 4.
        let inputs: Vec<Value> = (0..4).map(int).collect();
        let inner = KSetViaPowerLevel::new(inputs.clone(), ObjId(0), 2);
        let derived = DerivedProtocol::new(&inner, &procedure, frontends);
        let ex = Explorer::new(&derived, &objects);
        let v = ex.exploration().check_k_set_agreement(2, &inputs);
        assert!(v.holds(), "derived O'_2 level 2 failed: {v}");
    }

    #[test]
    fn derived_combined_pac_is_linearizable_under_random_schedules() {
        // Generate concurrent front-end histories of the derived (2,2)-PAC
        // and check them against the native CombinedPacSpec.
        #[derive(Debug)]
        struct MixedWorkload;
        impl Protocol for MixedWorkload {
            type LocalState = u8;
            fn num_processes(&self) -> usize {
                2
            }
            fn init(&self, _pid: Pid) -> u8 {
                0
            }
            fn pending_op(&self, pid: Pid, s: &u8) -> (ObjId, Op) {
                let label = Label::new(pid.index() + 1).unwrap();
                match (pid.index(), s) {
                    (0, 0) => (ObjId(0), Op::ProposeP(int(3), label)),
                    (0, 1) => (ObjId(0), Op::DecideP(label)),
                    (0, _) => (ObjId(0), Op::ProposeC(int(7))),
                    (_, 0) => (ObjId(0), Op::ProposeC(int(9))),
                    (_, 1) => (ObjId(0), Op::ProposeP(int(5), label)),
                    (_, _) => (ObjId(0), Op::DecideP(label)),
                }
            }
            fn on_response(&self, _pid: Pid, s: &u8, _r: Value) -> Step<u8> {
                if *s >= 2 {
                    Step::Halt
                } else {
                    Step::Continue(s + 1)
                }
            }
        }

        let inner = MixedWorkload;
        let procedure = CombinedFromComponents::new();
        let spec_objects = vec![AnyObject::combined_pac(2, 2).unwrap()];
        for seed in 0..20u64 {
            let frontends = vec![CombinedFromComponents::frontend(ObjId(0), ObjId(1))];
            let derived = DerivedProtocol::new(&inner, &procedure, frontends);
            let objects = vec![AnyObject::pac(2).unwrap(), AnyObject::consensus(2).unwrap()];
            let (history, _) = record_frontend_history(
                &derived,
                &objects,
                &mut RandomScheduler::seeded(seed),
                &mut RandomOutcome::seeded(seed),
                1000,
            )
            .unwrap();
            check_linearizable(&history, &spec_objects).unwrap_or_else(|e| {
                panic!("derived (2,2)-PAC not linearizable (seed {seed}): {e}\n{history:#?}")
            });
        }
    }

    #[test]
    fn derived_power_object_is_linearizable_within_port_budget() {
        // 4 processes use level 2 of the derived O'_2 (n_2 = 4 ports): the
        // recorded history must linearize against PowerObjectSpec.
        let inputs: Vec<Value> = (0..4).map(|i| int(10 + i)).collect();
        let inner = KSetViaPowerLevel::new(inputs, ObjId(0), 2);
        let procedure = PowerFromConsensusAndSa::new(2);
        let spec_objects = vec![AnyObject::o_prime_n(2, 2).unwrap()];
        for seed in 0..20u64 {
            let frontends = vec![PowerFromConsensusAndSa::frontend(vec![ObjId(0), ObjId(1)])];
            let derived = DerivedProtocol::new(&inner, &procedure, frontends);
            let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::strong_sa()];
            let (history, _) = record_frontend_history(
                &derived,
                &objects,
                &mut RandomScheduler::seeded(seed),
                &mut RandomOutcome::seeded(seed ^ 0xABCD),
                1000,
            )
            .unwrap();
            check_linearizable(&history, &spec_objects).unwrap_or_else(|e| {
                panic!("derived O'_2 not linearizable (seed {seed}): {e}\n{history:#?}")
            });
        }
    }

    #[test]
    fn derived_equals_native_for_simple_runs() {
        // Substitution check: the consensus face of the derived (2,2)-PAC
        // gives the same decisions as a native (2,2)-PAC under round-robin.
        let inner = ConsensusViaObject::via_propose_c(vec![int(1), int(2)], ObjId(0));

        let native_objects = vec![AnyObject::combined_pac(2, 2).unwrap()];
        let mut native_sys = System::new(&inner, &native_objects).unwrap();
        native_sys
            .run(&mut RoundRobin::new(), &mut FirstOutcome, 100)
            .unwrap();

        let procedure = CombinedFromComponents::new();
        let frontends = vec![CombinedFromComponents::frontend(ObjId(0), ObjId(1))];
        let derived = DerivedProtocol::new(&inner, &procedure, frontends);
        let derived_objects = vec![AnyObject::pac(2).unwrap(), AnyObject::consensus(2).unwrap()];
        let mut derived_sys = System::new(&derived, &derived_objects).unwrap();
        derived_sys
            .run(&mut RoundRobin::new(), &mut FirstOutcome, 100)
            .unwrap();

        for pid in [Pid(0), Pid(1)] {
            assert_eq!(native_sys.decision(pid), derived_sys.decision(pid));
        }
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn combined_procedure_rejects_foreign_ops() {
        let p = CombinedFromComponents::new();
        let _ = p.begin(Pid(0), ObjId(0), &Op::Read);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn power_procedure_rejects_out_of_range_level() {
        let p = PowerFromConsensusAndSa::new(2);
        let _ = p.begin(Pid(0), ObjId(0), &Op::ProposeAt(int(1), 3));
    }

    #[test]
    fn power_procedure_level_routing() {
        let p = PowerFromConsensusAndSa::new(3);
        assert_eq!(p.max_k(), 3);
        let s = p.begin(Pid(0), ObjId(0), &Op::ProposeAt(int(5), 1));
        assert_eq!(p.pending(Pid(0), &s), (0, Op::Propose(int(5))));
        let s = p.begin(Pid(0), ObjId(0), &Op::ProposeAt(int(5), 3));
        assert_eq!(p.pending(Pid(0), &s), (2, Op::Propose(int(5))));
    }

    /// The paper's DAC-port simulation: uncontended ports decide a common
    /// value; contended ports may abort (⊥) but never disagree. Explored
    /// exhaustively for 3 ports.
    #[derive(Debug)]
    struct DacPortWorkload {
        inputs: Vec<Value>,
    }

    impl Protocol for DacPortWorkload {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            self.inputs.len()
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
            let label = Label::new(pid.index() + 1).unwrap();
            (ObjId(0), Op::ProposePac(self.inputs[pid.index()], label))
        }
        fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
            Step::Decide(resp) // Bot = "abort"
        }
    }

    #[test]
    fn dac_port_simulation_agreement_and_solo_success() {
        use super::DacPortProcedure;
        let inputs: Vec<Value> = vec![int(1), int(2), int(3)];
        let inner = DacPortWorkload {
            inputs: inputs.clone(),
        };
        let procedure = DacPortProcedure::new();
        let derived = DerivedProtocol::new(
            &inner,
            &procedure,
            vec![DacPortProcedure::frontend(ObjId(0))],
        );
        let objects = vec![AnyObject::pac(3).unwrap()];
        let g = Explorer::new(&derived, &objects)
            .exploration()
            .run()
            .unwrap();
        assert!(g.complete);
        let mut aborted_somewhere = false;
        let mut decided_somewhere = false;
        for t in g.terminal_indices() {
            let cfg = &g.configs[t];
            let mut non_bot: Vec<Value> = cfg
                .procs
                .iter()
                .filter_map(|s| s.decision())
                .filter(|v| !v.is_bot())
                .collect();
            non_bot.sort();
            non_bot.dedup();
            assert!(non_bot.len() <= 1, "DAC agreement violated: {non_bot:?}");
            for v in &non_bot {
                assert!(inputs.contains(v), "DAC validity violated: {v}");
                decided_somewhere = true;
            }
            if cfg.procs.iter().any(|s| s.decision() == Some(Value::Bot)) {
                aborted_somewhere = true;
            }
        }
        assert!(decided_somewhere, "some execution must decide");
        assert!(aborted_somewhere, "some contended execution must abort");

        // Uncontended (solo) port operations never abort: run each process
        // alone to completion.
        use lbsa_runtime::scheduler::Solo;
        for (pid, input) in inputs.iter().enumerate() {
            let derived = DerivedProtocol::new(
                &inner,
                &procedure,
                vec![DacPortProcedure::frontend(ObjId(0))],
            );
            let mut sys = System::new(&derived, &objects).unwrap();
            sys.run(&mut Solo::new(Pid(pid)), &mut FirstOutcome, 100)
                .unwrap();
            assert_eq!(
                sys.decision(Pid(pid)),
                Some(*input),
                "a solo DAC port propose must decide its own value"
            );
        }
    }

    #[test]
    #[should_panic(expected = "supports only PROPOSE")]
    fn dac_port_rejects_foreign_ops() {
        use super::DacPortProcedure;
        let p = DacPortProcedure::new();
        let _ = p.begin(Pid(0), ObjId(0), &Op::Read);
    }
}

/// Footnote 3 / Section 3 of the paper: simulating one **port of an n-DAC
/// object** with an n-PAC base object.
///
/// The n-DAC object of Hadzilacos & Toueg is abortable: a propose on port
/// `i` either decides a common value or aborts. The paper's n-PAC object
/// simulates it: *"a process can use these two operations to simulate a
/// PROPOSE(v, i) operation on an n-DAC object by first applying a
/// PROPOSE(v, i) operation and then applying a DECIDE(i) operation with the
/// same label"*. This access procedure is that simulation, verbatim: the
/// front-end operation `ProposePac(v, i)` (read: "propose `v` on DAC port
/// `i`") expands to the PAC pair, and the front-end response is the
/// decide's result — a value, or `⊥` for "abort".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DacPortProcedure;

/// Program counter of one simulated DAC port operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DacPortState {
    /// About to apply `PROPOSE(v, i)` on the PAC base.
    Proposing(Value, lbsa_core::Label),
    /// About to apply `DECIDE(i)` on the PAC base.
    Deciding(lbsa_core::Label),
}

impl DacPortProcedure {
    /// Creates the procedure.
    #[must_use]
    pub fn new() -> Self {
        DacPortProcedure
    }

    /// Front-end layout over the n-PAC base object.
    #[must_use]
    pub fn frontend(pac: ObjId) -> FrontEnd {
        FrontEnd::Derived { base: vec![pac] }
    }
}

impl AccessProcedure for DacPortProcedure {
    type ProcState = DacPortState;

    fn begin(&self, _pid: Pid, _front: ObjId, op: &Op) -> DacPortState {
        match op {
            Op::ProposePac(v, i) => DacPortState::Proposing(*v, *i),
            other => panic!("a DAC port supports only PROPOSE(v, i), got {other}"),
        }
    }

    fn pending(&self, _pid: Pid, state: &DacPortState) -> (usize, Op) {
        match state {
            DacPortState::Proposing(v, i) => (0, Op::ProposePac(*v, *i)),
            DacPortState::Deciding(i) => (0, Op::DecidePac(*i)),
        }
    }

    fn resume(&self, _pid: Pid, state: &DacPortState, response: Value) -> AccessStep<DacPortState> {
        match state {
            DacPortState::Proposing(_, i) => AccessStep::Continue(DacPortState::Deciding(*i)),
            DacPortState::Deciding(_) => AccessStep::Return(response),
        }
    }
}
