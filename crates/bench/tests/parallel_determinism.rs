//! Parallel determinism: the deterministic frontier must build
//! **byte-identical** execution graphs whatever thread count is requested —
//! node indices, edge order, truncation behaviour, everything. That engine
//! is single-threaded and ignores `threads`, so these tests guard that the
//! knob never leaks into it. They pin the contract on the real experiment
//! workloads (Algorithm 2), on an intentionally cyclic protocol, and on
//! randomized small protocols.
//!
//! The work-stealing frontier ([`Frontier::WorkStealing`]) deliberately
//! trades byte-identity for throughput: node indices follow discovery
//! order, which is scheduling-dependent. Its contract is **verdict
//! equality** — the same state space (up to re-indexing), the same stats
//! aggregates, and the same verdict for every checked property, at every
//! thread count. The `ws_*` tests at the bottom pin that contract on the
//! T2 workload (a property that holds) and on a broken consensus protocol
//! (a property that is violated, where the witness must still confirm by
//! deterministic replay even though the graph it was extracted from is
//! indexed differently); the randomized test checks it on random protocols
//! at a random thread count.

mod common;

use common::assert_canon_is_orbit_function;
use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use lbsa_explorer::checker::Violation;
use lbsa_explorer::verdict::Outcome;
use lbsa_explorer::{ExplorationGraph, Explorer, Frontier, Limits};
use lbsa_protocols::dac::DacFromPac;
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::process::{Protocol, Step, Symmetry};
use lbsa_support::check::run_cases;
use lbsa_support::rng::SmallRng;

/// Field-by-field graph equality with a readable failure message.
/// (`ExplorationGraph` deliberately does not implement `PartialEq`; graphs
/// from different explorations are not meant to be compared in production
/// code.)
fn assert_same_graph<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
    a: &ExplorationGraph<L>,
    b: &ExplorationGraph<L>,
    what: &str,
) {
    assert_eq!(a.configs, b.configs, "{what}: configurations differ");
    assert_eq!(a.edges, b.edges, "{what}: edges differ");
    assert_eq!(a.expanded, b.expanded, "{what}: expanded flags differ");
    assert_eq!(a.complete, b.complete, "{what}: completeness differs");
    assert_eq!(
        a.transitions, b.transitions,
        "{what}: transition counts differ"
    );
}

fn explore_with_threads<P: Protocol>(
    explorer: &Explorer<'_, P>,
    limits: Limits,
    threads: usize,
) -> ExplorationGraph<P::LocalState> {
    let g = explorer
        .exploration()
        .limits(limits)
        .threads(threads)
        .run()
        .expect("exploration succeeds");
    assert_eq!(
        g.stats.threads, 1,
        "the deterministic engine is single-threaded"
    );
    g
}

fn mixed_binary_inputs(count: usize) -> Vec<Value> {
    (0..count).map(|i| Value::Int((i % 2) as i64)).collect()
}

#[test]
fn t2_dac_graphs_are_thread_count_independent() {
    for n in [2usize, 3] {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).unwrap();
        let objects = vec![AnyObject::pac(n).unwrap()];
        let explorer = Explorer::new(&p, &objects);
        let sequential = explore_with_threads(&explorer, Limits::default(), 1);
        assert!(sequential.complete);
        for threads in [2usize, 3, 8] {
            let parallel = explore_with_threads(&explorer, Limits::default(), threads);
            assert_same_graph(
                &sequential,
                &parallel,
                &format!("T2 n={n}, {threads} threads"),
            );
        }
    }
}

#[test]
fn t2_dac_truncated_graphs_are_thread_count_independent() {
    let p = DacFromPac::new(mixed_binary_inputs(3), Pid(0), ObjId(0)).unwrap();
    let objects = vec![AnyObject::pac(3).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    for budget in [1usize, 7, 40] {
        let sequential = explore_with_threads(&explorer, Limits::new(budget), 1);
        assert!(!sequential.complete || budget >= 40);
        for threads in [2usize, 4] {
            let parallel = explore_with_threads(&explorer, Limits::new(budget), threads);
            assert_same_graph(
                &sequential,
                &parallel,
                &format!("T2 n=3 truncated to {budget}, {threads} threads"),
            );
        }
    }
}

/// One process proposing to a 2-SA object forever: the graph is a cycle, so
/// the frontier never drains by termination — only by deduplication.
#[derive(Debug)]
struct ForeverProposer;

impl Protocol for ForeverProposer {
    type LocalState = ();

    fn num_processes(&self) -> usize {
        1
    }

    fn init(&self, _pid: Pid) {}

    fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
        (ObjId(0), Op::Propose(Value::Int(1)))
    }

    fn on_response(&self, _pid: Pid, _s: &(), _resp: Value) -> Step<()> {
        Step::Continue(())
    }
}

#[test]
fn cyclic_graphs_are_thread_count_independent() {
    let p = ForeverProposer;
    let objects = vec![AnyObject::strong_sa()];
    let explorer = Explorer::new(&p, &objects);
    let sequential = explore_with_threads(&explorer, Limits::default(), 1);
    assert!(
        sequential.complete,
        "finite state space despite the infinite execution"
    );
    assert!(sequential.has_cycle());
    for threads in [2usize, 5] {
        let parallel = explore_with_threads(&explorer, Limits::default(), threads);
        assert_same_graph(
            &sequential,
            &parallel,
            &format!("cyclic, {threads} threads"),
        );
    }
}

/// What a [`ScriptedProtocol`] process does with the response it got, as a
/// function of its current phase.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ScriptEntry {
    /// Decide a scripted constant.
    Decide(i64),
    /// Decide whatever the object responded.
    DecideResponse,
    /// Advance to the next phase (wrapping — cycles are intended).
    Continue,
}

/// A randomly generated protocol: each process walks a small cyclic phase
/// script, proposing scripted values and deciding per its script. Pure by
/// construction, so it satisfies the determinism contract the engine
/// relies on, while exercising cycles, asymmetric processes, and (on
/// nondeterministic objects) multi-outcome branching.
#[derive(Debug)]
struct ScriptedProtocol {
    phases: usize,
    /// `script[pid][phase]`.
    script: Vec<Vec<ScriptEntry>>,
    /// `proposal[pid][phase]`.
    proposal: Vec<Vec<i64>>,
}

impl ScriptedProtocol {
    fn random(rng: &mut SmallRng, n: usize, phases: usize) -> Self {
        let script = (0..n)
            .map(|_| {
                (0..phases)
                    .map(|_| match rng.random_range(0..4) {
                        0 => ScriptEntry::Decide(rng.i64_range(0..3)),
                        1 => ScriptEntry::DecideResponse,
                        _ => ScriptEntry::Continue,
                    })
                    .collect()
            })
            .collect();
        let proposal = (0..n)
            .map(|_| (0..phases).map(|_| rng.i64_range(0..3)).collect())
            .collect();
        ScriptedProtocol {
            phases,
            script,
            proposal,
        }
    }
}

impl Protocol for ScriptedProtocol {
    type LocalState = u8;

    fn num_processes(&self) -> usize {
        self.script.len()
    }

    fn init(&self, _pid: Pid) -> u8 {
        0
    }

    fn pending_op(&self, pid: Pid, phase: &u8) -> (ObjId, Op) {
        (
            ObjId(0),
            Op::Propose(Value::Int(self.proposal[pid.index()][*phase as usize])),
        )
    }

    fn on_response(&self, pid: Pid, phase: &u8, resp: Value) -> Step<u8> {
        match &self.script[pid.index()][*phase as usize] {
            ScriptEntry::Decide(v) => Step::Decide(Value::Int(*v)),
            ScriptEntry::DecideResponse => Step::Decide(resp),
            ScriptEntry::Continue => Step::Continue(((*phase as usize + 1) % self.phases) as u8),
        }
    }
}

/// Runs the work-stealing frontier with an explicit worker count.
fn explore_ws<P: Protocol>(
    explorer: &Explorer<'_, P>,
    threads: usize,
) -> ExplorationGraph<P::LocalState> {
    explorer
        .exploration()
        .frontier(Frontier::WorkStealing)
        .threads(threads)
        .run()
        .expect("exploration succeeds")
}

/// The stats aggregates that must agree between the deterministic and the
/// work-stealing engines: everything that describes the state space rather
/// than the schedule that discovered it.
fn assert_same_aggregates<L>(det: &ExplorationGraph<L>, ws: &ExplorationGraph<L>, what: &str) {
    assert_eq!(
        det.configs.len(),
        ws.configs.len(),
        "{what}: config counts differ"
    );
    assert_eq!(
        det.transitions, ws.transitions,
        "{what}: transition counts differ"
    );
    assert_eq!(det.complete, ws.complete, "{what}: completeness differs");
    assert_eq!(
        det.stats.dedup_hits, ws.stats.dedup_hits,
        "{what}: dedup hits differ"
    );
    assert_eq!(
        ws.stats.local_hits + ws.stats.steals,
        ws.configs.len() as u64,
        "{what}: every config is either popped locally or stolen"
    );
}

#[test]
fn ws_dac_verdicts_match_deterministic_across_thread_counts() {
    for n in [2usize, 3, 4] {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).unwrap();
        let objects = vec![AnyObject::pac(n).unwrap()];
        let explorer = Explorer::new(&p, &objects);
        let solo_bound = 6 * n;
        let det = explore_with_threads(&explorer, Limits::default(), 1);
        let det_verdict = explorer
            .exploration()
            .threads(1)
            .check_dac(&p.instance(), solo_bound);
        assert!(
            matches!(det_verdict.outcome, Outcome::Holds),
            "T2 n={n} must satisfy DAC: {det_verdict}"
        );
        for threads in [1usize, 2, 4, 8] {
            let ws = explore_ws(&explorer, threads);
            assert_same_aggregates(&det, &ws, &format!("T2 n={n}, ws {threads} threads"));
            let ws_verdict = explorer
                .exploration()
                .frontier(Frontier::WorkStealing)
                .threads(threads)
                .check_dac(&p.instance(), solo_bound);
            assert_eq!(
                det_verdict, ws_verdict,
                "T2 n={n}: verdict differs on the work-stealing graph ({threads} threads)"
            );
        }
    }
}

/// Consensus with a broken adopt rule: a loser decides its own input, so
/// Agreement is violated — the work-stealing graph must yield the same
/// violated verdict, and its witness (extracted from a differently-indexed
/// graph) must still confirm by deterministic replay.
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
            Step::Decide(own)
        }
    }
}

#[test]
fn ws_broken_consensus_verdicts_match_deterministic_across_thread_counts() {
    let inputs = vec![int(0), int(1), int(2)];
    let p = BrokenAdoptConsensus {
        inputs: inputs.clone(),
    };
    let objects = vec![AnyObject::consensus(3).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    let det = explore_with_threads(&explorer, Limits::default(), 1);
    let det_verdict = explorer.exploration().threads(1).check_consensus(&inputs);
    assert!(
        det_verdict.is_violated(),
        "the broken protocol must violate agreement: {det_verdict}"
    );
    for threads in [1usize, 2, 4, 8] {
        let ws = explore_ws(&explorer, threads);
        assert_same_aggregates(
            &det,
            &ws,
            &format!("broken consensus, ws {threads} threads"),
        );
        let ws_verdict = explorer
            .exploration()
            .frontier(Frontier::WorkStealing)
            .threads(threads)
            .check_consensus(&inputs);
        // The *kind* of verdict must agree; the specific violating
        // configuration a check reports first is indexing-dependent, so the
        // payload is pinned through witness replay instead.
        assert!(
            matches!(
                ws_verdict.outcome,
                Outcome::Violated(Violation::Agreement { .. })
            ),
            "broken consensus: outcome differs on the work-stealing graph \
             ({threads} threads): {ws_verdict}"
        );
        let witness = ws_verdict.witness.as_ref().expect("witness extracted");
        witness
            .confirm(&explorer)
            .expect("work-stealing witness must confirm by replay");
    }
}

/// Fully symmetric race: every process proposes the same value, so the
/// process-permutation group is all of `S_n` and symmetry reduction
/// collapses the graph hard — the harshest setting for the work-stealing
/// engine's canon-memo + batched-index path.
#[derive(Debug)]
struct SymmetricRace {
    n: usize,
}

impl Protocol for SymmetricRace {
    type LocalState = ();
    fn num_processes(&self) -> usize {
        self.n
    }
    fn init(&self, _pid: Pid) {}
    fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
        (ObjId(0), Op::Propose(int(7)))
    }
    fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
        Step::Decide(resp)
    }
}

impl Symmetry for SymmetricRace {
    fn pid_classes(&self) -> Vec<u32> {
        vec![0; self.n]
    }
}

/// The race's canonicalization is an orbit function, checked against the
/// enumerated group (see `common`).
#[test]
fn symmetric_race_canonicalization_is_an_orbit_function() {
    for n in 2..=5usize {
        let p = SymmetricRace { n };
        let objects = vec![AnyObject::consensus(n).unwrap()];
        let explorer = Explorer::new(&p, &objects);
        assert_canon_is_orbit_function(&explorer, &format!("symmetric race n={n}"));
    }
}

#[test]
fn ws_symmetric_reduction_matches_deterministic_across_thread_counts() {
    let p = SymmetricRace { n: 4 };
    let objects = vec![AnyObject::consensus(4).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    let inputs = vec![int(7)];
    let det = explorer
        .exploration()
        .symmetric()
        .threads(1)
        .run()
        .expect("deterministic reduced exploration succeeds");
    assert!(det.stats.reduced);
    let det_verdict = explorer
        .exploration()
        .symmetric()
        .threads(1)
        .check_consensus(&inputs);
    assert!(
        matches!(det_verdict.outcome, Outcome::Holds),
        "the symmetric race satisfies consensus: {det_verdict}"
    );
    for threads in [1usize, 2, 4, 8] {
        let ws = explorer
            .exploration()
            .symmetric()
            .threads(threads)
            .frontier(Frontier::WorkStealing)
            .run()
            .expect("work-stealing reduced exploration succeeds");
        assert!(ws.stats.reduced);
        assert_same_aggregates(&det, &ws, &format!("symmetric race, ws {threads} threads"));
        // The canonicalization effort is accounted identically: every
        // transition either patched a cached canonical form or recomputed
        // one in full.
        assert_eq!(
            ws.stats.canon_patches + ws.stats.canon_full,
            ws.stats.transitions as u64,
            "symmetric race ({threads} threads): canon accounting leaks"
        );
        let ws_verdict = explorer
            .exploration()
            .symmetric()
            .threads(threads)
            .frontier(Frontier::WorkStealing)
            .check_consensus(&inputs);
        assert_eq!(
            det_verdict, ws_verdict,
            "symmetric race: verdict differs on the work-stealing graph ({threads} threads)"
        );
    }
}

/// A symmetric protocol with a bug: every process proposes to the one
/// consensus object, then issues its next operation on an object the
/// table does not have.
#[derive(Debug)]
struct StrayProposer {
    n: usize,
}

impl Protocol for StrayProposer {
    type LocalState = u8;
    fn num_processes(&self) -> usize {
        self.n
    }
    fn init(&self, _pid: Pid) -> u8 {
        0
    }
    fn pending_op(&self, _pid: Pid, round: &u8) -> (ObjId, Op) {
        let obj = if *round == 0 { ObjId(0) } else { ObjId(7) };
        (obj, Op::Propose(int(7)))
    }
    fn on_response(&self, _pid: Pid, _round: &u8, _resp: Value) -> Step<u8> {
        Step::Continue(1)
    }
}

impl Symmetry for StrayProposer {
    fn pid_classes(&self) -> Vec<u32> {
        vec![0; self.n]
    }
}

/// A step error met mid-exploration comes back from `run()` as the
/// kernel's error on both engines, raw and reduced, at every worker count
/// (0 is auto: `LBSA_EXPLORE_THREADS` when set), with no panic and no hang.
#[test]
fn step_errors_mid_exploration_are_returned_by_every_engine() {
    let p = StrayProposer { n: 3 };
    let objects = vec![AnyObject::consensus(3).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    let expected = RuntimeError::ObjIdOutOfRange {
        obj: ObjId(7),
        len: 1,
    };
    for symmetric in [false, true] {
        let run = |frontier: Frontier, threads: usize| {
            let exploration = explorer.exploration().frontier(frontier).threads(threads);
            if symmetric {
                exploration.symmetric().run()
            } else {
                exploration.run()
            }
            .err()
        };
        let what = if symmetric { "reduced" } else { "raw" };
        assert_eq!(
            run(Frontier::Deterministic, 1),
            Some(expected.clone()),
            "level-sync, {what}"
        );
        for threads in [0usize, 1, 2, 4] {
            assert_eq!(
                run(Frontier::WorkStealing, threads),
                Some(expected.clone()),
                "work stealing at {threads} threads, {what}"
            );
        }
    }
}

#[test]
fn random_small_protocols_are_thread_count_independent() {
    run_cases("parallel determinism on random protocols", 40, |rng| {
        let n = rng.random_range(1..4);
        let phases = rng.random_range(1..4);
        let p = ScriptedProtocol::random(rng, n, phases);
        let objects = vec![if rng.ratio(1, 2) {
            AnyObject::consensus(n).unwrap()
        } else {
            AnyObject::strong_sa()
        }];
        let explorer = Explorer::new(&p, &objects);
        // Mix complete and truncated explorations.
        let limits = if rng.ratio(1, 3) {
            Limits::new(rng.random_range(1..30))
        } else {
            Limits::default()
        };
        let sequential = explore_with_threads(&explorer, limits, 1);
        let threads = rng.random_range(2..7);
        let what = format!("random protocol n={n} phases={phases} threads={threads}");
        let parallel = explore_with_threads(&explorer, limits, threads);
        assert_same_graph(&sequential, &parallel, &what);
        // Work stealing cuts truncated runs at a scheduling-dependent
        // boundary, so it is compared on complete runs only.
        if !sequential.complete {
            return;
        }
        let ws = explore_ws(&explorer, threads);
        assert_same_aggregates(&sequential, &ws, &format!("{what}, ws"));
        let k = rng.random_range(1..3);
        let valid = [int(0), int(1), int(2)];
        let det_verdict = explorer
            .exploration()
            .limits(limits)
            .threads(1)
            .check_k_set_agreement(k, &valid);
        let ws_verdict = explorer
            .exploration()
            .frontier(Frontier::WorkStealing)
            .threads(threads)
            .check_k_set_agreement(k, &valid);
        if det_verdict.is_violated() {
            // Which violation a check reports first depends on indexing;
            // the witness must still confirm by replay.
            assert!(ws_verdict.is_violated(), "{what}: ws verdict {ws_verdict}");
            ws_verdict
                .witness
                .as_ref()
                .expect("witness extracted")
                .confirm(&explorer)
                .expect("work-stealing witness must confirm by replay");
        } else {
            assert_eq!(det_verdict, ws_verdict, "{what}: verdict differs under ws");
        }
    });
}

/// Two rounds of (3,2)-set agreement: each process proposes its input to
/// object 0, proposes what it got back to object 1, and decides that
/// response. Both objects branch, so edges with outcome indices above 0
/// occur on both levels.
#[derive(Debug)]
struct TwoRoundSetAgreement {
    inputs: Vec<Value>,
}

impl Protocol for TwoRoundSetAgreement {
    /// `None` before the first proposal, then the value carried into the
    /// second.
    type LocalState = Option<Value>;
    fn num_processes(&self) -> usize {
        self.inputs.len()
    }
    fn init(&self, _pid: Pid) -> Option<Value> {
        None
    }
    fn pending_op(&self, pid: Pid, carried: &Option<Value>) -> (ObjId, Op) {
        match carried {
            None => (ObjId(0), Op::Propose(self.inputs[pid.index()])),
            Some(v) => (ObjId(1), Op::Propose(*v)),
        }
    }
    fn on_response(&self, _pid: Pid, carried: &Option<Value>, resp: Value) -> Step<Option<Value>> {
        match carried {
            None => Step::Continue(Some(resp)),
            Some(_) => Step::Decide(resp),
        }
    }
}

/// The concrete system, `Explorer::step` and `Explorer::successors_of`
/// all step through one kernel, and both engines memoize its results: on a
/// protocol over branching objects, all three must land on the graph's
/// memoized edge target at every step of every BFS-tree path, and the
/// explorer's two must do so on every edge of both engines' graphs.
#[test]
fn every_step_path_agrees_with_the_memoized_graph() {
    use lbsa_explorer::explore::Edge;
    use lbsa_runtime::outcome::ScriptedOutcome;
    use lbsa_runtime::system::System;
    use std::collections::VecDeque;

    let p = TwoRoundSetAgreement {
        inputs: vec![int(0), int(1), int(2)],
    };
    let objects = vec![
        AnyObject::set_agreement(3, 2).unwrap(),
        AnyObject::set_agreement(3, 2).unwrap(),
    ];
    let explorer = Explorer::new(&p, &objects);
    let deterministic = explorer.exploration().run().expect("exploration succeeds");
    for (what, graph) in [
        ("deterministic", deterministic),
        ("ws", explore_ws(&explorer, 2)),
    ] {
        assert!(graph.complete, "{what}");
        assert!(
            graph.edges.iter().flatten().any(|e| e.outcome > 0),
            "{what}: the set-agreement objects must branch"
        );
        // Every edge, and the BFS tree: the edge that first reached each
        // node.
        let mut parent: Vec<Option<(usize, Edge)>> = vec![None; graph.len()];
        let mut seen = vec![false; graph.len()];
        seen[0] = true;
        let mut queue = VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            let c = &graph.configs[u];
            for e in &graph.edges[u] {
                let target = &graph.configs[e.target];
                let stepped = explorer.step(c, e.pid, e.outcome).expect("edge steps");
                assert_eq!(&stepped.config, target, "{what}: step along {e:?}");
                let succs = explorer.successors_of(c, e.pid).expect("edge steps");
                assert_eq!(&succs[e.outcome], target, "{what}: successor {e:?}");
                if !seen[e.target] {
                    seen[e.target] = true;
                    parent[e.target] = Some((u, *e));
                    queue.push_back(e.target);
                }
            }
        }
        for node in 0..graph.len() {
            let mut path = Vec::new();
            let mut v = node;
            while let Some((u, e)) = parent[v] {
                path.push(e);
                v = u;
            }
            path.reverse();
            let mut sys = System::new(&p, &objects).unwrap();
            let mut c = explorer.initial_config();
            for e in &path {
                let target = &graph.configs[e.target];
                sys.step_pid(e.pid, &mut ScriptedOutcome::new([e.outcome]))
                    .expect("system steps");
                assert_eq!(sys.object_states(), target.object_states.as_slice());
                assert_eq!(sys.statuses(), target.procs.as_slice());
                let last = sys.trace().iter().last().expect("step recorded");
                assert_eq!((last.pid, last.outcome), (e.pid, e.outcome));
                let by_succ = explorer
                    .successors_of(&c, e.pid)
                    .expect("path steps")
                    .swap_remove(e.outcome);
                assert_eq!(&by_succ, target, "{what}: successor on path to {node}");
                c = explorer
                    .step(&c, e.pid, e.outcome)
                    .expect("path steps")
                    .config;
                assert_eq!(&c, target, "{what}: step on path to {node}");
            }
        }
    }
}
